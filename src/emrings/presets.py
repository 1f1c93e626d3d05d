"""Shipped ring presets: the corpus the CLI and the theorem suite run on.

Each preset names a construction document, the grading to pair with it, and
the catalog anchor it reproduces (see the README's theorem catalog).  Builds
are cached per process; every preset passes ring and grading validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .construct import DEFAULT_MAX_ORDER, build_spec
from .grading import Grading, grading_for_spec
from .rings import FiniteRing, validate_ring
from .theorems import CorpusEntry


@dataclass(frozen=True)
class Preset:
    name: str
    description: str
    spec: dict
    grading: Union[str, dict] = "canonical"
    max_order: int = DEFAULT_MAX_ORDER


_CYCLIC = lambda n: {"kind": "cyclic", "n": n}

PRESETS: dict[str, Preset] = {
    p.name: p
    for p in [
        Preset("z2", "cyclic ring Z_2 (field), trivial grading", _CYCLIC(2)),
        Preset("z3", "cyclic ring Z_3 (field), trivial grading", _CYCLIC(3)),
        Preset("z4", "cyclic ring Z_4, trivial grading", _CYCLIC(4)),
        Preset("z5", "cyclic ring Z_5 (field), trivial grading", _CYCLIC(5)),
        Preset("z6", "cyclic ring Z_6, trivial grading", _CYCLIC(6)),
        Preset(
            "e1",
            "Z4[Y]/(Y^2) with its Z2-grading; catalog example E1 "
            "(EM-graded but not an EM-ring)",
            {"kind": "polyQuotientXn", "base": _CYCLIC(4), "n": 2, "var": "Y"},
        ),
        Preset(
            "e1-idealization",
            "Z4(+)Z4 with the idealization Z2-grading; catalog C7 companion of E1",
            {"kind": "idealization", "base": _CYCLIC(4)},
        ),
        Preset(
            "e2-trunc-d1",
            "Z6[x,y]/(xy) truncated at total degree 1, ZxZ multidegree grading; "
            "catalog example E2 (truncated)",
            {"kind": "monomialQuotient", "m": 6, "v": 2, "relations": [[1, 1]], "d": 1},
        ),
        Preset(
            "e2-trunc-d2",
            "Z6[x,y]/(xy) truncated at total degree 2, ZxZ multidegree grading; "
            "catalog example E2 (truncated)",
            {"kind": "monomialQuotient", "m": 6, "v": 2, "relations": [[1, 1]], "d": 2},
            max_order=8192,
        ),
        Preset(
            "z4-xn-3",
            "Z4[x]/(x^3) with the Z3-grading H_k = Z4 x^k; catalog C6 at n = 3",
            {"kind": "polyQuotientXn", "base": _CYCLIC(4), "n": 3},
        ),
        Preset(
            "z4-groupring-z2",
            "group ring Z4[Z_2] with the grading H_g = Z4 g; catalog C66",
            {"kind": "groupRing", "base": _CYCLIC(4), "group": [2]},
        ),
        Preset(
            "prod-e1sm",
            "(Z2(+)Z2) x (Z2(+)Z2) with the componentwise Z2-grading; "
            "catalog T6 product example",
            {
                "kind": "product",
                "factors": [
                    {"kind": "idealization", "base": _CYCLIC(2)},
                    {"kind": "idealization", "base": _CYCLIC(2)},
                ],
            },
        ),
    ]
}

_BUILD_CACHE: dict[str, tuple[FiniteRing, Grading]] = {}


def preset_names() -> list[str]:
    return list(PRESETS.keys())


def build_preset(name: str) -> tuple[FiniteRing, Grading]:
    """Materialize (and cache) a preset's ring and grading, both validated."""
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; see list-presets")
    if name not in _BUILD_CACHE:
        preset = PRESETS[name]
        ring = build_spec(preset.spec, max_order=preset.max_order)
        validate_ring(ring)
        grading = grading_for_spec(ring, preset.grading)
        _BUILD_CACHE[name] = (ring, grading)
    return _BUILD_CACHE[name]


def preset_corpus(names: list[str] | None = None) -> list[CorpusEntry]:
    picked = names if names is not None else preset_names()
    entries = []
    for name in picked:
        ring, grading = build_preset(name)
        entries.append(CorpusEntry(name=name, ring=ring, grading=grading))
    return entries
