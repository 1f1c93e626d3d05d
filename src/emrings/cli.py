"""Batch front end: build rings, run deciders, emit text or JSON reports.

Exit codes: 0 = a verdict was computed (whatever it is), 1 = usage or input
error, 2 = internal invariant failure (including theorem-suite failures,
which indicate artifact bugs).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Optional

from .analysis import (
    PropertyReport,
    find_annihilating_content,
    is_armendariz,
    is_armendariz_g_graded,
    is_bezout_g_graded,
    is_em_g_graded,
    is_em_ring,
)
from .construct import DEFAULT_MAX_ORDER, OrderCapError, build_spec
from .grading import (
    Grading,
    GradingError,
    check_t2_hypotheses,
    check_t8_condition,
    check_t10_condition,
    grading_for_spec,
    is_crossed_product,
)
from .poly import Polynomial, poly_str, poly_var
from .presets import PRESETS, build_preset, preset_corpus, preset_names
from .rings import (
    FiniteRing,
    InternalInvariantError,
    idempotents,
    units,
    validate_ring,
    zero_divisors,
)
from .theorems import suite_failures, theorem_suite

PROPERTIES = [
    "em",
    "em-graded",
    "armendariz",
    "armendariz-graded",
    "bezout-graded",
    "crossed-product",
    "grading-valid",
    "t2-hypotheses",
    "t8-condition",
    "t10-condition",
]


class UsageError(ValueError):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits 2 on a bad command line; here 2 means an internal
    invariant failure, so usage errors exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _resolve_ring(arg: str, max_order: int) -> tuple[FiniteRing, Optional[str]]:
    """Ring from 'preset:NAME', a bare preset name, or a JSON file path."""
    if arg.startswith("preset:"):
        arg = arg[len("preset:") :]
    if arg in PRESETS:
        ring, _ = build_preset(arg)
        return ring, arg
    path = Path(arg)
    if not path.exists():
        raise UsageError(f"unknown preset or missing file: {arg!r}")
    doc = json.loads(path.read_text())
    if not isinstance(doc, dict):
        raise UsageError(f"{arg}: a ring file holds a JSON object "
                         "(a ring table or construction document)")
    if "kind" in doc:
        ring = build_spec(doc, max_order=max_order)
        validate_ring(ring)
        return ring, None
    if isinstance(doc.get("add"), list) and len(doc["add"]) > max_order:
        raise OrderCapError(len(doc["add"]), max_order)
    return FiniteRing.from_dict(doc), None


def _resolve_grading(ring: FiniteRing, preset: Optional[str], arg: Optional[str]) -> Grading:
    if arg is None or arg == "canonical":
        if preset is not None:
            return build_preset(preset)[1]
        return grading_for_spec(ring, "canonical")
    if arg == "trivial":
        return grading_for_spec(ring, "trivial")
    path = Path(arg)
    if not path.exists():
        raise UsageError(f"grading must be 'canonical', 'trivial', or a file: {arg!r}")
    return grading_for_spec(ring, json.loads(path.read_text()))


def _normalize_label(text: str) -> str:
    return text.replace(" ", "")


def parse_poly_literal(ring: FiniteRing, text: str) -> Polynomial:
    """Coefficient list '[c0,c1,...]' or a label expression like '2+Y*x',
    written in the variable that :func:`~emrings.poly.poly_str` prints over
    ``ring`` (``poly_var``: x, or t over z4-xn-3, whose labels use x).

    Compound coefficient labels containing '+' only parse as a whole-string
    constant; use the list syntax for them inside larger expressions.
    """
    text = text.strip()
    if text.startswith("["):
        coeffs = json.loads(text)
        if not all(isinstance(c, int) and 0 <= c < ring.order for c in coeffs):
            raise UsageError("coefficient ids must be integers below the ring order")
        return Polynomial(ring, tuple(coeffs))
    if ring.labels is None:
        raise UsageError("ring has no labels; use the [c0,c1,...] syntax")
    by_label = {_normalize_label(lbl): i for i, lbl in enumerate(ring.labels)}
    flat = _normalize_label(text)
    if flat in by_label:
        return Polynomial(ring, (by_label[flat],))
    var = poly_var(ring)
    coeffs: dict[int, int] = {}
    for term in flat.split("+"):
        if not term:
            raise UsageError(f"empty term in polynomial literal {text!r}")
        label, power = term, 0
        if "*" in term:
            label, xpart = term.split("*", 1)
            power = _parse_power(xpart, var, text)
        elif term == var or term.startswith(var + "^"):
            label, power = "1", _parse_power(term, var, text)
        if label not in by_label:
            raise UsageError(f"unknown element label {label!r} in {text!r}")
        cid = by_label[label]
        coeffs[power] = ring.add(coeffs.get(power, ring.zero), cid)
    out = [ring.zero] * (max(coeffs) + 1)
    for p, c in coeffs.items():
        out[p] = c
    return Polynomial(ring, tuple(out))


def _parse_power(xpart: str, var: str, text: str) -> int:
    exponent = xpart[len(var) + 1 :]
    if xpart == var:
        return 1
    if xpart.startswith(var + "^") and exponent.isdigit():
        return int(exponent)
    raise UsageError(f"bad power {xpart!r} in polynomial literal {text!r}")


# -- property adapters ----------------------------------------------------------


def _wrap_bool(name: str, value: bool, witness: Optional[dict], millis: float) -> PropertyReport:
    return PropertyReport(name, "true" if value else "false", witness, {}, millis)


def run_property(
    name: str,
    ring: FiniteRing,
    grading: Optional[Grading],
    max_degree: int,
) -> PropertyReport:
    def need_grading() -> Grading:
        if grading is None:
            raise UsageError(f"property {name!r} needs a grading")
        return grading

    t0 = time.perf_counter()
    if name == "em":
        return is_em_ring(ring)
    if name == "em-graded":
        return is_em_g_graded(ring, need_grading())
    if name == "armendariz":
        return is_armendariz(ring, max_degree)
    if name == "armendariz-graded":
        return is_armendariz_g_graded(ring, need_grading(), max_degree)
    if name == "bezout-graded":
        return is_bezout_g_graded(ring, need_grading(), 2)
    if name == "crossed-product":
        ok, wit = is_crossed_product(need_grading())
        witness = {str(list(k)): v for k, v in wit.items()}
        return _wrap_bool(name, ok, witness, (time.perf_counter() - t0) * 1000)
    if name == "t2-hypotheses":
        ok, wit = check_t2_hypotheses(need_grading())
        witness = {str(list(k)): v for k, v in wit.items()}
        return _wrap_bool(name, ok, witness, (time.perf_counter() - t0) * 1000)
    if name == "t8-condition":
        ok = check_t8_condition(need_grading())
        return _wrap_bool(name, ok, None, (time.perf_counter() - t0) * 1000)
    if name == "t10-condition":
        ok, wit = check_t10_condition(need_grading())
        witness = {ring.label(a): b for a, b in wit.items()} if not ok else None
        return _wrap_bool(name, ok, witness, (time.perf_counter() - t0) * 1000)
    raise UsageError(f"unknown property {name!r}")


def _grading_valid(ring: FiniteRing, preset: Optional[str], arg: Optional[str]) -> PropertyReport:
    """Does the grading argument resolve to a valid grading of ``ring``?  A
    broken axiom is verdict false with the violated clause; a document of
    the wrong shape stays an input error."""
    t0 = time.perf_counter()
    try:
        _resolve_grading(ring, preset, arg)
        witness = None
    except GradingError as err:
        if err.clause == "malformed-document":
            raise
        witness = {"clause": err.clause, "detail": str(err)}
    return _wrap_bool("grading-valid", witness is None, witness, (time.perf_counter() - t0) * 1000)


# -- output ----------------------------------------------------------------------


def _emit_report(report: PropertyReport, fmt: str, timing: bool) -> None:
    if fmt == "json":
        print(json.dumps(report.to_dict(timing=timing), indent=2, sort_keys=True))
        return
    line = f"{report.property}: {report.verdict}"
    if report.bounds:
        line += f"  bounds={report.bounds}"
    if timing:
        line += f"  ({report.millis:.0f} ms)"
    print(line)
    if report.witness is not None:
        print(f"  witness: {report.witness}")


def describe_ring(ring: FiniteRing, grading: Optional[Grading], preset: Optional[str]) -> dict:
    doc = {
        "preset": preset,
        "order": ring.order,
        "zero": ring.zero,
        "one": ring.one,
        "construction": ring.provenance,
        "zero_divisor_count": len(zero_divisors(ring)),
        "unit_count": len(units(ring)),
        "idempotent_count": len(idempotents(ring)),
    }
    if ring.order <= 32:
        doc["zero_divisors"] = zero_divisors(ring).tolist()
        doc["idempotents"] = idempotents(ring).tolist()
        if ring.labels is not None:
            doc["labels"] = list(ring.labels)
    if grading is not None:
        doc["grading"] = {
            "moduli": list(grading.group.moduli),
            "support": [
                {"degree": list(k), "size": len(grading.support[k])}
                for k in grading.support_keys
            ],
        }
    return doc


# -- entry point -------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = _ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["text", "json"], default="text")
    common.add_argument("--no-timing", action="store_true",
                        help="omit elapsed milliseconds from reports (stable output)")
    on_ring = _ArgumentParser(add_help=False, parents=[common])
    on_ring.add_argument("--ring", required=True)
    on_ring.add_argument("--grading", default=None)
    on_ring.add_argument("--max-order", type=int, default=DEFAULT_MAX_ORDER,
                         help="largest ring order constructions may materialize")

    parser = _ArgumentParser(
        prog="emrings",
        description="Deciders with witness certificates for EM and EM-graded "
        "properties of finite commutative rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-presets", help="list shipped presets", parents=[common])
    sub.add_parser("describe", help="summarize a ring (and its grading)", parents=[on_ring])

    p = sub.add_parser("check", help="decide a property", parents=[on_ring])
    p.add_argument("--property", required=True, choices=PROPERTIES)
    p.add_argument("--max-degree", type=int, default=3,
                   help="degree bound of --property armendariz/armendariz-graded")

    p = sub.add_parser("find-content", help="search an annihilating content", parents=[on_ring])
    p.add_argument("--poly", required=True)
    p.add_argument("--report-homogeneous-content", action="store_true",
                   help="also search for a homogeneous annihilating content")

    p = sub.add_parser("suite", help="run the theorem catalog over a corpus", parents=[common])
    p.add_argument("--corpus", default=None, help="comma-separated preset names (default: all)")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    timing = not args.no_timing
    try:
        if args.command == "list-presets":
            for name in preset_names():
                print(f"{name:18s} {PRESETS[name].description}")
            return 0

        if args.command == "describe":
            ring, preset = _resolve_ring(args.ring, args.max_order)
            grading = _resolve_grading(ring, preset, args.grading)
            doc = describe_ring(ring, grading, preset)
            if args.format == "json":
                print(json.dumps(doc, indent=2, sort_keys=True))
            else:
                for key, value in doc.items():
                    print(f"{key}: {value}")
            return 0

        if args.command == "check":
            ring, preset = _resolve_ring(args.ring, args.max_order)
            if args.property == "grading-valid":
                report = _grading_valid(ring, preset, args.grading)
            else:
                grading = None
                if args.property not in ("em", "armendariz"):
                    grading = _resolve_grading(ring, preset, args.grading)
                report = run_property(args.property, ring, grading, args.max_degree)
            _emit_report(report, args.format, timing)
            return 0

        if args.command == "find-content":
            ring, preset = _resolve_ring(args.ring, args.max_order)
            f = parse_poly_literal(ring, args.poly)
            grading = None
            if args.report_homogeneous_content:
                grading = _resolve_grading(ring, preset, args.grading)
            try:
                witness = find_annihilating_content(f, grading)
            except ValueError as err:
                raise UsageError(str(err)) from err
            exhausted = len(zero_divisors(ring)) - 1
            if args.format == "json":
                doc = {
                    "poly": [int(c) for c in f.coeffs],
                    "poly_str": poly_str(f),
                    "witness": None if witness is None else witness.to_dict(),
                }
                if witness is None:
                    doc["certificate"] = {"candidates_exhausted": exhausted}
                print(json.dumps(doc, indent=2, sort_keys=True))
            else:
                if witness is None:
                    print(f"{poly_str(f)}: no annihilating content "
                          f"(all {exhausted} nonzero zero divisors exhausted)")
                else:
                    print(f"{poly_str(f)}: content c = {ring.label(witness.c)}, "
                          f"cofactor g = {poly_str(witness.g)}")
                    if witness.homogeneous_c is not None:
                        print(f"  homogeneous content: {ring.label(witness.homogeneous_c)}")
                    elif args.report_homogeneous_content:
                        print("  no homogeneous content exists")
            return 0

        if args.command == "suite":
            names = args.corpus.split(",") if args.corpus else None
            entries = preset_corpus(names)
            reports = theorem_suite(entries)
            if args.format == "json":
                print(json.dumps(
                    [r.to_dict(timing=timing) for r in reports], indent=2, sort_keys=True
                ))
            else:
                for r in reports:
                    _emit_report(r, "text", timing)
            failures = suite_failures(reports)
            if failures:
                print(f"SUITE FAILURES: {len(failures)}", file=sys.stderr)
                return 2
            if args.format == "text":
                print(f"suite: {len(reports)} rows, zero failures")
            return 0

        raise UsageError(f"unknown command {args.command!r}")
    except (UsageError, KeyError, OSError, json.JSONDecodeError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except InternalInvariantError as err:
        print(f"internal invariant failure: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
