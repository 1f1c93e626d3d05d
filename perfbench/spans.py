"""In-memory span tracer for the emrings benchmark.

The tracer wraps a fixed list of public library functions.  A module that did
``from .rings import annihilator_mask`` holds its own reference to the
function, so patching ``emrings.rings`` alone would miss its calls: the
tracer replaces the function in every loaded ``emrings`` module that binds
it, and ``disable`` puts every original back.

Each call becomes a span ``(id, function, start_ns, end_ns, parent, phase)``
kept in a list and written out once the run ends.  Parents follow a
thread-local stack; work that ``first_hit`` hands to its thread pool is
parented to the ``first_hit`` span that submitted it.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

# module -> functions wrapped.  The order is the order of the report.
TRACED = {
    "construct": ["build_spec", "localization", "poly_quotient_xn"],
    "rings": ["validate_ring", "ideal_generated", "additive_span", "annihilator_mask"],
    "grading": ["validate_grading", "localization_grading", "is_graded_ideal"],
    "poly": ["content_is_graded", "kronecker_flatten"],
    "analysis": [
        "find_annihilating_content",
        "is_armendariz_g_graded",
        "is_bezout_g_graded",
        "is_em_subset",
        "is_em_g_graded",
        "verify_t5",
        "verify_t7_bounded",
        "check_regular_embedding",
        "first_hit",
    ],
    "theorems": ["theorem_suite"],
}
PACKAGE = "emrings"
MODULES = list(TRACED)
FUNCTIONS = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


class Tracer:
    """Patches the traced functions on ``enable`` and records spans."""

    def __init__(self):
        self.originals = {
            name: getattr(sys.modules[f"{PACKAGE}.{name.split('.')[0]}"], name.split(".")[1])
            for name in FUNCTIONS
        }
        self.fids = {name: i for i, name in enumerate(FUNCTIONS)}
        self.wrappers = {name: self._wrap(name, fn) for name, fn in self.originals.items()}
        self.spans: list[tuple] = []
        self.phase = "run"
        self.sites: dict[str, list[str]] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self.counters: dict[str, int] = defaultdict(int)

    # -- patching ------------------------------------------------------------

    def _modules(self):
        return [
            m for n, m in list(sys.modules.items())
            if m and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]

    def _swap(self, old: dict, new: dict) -> dict[str, list[str]]:
        """Rebind every module attribute that holds old[name] to new[name]."""
        by_id = {id(fn): name for name, fn in old.items()}
        sites: dict[str, list[str]] = defaultdict(list)
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                name = by_id.get(id(value))
                if name is not None and value is old[name]:
                    setattr(mod, attr, new[name])
                    sites[name].append(mod.__name__)
        return sites

    def enable(self) -> None:
        self.sites = self._swap(self.originals, self.wrappers)
        missing = [name for name in FUNCTIONS if name not in self.sites]
        if missing:
            raise RuntimeError(f"traced functions not found in any module: {missing}")

    def disable(self) -> None:
        self._swap(self.wrappers, self.originals)

    # -- spans -----------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counters[key] += n

    def _wrap(self, name: str, fn):
        fid = self.fids[name]
        hook = {
            "analysis.first_hit": self._first_hit,
            "analysis.find_annihilating_content": self._content,
        }.get(name)
        builds = name.startswith("construct.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else 0
            sid = next(self._ids)
            stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                if hook is not None:
                    return hook(fn, sid, args, kwargs)
                if not builds:
                    return fn(*args, **kwargs)
                self._local.building = getattr(self._local, "building", 0) + 1
                try:
                    ring = fn(*args, **kwargs)
                finally:
                    self._local.building -= 1
                if self._local.building == 0 and self.phase == "setup":
                    # outermost construction only: an inner call returns a base
                    # ring or the very ring the outer call returns
                    self._count("table_bytes", ring.add_table.nbytes + ring.mul_table.nbytes)
                return ring
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                self.spans.append((sid, fid, t0, t1, parent, self.phase))

        return traced

    def _first_hit(self, fn, sid, args, kwargs):
        items, check, *rest = args

        def counted(item):
            self._count("first_hit.items")
            stack = self._stack()
            if stack:
                return check(item)
            stack.append(sid)  # a pool thread: parent its spans to this first_hit
            try:
                return check(item)
            finally:
                stack.pop()

        out = fn(items, counted, *rest, **kwargs)
        self._count("first_hit.calls")
        self._count("first_hit.hits", out is not None)
        return out

    def _content(self, fn, sid, args, kwargs):
        f = args[0]
        ring = f.ring
        memo = ring._cache.get("content_by_set", {})
        hit = frozenset(c for c in f.coeffs if c != ring.zero) in memo
        out = fn(*args, **kwargs)
        self._count("content.calls")
        self._count("content.memo_hits", hit)
        self._count("content.exhausted", out is None and not hit)
        return out

    # -- aggregation -------------------------------------------------------------

    def summary(self, phase: str) -> dict:
        """Per-function calls, outermost inclusive seconds, and per-module self
        seconds over the spans of one phase."""
        spans = [s for s in self.spans if s[5] == phase]
        by_id = {s[0]: s for s in self.spans}
        children: dict[int, list] = defaultdict(list)
        for s in spans:
            children[s[4]].append((s[2], s[3]))
        calls = [0] * len(FUNCTIONS)
        incl = [0] * len(FUNCTIONS)
        self_ns = dict.fromkeys(MODULES, 0)
        for sid, fid, t0, t1, parent, _ in spans:
            calls[fid] += 1
            outer = True
            while parent:
                up = by_id.get(parent)
                if up is None:
                    break
                if up[1] == fid:
                    outer = False
                    break
                parent = up[4]
            if outer:
                incl[fid] += t1 - t0
            self_ns[FUNCTIONS[fid].split(".")[0]] += t1 - t0 - _covered(children.get(sid, ()), t0, t1)
        return {
            "calls": dict(zip(FUNCTIONS, calls)),
            "s": {name: ns / 1e9 for name, ns in zip(FUNCTIONS, incl)},
            "self_s": {mod: ns / 1e9 for mod, ns in self_ns.items()},
        }

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["id", "function", "start_ns", "end_ns", "parent", "phase"],
                    "functions": FUNCTIONS,
                    "sites": self.sites,
                    "spans": self.spans,
                },
                fh,
                separators=(",", ":"),
            )


def _covered(intervals, lo: int, hi: int) -> int:
    """Length of [lo, hi] covered by the union of the child intervals; children
    run on pool threads can overlap each other."""
    total, reach = 0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total
