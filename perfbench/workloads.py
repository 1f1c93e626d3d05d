"""The benchmark's workloads, their seeded inputs and their outcome checks.

Every workload repeats one unit of work until its time is up and it has
measured a minimum number of units.  A suite unit builds the corpus from
scratch (the set-up) and then runs ``theorem_suite`` on each entry; a content
unit is one block of ``find_annihilating_content`` queries sent by a single
client in a closed loop.  Under tracing, units alternate between untraced
and traced, so one run yields both the per-layer numbers and the tracing
overhead.
"""

from __future__ import annotations

import random
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

CONTENT_PRESET = "e2-trunc-d2"
SETUPS = 2  # content-queries builds its order-7776 ring this many times

# The query pool: distinct coefficient sets drawn once with this seed, each
# from Ann(t)\{0} for a random nonzero zero divisor t (see draw_sets).
POOL_SEED = 2006
POOL_DRAWS = 1000

# One block of queries.  The shares follow the pool, where about three in four
# distinct sets have no content, and a natural stream, where about one query
# in five repeats an earlier coefficient set.  Each class is split into strata
# by the number of candidates the scans try, as many strata as a block takes
# fresh sets of that class, and every block takes one set from every stratum.
# Every block then has the mix of cheap and expensive queries of the pool, and
# the latency quantiles do not move with the luck of the draw: the median
# query sits where cheap queries give way to expensive ones.  Each stratum is
# walked in a seeded order whose every prefix spreads evenly over it, so the
# few blocks a run gets through cover the cheap and the dear end of each
# stratum alike.
NO_CONTENT_PER_BLOCK = 12
CONTENT_PER_BLOCK = 4
NO_CONTENT_REPEATS = 3
CONTENT_REPEATS = 1
MIN_BLOCKS = 5  # untraced blocks a run measures at the least


@dataclass(frozen=True)
class Entry:
    label: str
    spec: dict
    grading: object = "canonical"
    max_order: int = 4096
    armendariz_degree: Optional[int] = None


@dataclass(frozen=True)
class Suite:
    name: str
    jobs: int
    min_passes: int  # untraced passes a run measures at the least
    entries: tuple  # of Entry; built from the library's presets at run time


@dataclass
class Outcome:
    """What a run measured; run.py turns it into metrics."""

    attempted: int = 0
    failed: int = 0
    setup_s: list = field(default_factory=list)  # untraced set-ups
    unit_s: list = field(default_factory=list)  # untraced units
    traced_unit_s: list = field(default_factory=list)
    traced_setups: int = 0
    latencies_ms: list = field(default_factory=list)  # untraced operations
    min_ops: int = 0  # operations in the fewest untraced units a run measures
    row_ms: dict = field(default_factory=dict)  # tag -> summed millis, traced units
    info: dict = field(default_factory=dict)


def suite_small(lib) -> Suite:
    """Every preset of order <= 216.  e2-trunc-d1 runs its Armendariz row at
    degree 2: at the default degree 3 that one row takes about 43 s."""
    entries = []
    for name, preset in lib.presets.PRESETS.items():
        if name == CONTENT_PRESET:
            continue
        degree = 2 if name == "e2-trunc-d1" else None
        entries.append(Entry(name, preset.spec, preset.grading, preset.max_order, degree))
    return Suite("suite-small", jobs=1, min_passes=2, entries=tuple(entries))


def suite_mid(lib) -> Suite:
    """e2-trunc-d2's ring with Z4 in place of Z6: Z4[x,y]/(xy) truncated at
    total degree 2, order 1024.  The suite on e2-trunc-d2 itself takes over
    130 s; this one takes about 2.5 s, so a run repeats it several times."""
    spec = {"kind": "monomialQuotient", "m": 4, "v": 2, "relations": [[1, 1]], "d": 2}
    return Suite("suite-mid", jobs=2, min_passes=6, entries=(Entry("z4-xy-trunc-d2", spec),))


SUITES = {"suite-small": suite_small, "suite-mid": suite_mid}


# -- helpers ---------------------------------------------------------------------


@contextmanager
def traced(tracer, on: bool, phase: str):
    if tracer is None or not on:
        yield
        return
    tracer.phase = phase
    tracer.enable()
    try:
        yield
    finally:
        tracer.disable()


def keep_going(start: float, seconds: float, tracer, plain: int, tracing: int,
               min_units: int) -> bool:
    """Run until the time is up and, untraced, ``min_units`` units are done; a
    traced run needs two units of each kind instead, so that the tracing
    overhead compares medians of interleaved units."""
    if tracer is None and plain < min_units:
        return True
    if tracer is not None and min(plain, tracing) < 2:
        return True
    return time.perf_counter() - start < seconds


def build(lib, entry: Entry):
    ring = lib.build_spec(entry.spec, max_order=entry.max_order)
    lib.validate_ring(ring)
    return ring, lib.grading.grading_for_spec(ring, entry.grading)


def report_error(what: str) -> None:
    print(f"{what} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


# -- suites ------------------------------------------------------------------------


def row_outcome(report) -> dict:
    """The part of a suite row that is fixed by the mathematics.  Bounds and
    false-verdict witnesses are left out: they may change with the deciders."""
    b = report.bounds
    return {
        "row": report.property,
        "verdict": report.verdict,
        "hypothesis": b.get("hypothesis"),
        "conclusion": b.get("conclusion"),
        "sides": b.get("sides"),
        "skipped": b.get("skipped"),
    }


def row_matches(expected: dict, got: dict) -> bool:
    # the one allowed verdict change: a bounded true becoming an exhaustive one
    if got["verdict"] != expected["verdict"] and not (
        expected["verdict"] == "true_up_to_bounds" and got["verdict"] == "true"
    ):
        return False
    return all(got[k] == expected[k] for k in expected if k != "verdict")


def run_entry(lib, suite: Suite, entry: Entry, ring, grading):
    corpus = [lib.theorems.CorpusEntry(entry.label, ring, grading)]
    caps = lib.SearchCaps(jobs=suite.jobs)
    return lib.theorems.theorem_suite(corpus, caps, armendariz_degree=entry.armendariz_degree)


def run_suite(lib, suite: Suite, seed: int, seconds: float, tracer, reference: dict) -> Outcome:
    out = Outcome()
    entries = list(suite.entries)
    random.Random(seed).shuffle(entries)  # order changes no outcome
    out.info["corpus"] = [e.label for e in entries]
    start = time.perf_counter()
    units = 0
    while keep_going(start, seconds, tracer, len(out.unit_s), len(out.traced_unit_s),
                     suite.min_passes):
        on = tracer is not None and units % 2 == 1
        with traced(tracer, on, "setup"):
            t0 = time.perf_counter()
            built = [build(lib, e) for e in entries]
            setup = time.perf_counter() - t0
        rows = []
        with traced(tracer, on, "run"):
            t0 = time.perf_counter()
            for entry, (ring, grading) in zip(entries, built):
                try:
                    rows.append((entry, run_entry(lib, suite, entry, ring, grading)))
                except Exception:
                    report_error(f"theorem_suite on {entry.label}")
                    rows.append((entry, None))
            elapsed = time.perf_counter() - t0
        built = None
        (out.traced_unit_s if on else out.unit_s).append(elapsed)
        if on:
            out.traced_setups += 1
        else:
            out.setup_s.append(setup)
        for entry, reports in rows:
            expected = reference[entry.label]
            got = [row_outcome(r) for r in reports or []]
            out.attempted += max(len(expected), len(got))
            out.failed += max(len(expected), len(got)) - sum(
                row_matches(e, g) for e, g in zip(expected, got)
            )
            for r in reports or []:
                if on:
                    tag = r.property.split("@")[0]
                    out.row_ms[tag] = out.row_ms.get(tag, 0.0) + r.millis
                elif r.bounds.get("skipped") is None:  # a skipped row ran no check
                    out.latencies_ms.append(r.millis)
        units += 1
    out.info["rows_per_unit"] = sum(len(reference[e.label]) for e in entries)
    checks = sum(row["skipped"] is None for e in entries for row in reference[e.label])
    out.min_ops = suite.min_passes * checks
    return out


def suite_reference(lib, suite: Suite) -> dict:
    return {
        e.label: [row_outcome(r) for r in run_entry(lib, suite, e, *build(lib, e))]
        for e in suite.entries
    }


# -- content queries -------------------------------------------------------------------


def nonzero_zero_divisors(ring) -> np.ndarray:
    kills = ring.mul_table == ring.zero
    kills[:, ring.zero] = False
    zd = np.nonzero(kills.any(axis=1))[0]
    return zd[zd != ring.zero]


def draw_sets(ring, rng: np.random.Generator, draws: int) -> list[tuple[int, ...]]:
    """Coefficient sets of 1 to 4 draws from Ann(t)\\{0}, t a random nonzero
    zero divisor, so every polynomial made from one is a zero divisor."""
    zd = nonzero_zero_divisors(ring)
    sets = []
    for _ in range(draws):
        t = int(zd[rng.integers(len(zd))])
        ann = np.nonzero(ring.mul_table[t] == ring.zero)[0]
        ann = ann[ann != ring.zero]
        k = int(rng.integers(1, 5))
        sets.append(tuple(sorted({int(a) for a in rng.choice(ann, size=k)})))
    return sets


def content_setup(lib):
    preset = lib.presets.PRESETS[CONTENT_PRESET]
    return build(lib, Entry(CONTENT_PRESET, preset.spec, preset.grading, preset.max_order))


def content_reference(lib, tracer) -> dict:
    """The pool with each set's outcome and ``tried``, the candidates its
    scans check (``first_hit`` items, the homogeneous scan included)."""
    ring, grading = content_setup(lib)
    distinct = list(dict.fromkeys(draw_sets(ring, np.random.default_rng(POOL_SEED), POOL_DRAWS)))
    pool = []
    for coeffs in distinct:
        before = tracer.counters["first_hit.items"]
        with traced(tracer, True, "run"):
            w = lib.find_annihilating_content(lib.Polynomial(ring, coeffs), grading)
        tracer.spans.clear()
        pool.append({
            "coeffs": list(coeffs),
            "c": None if w is None else w.c,
            "homogeneous_c": None if w is None else w.homogeneous_c,
            "tried": tracer.counters["first_hit.items"] - before,
        })
    return {"preset": CONTENT_PRESET, "pool_seed": POOL_SEED, "draws": POOL_DRAWS, "pool": pool}


def spread_order(m: int, shift: float) -> list[int]:
    """0..m-1 in the order a van der Corput sequence shifted by ``shift``
    visits m equal bins of [0, 1): any prefix of it is spread evenly."""
    order, seen, b = [], set(), 0
    while len(order) < m:
        v, x, f = 0.0, b, 0.5
        while x:
            v += f * (x & 1)
            x >>= 1
            f /= 2
        p = int((shift + v) % 1.0 * m)
        if p not in seen:
            seen.add(p)
            order.append(p)
        b += 1
    return order


def strata(pool: list, members: list, k: int) -> list[list[int]]:
    ranked = sorted(members, key=lambda i: (pool[i]["tried"], i))
    size = len(ranked) // k
    return [ranked[j * size:(j + 1) * size] for j in range(k)]


def content_stream(pool: list, seed: int, skip: int) -> list[list[tuple[int, tuple]]]:
    """Blocks of (pool index, coefficients).  Fresh sets come from the pool
    without replacement; a repeat re-sends a set of the same class seen
    earlier in this stream.  Every query gets its own coefficient order.
    ``skip`` is the warm-up query's set."""
    rng = np.random.default_rng(seed)
    members = [i for i in range(len(pool)) if i != skip]
    none = strata(pool, [i for i in members if pool[i]["c"] is None], NO_CONTENT_PER_BLOCK)
    some = strata(pool, [i for i in members if pool[i]["c"] is not None], CONTENT_PER_BLOCK)
    for stratum in none + some:
        stratum[:] = [stratum[p] for p in spread_order(len(stratum), rng.random())]
    seen_none, seen_some, blocks = [], [], []
    for b in range(min(len(s) for s in none + some)):
        fresh_none = [s[b] for s in none]
        fresh_some = [s[b] for s in some]
        seen_none += fresh_none
        seen_some += fresh_some
        picks = fresh_none + fresh_some
        picks += [seen_none[rng.integers(len(seen_none))] for _ in range(NO_CONTENT_REPEATS)]
        picks += [seen_some[rng.integers(len(seen_some))] for _ in range(CONTENT_REPEATS)]
        rng.shuffle(picks)
        blocks.append([(i, tuple(int(c) for c in rng.permutation(pool[i]["coeffs"]))) for i in picks])
    return blocks


def witness_holds(ring, coeffs: tuple, w) -> bool:
    """Re-check a content witness from the tables alone: f = c*g, c is a
    nonzero zero divisor, and Ann(C(g)) = {0}."""
    mul, zero, c = ring.mul_table, ring.zero, int(w.c)
    if c == zero or int((mul[c] == zero).sum()) < 2:
        return False
    g = [int(x) for x in w.g.coeffs]
    f = list(coeffs)
    scaled = [int(mul[c, x]) for x in g]
    while scaled and scaled[-1] == zero:
        scaled.pop()
    while f and f[-1] == zero:
        f.pop()
    if scaled != f:
        return False
    ann = np.ones(ring.order, dtype=bool)
    support = sorted(set(g))
    for lo in range(0, len(support), 64):
        ann &= (mul[support[lo:lo + 64]] == zero).all(axis=0)
    return int(ann.sum()) == 1 and bool(ann[zero])


def run_content(lib, seed: int, seconds: float, tracer, reference: dict) -> Outcome:
    out = Outcome()
    pool = reference["pool"]
    for _ in range(SETUPS):
        ring = grading = None  # free the previous tables before building again
        with traced(tracer, True, "setup"):
            t0 = time.perf_counter()
            ring, grading = content_setup(lib)
            setup = time.perf_counter() - t0
        if tracer is None:
            out.setup_s.append(setup)
        else:
            out.traced_setups += 1
    # the first query builds the per-ring candidate tables; time what follows
    warm = next(i for i, q in enumerate(pool) if q["c"] is not None)
    blocks = content_stream(pool, seed, warm)
    lib.find_annihilating_content(lib.Polynomial(ring, tuple(pool[warm]["coeffs"])), grading)
    answers = []
    start = time.perf_counter()
    for n, block in enumerate(blocks):
        if not keep_going(start, seconds, tracer, len(out.unit_s), len(out.traced_unit_s),
                          MIN_BLOCKS):
            break
        on = tracer is not None and n % 2 == 1
        with traced(tracer, on, "run"):
            t0 = time.perf_counter()
            for idx, coeffs in block:
                q0 = time.perf_counter()
                try:
                    w = lib.find_annihilating_content(lib.Polynomial(ring, coeffs), grading)
                except Exception as err:
                    report_error(f"query {coeffs}")
                    w = err
                if not on:
                    out.latencies_ms.append((time.perf_counter() - q0) * 1000)
                answers.append((idx, coeffs, w))
            elapsed = time.perf_counter() - t0
        (out.traced_unit_s if on else out.unit_s).append(elapsed)
    else:
        out.info["stream_exhausted"] = True
    seen: set = set()
    repeats = 0
    for idx, coeffs, w in answers:
        repeats += idx in seen
        seen.add(idx)
        expected = pool[idx]
        out.attempted += 1
        if isinstance(w, Exception):
            ok = False
        elif w is None:
            ok = expected["c"] is None
        else:
            ok = (
                w.c == expected["c"]
                and w.homogeneous_c == expected["homogeneous_c"]
                and witness_holds(ring, coeffs, w)
            )
        out.failed += not ok
    out.info["queries"] = len(answers)
    out.min_ops = MIN_BLOCKS * len(blocks[0])
    out.info["repeated_share"] = repeats / max(len(answers), 1)
    return out
