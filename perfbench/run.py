"""Benchmark for the emrings library.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload suite-small --seed 1 --seconds 30 --trace 0

Runs one workload (see README.md in this directory) against the library in
``src/`` for about ``--seconds`` seconds, checks every outcome, and prints as
its last line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
reports the per-layer metrics of a traced run and writes its spans to
``perfbench/out/``.  The line before it records the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["suite-small", "suite-mid", "content-queries"]
# the sixteen suite tags, fixed here so the metric names do not follow the library
TAGS = ["t1", "t2", "c2", "t3", "t4", "c3", "t6", "t8", "t9", "t10", "t11", "c7",
        "l1", "l2", "t5", "t7"]


def load_library():
    """Import emrings from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import emrings
        import emrings.presets
        import emrings.theorems
    except ImportError as err:
        sys.exit(f"error: cannot import emrings from {src}: {err}")
    if Path(emrings.__file__).resolve().parent != src / "emrings":
        sys.exit(f"error: emrings was imported from {emrings.__file__}, not {src}")
    return emrings


def git_commit() -> str | None:
    """HEAD of the checkout, or None outside a git work tree (git does not
    look above the checkout for one)."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def tail_percentile(n: int) -> int:
    """The highest integer percentile with at least ten of n samples beyond it."""
    return 100 * (n - 10) // n


def quantile(values: list, q: float) -> float:
    """The Harrell-Davis estimate of the q-th quantile: a mean of all order
    statistics, weighted by the Beta(q(n+1), (1-q)(n+1)) mass of each one's
    share of [0, 1].  The operations of a run are a few kinds of very
    different cost, so the plain sample quantile jumps between neighbouring
    kinds as noise reorders them; this estimate moves smoothly.  Over the
    few units of a run it also varies less than the plain median."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    if n == 0:
        return 0.0
    a, b = q * (n + 1), (1 - q) * (n + 1)
    steps = 64  # integration steps per order statistic
    t = np.linspace(0.0, 1.0, steps * n + 1)[1:-1]
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    pdf = np.concatenate([[0.0], np.exp(log_pdf - log_pdf.max()), [0.0]])
    cdf = np.concatenate([[0.0], np.cumsum(pdf[1:] + pdf[:-1])])
    weights = np.diff(cdf[::steps])
    return float(weights @ x / weights.sum())


def median(values: list) -> float:
    return quantile(values, 0.5)


def end_to_end(out) -> dict:
    # The percentile is fixed by the operations of the fewest units a run
    # measures, not by how many it got through: a suite repeats the same rows
    # every pass, so a percentile that followed the pass count would land on
    # another row whenever the library got faster or slower.
    q = tail_percentile(out.min_ops)
    out.info["tail_percentile"] = q
    out.info["latency_samples"] = len(out.latencies_ms)
    return {
        "setup_s": (median(out.setup_s), "s"),
        "run_s": (median(out.unit_s), "s"),
        "op_p50_ms": (median(out.latencies_ms), "ms"),
        "op_tail_ms": (quantile(out.latencies_ms, q / 100), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def per_layer(out, tracer) -> dict:
    run, setup = tracer.summary("run"), tracer.summary("setup")
    units, setups = max(len(out.traced_unit_s), 1), max(out.traced_setups, 1)
    count = tracer.counters
    m: dict = {}

    def per_unit(kind: str, name: str, phase=run, n=units):
        m[f"{name}.{kind}"] = (phase[kind][name] / n, "count" if kind == "calls" else "s")

    def ratio(num: str, den: str) -> float:
        return count[num] / count[den] if count[den] else 0.0

    per_unit("calls", "construct.build_spec", setup, setups)
    per_unit("s", "construct.build_spec", setup, setups)
    m["construct.table_bytes"] = (count["table_bytes"] / setups, "bytes")
    for name in ("construct.localization", "construct.poly_quotient_xn"):
        per_unit("calls", name)
        per_unit("s", name)
    per_unit("s", "rings.validate_ring", setup, setups)
    for name in ("rings.ideal_generated", "rings.additive_span", "rings.annihilator_mask"):
        per_unit("calls", name)
        per_unit("s", name)
    per_unit("s", "grading.validate_grading", setup, setups)
    per_unit("s", "grading.localization_grading")
    per_unit("calls", "grading.is_graded_ideal")
    per_unit("calls", "poly.content_is_graded")
    per_unit("s", "poly.content_is_graded")
    per_unit("calls", "poly.kronecker_flatten")
    per_unit("calls", "analysis.find_annihilating_content")
    per_unit("s", "analysis.find_annihilating_content")
    m["analysis.find_annihilating_content.exhausted"] = (count["content.exhausted"] / units, "count")
    m["analysis.content_memo.hit_ratio"] = (ratio("content.memo_hits", "content.calls"), "ratio")
    for name in ("is_armendariz_g_graded", "is_bezout_g_graded", "is_em_subset",
                 "is_em_g_graded", "verify_t5", "verify_t7_bounded", "check_regular_embedding"):
        per_unit("s", f"analysis.{name}")
    m["analysis.first_hit.calls"] = (count["first_hit.calls"] / units, "count")
    m["analysis.first_hit.items"] = (count["first_hit.items"] / units, "count")
    m["analysis.first_hit.hit_ratio"] = (ratio("first_hit.hits", "first_hit.calls"), "ratio")
    rows_s = 0.0
    for tag in TAGS:
        s = out.row_ms.get(tag, 0.0) / 1000
        rows_s += s
        m[f"theorems.row_s.{tag}"] = (s / units, "s")
    # theorem_suite time no row timer covers, e.g. the square-zero extensions
    m["theorems.outside_rows_s"] = ((run["s"]["theorems.theorem_suite"] - rows_s) / units, "s")
    for module, s in run["self_s"].items():
        m[f"{module}.self_s"] = (s / units, "s")
    plain = median(out.unit_s)
    m["trace_overhead_frac"] = (median(out.traced_unit_s) / plain - 1 if plain else 0.0, "ratio")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    lib = load_library()
    import spans
    import workloads

    reference = json.loads((HERE / "reference.json").read_text())
    tracer = spans.Tracer() if args.trace else None
    if args.workload == "content-queries":
        out = workloads.run_content(lib, args.seed, args.seconds, tracer, reference["content"])
    else:
        suite = workloads.SUITES[args.workload](lib)
        out = workloads.run_suite(lib, suite, args.seed, args.seconds, tracer,
                                  reference["suites"][args.workload])

    metrics = per_layer(out, tracer) if tracer else end_to_end(out)
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
        "reference_commit": reference["commit"],
        "units": len(out.unit_s),
        "traced_units": len(out.traced_unit_s),
        **out.info,
    }
    result = {
        "correct": out.failed == 0 and out.attempted > 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    outdir = HERE / "out"
    outdir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (outdir / f"{stem}.json").write_text(json.dumps({"env": env, **result}, indent=1))
    if tracer:
        tracer.dump(outdir / f"{stem}-spans.json")
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
