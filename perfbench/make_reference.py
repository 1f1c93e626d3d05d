"""Record the outcomes the benchmark checks against, into reference.json.

Usage, from the root of a checkout:

    python3 perfbench/make_reference.py

Runs each suite workload's corpus once and the content-query pool once, and
stores for every suite row its verdict, hypothesis and conclusion, and for
every pool query whether a content exists, the smallest accepting ``c`` and
``homogeneous_c``.  These are fixed by the mathematics; run this only at a
commit whose verdicts are trusted.  Each pool query also records how many
candidates its scans tried, which orders the pool into strata.
"""

from __future__ import annotations

import json

import run
import spans
import workloads


def main() -> None:
    lib = run.load_library()
    reference = {
        "commit": run.git_commit(),
        "suites": {name: workloads.suite_reference(lib, make(lib))
                   for name, make in workloads.SUITES.items()},
        "content": workloads.content_reference(lib, spans.Tracer()),
    }
    pool = reference["content"]["pool"]
    none = sum(q["c"] is None for q in pool)
    print(f"pool: {len(pool)} distinct sets of {workloads.POOL_DRAWS} draws, {none} without content")
    (run.HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
