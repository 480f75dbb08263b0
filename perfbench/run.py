"""Layered benchmark for the hullroute simulator.

Run from the repository root:

    python3 perfbench/run.py --workload queries-512 --seed 1 --seconds 30 --trace 0

One process, no threads. The program is imported from `src/` of the tree the
script sits in and driven through its public API only. `--trace 0` prints
every end-to-end metric the workload exercises, by name and unit, and ends
with one JSON line holding the metrics listed under `end_to_end` in
BENCHMARK.json. `--trace 1` runs each instance untraced and then traced,
prints the per-layer metrics with the end-to-end metric each should move,
and ends with the `per_layer` metrics of BENCHMARK.json. Each run writes a
result file with its provenance under `perfbench/results/`.

The exit code is 1 when an output check or the determinism guard fails, and
2 when the sources are missing. Failed audit bounds (`bounds_failed`) and
operations that raise a HullrouteError (`ops_failed_ratio`) are results, not
failures of the benchmark.

`hullroute bench` is deliberately not this harness: it runs pure-Python work
on a thread pool, so the interpreter lock inflates its `seconds`.
"""

import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def main() -> int:
    if not (SRC / "hullroute" / "__init__.py").is_file():
        print(f"perfbench: no hullroute sources under {SRC}", file=sys.stderr)
        return 2
    # numerical libraries must not start worker threads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import harness

    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
