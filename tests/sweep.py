"""The hole-count and n sweeps: what a build costs as holes and nodes are added.

Run by hand, from the repository root:

    PYTHONPATH=src python tests/sweep.py

Prints two tables, one build with the default config per row.  The
hole-count table builds grid-2048-K, the n = 2048 lattice with a K x K
grid of square holes, for K in HOLES; the n table builds scale-N-1,
scaling_spec(N, 1) with its two cavities, for N in SIZES.  The columns
are n; the hull nodes of every ring but the outer boundary; protocol
rounds; wave_rounds, the rounds up to wave two's end; the broadcast
tree's charged rounds; the peak, the most long-range messages one node
sent in one round, against the message cap ceil(log2 n); and the build's
bytes.  Peak and bytes are counted off the transcript by
`simengine.tally`, and the rounds are the pipeline's own; nothing is
wrapped.  Rings run in parallel, so wave_rounds should not grow with K.
The builds are deterministic, so two revisions can be compared
line by line.
"""

from __future__ import annotations

import math

from hullroute.pipeline import Pipeline, PipelineConfig
from hullroute.scenario import fixture_topology
from hullroute.simengine import tally

HOLES = (1, 2, 3, 4)
SIZES = (512, 1024, 2048, 4096)
COLUMNS = ("n", "hull", "rounds", "waves", "charged", "peak", "cap", "bytes")


def row(name: str) -> dict[str, int]:
    """One build of instance `name` (as tests/traffic.py names them), as a row of COLUMNS."""
    pipe = Pipeline(fixture_topology(name), PipelineConfig())
    pipe.build_abstraction()
    (total,) = tally(pipe.engine.transcript).values()
    n = len(pipe.topo.ids)
    return {
        "n": n,
        "hull": pipe.storage_audit()["hull"]["nodes"],
        "rounds": pipe.protocol_rounds,
        "waves": pipe.wave_rounds,
        "charged": pipe.phase_rounds["broadcast_tree"],
        "peak": total.max_longrange_per_node_round,
        "cap": math.ceil(math.log2(n)),
        "bytes": total.bytes_total,
    }


def table(title: str, names: list[str]) -> None:
    print(title)
    print(f"  {'instance':<16}" + "".join(f"{c:>10}" for c in COLUMNS))
    for name in names:
        r = row(name)
        print(f"  {name:<16}" + "".join(f"{r[c]:>10}" for c in COLUMNS))
    print()


def main() -> None:
    table("hole count: grid-2048-K", [f"grid-2048-{k}" for k in HOLES])
    table("n: scale-N-1", [f"scale-{n}-1" for n in SIZES])


if __name__ == "__main__":
    main()
