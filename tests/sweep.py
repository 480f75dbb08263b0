"""The hole-count and n sweeps: what a build costs as holes and nodes are added.

Run by hand, from the repository root:

    PYTHONPATH=src python tests/sweep.py [instance ...]

Prints two tables, one build with the default config per row.  The
hole-count table builds grid-2048-K, the n = 2048 lattice with a K x K
grid of square holes, for K in HOLES; the n table builds scale-N-1,
scaling_spec(N, 1) with its two cavities, for N in SIZES.  Given
instance names instead, as tests/traffic.py takes them (a `~S` suffix
shuffles the ids with seed S), it prints one table of those.  Every
instance built without a suffix gets a second row, `<name>~1`, the same
points with the ids shuffled, so each figure is read under both
labelings (the protocols choose leaders and the root by id).  The
columns are n; the hull nodes of every ring but the outer boundary;
protocol rounds; wave_rounds, the rounds up to wave two's end; the
broadcast tree's charged rounds; the peak, the most long-range messages
one node sent in one round, against the message cap ceil(log2 n);
dist_peak, the same peak within the hull distribution alone, the
leaders' one-hop gather to the tree root, so it can be told apart from
the merge (`hm`) and the hull broadcast (`hullb`); dist_recv, the most
long-range messages one node received in one round of the hull
distribution, which the tree root sets when the gather reaches it; the most long-range messages one node sent in the
whole build; the build's bytes; and the bytes of its hull distribution
(`href`).  The counts are
read off the transcript, and the rounds are the pipeline's own; nothing
is wrapped.  Rings run in parallel, so wave_rounds should not grow with K.
The builds are deterministic, so two revisions can be compared
line by line.
"""

from __future__ import annotations

import math
import sys

from hullroute.pipeline import Pipeline, PipelineConfig
from hullroute.scenario import fixture_topology
from hullroute.simengine import PhaseReport, tally

HOLES = (1, 2, 3, 4)
SIZES = (512, 1024, 2048, 4096)
COLUMNS = ("n", "hull", "rounds", "waves", "charged", "peak", "dist_peak", "dist_recv", "cap", "lr_max", "bytes", "href")


def row(name: str) -> dict[str, int]:
    """One build of instance `name` (as tests/traffic.py names them), as a row of COLUMNS."""
    pipe = Pipeline(fixture_topology(name), PipelineConfig())
    pipe.build_abstraction()
    (total,) = tally(pipe.engine.transcript).values()
    (dist,) = [p for p in pipe.engine.phase_reports if p.label == "hull_distribution"]
    # the distribution is the build's last phase; its receives, tallied as if each receiver sent them
    start = pipe.engine.round_no - dist.rounds
    received = ({**t, "src": t["dst"]} for t in pipe.engine.transcript if t["round"] >= start)
    recv = tally(received, into={None: PhaseReport("dist_recv")})[None]
    n = len(pipe.topo.ids)
    return {
        "n": n,
        "hull": len(set().union(*pipe._hulls.values())),
        "rounds": pipe.protocol_rounds,
        "waves": pipe.wave_rounds,
        "charged": pipe.phase_rounds["broadcast_tree"],
        "peak": total.max_longrange_per_node_round,
        "dist_peak": dist.max_longrange_per_node_round,
        "dist_recv": recv.max_longrange_per_node_round,
        "cap": math.ceil(math.log2(n)),
        "lr_max": max(pipe.build_longrange.values(), default=0),
        "bytes": total.bytes_total,
        "href": sum(t["bytes"] for t in pipe.engine.transcript if t["tag"] == "href"),
    }


def table(title: str, names: list[str]) -> None:
    print(title)
    print(f"  {'instance':<18}" + "".join(f"{c:>10}" for c in COLUMNS))
    for name in names:
        for label in [name] if "~" in name else [name, f"{name}~1"]:
            r = row(label)
            print(f"  {label:<18}" + "".join(f"{r[c]:>10}" for c in COLUMNS), flush=True)
    print()


def main(argv: list[str]) -> None:
    if argv:
        table("instances", argv)
        return
    table("hole count: grid-2048-K", [f"grid-2048-{k}" for k in HOLES])
    table("n: scale-N-1", [f"scale-{n}-1" for n in SIZES])


if __name__ == "__main__":
    main(sys.argv[1:])
