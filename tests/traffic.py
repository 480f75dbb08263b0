"""Where a build's simulated traffic goes: per phase, per tag, per top sender.

Run by hand, from the repository root:

    PYTHONPATH=src python tests/traffic.py [--top K] instance [instance ...]

An instance is a fixture name (grid36-hole4, cshape-40, crescent-24,
star12-4), scale-N-S for scaling_spec(N, S), grid-N for
holes_grid_spec(N), or grid-N-K for holes_grid_spec(N, k=K). For each it builds the abstraction with the default
config and prints three tables read off the engine's phase reports and
transcript, every count through `simengine.tally`: every phase's rounds,
node handler calls, the active ones among them (a call that had mail or
sent), messages, bytes and peak long-range sends by one node in one
round, after the charged phases, whose "(charged)" rows show only the
rounds the transcript's `charge:<label>:<n>` lines add up to; the
messages and bytes of every message tag, its bytes split into the
envelope (tag and keys), the sorted `intro` list and the `data` payload,
as `canonical_bytes` sizes them, so a fact sent twice in one message
shows; and the K nodes (default 10) that sent the most long-range
messages, with their bytes and a count per tag. The build is
deterministic, so two revisions can be compared line by line.
"""

from __future__ import annotations

import argparse
import json
from collections import Counter, defaultdict

from hullroute.pipeline import Pipeline, PipelineConfig
from hullroute.scenario import fixture_topology
from hullroute.simengine import Channel, tally


def report(name: str, top: int) -> None:
    pipe = Pipeline(fixture_topology(name), PipelineConfig())
    pipe.build_abstraction()
    eng = pipe.engine
    (total,) = tally(eng.transcript).values()
    print(
        f"{name}: n={len(pipe.topo.ids)}, {len(pipe.rings)} rings, "
        f"{pipe.protocol_rounds} protocol rounds, {total.messages_adhoc + total.messages_longrange} messages, "
        f"{total.bytes_total} bytes"
    )

    charged: Counter = Counter()
    for t in eng.transcript:
        if t["tag"].startswith("charge:"):
            label, rounds = t["tag"].removeprefix("charge:").rsplit(":", 1)
            charged[label] += int(rounds)
    print(f"\n  {'phase':<26}{'rounds':>8}{'calls':>8}{'active':>8}{'messages':>10}{'bytes':>12}{'peak':>6}")
    for label, rounds in charged.items():
        print(f"  {label + ' (charged)':<26}{rounds:>8}")
    for p in eng.phase_reports:
        messages = p.messages_longrange + p.messages_adhoc
        print(f"  {p.label:<26}{p.rounds:>8}{p.calls:>8}{p.active:>8}{messages:>10}{p.bytes_total:>12}"
              f"{p.max_longrange_per_node_round:>6}")

    # messages, bytes and intro bytes of each tag
    intros: Counter = Counter()
    for t in eng.transcript:
        intros[t["tag"]] += t["intro"]
    by_tag = tally(eng.transcript, lambda t: t["tag"])
    print(f"\n  {'tag':<26}{'messages':>10}{'bytes':>12}{'envelope':>10}{'intro':>10}{'data':>12}")
    for tag, c in sorted(by_tag.items(), key=lambda kv: -kv[1].bytes_total):
        messages, nbytes, intro = c.messages_adhoc + c.messages_longrange, c.bytes_total, intros[tag]
        # {"data":…,"intro":…,"tag":…} is 25 characters besides the three values
        envelope = messages * (25 + len(json.dumps(tag)))
        print(f"  {tag:<26}{messages:>10}{nbytes:>12}{envelope:>10}{intro:>10}{nbytes - envelope - intro:>12}")

    tags: dict[int, Counter] = defaultdict(Counter)
    nbytes: Counter = Counter()
    for (v, tag), c in tally(eng.transcript, lambda t: (t["src"], t["tag"]), channel=Channel.LONGRANGE).items():
        tags[v][tag] = c.messages_longrange
        nbytes[v] += c.bytes_total
    senders = sorted(tags, key=lambda v: (-sum(tags[v].values()), v))[:top]
    print(f"\n  {'long-range sender':<26}{'messages':>10}{'bytes':>12}  by tag")
    for v in senders:
        split = ", ".join(f"{tag} {c}" for tag, c in sorted(tags[v].items(), key=lambda kv: (-kv[1], kv[0])))
        print(f"  {v:<26}{sum(tags[v].values()):>10}{nbytes[v]:>12}  {split}")
    print()


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("instances", nargs="+")
    ap.add_argument("--top", type=int, default=10, help="long-range senders to list")
    args = ap.parse_args(argv)
    for name in args.instances:
        report(name, args.top)


if __name__ == "__main__":
    main()
