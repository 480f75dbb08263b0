"""Where a build's simulated traffic goes: per phase, per tag, per top sender.

Run by hand, from the repository root:

    PYTHONPATH=src python tests/traffic.py [--top K] instance [instance ...]

An instance is a fixture name (grid36-hole4, cshape-40, crescent-24,
star12-4), scale-N-S for scaling_spec(N, S), or grid-N for
holes_grid_spec(N). For each it builds the abstraction with the default
config and prints three tables read off the engine's phase reports and
transcript: every phase's rounds, messages, bytes and peak long-range
sends by one node in one round (charged phases show rounds only); the
messages and bytes of every message tag; and the K nodes (default 10)
that sent the most long-range messages, with their bytes and a count
per tag. The build is deterministic, so two revisions can be compared
line by line.
"""

from __future__ import annotations

import argparse
from collections import Counter, defaultdict

from hullroute.pipeline import Pipeline, PipelineConfig
from hullroute.scenario import fixture_topology, generate_scenario, holes_grid_spec, scaling_spec


def topology(name: str):
    kind, _, rest = name.partition("-")
    if kind == "scale":
        n, seed = rest.split("-")
        return generate_scenario(scaling_spec(int(n), int(seed)))
    if kind == "grid":
        return generate_scenario(holes_grid_spec(int(rest)))
    return fixture_topology(name)


def report(name: str, top: int) -> None:
    pipe = Pipeline(topology(name), PipelineConfig())
    pipe.build_abstraction()
    eng = pipe.engine
    sent = [t for t in eng.transcript if t["channel"] != "meta"]
    print(
        f"{name}: n={len(pipe.topo.ids)}, {len(pipe.rings)} rings, "
        f"{pipe.protocol_rounds} protocol rounds, {len(sent)} messages, "
        f"{sum(t['bytes'] for t in sent)} bytes"
    )

    print(f"\n  {'phase':<26}{'rounds':>8}{'messages':>10}{'bytes':>12}{'peak':>6}")
    for label, rounds in eng.charged.items():
        print(f"  {label + ' (charged)':<26}{rounds:>8}")
    for p in eng.phase_reports:
        messages = p.messages_longrange + p.messages_adhoc
        print(f"  {p.label:<26}{p.rounds:>8}{messages:>10}{p.bytes_total:>12}"
              f"{p.max_longrange_per_node_round:>6}")

    by_tag: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    for t in sent:
        by_tag[t["tag"]][0] += 1
        by_tag[t["tag"]][1] += t["bytes"]
    print(f"\n  {'tag':<26}{'messages':>10}{'bytes':>12}")
    for tag, (messages, nbytes) in sorted(by_tag.items(), key=lambda kv: -kv[1][1]):
        print(f"  {tag:<26}{messages:>10}{nbytes:>12}")

    tags: dict[int, Counter] = defaultdict(Counter)
    nbytes: Counter = Counter()
    for t in sent:
        if t["channel"] == "longrange":
            tags[t["src"]][t["tag"]] += 1
            nbytes[t["src"]] += t["bytes"]
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
