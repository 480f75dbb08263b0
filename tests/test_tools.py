"""The by-hand tools in tests/ and the benchmark tracer agree with the pipeline.

allpairs.py, traffic.py, sweep.py and perfbench/tracer.py are scripts,
not test modules; each is loaded from its file, as test_tracing.py loads
the tracer.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from collections import Counter
from pathlib import Path

import pytest

from hullroute.pipeline import Pipeline, PipelineConfig
from hullroute.routing import BACKEND_ODEL, BACKEND_VIS
from hullroute.scenario import fixture_topology
from hullroute.simengine import RoundEngine

# sha256 over (s, t, case, path) of every ordered pair of grid36-hole4,
# the same on both backends since the bay legs were decided by exact signs
GRID_ROUTES = "61bb8897eaa8f7f1940d7a19c916adaae692a5c5a37e8f713abd3d7d2c186ff8"


TESTS = Path(__file__).parent
TRACER = TESTS.parent / "perfbench" / "tracer.py"


def _load(monkeypatch, path: Path):
    spec = importlib.util.spec_from_file_location(f"{path.parent.name}_{path.stem}", path)
    mod = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, mod)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("backend", [BACKEND_VIS, BACKEND_ODEL])
def test_allpairs_routes_every_pair_of_the_grid(monkeypatch, backend):
    row = _load(monkeypatch, TESTS / "allpairs.py").sweep("grid36-hole4", backend)
    assert (row["pairs"], row["failures"], row["sha256"]) == (32 * 31, 0, GRID_ROUTES)
    # each plan asked of the tree root costs a two-round long-range round trip
    assert row["plan_rounds"] % 2 == 0 and row["plan_rounds"] >= 2 * row["planned_pairs"] > 0


def test_traffic_totals_match_a_fresh_build(monkeypatch, capsys):
    engine = dict(vars(RoundEngine))
    _load(monkeypatch, TESTS / "traffic.py").report("grid36-hole4", 3)
    assert dict(vars(RoundEngine)) == engine
    out = capsys.readouterr().out.splitlines()
    # the phase table runs from its header to the first blank line after it
    at = next(i for i, line in enumerate(out) if line.split()[:4] == ["phase", "rounds", "calls", "active"])
    rows = [line.split() for line in out[at + 1 : out.index("", at)] if "(charged)" not in line]
    pipe = Pipeline(fixture_topology("grid36-hole4"), PipelineConfig())
    pipe.build_abstraction()
    eng = pipe.engine
    assert out[0].endswith(f", {eng.total_messages} messages, {eng.total_bytes} bytes")
    assert rows == [
        [p.label, *map(str, (p.rounds, p.calls, p.active, p.messages_longrange + p.messages_adhoc,
                             p.bytes_total, p.max_longrange_per_node_round))]
        for p in eng.phase_reports
    ]
    assert 0 < sum(p.active for p in eng.phase_reports) <= sum(p.calls for p in eng.phase_reports)
    # the sender table lists the top 3 long-range senders, most messages
    # first, each with the build's count and a per-tag split that sums to it
    at = next(i for i, line in enumerate(out) if line.split()[:2] == ["long-range", "sender"])
    senders = [line.split() for line in out[at + 1 : out.index("", at)]]
    ranked = sorted(pipe.build_longrange.items(), key=lambda kv: (-kv[1], kv[0]))
    assert [(int(row[0]), int(row[1])) for row in senders] == ranked[:3]
    for v, count, _, *split in senders:
        assert sum(int(c.rstrip(",")) for c in split[1::2]) == int(count)


def test_sweep_row_matches_the_report_of_a_fresh_build(monkeypatch):
    # the sweep prints each instance under its generated ids and shuffled
    engine = dict(vars(RoundEngine))
    sweep = _load(monkeypatch, TESTS / "sweep.py")
    for name in ("grid36-hole4", "grid36-hole4~1"):
        row = sweep.row(name)
        assert dict(vars(RoundEngine)) == engine
        pipe = Pipeline(fixture_topology(name), PipelineConfig())
        rep = pipe.run()
        # the distribution, the build's last phase, ends in the engine's round
        start = pipe.engine.round_no - rep.phase_rounds["hull_distribution"]
        received = Counter(
            (t["round"], t["dst"]) for t in pipe.engine.transcript if t["channel"] == "longrange" and t["round"] >= start
        )
        assert row["dist_recv"] > 0, name
        assert row == {
            "n": rep.n,
            "hull": rep.bounds["planner_refs"]["hull_nodes"],
            "rounds": rep.protocol_rounds,
            "waves": rep.wave_rounds,
            "charged": rep.phase_rounds["broadcast_tree"],
            "peak": rep.message_stats["max_longrange_per_node_round"],
            "dist_peak": next(p["max_longrange_per_node_round"] for p in rep.phases if p["label"] == "hull_distribution"),
            "dist_recv": max(received.values()),
            "cap": math.ceil(math.log2(rep.n)),
            "lr_max": rep.message_stats["longrange_per_node_max"],
            "bytes": rep.message_stats["total_bytes"],
            "href": sum(p["bytes_total"] for p in rep.phases if p["label"] == "hull_distribution"),
        }, name


def test_engine_call_counts_match_the_tracer(monkeypatch):
    # the tracer counts handler calls by wrapping run_phase; the engine's
    # reports count the same calls, and the same active ones
    tracer_mod = _load(monkeypatch, TRACER)
    with tracer_mod.instrument(tracer_mod.Tracer()) as tracer:
        pipe = Pipeline(fixture_topology("star12-4"), PipelineConfig())
        pipe.build_abstraction()
    reports = pipe.engine.phase_reports
    assert sum(p.calls for p in reports) == tracer.counts["simengine.handler_calls"] > 0
    assert sum(p.active for p in reports) == tracer.counts["simengine.handler_active"] > 0
