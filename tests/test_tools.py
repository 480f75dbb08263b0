"""The by-hand tools in tests/ still run and agree with the pipeline.

allpairs.py and traffic.py are scripts, not test modules; each is loaded
from its file, as test_tracing.py loads the benchmark tracer.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from hullroute.pipeline import Pipeline, PipelineConfig
from hullroute.routing import BACKEND_ODEL, BACKEND_VIS
from hullroute.scenario import fixture_topology
from hullroute.simengine import RoundEngine

# sha256 over (s, t, case, path) of every ordered pair of grid36-hole4,
# the same on both backends since the bay legs were decided by exact signs
GRID_ROUTES = "61bb8897eaa8f7f1940d7a19c916adaae692a5c5a37e8f713abd3d7d2c186ff8"


def _load(monkeypatch, name: str):
    spec = importlib.util.spec_from_file_location(f"tests_{name}", Path(__file__).parent / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, mod)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("backend", [BACKEND_VIS, BACKEND_ODEL])
def test_allpairs_routes_every_pair_of_the_grid(monkeypatch, backend):
    row = _load(monkeypatch, "allpairs").sweep("grid36-hole4", backend)
    assert (row["pairs"], row["failures"], row["sha256"]) == (32 * 31, 0, GRID_ROUTES)


def test_traffic_totals_match_a_fresh_build(monkeypatch, capsys):
    send, run_phase = RoundEngine.send, RoundEngine.run_phase
    _load(monkeypatch, "traffic").report("grid36-hole4", 3)
    assert RoundEngine.send is send and RoundEngine.run_phase is run_phase
    out = capsys.readouterr().out.splitlines()
    # the phase table runs from its header to the first blank line after it
    at = next(i for i, line in enumerate(out) if line.split()[:4] == ["phase", "rounds", "calls", "active"])
    rows = [line.split() for line in out[at + 1 : out.index("", at)] if "(charged)" not in line]
    calls, active = [], []

    def counting(eng, label, handler, max_rounds):
        def counted(e, v, inbox):
            sent = e.total_messages
            done = handler(e, v, inbox)
            calls.append(label)
            if inbox or e.total_messages != sent:
                active.append(label)
            return done

        return run_phase(eng, label, counted, max_rounds)

    monkeypatch.setattr(RoundEngine, "run_phase", counting)
    pipe = Pipeline(fixture_topology("grid36-hole4"), PipelineConfig())
    pipe.build_abstraction()
    eng = pipe.engine
    assert out[0].endswith(f", {eng.total_messages} messages, {eng.total_bytes} bytes")
    assert [row[0] for row in rows] == [p.label for p in eng.phase_reports]
    assert sum(int(row[2]) for row in rows) == len(calls) > 0
    assert sum(int(row[3]) for row in rows) == len(active) > 0
