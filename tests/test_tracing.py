"""The benchmark tracer still finds every function it wraps.

perfbench/tracer.py wraps public functions by module and name; renaming
or moving one breaks `perfbench/run.py --trace 1`.  The tracer is loaded
from its file, not changed.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import hullroute.routing as routing_mod
from hullroute.pipeline import Pipeline, PipelineConfig
from hullroute.routing import BACKEND_ODEL
from hullroute.scenario import fixture_topology

TRACER = Path(__file__).parents[1] / "perfbench" / "tracer.py"


def _load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules;
    # no bytecode cache is written next to the tracer
    monkeypatch.setitem(sys.modules, spec.name, mod)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_wraps_a_build_and_restores_the_originals(monkeypatch):
    tracer_mod = _load_tracer(monkeypatch)
    owned = [(owner, attr) for owner, attr, *_ in tracer_mod.SPANS + tracer_mod.LEAVES + tracer_mod.COUNTS]
    before = [vars(owner)[attr] for owner, attr in owned]
    with tracer_mod.instrument(tracer_mod.Tracer()) as tracer:
        assert all(vars(owner)[attr] is not fn for (owner, attr), fn in zip(owned, before))
        Pipeline(fixture_topology("grid36-hole4")).build_abstraction()
    assert [vars(owner)[attr] for owner, attr in owned] == before
    names = {s.name for s in tracer.spans}
    for name in ("overlay.assign_hypercube_ids", "overlay.hypercube_sort", "overlay.parallel_convex_hull"):
        assert name in names
    # the build's election is looked up on the overlay module, where the tracer wraps it
    jumps = [s for s in tracer.spans if s.name == "overlay.pointer_jumping"]
    assert jumps and all(s.attrs["rounds"] > 0 for s in jumps)


def test_tracer_sees_every_span_it_wraps(monkeypatch):
    # a name wrapped where nothing looks it up reads 0 in every traced run
    tracer_mod = _load_tracer(monkeypatch)
    with tracer_mod.instrument(tracer_mod.Tracer()) as tracer:
        pipe = Pipeline(
            fixture_topology("star12-4"),
            PipelineConfig(backend=BACKEND_ODEL, query_count=40, query_seed=1),
        )
        pipe.run()
        pipe.periodic_recompute()
        routes, _ = pipe.run_queries()
        # through the module, as perfbench/workloads.py calls it
        routing_mod.measure_competitiveness(pipe.topo, routes)
    names = {s.name for s in tracer.spans}
    assert {name for _, _, name, _ in tracer_mod.SPANS} - names == set()
    assert tracer.counts["routing.segment_crosses_polygon.calls"] > 0
