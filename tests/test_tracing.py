"""The benchmark tracer still finds every function it wraps.

perfbench/tracer.py wraps public functions by module and name; renaming
or moving one breaks `perfbench/run.py --trace 1`.  The tracer is loaded
from its file, not changed.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from hullroute.pipeline import Pipeline
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
