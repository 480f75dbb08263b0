"""Tests of the benchmark itself: span arithmetic, metric rules, inputs, checks.

Run from the repository root with `python3 -m pytest perfbench/tests -q`.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from pathlib import Path

import pytest

import hullroute.pipeline as pipeline_mod
import hullroute.routing as routing_mod
from hullroute import AssumptionViolationError, Pipeline, PipelineConfig, RoundEngine
from hullroute import build_ldel2, fixture_topology, generate_scenario, scaling_spec
from hullroute.holes import (
    KIND_OUTER_BOUNDARY,
    detect_boundary_nodes,
    detect_outer_holes,
    form_rings,
    hull_node_ids,
)
from hullroute.routing import RouteResult, hull_polygon

import metrics
import tracer
import workloads
from tracer import Span, Tracer, instrument, layer_totals

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# self-time arithmetic


def span(sid, name, start, end, parent=None, leaf_s=0.0, **attrs):
    return Span(sid, name, start, end, parent, "build", leaf_s, dict(attrs))


def test_self_time_subtracts_children_and_leaf_calls():
    spans = [
        span(0, "pipeline.build_abstraction", 0.0, 10.0),
        span(1, "ldel.build_ldel2", 1.0, 4.0, parent=0),
        span(2, "simengine.run_phase", 4.0, 9.0, parent=0, leaf_s=2.0, rounds=7),
    ]
    t = layer_totals(spans)
    assert t["pipeline.build_abstraction"]["self_s"] == pytest.approx(2.0)
    assert t["ldel.build_ldel2"]["self_s"] == pytest.approx(3.0)
    assert t["simengine.run_phase"]["self_s"] == pytest.approx(3.0)
    assert t["simengine.run_phase"]["s"] == pytest.approx(5.0)
    assert t["simengine.run_phase"]["rounds"] == 7


def test_recursive_chew_route_counts_outermost_spans_once():
    # route -> chew (1..9) -> two recursive halves; a second top-level chew
    spans = [
        span(0, "routing.route", 0.0, 12.0),
        span(1, "routing.chew_route", 1.0, 9.0, parent=0, reached=1.0),
        span(2, "routing.chew_route", 2.0, 5.0, parent=1, reached=1.0),
        span(3, "routing.chew_route", 5.0, 8.0, parent=1, reached=1.0),
        span(4, "routing.chew_route", 10.0, 11.0, parent=0, reached=0.0),
    ]
    t = layer_totals(spans)
    chew = t["routing.chew_route"]
    assert chew["calls"] == 2
    assert chew["s"] == pytest.approx(9.0)
    assert chew["self_s"] == pytest.approx(9.0)
    assert chew["reached"] == 1.0
    assert t["routing.route"]["self_s"] == pytest.approx(3.0)


def test_tracer_nests_spans_and_charges_leaves_to_the_open_span():
    ticks = itertools.count()
    tr = Tracer(clock=lambda: float(next(ticks)))
    tr.request = "query:0"
    with tr.span("outer"):
        with tr.span("inner"):
            tr.leaf("simengine.send", 0.5)
    outer, inner = tr.spans
    assert inner.parent == outer.sid and outer.parent is None
    assert inner.request == "query:0"
    assert (outer.start, inner.start, inner.end, outer.end) == (0.0, 1.0, 2.0, 3.0)
    assert inner.leaf_s == 0.5 and outer.leaf_s == 0.0
    assert tr.counts["simengine.send.calls"] == 1
    t = layer_totals(tr.spans)
    assert t["inner"]["self_s"] == pytest.approx(0.5)
    assert t["outer"]["self_s"] == pytest.approx(2.0)


def test_instrument_restores_originals_and_keeps_results():
    originals = [vars(owner)[attr] for owner, attr, _, _ in tracer.SPANS]
    send = vars(RoundEngine)["send"]

    def build():
        pipe = Pipeline(fixture_topology("grid36-hole4"), PipelineConfig(strict=False))
        pipe.build_abstraction()
        return pipe

    plain = build()
    tr = Tracer()
    with instrument(tr):
        traced = build()
    assert traced.abstraction_digest() == plain.abstraction_digest()
    assert traced.protocol_rounds == plain.protocol_rounds
    assert traced.engine.total_bytes == plain.engine.total_bytes
    assert [vars(owner)[attr] for owner, attr, _, _ in tracer.SPANS] == originals
    assert vars(RoundEngine)["send"] is send
    assert pipeline_mod.build_ldel2 is build_ldel2
    names = {s.name for s in tr.spans}
    assert {"ldel.build_ldel2", "overlay.pointer_jumping", "simengine.run_phase", "routing.Router"} <= names
    values = metrics.per_layer_values(tr, queries=0)
    assert values["simengine.send.calls"] == plain.engine.total_messages
    assert 0.0 < values["simengine.handler_active_ratio"] <= 1.0
    assert values["holes.build_hull_abstraction.calls"] == len(plain.rings)


# ---------------------------------------------------------------------------
# metric rules


def test_percentile_rule_needs_ten_samples_beyond_p95():
    assert metrics.tail_percentile([float(i) for i in range(199)], 0.95) is None
    value, beyond = metrics.tail_percentile([float(i) for i in range(200)], 0.95)
    assert (value, beyond) == (189.0, 10)
    assert metrics.percentile([3.0, 1.0, 2.0], 0.5) == (2.0, 1)


def fake_pass(seed, latencies):
    p = workloads.PassResult(seed, setup_s=[0.1], build_s=1.0, run_s=2.0, route_ms=latencies,
                             loop_s=0.5, attempted=1 + len(latencies))
    p.sim = {"protocol_rounds": 10, "abstraction_messages": 20, "abstraction_bytes": 30,
             "longrange_per_node_max": 4, "bounds_failed": 0}
    return p


def test_end_to_end_leaves_out_p95_without_ten_samples_beyond():
    few = [fake_pass(1, [1.0] * 90), fake_pass(1, [2.0] * 90)]
    values, _ = workloads.end_to_end(few)
    assert "query_ms_p50" in values and "query_ms_p95" not in values
    many = [fake_pass(1, [1.0] * 150), fake_pass(1, [2.0] * 150)]
    values, notes = workloads.end_to_end(many)
    assert values["query_ms_p95"] == 2.0
    assert notes["query_ms_p95"] == "n=300, 15 beyond"
    # simulated metrics come from the distinct instances, not the repeat
    assert values["protocol_rounds"] == 10


def test_metric_names_and_units_are_well_formed():
    names = list(metrics.END_TO_END) + [m.name for m in metrics.LAYER_METRICS]
    assert len(names) == len(set(names))
    for name in names:
        assert metrics.NAME_RE.fullmatch(name) and len(name) <= 64, name
    unit_re = r"[A-Za-z0-9_/%.-]{1,16}"
    for unit in metrics.END_TO_END.values():
        assert re.fullmatch(unit_re, unit)
    for m in metrics.LAYER_METRICS:
        assert re.fullmatch(unit_re, metrics.layer_unit(m.name))


def test_benchmark_json_matches_the_harness():
    listed = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    for name, m in listed.items():
        assert m["unit"] == metrics.END_TO_END[name]
        assert 0 < m["bound"] <= 0.25
    assert listed["setup_s"]["better"] == "lower"
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        (m.name, metrics.layer_unit(m.name), m.better) for m in metrics.LAYER_METRICS
    ]
    for w in BENCHMARK["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why


# ---------------------------------------------------------------------------
# inputs


def obstacle_hulls(spec):
    """Centralized hulls of every hole a Router would route around.

    Inner holes plus the outer holes hanging off the outer boundary, the
    same rings the pipeline hands to the Router, without its slow build.
    """
    topo = generate_scenario(spec)
    g = build_ldel2(topo)
    rings = form_rings(g, detect_boundary_nodes(g))
    outer_face = frozenset(g.faces[g.outer_face])
    outer = next(r for r in rings if frozenset(r.members) == outer_face)
    outer.kind = KIND_OUTER_BOUNDARY
    holes = [r for r in rings if r is not outer]
    holes += detect_outer_holes(g, outer, first_id=len(rings))
    return [hull_polygon(topo.points, r.ring_id, hull_node_ids(topo.points, r.members)) for r in holes]


def test_many_holes_generator_is_deterministic_by_seed():
    a = workloads.many_holes_spec(1024, 6, seed=3)
    b = workloads.many_holes_spec(1024, 6, seed=3)
    assert a == b and len(a.obstacles) == 36
    assert generate_scenario(a).points == generate_scenario(b).points
    other = generate_scenario(workloads.many_holes_spec(1024, 6, seed=4)).points
    assert other != generate_scenario(a).points
    # the squares themselves never touch
    for p, q in itertools.combinations(a.obstacles, 2):
        (px0, py0, px1, py1), (qx0, qy0, qx1, qy1) = p.bounds(), q.bounds()
        assert px1 < qx0 or qx1 < px0 or py1 < qy0 or qy1 < py0


def test_many_holes_hulls_are_disjoint_and_denser_grids_are_not():
    hulls = obstacle_hulls(workloads.many_holes_spec(1024, 6, seed=5))
    assert len(hulls) == 50  # 36 squares and 14 outer holes
    routing_mod._check_disjoint(hulls)
    # a 5x5 grid on scaling_spec(576) puts corner squares across outer holes
    with pytest.raises(AssumptionViolationError, match="intersect"):
        routing_mod._check_disjoint(obstacle_hulls(workloads.many_holes_spec(576, 5, seed=5)))


def test_instances_follow_seed_and_seconds_and_skip_inadmissible_draws():
    wl = workloads.WORKLOADS["queries-512"]

    def fake(seed):
        return workloads.PassResult(seed, inadmissible="hulls intersect" if seed % 3 == 0 else "")

    done, skipped = workloads.run_instances(wl, 7, 25, fake)
    assert [p.seed for p in done][0] == 7 and len(done) == round(25 / wl.nominal_pass_s)
    assert [p.seed for p in done] == [p.seed for p in workloads.run_instances(wl, 7, 25, fake)[0]]
    assert all(p.seed % 3 for p in done) and all("hulls intersect" in line for line in skipped)
    assert len(workloads.run_instances(wl, 7, 1, fake)[0]) == 1
    never, skipped = workloads.run_instances(wl, 3, 25, lambda s: fake(3))
    assert never == [] and len(skipped) == workloads.MAX_SKIPPED + 1


# ---------------------------------------------------------------------------
# output checks


@pytest.fixture(scope="module")
def small_pipe():
    pipe = Pipeline(generate_scenario(scaling_spec(144, 2)), PipelineConfig(strict=False))
    pipe.build_abstraction()
    return pipe


def test_hull_check_accepts_the_distributed_hulls_and_flags_a_wrong_one(small_pipe):
    assert workloads.hull_violations(small_pipe) == []
    ring = small_pipe.rings[0]
    ab = small_pipe.abstractions[ring.ring_id]
    saved = list(ab.hull_nodes)
    ab.hull_nodes[:] = saved[1:] + saved[:1]
    try:
        assert len(workloads.hull_violations(small_pipe)) == 1
    finally:
        ab.hull_nodes[:] = saved


def test_path_check_flags_wrong_ends_and_non_edges(small_pipe):
    g = small_pipe.g
    u = min(g.points)
    v = g.adj[u][0]
    assert workloads.path_violation(small_pipe, u, v, [u, v]) is None
    assert "path runs" in workloads.path_violation(small_pipe, u, v, [v, u])
    far = max(g.points, key=lambda w: math.dist(g.points[u], g.points[w]))
    assert "not an LDel2 edge" in workloads.path_violation(small_pipe, u, far, [u, far])


def route(case, length, ratio, straight=1.0, e_route=0):
    return RouteResult([1, 2], length, length / ratio, straight, ratio, case, 0, 0, e_route=e_route)


@pytest.mark.parametrize(
    "res, backend, bad",
    [
        (route("Visible", 5.8, 1.0), "visibility", False),
        (route("Visible", 6.0, 1.0), "visibility", True),
        (route("Case1", 20.0, 17.8), "visibility", True),
        (route("Case1", 20.0, 17.8), "overlay-delaunay", False),
        (route("Case1", 40.0, 35.5), "overlay-delaunay", True),
        (route("Case5", 20.0, 17.0, e_route=1), "visibility", False),
        (route("Case5", 20.0, 12.0, e_route=0), "visibility", True),
        (route("Case3", 99.0, 99.0), "visibility", False),
    ],
)
def test_ratio_check_applies_the_gate_bound_of_each_case(res, backend, bad):
    assert (workloads.ratio_violation(res, backend) is not None) == bad
