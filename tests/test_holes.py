"""Boundary rings: detection, classification, outer holes, bays, hulls."""

from __future__ import annotations

import hashlib
import json
import math
import random

import pytest

from hullroute.errors import (
    AssumptionViolationError,
    EmbeddingCorruptionError,
    GeometryInconsistencyError,
)
from hullroute.geometry import Point, dist
from hullroute.holes import (
    KIND_INNER,
    KIND_OUTER_BOUNDARY,
    KIND_OUTER_HOLE,
    HoleRing,
    build_hull_abstraction,
    classify_rings,
    compute_bays,
    detect_boundary_nodes,
    detect_outer_holes,
    form_rings,
    hole_report,
    hull_node_ids,
)
from hullroute.ldel import PlanarGraph, build_ldel2, build_udg
from hullroute.overlay import assign_hypercube_ids, pointer_jumping
from hullroute.pipeline import Pipeline, PipelineConfig
from hullroute.scenario import fixture_topology, generate_scenario, scaling_spec
from hullroute.simengine import RoundEngine

from oracles import brute_hull, brute_outer_holes, shoelace


def build(engine, rings, jumps=None):
    """A build's wave one: elect (unless given the election's ranks), lay out the ranks, build, classify.

    Returns the abstractions and the rank orders, keyed by ring_id.
    """
    members = {r.ring_id: r.members for r in rings}
    if jumps is None:
        jumps = pointer_jumping(engine, members)
    orders = assign_hypercube_ids(jumps)
    abstractions, orientations = build_hull_abstraction(engine, rings, orders)
    classify_rings(rings, orientations)
    return abstractions, orders


@pytest.fixture(scope="module")
def grid():
    topo = fixture_topology("grid36-hole4")
    g = build_ldel2(topo)
    boundary = detect_boundary_nodes(g)
    rings = form_rings(g, boundary)
    engine = RoundEngine(topo)
    jumps = pointer_jumping(engine, {r.ring_id: r.members for r in rings})
    build(engine, rings, jumps)
    return topo, g, boundary, rings, engine, jumps


def square4():
    topo = build_udg(
        {0: Point(0, 0), 1: Point(0.9, 0), 2: Point(0.9, 0.9), 3: Point(0, 0.9)}
    )
    return topo, build_ldel2(topo)


# ---------------------------------------------------------------------------
# boundary detection and ring formation


def test_boundary_nodes_of_cavity_grid(grid):
    _, g, boundary, rings, _, _ = grid
    assert len(boundary) == 28
    ring_union = set()
    for r in rings:
        ring_union.update(r.members)
    assert ring_union == boundary


def test_triangulated_cloud_has_only_outer_boundary():
    rng = random.Random(9)
    pts = {}
    k = 0
    for j in range(4):
        for i in range(4):
            pts[k] = Point(
                i * 0.55 + rng.uniform(-0.02, 0.02),
                j * 0.55 + rng.uniform(-0.02, 0.02),
            )
            k += 1
    g = build_ldel2(build_udg(pts))
    assert all(
        len(f) == 3 for fi, f in enumerate(g.faces) if fi != g.outer_face
    ), "cloud must triangulate for this scenario"
    boundary = detect_boundary_nodes(g)
    assert boundary == set(g.faces[g.outer_face])


def test_square_cycle_all_boundary():
    topo, g = square4()
    boundary = detect_boundary_nodes(g)
    assert boundary == {0, 1, 2, 3}
    rings = form_rings(g, boundary)
    # the 4-face gives one ring; the outer face always gives another
    assert sorted(len(r.members) for r in rings) == [4, 4]
    build(RoundEngine(topo), rings)
    kinds = sorted(r.kind for r in rings)
    assert kinds == [KIND_INNER, KIND_OUTER_BOUNDARY]
    for r in rings:
        assert r.orientation == (1 if r.kind == KIND_INNER else -1)


def test_cavity_grid_rings(grid):
    _, _, _, rings, _, _ = grid
    assert sorted((r.kind, len(r.members)) for r in rings) == [
        (KIND_INNER, 8),
        (KIND_OUTER_BOUNDARY, 20),
    ]
    for r in rings:
        assert r.orientation == (1 if r.kind == KIND_INNER else -1)
        assert r.perimeter_length > 0
        assert r.enclosed_area > 0
        assert r.bounding_box_circumference > 0


def test_two_disjoint_holes_make_three_rings():
    topo = generate_scenario(scaling_spec(100))
    g = build_ldel2(topo)
    rings = form_rings(g, detect_boundary_nodes(g))
    build(RoundEngine(topo), rings)
    census = sorted((r.kind, len(r.members)) for r in rings)
    assert census == [
        (KIND_INNER, 12),
        (KIND_INNER, 12),
        (KIND_OUTER_BOUNDARY, 36),
    ]


def test_ring_members_touch_exactly_two_ring_neighbors(grid):
    # interior hole cycles are chordless: every member sees exactly its
    # two ring neighbors among the members
    _, g, _, rings, _, _ = grid
    inner = next(r for r in rings if r.kind == KIND_INNER)
    mset = set(inner.members)
    k = len(inner.members)
    for i, v in enumerate(inner.members):
        ring_nbrs = {inner.members[i - 1], inner.members[(i + 1) % k]}
        graph_nbrs = {w for w in g.adj[v] if w in mset}
        assert graph_nbrs == ring_nbrs


def test_form_rings_rejects_broken_chain(grid):
    _, g, boundary, _, _, _ = grid

    class Broken:
        points = g.points
        faces = [tuple([8, 9, 23, 22])]  # 9->23 is not an edge
        outer_face = 0
        is_blocked_face = PlanarGraph.is_blocked_face

        def has_edge(self, u, w):
            return g.has_edge(u, w)

    with pytest.raises(EmbeddingCorruptionError):
        form_rings(Broken(), {8, 9, 23, 22})


def test_form_rings_rejects_revisited_node(grid):
    _, g, _, _, _, _ = grid

    class Pinched:
        points = g.points
        faces = [tuple([8, 9, 8, 22])]
        outer_face = 0
        is_blocked_face = PlanarGraph.is_blocked_face

        def has_edge(self, u, w):
            return g.has_edge(u, w)

    with pytest.raises(AssumptionViolationError):
        form_rings(Pinched(), {8, 9, 22})


def test_classification_matches_signed_area(grid):
    # distributed orientation and centralized shoelace must agree in sign
    topo, _, _, rings, _, _ = grid
    for r in rings:
        area = shoelace([tuple(topo.points[v]) for v in r.members])
        # a ccw walk (+1) has positive area, a cw walk (-1) negative
        assert r.orientation in (1, -1) and r.orientation * area > 0


def test_classify_rejects_figure_eight():
    # a bowtie walk meets its 4-point hull out of hull order: the ranks
    # read around the hull are a rotation of neither an ascending nor a
    # descending list
    pts = {
        0: Point(0.0, 0.0),
        1: Point(0.8, 0.0),
        2: Point(0.0, 0.5),
        3: Point(0.8, 0.5),
    }
    topo = build_udg(pts)
    ring = HoleRing(ring_id=0, members=[0, 1, 2, 3])
    engine = RoundEngine(topo)
    with pytest.raises(GeometryInconsistencyError):
        build(engine, [ring])
    # the leader rejects the ring before it broadcasts the hull
    assert "hullb" not in {t["tag"] for t in engine.transcript}


# ---------------------------------------------------------------------------
# outer holes


def test_cshape_has_one_outer_hole():
    topo = fixture_topology("cshape-40")
    g = build_ldel2(topo)
    rings = form_rings(g, detect_boundary_nodes(g))
    build(RoundEngine(topo), rings)
    assert [(r.kind, len(r.members)) for r in rings] == [(KIND_OUTER_BOUNDARY, 40)]
    outer = rings[0]
    holes = detect_outer_holes(g, outer, hull_node_ids(g.points, outer.members))
    assert len(holes) == 1
    mouth = holes[0]
    assert mouth.kind == KIND_OUTER_HOLE
    assert len(mouth.members) == 22
    # the virtual closing edge spans the mouth, longer than the radio range
    a, b = mouth.members[0], mouth.members[-1]
    assert dist(g.points[a], g.points[b]) > 3.0


def test_grid_rim_outer_holes_are_the_long_chords(grid):
    _, g, _, rings, _, _ = grid
    outer = next(r for r in rings if r.kind == KIND_OUTER_BOUNDARY)
    hull = hull_node_ids(g.points, outer.members)
    assert len(hull) == 8
    holes = detect_outer_holes(g, outer, hull)
    assert sorted(len(h.members) for h in holes) == [3, 3, 3, 3, 4, 4, 6]
    for h in holes:
        assert h.kind == KIND_OUTER_HOLE
        a, b = h.members[0], h.members[-1]
        assert dist(g.points[a], g.points[b]) > 1.0
        assert {a, b} <= set(hull)
        # interior arc nodes are not hull nodes
        assert not set(h.members[1:-1]) & set(hull)


def test_short_hull_edges_make_no_outer_holes():
    # convex blob with hull edges all under the radio range; uneven radii
    # keep the points off a common circle
    k = 9
    pts = {
        i: Point(
            (0.45 + 0.01 * (i % 3)) * math.cos(2 * math.pi * i / k),
            (0.45 + 0.01 * (i % 3)) * math.sin(2 * math.pi * i / k),
        )
        for i in range(k)
    }
    topo = build_udg(pts)
    g = build_ldel2(topo)
    rings = form_rings(g, detect_boundary_nodes(g))
    build(RoundEngine(topo), rings)
    outer = next(r for r in rings if r.kind == KIND_OUTER_BOUNDARY)
    assert detect_outer_holes(g, outer, hull_node_ids(g.points, outer.members)) == []


def test_outer_holes_need_outer_boundary(grid):
    _, g, _, rings, _, _ = grid
    inner = next(r for r in rings if r.kind == KIND_INNER)
    with pytest.raises(AssumptionViolationError):
        detect_outer_holes(g, inner, hull_node_ids(g.points, inner.members))


# sha256 of abstraction_dict() and each ring's (ring_id, kind, members,
# turn, perimeter_length, enclosed_area) after a pipeline build; recorded
# while outer holes still came from a hull-arc walk of their own.
# star12-4, scale-512-1 and grid-2048 were re-pinned when the turn, then
# a float field of degrees, became exactly +-360, read off the hull's
# ranks, where a float sum of turn angles had been within rounding of it.
# The turn is now the int orientation, +1 ccw and -1 cw, and the digest
# hashes it as those degrees, -360.0 * orientation, so every pin stays
# byte-identical: that they still match shows nothing else moved.
ABSTRACTION_PINS = {
    "grid36-hole4": "a83c235b429873cb78c648ec8b8afab17e732f2ddbe99f5879baee2534a219dc",
    "star12-4": "976331c31563b72a2a2345eabdf64e55f3c42969734e9c7e12cd13559b904e00",
    "crescent-24": "2a2f0662f3e02861d5a220242a28fbb1c3e2f48f43147be11430dd09413d7e5b",
    "cshape-40": "906382c78af2c156a64a34da91fe24aca69d60fc2cddb27164bcdb8a92c89041",
    "scale-512-1": "c11f1e44e0d0527b65095210ec12c156a0d2b245d87ac0f1968c3c674dc63631",
    "scale-2048-1": "3a76a1a84e58bbee710f0cb3d3779a12c63202e4ff353cb7bb7bcf607d3169f8",
    "grid-2048": "849cec5125ba4c5ba1519e7e90fb5b5b290ff23a6585f78ad2f6ef56935d5b88",
}


@pytest.fixture(scope="module")
def built():
    """Built pipeline of an ABSTRACTION_PINS instance, each built once."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = Pipeline(fixture_topology(name), PipelineConfig())
            cache[name].build_abstraction()
        return cache[name]

    return get


@pytest.mark.parametrize("name", list(ABSTRACTION_PINS))
def test_abstraction_and_rings_match_pinned_digest(built, name):
    pipe = built(name)
    rings = [
        [r.ring_id, r.kind, r.members, -360.0 * r.orientation, r.perimeter_length, r.enclosed_area]
        for r in sorted(pipe.rings, key=lambda r: r.ring_id)
    ]
    payload = json.dumps([pipe.abstraction_dict(), rings], sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == ABSTRACTION_PINS[name]


@pytest.mark.parametrize("name", list(ABSTRACTION_PINS))
def test_outer_holes_match_the_arc_walk_oracle(built, name):
    pipe = built(name)
    outer = next(r for r in pipe.rings if r.kind == KIND_OUTER_BOUNDARY)
    hull = pipe.abstractions[outer.ring_id].hull_nodes
    arcs = [r for r in pipe.rings if r.kind == KIND_OUTER_HOLE]
    assert [r.members for r in arcs] == brute_outer_holes(pipe.g.points, outer.members, hull)
    for r in arcs:
        area = shoelace([pipe.g.points[v] for v in r.members])
        assert r.orientation == (-1 if area < 0 else 1)


@pytest.mark.parametrize("seed", range(1, 6))
def test_outer_holes_match_the_oracle_on_centralized_hulls(seed):
    g = build_ldel2(generate_scenario(scaling_spec(512, seed)))
    rings = form_rings(g, detect_boundary_nodes(g))
    outer = next(r for r in rings if r.members == list(g.faces[g.outer_face]))
    outer.kind = KIND_OUTER_BOUNDARY
    hull = hull_node_ids(g.points, outer.members)
    want = brute_outer_holes(g.points, outer.members, hull)
    assert want  # the lattice's ragged rim has long hull edges
    holes = detect_outer_holes(g, outer, hull, first_id=7)
    assert [h.members for h in holes] == want
    assert [h.ring_id for h in holes] == list(range(7, 7 + len(want)))


def test_compute_bays_rejects_hull_nodes_off_the_ring():
    pts, members = star_ring()
    ring = HoleRing(ring_id=0, members=members)
    with pytest.raises(AssumptionViolationError, match=r"hull nodes \[99\] not on ring"):
        compute_bays(ring, [0, 3, 99, 6, 9])


# ---------------------------------------------------------------------------
# bays


def star_ring(tips=4, per=3, tip_r=1.3, valley_r=0.9):
    """Star polygon ring: `tips` spikes, `per` vertices per spike sector."""
    k = tips * per
    pts = {}
    members = []
    for i in range(k):
        th = 2.0 * math.pi * i / k
        r = tip_r if i % per == 0 else valley_r
        pts[i] = Point(r * math.cos(th), r * math.sin(th))
        members.append(i)
    return pts, members


def test_convex_ring_has_zero_bays(grid):
    _, g, _, rings, _, _ = grid
    inner = next(r for r in rings if r.kind == KIND_INNER)
    hull = hull_node_ids(g.points, inner.members)
    assert sorted(hull) == sorted(inner.members)  # the cavity ring is convex
    assert compute_bays(inner, hull) == []


def test_star_ring_bays():
    pts, members = star_ring()
    ring = HoleRing(ring_id=0, members=members)
    hull = hull_node_ids(pts, members)
    assert sorted(hull) == [0, 3, 6, 9]  # the four spike tips
    bays = compute_bays(ring, hull)
    assert len(bays) == 4
    for bay in bays:
        assert len(bay.members) == 2
        assert set(bay.edge) <= set(hull)
    covered = [v for bay in bays for v in bay.members]
    assert sorted(covered) == sorted(set(members) - set(hull))


def test_grid_outer_ring_bays_partition_interior(grid):
    _, g, _, rings, _, _ = grid
    outer = next(r for r in rings if r.kind == KIND_OUTER_BOUNDARY)
    hull = hull_node_ids(g.points, outer.members)
    bays = compute_bays(outer, hull)
    covered = [v for bay in bays for v in bay.members]
    assert sorted(covered) == sorted(set(outer.members) - set(hull))
    assert len(covered) == len(set(covered))
    assert sorted(len(b.members) for b in bays) == [1, 1, 1, 1, 2, 2, 4]


# ---------------------------------------------------------------------------
# distributed hull abstraction


def test_hull_abstraction_on_star():
    pts, members = star_ring()
    topo = build_udg(pts)
    engine = RoundEngine(topo)
    ring = HoleRing(ring_id=0, members=members)
    ha = build(engine, [ring])[0][0]
    assert sorted(ha.hull_nodes) == [0, 3, 6, 9]
    assert len(ha.bay_areas) == 4
    for i, bay in enumerate(ha.bay_areas):
        ds = ha.dominating_sets[i]
        assert ds <= set(bay.members)
        for v in bay.members:
            j = bay.members.index(v)
            nbrs = set(bay.members[max(0, j - 1) : j + 2])
            assert v in ds or nbrs & ds


def test_hull_abstraction_reuses_election(grid):
    topo, g, _, rings, _, _ = grid
    inner = next(r for r in rings if r.kind == KIND_INNER)
    engine = RoundEngine(topo)
    jumps = pointer_jumping(engine, {inner.ring_id: inner.members})
    elected = sum(1 for t in engine.transcript if t["tag"] == "pj_succ")
    assert elected > 0
    abstractions, orders = build(engine, [inner], jumps)
    ha = abstractions[inner.ring_id]
    again = sum(1 for t in engine.transcript if t["tag"] == "pj_succ")
    assert again == elected  # no second election
    leader = orders[inner.ring_id][0]
    assert leader == min(inner.members) and jumps[inner.ring_id][leader] == 0
    assert ha.hull_nodes == hull_node_ids(g.points, inner.members)


def test_distributed_hull_matches_centralized_on_rings(grid):
    topo, g, _, rings, _, jumps = grid
    engine = RoundEngine(topo)
    abstractions = build(engine, rings)[0]
    for r in rings:
        hull = abstractions[r.ring_id].hull_nodes
        assert hull == hull_node_ids(g.points, r.members)
        got = sorted(tuple(topo.points[v]) for v in hull)
        assert got == brute_hull([tuple(topo.points[v]) for v in r.members])


def test_hole_report_shape(grid):
    topo, g, _, rings, _, jumps = grid
    engine = RoundEngine(topo)
    abstractions, _ = build(engine, rings)
    cost = {r.ring_id: {"rounds": 0, "longrange_messages": 0, "bytes": 0} for r in rings}
    for rid, rep in engine.session_reports:
        cost[rid]["rounds"] += rep.rounds
        cost[rid]["longrange_messages"] += rep.messages_longrange
        cost[rid]["bytes"] += rep.bytes_total
    rep = hole_report(rings, abstractions, cost)
    assert len(rep) == len(rings)
    for row in rep:
        assert set(row) == {
            "kind",
            "size",
            "perimeter",
            "area",
            "bbox_circumference",
            "hull_size",
            "bay_count",
            "rounds",
            "longrange_messages",
            "bytes",
        }
        assert row["hull_size"] <= row["size"]
        assert row["rounds"] > 0 and row["bytes"] > 0
