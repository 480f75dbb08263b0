"""Segment walking, waypoint graphs, and the five-case router."""

from __future__ import annotations

import itertools
import logging
import math
import random
import re

import pytest

from oracles import brute_cdt, brute_dijkstra, brute_udg_edges, brute_visible

import hullroute.routing as routing_mod

from hullroute.errors import (
    AssumptionViolationError,
    DispatchError,
    NoPathError,
    NodeLookupError,
    NotReadyError,
)
from hullroute.geometry import (
    Point,
    dist,
    point_in_polygon,
    segment_polygon_params,
)
from hullroute.holes import (
    KIND_OUTER_BOUNDARY,
    build_hull_abstraction,
    classify_rings,
    detect_boundary_nodes,
    detect_outer_holes,
    form_rings,
)
from hullroute.ldel import build_ldel2, build_udg
from hullroute.routing import (
    BACKEND_ODEL,
    BACKEND_VIS,
    HitHoleNode,
    HullPolygon,
    ReachedTarget,
    Router,
    _extreme_points,
    _udg_shortest,
    build_overlay_delaunay,
    build_visibility_graph,
    chew_route,
    measure_competitiveness,
    overlay_shortest_path,
)
from hullroute.scenario import fixture_topology
from hullroute.simengine import RoundEngine


def build_stack(name):
    """Fixture topology through rings, abstractions, and outer holes."""
    topo = fixture_topology(name)
    g = build_ldel2(topo)
    eng = RoundEngine(topo)
    rings = form_rings(g, detect_boundary_nodes(g))
    jumps = classify_rings(eng, rings)
    abstractions, _ = build_hull_abstraction(eng, rings, jumps)
    outer = next(r for r in rings if r.kind == KIND_OUTER_BOUNDARY)
    arcs = detect_outer_holes(
        g, outer, hull_nodes=abstractions[outer.ring_id].hull_nodes, first_id=len(rings)
    )
    for arc in arcs:
        a, b = arc.members[0], arc.members[-1]
        topo.learn(a, b)
        topo.learn(b, a)
    arc_abstractions, _ = build_hull_abstraction(eng, arcs)
    abstractions.update(arc_abstractions)
    return topo, g, eng, rings + arcs, abstractions


@pytest.fixture(scope="module")
def grid():
    topo, g, eng, rings, ab = build_stack("grid36-hole4")
    return topo, g, eng, rings, ab, Router(g, rings, ab)


@pytest.fixture(scope="module")
def star():
    topo, g, eng, rings, ab = build_stack("star12-4")
    return topo, g, eng, rings, ab, Router(g, rings, ab)


@pytest.fixture(scope="module")
def crescent():
    topo, g, eng, rings, ab = build_stack("crescent-24")
    return topo, g, eng, rings, ab, Router(g, rings, ab)


def path_length(g, path):
    return sum(dist(g.points[a], g.points[b]) for a, b in zip(path, path[1:]))


# ---------------------------------------------------------------------------
# chew_route


def test_chew_adjacent_pair_is_trivial(grid):
    topo, g, *_ = grid
    u, v = sorted(g.edges)[0]
    path, out = chew_route(g, u, v)
    assert path == [u, v]
    assert isinstance(out, ReachedTarget)
    assert path_length(g, path) <= 5.9 * dist(g.points[u], g.points[v])


def test_chew_visible_pairs_within_bound(grid):
    topo, g, *_ = grid
    ids = sorted(topo.points)
    reached = 0
    for s, t in itertools.combinations(ids, 2):
        path, out = chew_route(g, s, t)
        assert path[0] == s
        if isinstance(out, ReachedTarget):
            reached += 1
            assert path[-1] == t
            assert path_length(g, path) <= 5.9 * dist(topo.points[s], topo.points[t]) + 1e-9
    assert reached >= 100


def test_chew_blocked_pair_stops_on_blocking_ring(grid):
    topo, g, eng, rings, ab, router = grid
    inner = next(r for r in rings if r.kind == "InnerHole")
    ring_poly = [topo.points[v] for v in inner.members]
    s, t = 4, 12
    # the straight segment really does cross the hole (independent check)
    assert not brute_visible(topo.points[s], topo.points[t], [ring_poly])
    path, out = chew_route(g, s, t)
    assert isinstance(out, HitHoleNode)
    assert out.node in inner.members
    assert path[-1] == out.node


def test_chew_visits_only_crossed_faces(grid):
    topo, g, *_ = grid

    def crossed_faces(ps, pt):
        touched = set()
        for fi, cyc in enumerate(g.faces):
            if fi == g.outer_face:
                continue
            poly = [g.points[v] for v in cyc]
            params = segment_polygon_params(ps, pt, poly)
            inside = point_in_polygon(ps, poly, strict=False) or point_in_polygon(
                pt, poly, strict=False
            )
            if params or inside:
                touched.add(fi)
        return touched

    rng = random.Random(2)
    ids = sorted(topo.points)
    checked = 0
    while checked < 40:
        s, t = rng.sample(ids, 2)
        path, out = chew_route(g, s, t)
        if not isinstance(out, ReachedTarget) or len(path) < 3:
            continue
        allowed = set()
        for fi in crossed_faces(topo.points[s], topo.points[t]):
            allowed.update(g.faces[fi])
        assert set(path) <= allowed, (s, t, set(path) - allowed)
        checked += 1


def test_chew_passes_vertex_sitting_on_segment():
    pts = {
        0: Point(0.0, 0.0),
        1: Point(0.8, 0.5),
        2: Point(0.8, -0.5),
        3: Point(0.8, 0.0),
        4: Point(1.6, 0.0),
    }
    topo = build_udg(pts)
    g = build_ldel2(topo)
    path, out = chew_route(g, 0, 4)
    assert isinstance(out, ReachedTarget)
    assert path == [0, 3, 4]


def test_chew_rejects_unknown_positions(grid):
    topo, g, *_ = grid
    with pytest.raises(NodeLookupError):
        chew_route(g, 0, 10_000)
    with pytest.raises(NodeLookupError):
        chew_route(g, 10_000, 0)


# ---------------------------------------------------------------------------
# visibility graph


def square_hull(hole_id, base, x0=0.0, y0=0.0, side=1.0):
    pts = (
        Point(x0, y0),
        Point(x0 + side, y0),
        Point(x0 + side, y0 + side),
        Point(x0, y0 + side),
    )
    return HullPolygon(hole_id, tuple(range(base, base + 4)), pts)


def test_visibility_single_square_has_no_diagonals():
    vg = build_visibility_graph([square_hull(0, 10)])
    edges = {(u, v) for u in vg.adj for v in vg.adj[u] if u < v}
    assert edges == {(10, 11), (11, 12), (12, 13), (10, 13)}


def test_visibility_two_squares_matches_brute_force():
    a = square_hull(0, 10)
    b = square_hull(1, 20, x0=1.7, y0=0.3)
    vg = build_visibility_graph([a, b])
    polys = [list(a.pts), list(b.pts)]
    boundary = {(10, 11), (11, 12), (12, 13), (10, 13), (20, 21), (21, 22), (22, 23), (20, 23)}
    for u, v in itertools.combinations(sorted(vg.positions), 2):
        expected = (u, v) in boundary or brute_visible(vg.positions[u], vg.positions[v], polys)
        assert (v in vg.adj[u]) == expected, (u, v)
        if v in vg.adj[u]:
            assert vg.adj[u][v] == pytest.approx(dist(vg.positions[u], vg.positions[v]))


def test_visibility_no_holes_is_empty():
    vg = build_visibility_graph([])
    assert vg.adj == {}


def test_visibility_rejects_intersecting_hulls():
    a = square_hull(0, 10)
    b = square_hull(1, 20, x0=0.5, y0=0.5)
    with pytest.raises(AssumptionViolationError):
        build_visibility_graph([a, b])


def test_visibility_allows_shared_tangent_edge():
    # two hulls meeting along one full edge keep disjoint interiors
    a = HullPolygon(0, (1, 2, 3), (Point(0, 0), Point(1, 0), Point(0.5, 0.8)))
    b = HullPolygon(1, (1, 2, 4), (Point(0, 0), Point(1, 0), Point(0.5, -0.8)))
    vg = build_visibility_graph([a, b])
    assert (2 in vg.adj[1]) and (3 in vg.adj[1]) and (4 in vg.adj[1])


def test_visibility_includes_all_hull_edges(grid):
    *_, router = grid
    for hull in router.waypoints.hulls:
        k = len(hull.nodes)
        for i in range(k):
            u, v = hull.nodes[i], hull.nodes[(i + 1) % k]
            assert v in router.waypoints.adj[u], (hull.hole_id, u, v)


# ---------------------------------------------------------------------------
# overlay Delaunay


def test_overlay_single_triangle_keeps_its_edges():
    tri = HullPolygon(0, (1, 2, 3), (Point(0, 0), Point(1, 0), Point(0.4, 0.9)))
    od = build_overlay_delaunay(build_visibility_graph([tri]))
    edges = {(u, v) for u in od.adj for v in od.adj[u] if u < v}
    assert edges == {(1, 2), (1, 3), (2, 3)}


def test_overlay_two_triangles_matches_circle_oracle():
    t1 = HullPolygon(0, (1, 2, 3), (Point(0, 0), Point(1.1, 0.1), Point(0.4, 0.9)))
    t2 = HullPolygon(1, (4, 5, 6), (Point(2.3, 0.2), Point(3.2, 0.4), Point(2.6, 1.2)))
    od = build_overlay_delaunay(build_visibility_graph([t1, t2]))
    got = {(u, v) for u in od.adj for v in od.adj[u] if u < v}
    _, expected = brute_cdt(
        [((1, 2, 3), list(t1.pts)), ((4, 5, 6), list(t2.pts))]
    )
    assert got == expected
    assert {(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)} <= got
    assert len(got) <= 3 * 6 - 6


def test_overlay_on_fixture_hulls_is_planar_and_constrained(grid, star):
    from hullroute.geometry import segments_properly_intersect

    for stack in (grid, star):
        topo, g, eng, rings, ab, _ = stack
        od = Router(g, rings, ab, backend=BACKEND_ODEL).waypoints
        edges = sorted({(u, v) for u in od.adj for v in od.adj[u] if u < v})
        n = len(od.positions)
        if n >= 3:
            assert len(edges) <= 3 * n - 6
        assert od.constraints <= set(edges)
        for (a, b), (c, d) in itertools.combinations(edges, 2):
            assert not segments_properly_intersect(
                od.positions[a], od.positions[b], od.positions[c], od.positions[d]
            ), ((a, b), (c, d))
        # no edge may cut through a hull interior
        for u, v in edges:
            assert (u, v) in od.constraints or not any(
                brute_visible(od.positions[u], od.positions[v], [list(h.pts)]) is False
                for h in od.hulls
            )


# ---------------------------------------------------------------------------
# overlay shortest path


def square_positions(vg, **ends):
    """Graph vertex positions plus named endpoints 100, 101, ... in order."""
    pts = dict(vg.positions)
    pts.update({100 + i: p for i, p in enumerate(ends.values())})
    return pts


def test_shortest_path_direct_when_visible():
    vg = build_visibility_graph([square_hull(0, 10)])
    pts = square_positions(vg, s=Point(-1.0, -1.0), t=Point(-1.0, 2.0))
    assert overlay_shortest_path(vg, 100, 101, pts) == [100, 101]


def test_shortest_path_same_endpoint_is_single_waypoint():
    vg = build_visibility_graph([square_hull(0, 10)])
    pts = square_positions(vg, s=Point(-1.0, 0.5))
    assert overlay_shortest_path(vg, 100, 100, pts) == [100]
    assert overlay_shortest_path(vg, 12, 12, pts) == [12]


def test_shortest_path_detours_around_square():
    vg = build_visibility_graph([square_hull(0, 10)])
    pts = square_positions(vg, s=Point(-0.5, 0.55), t=Point(1.5, 0.45))
    chain = overlay_shortest_path(vg, 100, 101, pts)
    total = sum(dist(pts[a], pts[b]) for a, b in zip(chain, chain[1:]))
    top = [100, 13, 12, 101]
    bottom = [100, 10, 11, 101]
    best = min(
        sum(dist(pts[a], pts[b]) for a, b in zip(w, w[1:])) for w in (top, bottom)
    )
    assert total == pytest.approx(best, abs=1e-12)
    assert chain in (top, bottom)


def test_shortest_path_tie_breaks_lexicographically():
    vg = build_visibility_graph([square_hull(0, 10)])
    pts = square_positions(vg, s=Point(-0.5, 0.5), t=Point(1.5, 0.5))
    # both detours tie exactly; the lower corner ids (10, 11) must win
    assert overlay_shortest_path(vg, 100, 101, pts) == [100, 10, 11, 101]


def test_shortest_path_temporary_target_sorts_before_vertices():
    vg = build_visibility_graph([square_hull(0, 10)])
    pts = square_positions(vg, s=Point(-1.0, 0.0), t=Point(2.0, 0.0))
    # from corner 10 the target (inserted first-sorting) is reached along
    # the bottom edge; the tie via vertex 11 loses to the direct last hop
    assert overlay_shortest_path(vg, 10, 101, pts) == [10, 101]
    # a vertex target ends the chain once, as itself
    assert overlay_shortest_path(vg, 100, 12, pts) == [100, 13, 12]


def test_shortest_path_unreachable_raises():
    vg = build_visibility_graph([square_hull(0, 10)])
    pts = square_positions(vg, s=Point(0.5, 0.5), t=Point(2.0, 2.0))
    with pytest.raises(NoPathError):
        overlay_shortest_path(vg, 100, 101, pts)
    with pytest.raises(NodeLookupError):
        overlay_shortest_path(vg, 999, 101, pts)


# ---------------------------------------------------------------------------
# route: visible and case 1


def sample_pairs(topo, n, seed):
    rng = random.Random(seed)
    ids = sorted(topo.points)
    return [tuple(rng.sample(ids, 2)) for _ in range(n)]


def test_route_visible_and_case1_bounds_both_backends(grid):
    topo, g, eng, rings, ab, _ = grid
    for backend, bound in ((BACKEND_VIS, 17.7), (BACKEND_ODEL, 35.37)):
        router = Router(g, rings, ab, backend=backend)
        seen = {"Visible": 0, "Case1": 0}
        for s, t in itertools.combinations(sorted(topo.points), 2):
            topo.learn(s, t)
            res = router.route(eng, s, t)
            assert res.path[0] == s and res.path[-1] == t
            assert res.competitive_ratio >= 1.0 - 1e-9
            for a, b in zip(res.path, res.path[1:]):
                assert g.has_edge(a, b)
            if res.case_taken == "Visible":
                seen["Visible"] += 1
                assert res.euclidean_length <= 5.9 * res.straight_line + 1e-9
            elif res.case_taken == "Case1":
                seen["Case1"] += 1
                assert res.competitive_ratio <= bound
        assert seen["Visible"] >= 100
        assert seen["Case1"] >= 100


def test_route_round_and_message_accounting(grid):
    topo, g, eng, rings, ab, router = grid
    s, t = 4, 12
    topo.learn(s, t)
    before = len(eng.transcript)
    res = router.route(eng, s, t)
    lines = eng.transcript[before:]
    hops = len(res.path) - 1
    assert res.rounds_used == 2 + hops
    assert res.longrange_msgs == 2
    lr = [l for l in lines if l["channel"] == "longrange"]
    data = [l for l in lines if l["tag"] == "rt_data"]
    assert [l["tag"] for l in lr] == ["rt_query", "rt_pos"]
    assert len(data) == hops
    assert all(l["channel"] == "adhoc" for l in data)
    # consecutive custody: hop k starts where hop k-1 ended
    assert [l["src"] for l in data] == res.path[:-1]
    assert [l["dst"] for l in data] == res.path[1:]


def test_route_self_pair(grid):
    topo, g, eng, rings, ab, router = grid
    res = router.route(eng, 7, 7)
    assert res.path == [7]
    assert res.rounds_used == 0
    assert res.longrange_msgs == 0
    assert res.competitive_ratio == 1.0


def test_route_unknown_endpoint(grid):
    topo, g, eng, rings, ab, router = grid
    with pytest.raises(NodeLookupError):
        router.route(eng, 0, 10_000)


def test_route_waypoint_legs_within_chew_bound(grid):
    topo, g, eng, rings, ab, router = grid
    checked = 0
    for s, t in sample_pairs(topo, 120, seed=5):
        topo.learn(s, t)
        res = router.route(eng, s, t)
        for d_m, realized in res.legs:
            assert realized <= 5.9 * d_m + 1e-9, (s, t, d_m, realized)
            checked += 1
        if res.legs:
            # realized ad hoc length of the waypoint portion vs leg sum
            assert sum(r for _, r in res.legs) <= 5.9 * sum(d for d, _ in res.legs) + 1e-9
    assert checked >= 20


def test_route_geometric_bends_are_hull_vertices(grid):
    topo, g, eng, rings, ab, router = grid
    found = 0
    for s, t in itertools.combinations(sorted(topo.points), 2):
        if router.locate(s) is not None or router.locate(t) is not None:
            continue
        chain = overlay_shortest_path(router.waypoints, s, t, topo.points)
        assert chain[0] == s and chain[-1] == t
        if len(chain) <= 2:
            continue
        for bend in chain[1:-1]:
            assert bend in router.waypoints.positions
        found += 1
        if found >= 50:
            break
    assert found >= 10


# ---------------------------------------------------------------------------
# route: cases 2-5


def nodes_by_pocket(topo, router):
    pockets = {}
    for v in sorted(topo.points):
        loc = router.locate(v)
        if loc is not None:
            pockets.setdefault((loc[0].ring.ring_id, loc[1]), []).append(v)
    return pockets


def test_route_case2_one_endpoint_inside(star):
    topo, g, eng, rings, ab, router = star
    pockets = nodes_by_pocket(topo, router)
    inside = next(iter(sorted(pockets.items())))[1][0]
    outside = next(v for v in sorted(topo.points) if router.locate(v) is None)
    topo.learn(inside, outside)
    res = router.route(eng, inside, outside)
    assert res.case_taken == "Case2"
    assert res.path[0] == inside and res.path[-1] == outside
    assert res.competitive_ratio >= 1.0 - 1e-9
    for a, b in zip(res.path, res.path[1:]):
        assert g.has_edge(a, b)


def test_route_case3_different_hulls(star):
    topo, g, eng, rings, ab, router = star
    pockets = nodes_by_pocket(topo, router)
    by_ring = {}
    for (rid, _), vs in sorted(pockets.items()):
        by_ring.setdefault(rid, []).extend(vs)
    rids = sorted(by_ring)
    assert len(rids) >= 2, "fixture must provide two separate obstacles with interior nodes"
    s, t = by_ring[rids[0]][0], by_ring[rids[1]][0]
    topo.learn(s, t)
    res = router.route(eng, s, t)
    assert res.case_taken == "Case3"
    assert res.path[0] == s and res.path[-1] == t


def test_route_case4_same_hull_different_bays(star):
    topo, g, eng, rings, ab, router = star
    pockets = nodes_by_pocket(topo, router)
    by_ring = {}
    for (rid, bay), vs in sorted(pockets.items()):
        by_ring.setdefault(rid, {})[bay] = vs
    rid, bays = next((r, b) for r, b in sorted(by_ring.items()) if len(b) >= 2)
    bay_ids = sorted(bays)
    s, t = bays[bay_ids[0]][0], bays[bay_ids[1]][0]
    topo.learn(s, t)
    res = router.route(eng, s, t)
    assert res.case_taken == "Case4"
    assert res.path[0] == s and res.path[-1] == t


def test_route_case5_and_route_bay(crescent):
    topo, g, eng, rings, ab, router = crescent
    pockets = nodes_by_pocket(topo, router)
    (rid, bay), members = max(pockets.items(), key=lambda kv: len(kv[1]))
    assert len(members) >= 6
    saw_extreme = False
    for s, t in itertools.combinations(members, 2):
        topo.learn(s, t)
        res = router.route_bay(eng, s, t)
        assert res.case_taken == "Case5"
        bound = (2 + res.e_route) * 5.9
        assert res.competitive_ratio <= bound + 1e-9
        saw_extreme = saw_extreme or res.e_route >= 1
        via_route = router.route(eng, s, t)
        assert via_route.case_taken == "Case5"
    assert saw_extreme, "no pair in the deep bay routed via an extreme point"


def test_route_bay_trivial_and_dispatch_errors(crescent):
    topo, g, eng, rings, ab, router = crescent
    pockets = nodes_by_pocket(topo, router)
    members = next(iter(sorted(pockets.items())))[1]
    res = router.route_bay(eng, members[0], members[0])
    assert res.path == [members[0]]
    assert res.euclidean_length == 0.0
    outside = next(v for v in sorted(topo.points) if router.locate(v) is None)
    with pytest.raises(DispatchError):
        router.route_bay(eng, members[0], outside)


# ---------------------------------------------------------------------------
# readiness and measurement


def test_router_requires_classified_rings_and_abstractions(grid):
    topo, g, eng, rings, ab, _ = grid
    partial = dict(ab)
    partial.pop(rings[0].ring_id)
    with pytest.raises(NotReadyError):
        Router(g, rings, partial)
    with pytest.raises(DispatchError):
        Router(g, rings, ab, backend="magic")


def test_router_builds_only_its_backend(grid, monkeypatch):
    topo, g, eng, rings, ab, _ = grid
    calls = {"disjoint": 0, "overlay": 0}
    check, thin = routing_mod._check_disjoint, routing_mod.build_overlay_delaunay

    def counted_check(hulls):
        calls["disjoint"] += 1
        return check(hulls)

    def counted_thin(vis):
        calls["overlay"] += 1
        return thin(vis)

    monkeypatch.setattr(routing_mod, "_check_disjoint", counted_check)
    monkeypatch.setattr(routing_mod, "build_overlay_delaunay", counted_thin)
    vis = Router(g, rings, ab, backend=BACKEND_VIS).waypoints
    assert calls == {"disjoint": 1, "overlay": 0}
    od = Router(g, rings, ab, backend=BACKEND_ODEL).waypoints
    assert calls == {"disjoint": 2, "overlay": 1}
    # the thinning keeps a subset of the visibility edges, hull edges included
    assert od.constraints == vis.constraints
    assert all(set(od.adj[v]) <= set(vis.adj[v]) for v in od.adj)


def test_udg_oracle_follows_moved_nodes():
    topo = fixture_topology("grid36-hole4")
    s, t = topo.ids[0], topo.ids[-1]
    before = _udg_shortest(topo, s, t)
    assert before == pytest.approx(brute_dijkstra(topo.points, brute_udg_edges(topo.points), s)[t])
    p = topo.points[s]
    topo.move_node(t, Point(p.x + 0.13, p.y + 0.07))
    after = _udg_shortest(topo, s, t)
    fresh = build_udg(dict(topo.points))
    assert after == _udg_shortest(fresh, s, t) == pytest.approx(math.hypot(0.13, 0.07))
    assert after < before


def test_extreme_points_of_collinear_sub_path_are_its_ends():
    pts = {7: Point(0.0, 0.0), 3: Point(0.5, 0.5), 9: Point(1.0, 1.0), 4: Point(2.0, 2.0)}
    assert _extreme_points(pts, [7, 3, 9, 4]) == [7, 4]
    pts[3] = Point(0.5, 0.9)
    assert _extreme_points(pts, [7, 3, 9, 4]) == [7, 3, 4]


def test_route_logs_one_line_per_query_with_replans(grid, caplog, monkeypatch):
    topo, g, eng, rings, ab, router = grid
    pairs = sample_pairs(topo, 40, seed=4)
    line = re.compile(r"query (\d+)->(\d+): (\w+), (\d+) hops, (\d+) replans")
    with caplog.at_level(logging.DEBUG, logger="hullroute.routing"):
        results = []
        for s, t in pairs:
            topo.learn(s, t)
            results.append(router.route(eng, s, t))
    rows = [line.fullmatch(r.getMessage()).groups() for r in caplog.records]
    assert rows == [
        (str(s), str(t), r.case_taken, str(len(r.path) - 1), "0") for (s, t), r in zip(pairs, results)
    ]

    # a waypoint leg that stops on a hole makes the router plan again
    s, t, res = next((s, t, r) for (s, t), r in zip(pairs, results) if r.case_taken == "Case1")
    _, first_hit = chew_route(g, s, t)
    leg = router._leg
    stops = []

    def stop_once(cur, tgt):
        if not stops:
            stops.append(cur)
            return [cur], HitHoleNode(cur, first_hit.face)
        return leg(cur, tgt)

    monkeypatch.setattr(router, "_leg", stop_once)
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="hullroute.routing"):
        again = router.route(eng, s, t)
    assert again.path == res.path
    assert caplog.records[-1].getMessage().endswith(", 1 replans")


def test_route_rejected_during_protocol_phase(grid):
    topo, g, eng, rings, ab, router = grid
    hits = []

    def handler(engine, v, inbox):
        if v == 0 and not hits:
            with pytest.raises(NotReadyError):
                router.route(engine, 4, 12)
            hits.append(True)
        return True

    eng.run_phase("query_during_phase", handler, max_rounds=2)
    assert hits


def test_measure_competitiveness_agrees_with_router(grid):
    topo, g, eng, rings, ab, router = grid
    results = []
    for s, t in sample_pairs(topo, 60, seed=9):
        topo.learn(s, t)
        results.append(router.route(eng, s, t))
    own = [r.udg_shortest for r in results]
    report = measure_competitiveness(topo, results)
    edges = brute_udg_edges(topo.points)
    for r, before in zip(results, own):
        assert r.udg_shortest == before
        s, t = r.path[0], r.path[-1]
        assert r.udg_shortest == pytest.approx(brute_dijkstra(topo.points, edges, s)[t], rel=1e-12)
        assert r.competitive_ratio >= 1.0 - 1e-9
    assert report["count"] == len(results)
    assert report["max_ratio"] == pytest.approx(max(r.competitive_ratio for r in results))
    for case, slot in report["per_case"].items():
        rs = [r.competitive_ratio for r in results if r.case_taken == case]
        assert slot["count"] == len(rs)
        assert slot["max_ratio"] == pytest.approx(max(rs))
        assert slot["mean_ratio"] == pytest.approx(sum(rs) / len(rs))
        assert slot["mean_ratio"] <= slot["max_ratio"] + 1e-12
