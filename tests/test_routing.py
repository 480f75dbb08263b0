"""Segment walking, waypoint graphs, and the five-case router."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import logging
import math
import random
import re
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    brute_cdt,
    brute_corridor,
    brute_dijkstra,
    brute_hull_ccw,
    brute_hulls_overlap,
    brute_udg_edges,
    brute_visible,
    crossing_edge_pairs,
    shoelace,
)

import hullroute.routing as routing_mod

from hullroute.errors import (
    AssumptionViolationError,
    DispatchError,
    GeometryInconsistencyError,
    HullrouteError,
    NoPathError,
    NodeLookupError,
    NotReadyError,
)
from hullroute.geometry import (
    Point,
    _on_segment,
    dist,
    monotone_hull,
    point_in_polygon,
    ring_crossings,
    segment_crosses_polygon,
)
from hullroute.ldel import build_ldel2, build_udg
from hullroute.pipeline import Pipeline, PipelineConfig
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
from hullroute.simengine import tally


def build_stack(name):
    """Fixture or scale-512-1 topology through the abstraction and the visibility Router the pipeline ships."""
    pipe = Pipeline(fixture_topology(name), PipelineConfig())
    pipe.build_abstraction()
    return pipe.topo, pipe.g, pipe.engine, pipe.rings, pipe.abstractions, pipe.router


@pytest.fixture(scope="module")
def grid():
    return build_stack("grid36-hole4")


@pytest.fixture(scope="module")
def star():
    return build_stack("star12-4")


@pytest.fixture(scope="module")
def crescent():
    return build_stack("crescent-24")


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
            inside = point_in_polygon(ps, poly, strict=False) or point_in_polygon(
                pt, poly, strict=False
            )
            if ring_crossings(ps, pt, poly) or inside:
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


def test_chew_walk_matches_brute_corridor():
    """The face-to-face walk equals a walk that scans every edge and face.

    No fixture puts a vertex on a segment between two others, so two
    triangular lattices join them. One has row height 7/16, so that every
    coordinate is dyadic and the slanted lines, like the rows, pass
    exactly through their vertices; the other has the true sqrt(3)/4, so
    that slanted lines pass within rounding of their vertices.
    """
    h = 0.5
    lattices = {
        f"lattice-{rise}": build_udg(
            {
                6 * j + i: Point(h * i + h / 2 * (j % 2), rise * j)
                for j in range(6)
                for i in range(6)
            }
        )
        for rise in (0.4375, h * math.sqrt(3) / 2)
    }
    seen = set()
    for name in ("grid36-hole4", "cshape-40", *lattices, "star12-4", "crescent-24"):
        g = build_ldel2(lattices[name] if name in lattices else fixture_topology(name))
        ids = sorted(g.points)
        if len(ids) <= 40:
            pairs = list(itertools.permutations(ids, 2))
        else:
            rng = random.Random(5)
            pairs = [tuple(rng.sample(ids, 2)) for _ in range(900)]
        for s, t in pairs:
            path, out = chew_route(g, s, t)
            hit = None if isinstance(out, ReachedTarget) else (out.node, out.face)
            assert (path, hit) == brute_corridor(g, s, t), (name, s, t)
            if hit is None:
                ps, pt = g.points[s], g.points[t]
                if any(_on_segment(g.points[v], ps, pt) for v in path[1:-1]):
                    seen.add("split on a vertex of st")
            elif path == [s]:
                seen.add("blocked at s")
            if hit is not None and t in g.faces[out.face]:
                seen.add("blocked face holds t")
    assert seen == {"split on a vertex of st", "blocked at s", "blocked face holds t"}


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
    # the two halves of a lattice hull cut along a chord share that chord
    rng = random.Random(47)
    for _ in range(300):
        a, b = cut_lattice_hull(rng, 8)
        routing_mod._check_disjoint([a, b])
        vg = build_visibility_graph([a, b])
        assert a.nodes[0] in vg.adj[a.nodes[-1]], (a, b)
        for u, v in itertools.combinations(sorted(vg.positions), 2):
            pu, pv = vg.positions[u], vg.positions[v]
            want = not any(segment_crosses_polygon(pu, pv, h.pts, 1) for h in (a, b))
            assert (v in vg.adj[u]) == want, (a, b, u, v)


def lattice_hull(rng, side):
    """ccw hull of a few random lattice points, with a positive area."""
    while True:
        ccw = brute_hull_ccw([(rng.randint(0, side), rng.randint(0, side)) for _ in range(rng.randint(3, 7))])
        if len(ccw) >= 3 and shoelace(ccw) > 0:
            return tuple(Point(float(x), float(y)) for x, y in ccw)


def cut_lattice_hull(rng, side):
    """Two ccw hulls from a lattice hull cut along a chord between two of its vertices.

    Vertex i of the cut hull has id i in both halves; the first and last
    nodes of each half are the chord's ends.
    """
    while len(pts := lattice_hull(rng, side)) < 4:
        pass
    k = len(pts)
    i = rng.randrange(k)
    j = i + rng.randint(2, k - 2)
    halves = ([v % k for v in range(i, j + 1)], [v % k for v in range(j, i + k + 1)])
    return tuple(HullPolygon(h, tuple(ids), tuple(pts[v] for v in ids)) for h, ids in enumerate(halves))


def probe_segment(rng, hull, side):
    """Lattice segment, often snapped to hull vertices or run along an edge."""
    kind = rng.randrange(4)
    if kind == 3:
        i = rng.randrange(len(hull))
        p, q = hull[i], hull[(i + 1) % len(hull)]
        t, u = rng.sample((-1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0), 2)
        return (
            Point(p.x + t * (q.x - p.x), p.y + t * (q.y - p.y)),
            Point(p.x + u * (q.x - p.x), p.y + u * (q.y - p.y)),
        )

    def end(snap):
        if snap:
            return rng.choice(hull)
        return Point(float(rng.randint(-1, side + 1)), float(rng.randint(-1, side + 1)))

    return end(kind >= 1), end(kind == 2)


def test_crosses_hull_matches_general_polygon_test():
    rng = random.Random(41)
    cases = crossing = 0
    for _ in range(400):
        hull = lattice_hull(rng, 8)
        for _ in range(30):
            a, b = probe_segment(rng, hull, 8)
            if a == b:
                continue  # no caller asks about a point
            want = segment_crosses_polygon(a, b, hull, 1)
            assert routing_mod._crosses_hull(a, b, hull) == want, (a, b, hull)
            cases += 1
            crossing += want
    assert cases > 10000 and 0.1 < crossing / cases < 0.9


def test_check_disjoint_matches_exact_clip():
    rng = random.Random(43)
    overlaps = 0
    for _ in range(1500):
        a = HullPolygon(0, (), lattice_hull(rng, 6))
        b = HullPolygon(1, (), lattice_hull(rng, 6))
        want = brute_hulls_overlap(a.pts, b.pts)
        overlaps += want
        if want:
            with pytest.raises(AssumptionViolationError):
                routing_mod._check_disjoint([a, b])
        else:
            routing_mod._check_disjoint([a, b])
    assert 0.1 < overlaps / 1500 < 0.9


def test_check_disjoint_rejects_hull_nested_on_boundary():
    # every vertex of b sits on a's boundary and b's area lies inside a
    a = HullPolygon(0, (1, 2, 3), (Point(0, 6), Point(6, 0), Point(6, 6)))
    b = HullPolygon(1, (4, 5, 6), (Point(2, 4), Point(3, 3), Point(3, 6)))
    assert brute_hulls_overlap(a.pts, b.pts)
    with pytest.raises(AssumptionViolationError, match="intersect"):
        routing_mod._check_disjoint([a, b])


@st.composite
def lattice_hulls(draw):
    """One to three hulls on integer vertices; collinear draws give 1- and 2-point hulls."""
    hulls = []
    for h in range(draw(st.integers(1, 3))):
        corners = draw(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=1, max_size=6))
        pts = tuple(Point(float(x), float(y)) for x, y in monotone_hull(sorted(set(corners))))
        hulls.append(HullPolygon(h, tuple(range(10 * h, 10 * h + len(pts))), pts))
    return hulls


@st.composite
def probe_segments(draw, hulls):
    """Lattice segment, or one along a hull edge's line or a hull box's edge."""
    coord = st.integers(-1, 9).map(float)
    h = draw(st.sampled_from(hulls))
    kind = draw(st.sampled_from(["free", "edge", "box"]))
    if kind == "edge":
        i = draw(st.integers(0, len(h.pts) - 1))
        p, q = h.pts[i], h.pts[(i + 1) % len(h.pts)]
        t, u = (draw(st.sampled_from((-1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0))) for _ in range(2))
        return (
            Point(p.x + t * (q.x - p.x), p.y + t * (q.y - p.y)),
            Point(p.x + u * (q.x - p.x), p.y + u * (q.y - p.y)),
        )
    if kind == "box":
        x0, y0, x1, y1 = h.box
        if draw(st.booleans()):
            x = draw(st.sampled_from((x0, x1)))
            return Point(x, draw(coord)), Point(x, draw(coord))
        y = draw(st.sampled_from((y0, y1)))
        return Point(draw(coord), y), Point(draw(coord), y)
    return Point(draw(coord), draw(coord)), Point(draw(coord), draw(coord))


@given(st.data())
def test_blocked_box_reject_matches_every_hull_test(data):
    hulls = data.draw(lattice_hulls())
    for _ in range(20):
        a, b = data.draw(probe_segments(hulls))
        want = any(routing_mod._crosses_hull(a, b, h.pts) for h in hulls)
        assert routing_mod._blocked(a, b, hulls) == want, (a, b, hulls)


@given(lattice_hulls())
def test_check_disjoint_box_reject_matches_every_pair_test(hulls):
    apart = routing_mod._apart
    want = all(
        apart(p.pts, q.pts) or apart(q.pts, p.pts) for p, q in itertools.combinations(hulls, 2)
    )
    if want:
        routing_mod._check_disjoint(hulls)
    else:
        with pytest.raises(AssumptionViolationError):
            routing_mod._check_disjoint(hulls)


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


def random_disjoint_hulls(rng):
    """Two to four disjoint convex hulls of 3 to 6 vertices at continuous coordinates."""
    hulls, want = [], rng.randint(2, 4)
    while len(hulls) < want:
        cx, cy, r = rng.uniform(0, 6), rng.uniform(0, 6), rng.uniform(0.3, 1.5)
        pts = [(cx + r * math.cos(t), cy + r * math.sin(t))
               for t in sorted(rng.uniform(0, 2 * math.pi) for _ in range(rng.randint(3, 6)))]
        ccw = brute_hull_ccw(pts)
        if len(ccw) >= 3 and not any(brute_hulls_overlap(ccw, h.pts) for h in hulls):
            k, base = len(hulls), 10 * len(hulls)
            hulls.append(HullPolygon(k, tuple(range(base, base + len(ccw))), tuple(Point(*q) for q in ccw)))
    return hulls


def test_overlay_two_triangles_matches_circle_oracle():
    t1 = HullPolygon(0, (1, 2, 3), (Point(0, 0), Point(1.1, 0.1), Point(0.4, 0.9)))
    t2 = HullPolygon(1, (4, 5, 6), (Point(2.3, 0.2), Point(3.2, 0.4), Point(2.6, 1.2)))
    od = build_overlay_delaunay(build_visibility_graph([t1, t2]))
    got = {(u, v) for u in od.adj for v in od.adj[u] if u < v}
    assert {(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)} <= got
    assert len(got) <= 3 * 6 - 6
    draws = [[t1, t2]] + [random_disjoint_hulls(random.Random(seed)) for seed in range(12)]
    for hulls in draws:
        od = build_overlay_delaunay(build_visibility_graph(hulls))
        got = {(u, v) for u in od.adj for v in od.adj[u] if u < v}
        _, expected = brute_cdt([(h.nodes, list(h.pts)) for h in hulls])
        assert got == expected, hulls
        assert crossing_edge_pairs(od.positions, got) == [], hulls


def test_overlay_drops_both_diagonals_of_a_cocircular_quad():
    # four ccw triangles outside the circle x^2 + y^2 = 25, each touching it
    # with its tip 10k; the tips are exactly cocircular, so no circle through
    # either diameter is empty
    tips = [(-4.0, -3.0), (4.0, 3.0), (-3.0, 4.0), (3.0, -4.0)]
    hulls = [
        HullPolygon(k, (10 * k, 10 * k + 1, 10 * k + 2), (
            Point(x, y),
            Point(1.25 * x + 0.25 * y, 1.25 * y - 0.25 * x),
            Point(1.25 * x - 0.25 * y, 1.25 * y + 0.25 * x),
        ))
        for k, (x, y) in enumerate(tips)
    ]
    vis = build_visibility_graph(hulls)
    od = build_overlay_delaunay(vis)
    for u, v in ((0, 10), (20, 30)):
        assert v in vis.adj[u] and v not in od.adj[u], (u, v)


def test_overlay_on_fixture_hulls_is_planar_and_constrained(grid, star):
    from hullroute.geometry import segments_properly_intersect

    for topo, g, eng, rings, ab, router in (grid, star, build_stack("scale-512-1")):
        od = Router(g, rings, ab, router.root, backend=BACKEND_ODEL).waypoints
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
    # every pair of grid36-hole4 and of cshape-40, whose outer hole is one
    # long bay; every route runs along radio edges, and Visible and Case1
    # keep their bounds (Cases 2-4 have none yet)
    stacks = {"grid36-hole4": grid, "cshape-40": build_stack("cshape-40")}
    for name, (topo, g, eng, rings, ab, built) in stacks.items():
        for backend, bound in ((BACKEND_VIS, 17.7), (BACKEND_ODEL, 35.37)):
            router = Router(g, rings, ab, built.root, backend=backend)
            seen = {"Visible": 0, "Case1": 0}
            for s, t in itertools.combinations(sorted(topo.points), 2):
                res = router.route(eng, s, t)
                assert res.path[0] == s and res.path[-1] == t
                assert res.competitive_ratio >= 1.0 - 1e-9
                for a, b in zip(res.path, res.path[1:]):
                    assert g.has_edge(a, b), (name, backend, s, t)
                if res.case_taken == "Visible":
                    seen["Visible"] += 1
                    assert res.euclidean_length <= 5.9 * res.straight_line + 1e-9
                elif res.case_taken == "Case1":
                    seen["Case1"] += 1
                    assert res.competitive_ratio <= bound, (name, backend, s, t)
            assert seen["Visible"] >= 100, (name, backend)
            assert seen["Case1"] >= 100, (name, backend)


def test_route_round_and_message_accounting(grid):
    # grid36-hole4's Case1 query 4 -> 12 is planned at hull node 9, which
    # is not the tree root: it asks the root for the chain over one
    # long-range round trip before the data leaves it
    topo, g, eng, rings, ab, router = grid
    s, t = 4, 12
    before, phases = len(eng.transcript), len(eng.phase_reports)
    res = router.route(eng, s, t)
    lines = eng.transcript[before:]
    hops = len(res.path) - 1
    ((h, chain),) = res.plans
    root = router.root
    assert res.case_taken == "Case1" and h != root
    assert res.rounds_used == 2 + hops + 2
    assert res.longrange_msgs == 4
    # the query is one phase, keyed None: its costs are that phase's report
    # and a count of its own transcript lines
    (phase,) = eng.phase_reports[phases:]
    assert phase.label == "query" and {l["session"] for l in lines} == {None}
    assert (res.rounds_used, res.longrange_msgs) == (phase.rounds, phase.messages_longrange)
    mine = tally(lines)[None]
    assert dataclasses.replace(mine, label="query", rounds=phase.rounds, calls=phase.calls, active=phase.active) == phase
    lr = [l for l in lines if l["channel"] == "longrange"]
    data = [l for l in lines if l["tag"] == "rt_data"]
    assert [(l["tag"], l["src"], l["dst"]) for l in lr] == [
        ("rt_query", s, t), ("rt_pos", t, s), ("rt_plan", h, root), ("rt_chain", root, h),
    ]
    assert len(data) == hops
    assert all(l["channel"] == "adhoc" for l in data)
    # consecutive custody: hop k starts where hop k-1 ended, and the hop
    # out of the plan node waits for the chain
    assert [l["src"] for l in data] == res.path[:-1]
    assert [l["dst"] for l in data] == res.path[1:]
    at = res.path.index(h)
    rounds = [l["round"] for l in lines]
    assert rounds == sorted(rounds)
    assert [l["tag"] for l in lines].index("rt_plan") == 2 + at


def test_query_rounds_count_one_round_trip_per_plan_away_from_its_planner(grid, star):
    # rounds_used is 2 + hops + 2p, p the plans made at a hull node other
    # than the tree root, which holds every hull; such queries exist, and
    # so do ones without
    trips = Counter()
    for topo, g, eng, rings, ab, router in (grid, star):
        for s, t in sample_pairs(topo, 60, seed=3):
            res = router.route(eng, s, t)
            p = sum(h != router.root for h, _ in res.plans)
            assert res.rounds_used == (2 + len(res.path) - 1 + 2 * p if len(res.path) > 1 else 0), (s, t)
            assert res.longrange_msgs == (2 + 2 * p if len(res.path) > 1 else 0), (s, t)
            trips[p > 0, bool(res.plans)] += 1
    assert trips[True, True] and trips[False, True] and trips[False, False]


def test_transmit_follows_a_walk_that_revisits_nodes(grid):
    # the data's seq tells a node it passes twice where to send it each time
    topo, g, eng, rings, ab, router = grid
    s, t = 4, 12
    path = router.route(eng, s, t).path
    walk = path[:2] + path
    # _transmit is the query's traffic alone; route gives s the id of t
    # only while it runs
    topo.learn(s, t)
    before = len(eng.transcript)
    assert router._transmit(eng, s, t, walk) == (2 + len(walk) - 1, 2)
    data = [(l["src"], l["dst"], l["channel"]) for l in eng.transcript[before:] if l["tag"] == "rt_data"]
    assert data == [(u, v, "adhoc") for u, v in zip(walk, walk[1:])]


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


@pytest.mark.parametrize("stack", ["grid", "star"])
def test_route_leaves_every_node_knowing_what_it_knew(stack, request, monkeypatch):
    # route applies the query model itself: s learns t's id before anything
    # is sent, delivery teaches t the id of s, and both forget once the
    # query ends, also when its traffic raises after delivery
    topo, g, eng, rings, ab, router = request.getfixturevalue(stack)
    pairs = [(s, t) for s, t in sample_pairs(topo, 40, seed=11) if t not in topo.knows[s]]
    before = {v: set(k) for v, k in topo.knows.items()}
    assert len(pairs) >= 20
    for s, t in pairs:
        router.route(eng, s, t)
        assert topo.knows == before, (s, t)
    transmit = router._transmit

    def fail(engine, a, b, *rest):
        transmit(engine, a, b, *rest)
        assert a in topo.knows[b]
        raise NoPathError("lost after delivery")

    monkeypatch.setattr(router, "_transmit", fail)
    for s, t in pairs[:5]:
        with pytest.raises(NoPathError):
            router.route(eng, s, t)
        assert topo.knows == before, (s, t)


def test_route_waypoint_legs_within_chew_bound(grid):
    topo, g, eng, rings, ab, router = grid
    checked = 0
    for s, t in sample_pairs(topo, 120, seed=5):
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
    res = router.route(eng, s, t)
    assert res.case_taken == "Case4"
    assert res.path[0] == s and res.path[-1] == t


def test_route_case5_stays_in_the_bay_within_its_bound(crescent):
    topo, g, eng, rings, ab, router = crescent
    pockets = nodes_by_pocket(topo, router)
    (rid, bay), members = max(pockets.items(), key=lambda kv: len(kv[1]))
    assert len(members) >= 6
    saw_extreme = False
    for s, t in itertools.combinations(members, 2):
        res = router.route(eng, s, t)
        assert res.case_taken == "Case5"
        bound = (2 + res.e_route) * 5.9
        assert res.competitive_ratio <= bound + 1e-9
        saw_extreme = saw_extreme or res.e_route >= 1
    assert saw_extreme, "no pair in the deep bay routed via an extreme point"


def test_route_trivial_and_bay_to_outside_queries(crescent):
    topo, g, eng, rings, ab, router = crescent
    pockets = nodes_by_pocket(topo, router)
    members = next(iter(sorted(pockets.items())))[1]
    res = router.route(eng, members[0], members[0])
    assert res.path == [members[0]]
    assert res.euclidean_length == 0.0
    outside = next(v for v in sorted(topo.points) if router.locate(v) is None)
    res = router.route(eng, members[0], outside)
    assert res.case_taken == "Case2"
    assert res.path[0] == members[0] and res.path[-1] == outside


def inside_pairs(topo, router, rng):
    """Same-bay pairs, pairs of nodes inside hulls, and inside/outside pairs."""
    pockets = nodes_by_pocket(topo, router)
    inside = sorted(v for vs in pockets.values() for v in vs)
    outside = sorted(set(topo.points) - set(inside))
    deep = [vs for _, vs in sorted(pockets.items()) if len(vs) >= 2]
    pairs = [tuple(rng.sample(rng.choice(deep), 2)) for _ in range(4)]
    pairs += [tuple(rng.sample(inside, 2)) for _ in range(12)]
    pairs += [(rng.choice(inside), rng.choice(outside))[:: rng.choice((1, -1))] for _ in range(6)]
    return pairs


def route_row(router, eng, s, t):
    try:
        r = router.route(eng, s, t)
    except HullrouteError as exc:
        return [s, t, type(exc).__name__, str(exc)]
    return [s, t, r.case_taken, r.path, r.euclidean_length, r.udg_shortest, r.competitive_ratio,
            r.rounds_used, r.longrange_msgs, r.e_route, r.legs, r.plans]


# sha256 of the `route` rows of inside_pairs(topo, router, Random(5)) on
# both backends, errors included; recorded from the router that still had a
# second, bay-only query entry beside `route`, with that entry's rows left
# out; star12-4 and scale-512-1 were re-recorded when the bay dominating
# sets, where bay legs are anchored, became the rank rule's, and every
# fixture when a plan made at a hull node that plans no ring began to
# cost a long-range round trip to a planner: only `rounds_used` and
# `longrange_msgs` moved.  star12-4 and scale-512-1 again when the tree
# root became the one planner, so a plan made at a ring's rank 0 other
# than the root costs that round trip too: again only `rounds_used` and
# `longrange_msgs` moved
INSIDE_ROWS = {
    "crescent-24": "4de13a993193df0c44a5ffd17113ad391868a43249a34c0d01b775188cf4f307",
    "star12-4": "c911db7dbc8c2b8f1671b103224efb751ef77328118ed74307955d426cdbcd78",
    "cshape-40": "b4bc27b61d252e0529d00e3846f1b9244a49dcee80132e807ad04e18f84104e9",
    "scale-512-1": "c35c0479f75e85c64ecbead9982aa41d8d8862d4ec9ae77989450be1155bdc07",
}


def test_inside_hull_route_rows_match_pinned_digests():
    cases = {}
    for name, digest in INSIDE_ROWS.items():
        topo = fixture_topology(name)
        pipe = Pipeline(topo, PipelineConfig())
        pipe.build_abstraction()
        rows = []
        for backend in (BACKEND_VIS, BACKEND_ODEL):
            router = Router(pipe.g, pipe.rings, pipe.abstractions, pipe.root, backend=backend)
            for s, t in inside_pairs(topo, router, random.Random(5)):
                rows.append(route_row(router, pipe.engine, s, t))
        for r in rows:
            cases[r[2]] = cases.get(r[2], 0) + 1
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == digest, name
    assert min(cases.get(c, 0) for c in ("Case2", "Case3", "Case4", "Case5")) >= 20, cases


def assert_inside_nodes_sit_in_bays(router):
    """locate names a bay for a node iff the node lies strictly inside a hull.

    A ring member inside a hull is placed in the bay whose members hold it.
    """
    placed = members = 0
    for v, p in sorted(router.g.points.items()):
        hulls = [c for c in router.obstacles if point_in_polygon(p, c.polygon.pts, strict=True)]
        loc = router.locate(v)
        assert (loc is None) == (not hulls), v
        if loc is not None:
            ctx, bay = loc
            assert ctx is hulls[0] and isinstance(bay, int), (v, bay)
            assert point_in_polygon(p, ctx.bay_polys[bay], strict=False), (v, bay)
            owner = next(
                ((c, bi) for c in hulls for bi, b in enumerate(c.abstraction.bay_areas) if v in b.members),
                None,
            )
            if owner is not None:
                assert loc == owner, v
                members += 1
            placed += 1
    assert members > 0
    return placed


@pytest.mark.parametrize("name", ["grid36-hole4", "star12-4", "crescent-24", "cshape-40", "scale-512-1"])
def test_every_node_inside_a_hull_sits_in_a_bay(name):
    pipe = Pipeline(fixture_topology(name), PipelineConfig())
    pipe.build_abstraction()
    assert assert_inside_nodes_sit_in_bays(pipe.router) > 0
    rng = random.Random(3)
    for v in rng.sample(pipe.topo.ids, 8):
        ang = rng.uniform(0.0, 2.0 * math.pi)
        p = pipe.topo.points[v]
        pipe.topo.move_node(v, Point(p.x + 0.1 * math.cos(ang), p.y + 0.1 * math.sin(ang)))
    pipe.periodic_recompute()
    assert assert_inside_nodes_sit_in_bays(pipe.router) > 0


def test_locate_rejects_an_inside_node_without_a_bay(star):
    topo, g, eng, rings, ab, router = star
    v, (ctx, _) = next((v, loc) for v in sorted(topo.points) if (loc := router.locate(v)) is not None)
    rid = ctx.ring.ring_id
    stripped = {**ab, rid: dataclasses.replace(ab[rid], bay_areas=[], dominating_sets={})}
    with pytest.raises(GeometryInconsistencyError, match=f"node {v}"):
        Router(g, rings, stripped, router.root).locate(v)


def test_bay_anchor_is_the_ring_edge_the_segment_crosses(star):
    *_, router = star
    ctx = next(c for c in router.obstacles if c.abstraction.dominating_sets)
    ds = ctx.abstraction.dominating_sets[0]
    members, pts = ctx.ring.members, ctx.ring_pts
    k = len(members)
    for i in range(k):
        a, b = pts[i], pts[(i + 1) % k]
        # a short probe through the edge's midpoint, square to it
        mx, my = (a.x + b.x) / 2, (a.y + b.y) / 2
        nx, ny = (a.y - b.y) * 0.2, (b.x - a.x) * 0.2
        assert ring_crossings(Point(mx - nx, my - ny), Point(mx + nx, my + ny), pts) == [i]
        hops = {v: min(router._hops(ctx, ctx.pos_of[v], j) for j in (i, (i + 1) % k)) for v in ds}
        assert router._ds_nearest(ctx, ds, i) == min(ds, key=lambda v: (hops[v], v))


# ---------------------------------------------------------------------------
# readiness and measurement


def test_router_requires_classified_rings_and_abstractions(grid):
    topo, g, eng, rings, ab, router = grid
    partial = dict(ab)
    partial.pop(rings[0].ring_id)
    with pytest.raises(NotReadyError):
        Router(g, rings, partial, router.root)
    with pytest.raises(DispatchError):
        Router(g, rings, ab, router.root, backend="magic")


def test_router_rejects_an_arc_with_a_kind_but_no_orientation(grid):
    # detect_outer_holes kinds an arc, and classify_rings orients it once
    # its leader has read the orientation; the bay legs test crossings with
    # that sign, so an arc without it is not ready
    topo, g, eng, rings, ab, router = grid
    arc = next(r for r in rings if r.kind == routing_mod.KIND_OUTER_HOLE)
    bare = [dataclasses.replace(r, orientation_sum=0.0) if r is arc else r for r in rings]
    with pytest.raises(NotReadyError, match=f"ring {arc.ring_id} not classified yet"):
        Router(g, bare, ab, router.root)


def test_router_builds_only_its_backend(grid, monkeypatch):
    topo, g, eng, rings, ab, router = grid
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
    vis = Router(g, rings, ab, router.root, backend=BACKEND_VIS).waypoints
    assert calls == {"disjoint": 1, "overlay": 0}
    od = Router(g, rings, ab, router.root, backend=BACKEND_ODEL).waypoints
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

    eng.run_sessions("query_during_phase", {None: (topo.ids, handler, 2)})
    assert hits


def test_measure_competitiveness_agrees_with_router(grid):
    topo, g, eng, rings, ab, router = grid
    results = []
    for s, t in sample_pairs(topo, 60, seed=9):
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
