"""Unit disk graph, localized Delaunay planarization, face extraction."""

from __future__ import annotations

import dataclasses
import math
import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from hullroute.errors import (
    DegenerateInputError,
    DisconnectedError,
    NodeLookupError,
)
from hullroute.geometry import Point, segments_properly_intersect
from hullroute.ldel import build_ldel2, build_udg, two_hop_neighborhood
from hullroute.scenario import fixture_spec, fixture_topology, generate_scenario, scaling_spec

from oracles import (
    brute_delaunay_triangles,
    brute_ldel2,
    brute_two_hop,
    brute_udg_edges,
    crossing_edge_pairs,
    shoelace,
)


def jittered_grid(seed: int, cols: int, rows: int, spacing: float = 0.72, jitter: float = 0.08):
    rng = random.Random(seed)
    pts = {}
    k = 0
    for j in range(rows):
        for i in range(cols):
            pts[k] = Point(
                i * spacing + rng.uniform(-jitter, jitter),
                j * spacing + rng.uniform(-jitter, jitter),
            )
            k += 1
    return pts


def cluster_cloud(seed: int, n: int, spread: float = 2.4):
    rng = random.Random(seed)
    pts = {}
    # random walk keeps the cloud connected at unit radius
    x, y = 0.0, 0.0
    for k in range(n):
        x += rng.uniform(-0.6, 0.6)
        y += rng.uniform(-0.6, 0.6)
        x = max(-spread, min(spread, x))
        y = max(-spread, min(spread, y))
        pts[k] = Point(x, y)
    return pts


SMALL_INSTANCES = [
    jittered_grid(1, 5, 4),
    jittered_grid(2, 6, 6, spacing=0.65),
    jittered_grid(3, 4, 7, spacing=0.8, jitter=0.12),
    cluster_cloud(4, 35),
    cluster_cloud(5, 45),
]


def test_udg_matches_pairwise_scan():
    for pts in SMALL_INSTANCES:
        topo = build_udg(pts)
        got = {
            (u, v) for u in topo.adhoc for v in topo.adhoc[u] if u < v
        }
        assert got == brute_udg_edges(pts)
        for u in topo.adhoc:
            for v in topo.adhoc[u]:
                assert u in topo.adhoc[v]


def test_udg_rejects_bad_input():
    with pytest.raises(DegenerateInputError):
        build_udg({})
    with pytest.raises(DegenerateInputError):
        build_udg({0: Point(0, 0), 1: Point(0, 0)})
    with pytest.raises(DisconnectedError):
        build_udg({0: Point(0, 0), 1: Point(5, 0)})


def test_initial_knowledge_equals_radio_neighbors():
    topo = build_udg(SMALL_INSTANCES[0])
    assert topo.knows == topo.adhoc
    assert topo.knows is not topo.adhoc
    topo.learn(0, 19)
    assert topo.node_knows(0, 19)
    assert not topo.node_knows(19, 0)
    topo.forget(0, 19)
    assert not topo.node_knows(0, 19)


def test_move_node_refreshes_radio_links():
    pts = jittered_grid(9, 5, 4)
    topo = build_udg(pts)
    far = Point(100.0, 100.0)
    topo.move_node(7, far)
    assert topo.adhoc[7] == set()
    back = pts[8]
    topo.move_node(7, Point(back.x + 0.3, back.y))
    assert 8 in topo.adhoc[7] and 7 in topo.adhoc[8]
    with pytest.raises(NodeLookupError):
        topo.move_node(999, Point(0, 0))


def test_move_node_in_place_keeps_links_at_the_range():
    # 0-1 is one ulp longer than the range; a fresh build links it
    pts = {0: Point(0.0, 0.0), 1: Point(1.0000000000000002, 0.0), 2: Point(0.5, 0.5)}
    topo = build_udg(pts)
    assert 1 in topo.adhoc[0]
    topo.move_node(1, pts[1])
    assert topo.adhoc == build_udg(pts).adhoc


def test_two_hop_matches_bfs():
    for pts in SMALL_INSTANCES[:3]:
        topo = build_udg(pts)
        want = brute_two_hop(pts)
        for v in pts:
            assert two_hop_neighborhood(topo, v) == want[v]
    with pytest.raises(NodeLookupError):
        two_hop_neighborhood(build_udg(SMALL_INSTANCES[0]), 999)


def test_planarized_edges_match_independent_construction():
    for pts in SMALL_INSTANCES:
        g = build_ldel2(build_udg(pts))
        want, _, _ = brute_ldel2(pts)
        assert set(g.edges) == want


def test_short_delaunay_triangles_survive():
    # every global Delaunay triangle with unit-length sides must appear
    for pts in SMALL_INSTANCES:
        g = build_ldel2(build_udg(pts))
        for a, b, c in brute_delaunay_triangles(pts):
            if (
                math.dist(pts[a], pts[b]) <= 1.0
                and math.dist(pts[a], pts[c]) <= 1.0
                and math.dist(pts[b], pts[c]) <= 1.0
            ):
                assert g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c)


def test_planarized_graph_has_no_crossings():
    for pts in SMALL_INSTANCES:
        g = build_ldel2(build_udg(pts))
        for e, f in combinations(g.edges, 2):
            if set(e) & set(f):
                continue
            assert not segments_properly_intersect(
                pts[e[0]], pts[e[1]], pts[f[0]], pts[f[1]]
            )
    # exact lattices: every cell is cocircular, and Euler's formula, which
    # counts the rotation system's faces, would not notice a crossing
    for spec in (fixture_spec("grid36-hole4"), scaling_spec(512, 1)):
        topo = generate_scenario(dataclasses.replace(spec, jitter=0.0))
        g = build_ldel2(topo)
        assert crossing_edge_pairs(topo.points, g.edges) == []


def test_planarized_graph_is_connected():
    for pts in SMALL_INSTANCES:
        g = build_ldel2(build_udg(pts))
        seen = {next(iter(pts))}
        stack = list(seen)
        while stack:
            u = stack.pop()
            for w in g.adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        assert seen == set(pts)


def test_faces_tile_the_plane():
    for pts in SMALL_INSTANCES:
        g = build_ldel2(build_udg(pts))
        v, e, f = len(g.points), len(g.edges), len(g.faces)
        assert v - e + f == 2
        # each directed edge lies on exactly one face boundary
        assert sum(len(face) for face in g.faces) == 2 * e
        for fi, face in enumerate(g.faces):
            ring = [pts[x] for x in face]
            area = shoelace(ring)
            if fi == g.outer_face:
                assert area < 0
            else:
                assert area > 0
            for i, u in enumerate(face):
                w = face[(i + 1) % len(face)]
                assert g.face_left[(u, w)] == fi


# ---------------------------------------------------------------------------
# properties on degenerate input: exact lattices and collinear rows


def assert_planar_spanner(pts):
    """LDel² of pts has no crossing edges, satisfies Euler, and stretches
    no unit-disk shortest path by more than 1.998."""
    try:
        topo = build_udg(pts)
    except DisconnectedError:
        return
    g = build_ldel2(topo)
    assert len(g.points) - len(g.edges) + len(g.faces) == 2
    assert crossing_edge_pairs(pts, g.edges) == []
    index = {v: i for i, v in enumerate(topo.ids)}

    def shortest(edges):
        rows, cols = zip(*((index[u], index[v]) for u, v in edges))
        w = [math.dist(pts[u], pts[v]) for u, v in edges]
        n = len(index)
        return dijkstra(csr_matrix((w, (rows, cols)), shape=(n, n)), directed=False)

    udg = {(u, v) for u in topo.adhoc for v in topo.adhoc[u] if u < v}
    assert np.all(shortest(g.edges) <= 1.998 * shortest(udg) + 1e-9)


spacing = st.sampled_from([0.25, 0.3, 0.375, 0.45, 0.5, 0.55, 0.6, 0.625, 0.7, 0.75])


@given(
    st.integers(2, 7), st.integers(2, 7), spacing, spacing,
    st.sampled_from([0.0, 0.1, -3.3, 12.7]), st.sets(st.integers(0, 48), max_size=12),
)
def test_exact_lattices_planarize_to_planar_spanners(cols, rows, sx, sy, origin, removed):
    pts = {
        j * cols + i: Point(origin + i * sx, origin + j * sy)
        for j in range(rows)
        for i in range(cols)
        if j * cols + i not in removed
    }
    if len(pts) >= 2:
        assert_planar_spanner(pts)


def row_points(gaps, direction, offsets):
    """A row along a dyadic or a rounded direction, with a few nodes off it:
    (k, off) puts one `off` to the left of row node k."""
    dx, dy = direction
    ts = [0.0]
    for gap in gaps:
        ts.append(ts[-1] + gap)
    pts = {k: Point(t * dx, t * dy) for k, t in enumerate(ts)}
    for k, off in offsets:
        t = ts[min(k, len(ts) - 1)]
        p = Point(t * dx - off * dy, t * dy + off * dx)
        if p not in pts.values():
            pts[len(pts)] = p
    return pts


@given(
    st.lists(st.floats(0.05, 0.99), min_size=1, max_size=14),
    st.sampled_from([(1.0, 0.0), (0.0, 1.0), (0.5, 0.25), (0.6, 0.8), (0.7, -0.7)]),
    st.lists(st.tuples(st.integers(0, 14), st.floats(-0.9, 0.9)), max_size=4),
)
def test_collinear_rows_planarize_to_planar_spanners(gaps, direction, offsets):
    assert_planar_spanner(row_points(gaps, direction, offsets))


# shrunk counterexamples of the two properties above
DEGENERATE = {
    # a node 1e-210 off the row's first node: float shoelace areas gave the
    # sliver faces the wrong sign and atan2 tied their spokes, so two faces
    # came out clockwise
    "sliver-off-a-slanted-row": row_points([0.5, 0.5], (0.5, 0.25), [(0, 1.1246796718330566e-210)]),
    # the same node on a level row: the sliver's circumradius of 1e210
    # overflowed the cKDTree query
    "sliver-off-a-level-row": row_points([0.5, 0.5], (1.0, 0.0), [(0, 1.1246796718330566e-210)]),
}


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_degenerate_fixtures_planarize_to_planar_spanners(name):
    assert_planar_spanner(DEGENERATE[name])


def cyclic_eq(a, b):
    if len(a) != len(b):
        return False
    b2 = list(b) + list(b)
    la = list(a)
    for i in range(len(b)):
        if b2[i : i + len(la)] == la:
            return True
    return cyclic_eq(list(reversed(a)), b) if a != list(reversed(a)) else False


@pytest.fixture(scope="module")
def graph():
    topo = fixture_topology("grid36-hole4")
    return topo, build_ldel2(topo)


class TestCavityGridFixture:
    """6x6 unit grid, 2x2 center removed: one octagonal cavity face.

    All counts below were frozen from brute-force reference constructions
    over the same point set.
    """

    def test_node_and_edge_census(self, graph):
        topo, g = graph
        assert len(topo.points) == 32
        udg = sum(len(s) for s in topo.adhoc.values()) // 2
        assert udg == 84
        assert len(g.edges) == 68

    def test_face_census(self, graph):
        _, g = graph
        assert len(g.faces) == 38
        sizes = sorted(len(f) for f in g.faces)
        assert sizes == [3] * 36 + [8, 20]
        assert len(g.faces[g.outer_face]) == 20

    def test_cavity_face_nodes(self, graph):
        _, g = graph
        cavity = [f for f in g.faces if len(f) == 8]
        assert len(cavity) == 1
        assert cyclic_eq(list(cavity[0]), [8, 9, 14, 18, 23, 22, 17, 13])

    def test_blocked_faces(self, graph):
        _, g = graph
        blocked = [fi for fi in range(len(g.faces)) if g.is_blocked_face(fi)]
        assert len(blocked) == 2
        assert g.outer_face in blocked
