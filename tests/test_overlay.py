"""Ring overlay protocols: election, ranking, sorting, hull, trees, DS."""

from __future__ import annotations

import math
import random

import pytest

import hullroute.overlay as overlay_mod

from hullroute.geometry import Point, convex_hull_oracle, signed_turn_angle
from hullroute.holes import hull_node_ids
from hullroute.ldel import build_ldel2, build_udg
from hullroute.overlay import (
    SENTINEL,
    assign_hypercube_ids,
    build_broadcast_tree,
    distribute_hulls,
    dominating_set,
    hypercube_sort,
    pointer_jumping,
    rank_ring,
    ring_protocol,
)
from hullroute.pipeline import Pipeline, PipelineConfig
from hullroute.scenario import fixture_topology
from hullroute.simengine import RoundEngine

from oracles import brute_arc_min, brute_hull, brute_hull_ccw


def circle_points(k, *, ids=None, jitter=0.0, seed=0):
    """k points on a circle in ccw angular order; ring gap stays under 1."""
    rng = random.Random(seed)
    radius = max(0.9 * k / (2.0 * math.pi), 0.45)
    ids = list(range(k)) if ids is None else list(ids)
    pts = {}
    for i, v in enumerate(ids):
        th = 2.0 * math.pi * i / k
        r = radius + rng.uniform(-jitter, jitter)
        pts[v] = Point(r * math.cos(th), r * math.sin(th))
    return pts, ids


def ring_engine(k, **kw):
    pts, order = circle_points(k, **kw)
    return RoundEngine(build_udg(pts)), order


def line_engine(n, step=0.9):
    return RoundEngine(build_udg({i: Point(i * step, 0.0) for i in range(n)}))


def turn_angles(engine, members):
    pts = engine.topo.points
    k = len(members)
    return {
        members[i]: signed_turn_angle(
            pts[members[i - 1]], pts[members[i]], pts[members[(i + 1) % k]]
        )
        for i in range(k)
    }


# ---------------------------------------------------------------------------
# pointer jumping


KS = [2, 3, 4, 5, 8, 12, 16, 17, 33]


@pytest.mark.parametrize("k", KS)
def test_pointer_jumping_elects_min_id(k):
    engine, members = ring_engine(k, seed=k)
    res = pointer_jumping(engine, {0: members})[0]
    assert res.leader == min(members)
    assert set(res.known_min.values()) == {res.leader}
    bound = math.ceil(math.log2(k)) + 1
    assert res.jump_rounds <= bound
    assert max(res.messages_per_node.values()) <= 2 * bound


def test_pointer_jumping_shuffled_ids():
    # leadership must follow ids, not ring positions
    ids = [104, 101, 107, 100, 106, 103, 102, 105, 108, 110, 109]
    engine, members = ring_engine(len(ids), ids=ids, seed=4)
    res = pointer_jumping(engine, {0: members})[0]
    assert res.leader == 100
    assert set(res.known_min.values()) == {100}


def test_jump_edges_carry_arc_minima_and_angles():
    engine, members = ring_engine(13, seed=3, jitter=0.02)
    angle = turn_angles(engine, members)
    res = pointer_jumping(engine, {0: members})[0]
    k = len(members)
    assert res.jump_edges, "no overlay edges built"
    for e in res.jump_edges:
        u, w = e.endpoints
        span = 1 << e.level
        i = members.index(u)
        assert members[(i + span) % k] == w
        assert e.ell == brute_arc_min(members, u, span)
        walked = [members[(i + s) % k] for s in range(1, span + 1)]
        assert e.angle_sum == pytest.approx(sum(angle[x] for x in walked), abs=1e-9)


def test_mixed_wave_reports_each_rings_own_rounds():
    # a k=4 circle just outside a k=40 circle; both elect in the same phases
    small, small_ids = circle_points(4, ids=range(100, 104))
    big, big_ids = circle_points(40)
    small = {v: Point(p.x + 6.4, p.y) for v, p in small.items()}
    rings = {"small": small_ids, "big": big_ids}
    engine = RoundEngine(build_udg({**small, **big}))
    res = pointer_jumping(engine, rings)
    for key, members in rings.items():
        k = len(members)
        assert res[key].jump_rounds <= math.ceil(math.log2(k)) + 1
        assert res[key].leader == min(members)
        # the same rounds and messages as a ring running alone
        alone = pointer_jumping(ring_engine(k, ids=members)[0], {key: members})[key]
        assert res[key].jump_rounds == alone.jump_rounds
        assert res[key].messages_per_node == alone.messages_per_node
    assert res["small"].jump_rounds < res["big"].jump_rounds
    assert engine.phase_reports[-1].rounds == res["big"].jump_rounds + 1


# ---------------------------------------------------------------------------
# exact ranking


@pytest.mark.parametrize("k", [3, 4, 6, 8, 12, 17])
def test_ranking_suffix_sums_match_direct_walk(k):
    engine, members = ring_engine(k, seed=k + 50, jitter=0.02)
    angle = turn_angles(engine, members)
    res = pointer_jumping(engine, {0: members})[0]
    rank_ring(engine, {0: members}, {0: res})
    assert res.ring_size == k
    # ccw polygon walk turns left overall
    assert res.angle_total == pytest.approx(-360.0, abs=1e-6)
    li = members.index(res.leader)
    for v in members:
        i = members.index(v)
        fwd = (li - i) % k or k  # the leader's own chain wraps the whole ring
        assert res.suffix_count[v] == fwd
        arc = [members[(i + s) % k] for s in range(fwd)]
        assert res.suffix_angle[v] == pytest.approx(sum(angle[x] for x in arc), abs=1e-9)


def test_ranking_angle_total_flips_sign_clockwise():
    engine, members = ring_engine(9, seed=77)
    cw = [members[0]] + members[1:][::-1]
    res = pointer_jumping(engine, {0: cw})[0]
    rank_ring(engine, {0: cw}, {0: res})
    assert res.angle_total == pytest.approx(360.0, abs=1e-6)


# ---------------------------------------------------------------------------
# hypercube ids


@pytest.mark.parametrize("k", [3, 4, 8, 12, 16, 17])
def test_hypercube_ids_follow_ring_rank(k):
    engine, members = ring_engine(k, seed=k + 9)
    res = pointer_jumping(engine, {0: members})[0]
    rank_ring(engine, {0: members}, {0: res})
    cube = assign_hypercube_ids(engine, {0: members}, {0: res})[0]
    d = max(1, math.ceil(math.log2(k)))
    assert cube.dimension == d
    assert cube.slots == 1 << d
    assert sorted(cube.id_map.values()) == list(range(k))
    assert cube.id_map[res.leader] == 0
    assert cube.bitstring(res.leader) == "0" * d
    li = members.index(res.leader)
    for v in members:
        assert cube.id_map[v] == (members.index(v) - li) % k
    if k == 12:
        assert cube.slots == 16  # padded to the next power of two
    if k == 8:
        got = {cube.bitstring(cube.members[r]) for r in (1, 2, 4)}
        assert got == {"001", "010", "100"}


def test_virtual_slots_host_at_leader():
    engine, members = ring_engine(12, seed=21)
    res = pointer_jumping(engine, {0: members})[0]
    rank_ring(engine, {0: members}, {0: res})
    cube = assign_hypercube_ids(engine, {0: members}, {0: res})[0]
    for s in range(12, 16):
        assert cube.host_of(s) == res.leader
    assert cube.host_of(0) == res.leader


# ---------------------------------------------------------------------------
# bitonic sort


@pytest.mark.parametrize("k", [4, 7, 12, 16, 23])
def test_bitonic_sort_orders_slots(k):
    engine, members = ring_engine(k, seed=k + 123, jitter=0.03)
    res = pointer_jumping(engine, {0: members})[0]
    rank_ring(engine, {0: members}, {0: res})
    cube = assign_hypercube_ids(engine, {0: members}, {0: res})[0]
    pts = engine.topo.points
    keys = {v: (pts[v].x, pts[v].y, v) for v in members}
    slot_keys, stages = hypercube_sort(engine, {0: cube}, {0: keys})[0]
    d = cube.dimension
    assert stages == d * (d + 1) // 2
    assert slot_keys[:k] == sorted(keys.values())
    assert all(sk == SENTINEL for sk in slot_keys[k:])
    # deterministic and stable on a second run
    again, _ = hypercube_sort(engine, {0: cube}, {0: keys})[0]
    assert again == slot_keys


# ---------------------------------------------------------------------------
# distributed hull


HULL_CASES = [(3, 0.0), (4, 0.0), (5, 0.0), (8, 0.03), (12, 0.03), (16, 0.0), (17, 0.03), (33, 0.03)]


@pytest.mark.parametrize("k,jitter", HULL_CASES)
def test_parallel_hull_equals_centralized(k, jitter):
    engine, members = ring_engine(k, seed=200 + k, jitter=jitter)
    res = ring_protocol(engine, {0: members})[0]
    pts = engine.topo.points
    coord_of = {v: (pts[v].x, pts[v].y) for v in members}
    id_at = {c: v for v, c in coord_of.items()}
    want = [id_at[c] for c in brute_hull_ccw(list(coord_of.values()))]
    assert res.hull == want
    # second, independently coded centralized route
    oracle = [id_at[(p.x, p.y)] for p in convex_hull_oracle(coord_of.values())]
    assert res.hull == oracle
    assert set(res.hull_points) == set(res.hull)
    for v in res.hull:
        assert res.hull_points[v] == pts[v]


def rect_ring_points(w, h, step=0.9):
    """Perimeter lattice ccw walk; edge points are exactly collinear."""
    walk = []
    for i in range(w):
        walk.append((i, 0))
    for j in range(h):
        walk.append((w, j))
    for i in range(w, 0, -1):
        walk.append((i, h))
    for j in range(h, 0, -1):
        walk.append((0, j))
    return {v: Point(x * step, y * step) for v, (x, y) in enumerate(walk)}


def test_parallel_hull_drops_collinear_perimeter_points():
    pts = rect_ring_points(4, 3)
    engine = RoundEngine(build_udg(pts))
    members = list(range(len(pts)))
    res = ring_protocol(engine, {0: members})[0]
    coord_of = {v: (pts[v].x, pts[v].y) for v in members}
    id_at = {c: v for v, c in coord_of.items()}
    want = [id_at[c] for c in brute_hull_ccw(list(coord_of.values()))]
    assert res.hull == want
    assert len(res.hull) == 4  # corners only
    assert sorted(tuple(coord_of[v]) for v in res.hull) == brute_hull(coord_of.values())


@pytest.mark.parametrize("name", ["grid36-hole4", "star12-4"])
def test_shipped_chains_merge_to_the_centralized_hull(monkeypatch, name):
    # a negative budget ends every tangent search before its first probe,
    # so each merge takes the ship fallback: "hs" asks, "hc" carries chains
    monkeypatch.setattr(overlay_mod, "_PROBE_SLACK", -1)
    topo = fixture_topology(name)
    pipe = Pipeline(topo, PipelineConfig())
    pipe.build_abstraction()
    for r in pipe.rings:
        assert pipe.abstractions[r.ring_id].hull_nodes == hull_node_ids(topo.points, r.members)
    tags = {t["tag"] for t in pipe.engine.transcript}
    assert {"hs", "hc"} <= tags and "hp" not in tags


def test_ring_protocol_on_cavity_ring():
    topo = fixture_topology("grid36-hole4")
    g = build_ldel2(topo)
    ring = next(list(f) for f in g.faces if len(f) == 8)
    assert sorted(ring) == [8, 9, 13, 14, 17, 18, 22, 23]
    engine = RoundEngine(topo)
    res = ring_protocol(engine, {0: ring})[0]
    assert res.jump.leader == 8
    assert res.jump.ring_size == 8
    # bounded faces are walked ccw
    assert res.jump.angle_total == pytest.approx(-360.0, abs=1e-6)
    pts = topo.points
    coord_of = {v: (pts[v].x, pts[v].y) for v in ring}
    id_at = {c: v for v, c in coord_of.items()}
    want = [id_at[c] for c in brute_hull_ccw(list(coord_of.values()))]
    assert res.hull == want


# ---------------------------------------------------------------------------
# broadcast tree and hull distribution


def test_broadcast_tree_heap_shape():
    eng = line_engine(15)
    tree = build_broadcast_tree(eng)
    assert tree.root == 0
    assert tree.height == 3
    assert tree.max_degree == 3
    for v in range(1, 15):
        assert tree.parent[v] == (v - 1) // 2
        assert v in eng.topo.knows[tree.parent[v]]
        assert tree.parent[v] in eng.topo.knows[v]
    charged = [t for t in eng.transcript if t["tag"].startswith("charge:broadcast_tree")]
    assert charged and charged[0]["tag"].endswith(":16")  # ceil(log2(15)^2)


def test_broadcast_tree_sizes():
    assert build_broadcast_tree(line_engine(1)).height == 0
    big = build_broadcast_tree(line_engine(1000))
    assert big.height == 9
    assert big.max_degree <= 3


def test_distribute_hulls_floods_once_and_forgets():
    eng = line_engine(9)
    tree = build_broadcast_tree(eng)
    refs = [(2, 1.8, 0.0, 0), (5, 4.5, 0.0, 0)]
    keep = {2, 5}
    pre = {v: set(eng.topo.knows[v]) for v in eng.topo.ids}
    deliveries = distribute_hulls(eng, tree, refs, keep)
    n = len(eng.topo.ids)
    assert deliveries == len(refs) * (n - 1)
    assert deliveries <= len(keep) * n
    for v in eng.topo.ids:
        if v in keep:
            assert keep - {v} <= eng.topo.knows[v]
        else:
            assert eng.topo.knows[v] == pre[v]


# ---------------------------------------------------------------------------
# dominating set


def test_dominating_set_singleton_path():
    eng = line_engine(1)
    ds, phases = dominating_set(eng, {0: [0]}, {0: 5})[0]
    assert ds == {0}
    assert phases == 0


def covers(path, ds):
    m = len(path)
    for i, v in enumerate(path):
        nbrs = ([path[i - 1]] if i > 0 else []) + ([path[i + 1]] if i + 1 < m else [])
        if v not in ds and not any(nb in ds for nb in nbrs):
            return False
    return True


@pytest.mark.parametrize("m", [2, 3, 5, 30])
def test_dominating_set_always_valid(m):
    path = list(range(m))
    for seed in range(25):
        eng = line_engine(m)
        ds, phases = dominating_set(eng, {0: path}, {0: seed})[0]
        assert ds <= set(path)
        assert covers(path, ds)
        assert phases <= 4 * math.ceil(math.log2(m + 2)) + 9


def test_dominating_set_mean_size_bound():
    m = 30
    path = list(range(m))
    sizes = []
    for seed in range(100):
        eng = line_engine(m)
        ds, _ = dominating_set(eng, {0: path}, {0: seed})[0]
        sizes.append(len(ds))
    assert sum(sizes) / len(sizes) <= 3 * math.ceil(m / 3)


def test_dominating_set_deterministic_per_seed():
    path = list(range(12))
    a, _ = dominating_set(line_engine(12), {0: path}, {0: 42})[0]
    b, _ = dominating_set(line_engine(12), {0: path}, {0: 42})[0]
    assert a == b
