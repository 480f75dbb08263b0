"""Ring overlay protocols: election, ranking, sorting, hull, trees, DS."""

from __future__ import annotations

import math
import random
from collections import Counter

import pytest

import hullroute.holes as holes_mod
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

from oracles import brute_arc_min, brute_bitonic, brute_hull, brute_hull_ccw, brute_hull_flood


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
    bound = math.ceil(math.log2(k)) + 1
    assert res.jump_rounds <= bound
    assert max(res.messages_per_node.values()) <= 2 * bound


def test_pointer_jumping_shuffled_ids():
    # leadership must follow ids, not ring positions
    ids = [104, 101, 107, 100, 106, 103, 102, 105, 108, 110, 109]
    engine, members = ring_engine(len(ids), ids=ids, seed=4)
    res = pointer_jumping(engine, {0: members})[0]
    assert res.leader == 100


def test_jump_edges_carry_arc_minima():
    engine, members = ring_engine(13, seed=3, jitter=0.02)
    res = pointer_jumping(engine, {0: members})[0]
    k = len(members)
    assert res.jump_edges, "no overlay edges built"
    for e in res.jump_edges:
        u, w = e.endpoints
        span = 1 << e.level
        i = members.index(u)
        assert members[(i + span) % k] == w
        assert e.ell == brute_arc_min(members, u, span)


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
    li = members.index(res.leader)
    for v in members:
        assert cube.id_map[v] == (members.index(v) - li) % k
    if k == 12:
        assert cube.slots == 16  # padded to the next power of two


@pytest.mark.parametrize("k", [3, 5, 12, 17, 33])
def test_padding_slots_wrap_around_the_ring(k):
    engine, members = ring_engine(k, seed=21)
    res = pointer_jumping(engine, {0: members})[0]
    rank_ring(engine, {0: members}, {0: res})
    cube = assign_hypercube_ids(engine, {0: members}, {0: res})[0]
    for s in range(cube.slots):
        assert cube.host_of(s) == cube.members[s % k]
    assert max(Counter(map(cube.host_of, range(cube.slots))).values()) <= 2
    # a hypercube edge joins two ring nodes 2^j apart mod k
    for s in range(cube.slots):
        for j in range(cube.dimension):
            if s & (1 << j) == 0:
                far = cube.id_map[cube.host_of(s + (1 << j))]
                assert far == (cube.id_map[cube.host_of(s)] + (1 << j)) % k


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
    slot_keys = hypercube_sort(engine, {0: cube}, {0: keys})[0]
    d = cube.dimension
    assert sum(r.label.startswith("bitonic_") for r in engine.phase_reports) == d * (d + 1) // 2
    assert slot_keys[:k] == sorted(keys.values())
    assert all(sk == SENTINEL for sk in slot_keys[k:])
    # deterministic and stable on a second run
    again = hypercube_sort(engine, {0: cube}, {0: keys})[0]
    assert again == slot_keys


def _sort_with_stage_log(k, seed, monkeypatch):
    """Run ring_protocol on a jittered k-ring, logging every sort stage.

    Each stage logs its dist, the slot keys after it, its rounds, and its
    `bs_key` sends as (src, dst, receiving slot).
    """
    engine, members = ring_engine(k, seed=seed, jitter=0.03)
    stages = []
    make_stage, send = overlay_mod._sort_stage, engine.send

    def logged_send(src, dst, payload=None, **kw):
        if kw.get("tag") == "bs_key":
            stages[-1]["sent"].append((src, dst, payload["slot"]))
        send(src, dst, payload, **kw)

    def logged_stage(cube, slot_key, pad, kblk, dist):
        session = make_stage(cube, slot_key, pad, kblk, dist)
        stage = {"dist": dist, "sent": []}
        stages.append(stage)

        def logged_finish(report):
            session.finish(report)
            stage.update(keys=list(slot_key), rounds=report.rounds)

        return overlay_mod._Session(session.members, session.handler, session.max_rounds, logged_finish)

    monkeypatch.setattr(engine, "send", logged_send)
    monkeypatch.setattr(overlay_mod, "_sort_stage", logged_stage)
    res = ring_protocol(engine, {0: members})[0]
    return engine, res, stages


@pytest.mark.parametrize("seed", [1, 2])
def test_one_round_bitonic_stages_match_the_centralized_network(seed, monkeypatch):
    for k in range(3, 141):
        engine, res, stages = _sort_with_stage_log(k, seed * 1000 + k, monkeypatch)
        pts = engine.topo.points
        cube = res.cube
        d = cube.dimension
        keys = [(pts[v].x, pts[v].y, v) for v in cube.members]
        want = brute_bitonic(keys, d)
        assert len(stages) == len(want) == d * (d + 1) // 2
        before = keys + [SENTINEL] * (cube.slots - k)
        for i, (stage, after) in enumerate(zip(stages, want)):
            assert stage["keys"] == after, (k, i)
            assert stage["rounds"] == 1, (k, i)
            assert max(Counter(src for src, _, _ in stage["sent"]).values()) <= 2
            # who must send: both ends of a real pair, and a real key the
            # sentinel displaces; never a padding pair
            expect = []
            for s in range(cube.slots):
                p = s ^ stage["dist"]
                if before[s] != SENTINEL and (before[p] != SENTINEL or after[s] == SENTINEL):
                    expect.append((cube.host_of(s), cube.host_of(p), p))
            assert sorted(stage["sent"]) == sorted(expect), (k, i)
            before = after
        assert res.hull == hull_node_ids(pts, cube.members)


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


def _log_merge(monkeypatch) -> dict:
    """Log every `hp`, `hs` and `hc` as (round, tag, payload) under (phase index, session, base)."""
    sent: dict = {}
    send = RoundEngine.send

    def spy(self, src, dst, payload=None, **kw):
        if kw.get("tag") in ("hp", "hs", "hc"):
            key = (len(self.phase_reports), self.session, payload["base"])
            sent.setdefault(key, []).append((self.round_no, kw["tag"], payload))
        send(self, src, dst, payload, **kw)

    monkeypatch.setattr(RoundEngine, "send", spy)
    return sent


def _check_merge_rounds(engine, merge_log):
    cap = math.ceil(math.log2(len(engine.topo.ids)))
    probes = {}
    for key, sent in merge_log.items():
        tags = [tag for _, tag, _ in sent]
        assert tags.count("hc") <= 1  # chains ship at most once per pair
        if "hc" in tags and "hs" not in tags:
            # shipped unasked: the right block's chains fit in one message
            (chains,) = [p for _, tag, p in sent if tag == "hc"]
            assert len(chains["u"]) + len(chains["l"]) <= cap
        hp = [(r, {"u", "l"} & p.keys()) for r, tag, p in sent if tag == "hp"]
        if hp:
            probes[key] = hp
    for sent in probes.values():
        assert len({r for r, _ in sent}) == len(sent)  # one `hp` per pair and round
    levels = [i for i, rep in enumerate(engine.phase_reports) if rep.label.startswith("hull_merge_")]
    assert levels
    for i in levels:
        # both searches share each round trip, plus one for the suffixes;
        # a level where no pair probed takes the one round of shipped chains
        budget = max(
            (
                2 * max(sum(c in sides for _, sides in sent) for c in "ul") + 2
                for (phase, _, _), sent in probes.items()
                if phase == i
            ),
            default=1,
        )
        assert engine.phase_reports[i].rounds <= budget, engine.phase_reports[i].label


@pytest.mark.parametrize("k,jitter", HULL_CASES)
def test_hull_merge_searches_both_tangents_at_once(k, jitter, monkeypatch):
    merge_log = _log_merge(monkeypatch)
    engine, members = ring_engine(k, seed=200 + k, jitter=jitter)
    ring_protocol(engine, {0: members})
    _check_merge_rounds(engine, merge_log)


def test_hull_merge_searches_both_tangents_at_once_on_every_ring(monkeypatch):
    merge_log = _log_merge(monkeypatch)
    pipe = Pipeline(fixture_topology("star12-4"), PipelineConfig())
    pipe.build_abstraction()
    _check_merge_rounds(pipe.engine, merge_log)


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
    # so each merge of blocks too big to ship unasked takes the fallback:
    # "hs" asks, "hc" carries chains
    monkeypatch.setattr(overlay_mod, "_PROBE_SLACK", -1)
    merge_log = _log_merge(monkeypatch)
    topo = fixture_topology(name)
    pipe = Pipeline(topo, PipelineConfig())
    pipe.build_abstraction()
    for r in pipe.rings:
        assert pipe.abstractions[r.ring_id].hull_nodes == hull_node_ids(topo.points, r.members)
    tags = {t["tag"] for t in pipe.engine.transcript}
    assert {"hs", "hc"} <= tags and "hp" not in tags
    # some chains past the cap travel only because they were asked for
    cap = math.ceil(math.log2(len(topo.ids)))
    asked = [
        p
        for sent in merge_log.values()
        if "hs" in {tag for _, tag, _ in sent}
        for _, tag, p in sent
        if tag == "hc"
    ]
    assert any(len(p["u"]) + len(p["l"]) > cap for p in asked)


def test_small_blocks_ship_and_big_blocks_probe_on_one_ring(monkeypatch):
    merge_log = _log_merge(monkeypatch)
    engine, members = ring_engine(33, seed=233, jitter=0.03)
    res = ring_protocol(engine, {0: members})[0]
    pts = engine.topo.points
    coord_of = {v: (pts[v].x, pts[v].y) for v in members}
    id_at = {c: v for v, c in coord_of.items()}
    assert res.hull == [id_at[c] for c in brute_hull_ccw(list(coord_of.values()))]
    tags = [tag for sent in merge_log.values() for _, tag, _ in sent]
    assert "hc" in tags and "hp" in tags and "hs" not in tags
    _check_merge_rounds(engine, merge_log)


def test_ring_nodes_forget_the_sort_and_merge_transit_ids(monkeypatch):
    # ids learned from the keys and chains a node passes on are dropped
    # once the hull is known, unless they are hull nodes of its own rings;
    # so are those an outer-hole arc's padding hosts past its end learn
    topo = fixture_topology("star12-4")
    sort, hull, protocol = (
        overlay_mod.hypercube_sort,
        overlay_mod.parallel_convex_hull,
        holes_mod.ring_protocol,
    )
    learned: list[dict] = []
    dropped = 0
    padding_learned = 0

    def sort_spy(engine, cubes, keys):
        learned.append({v: set(topo.knows[v]) for v in topo.ids})
        return sort(engine, cubes, keys)

    def hull_spy(engine, cubes, slot_keys, ranked=()):
        out = hull(engine, cubes, slot_keys, ranked)
        learned[-1] = {v: topo.knows[v] - known for v, known in learned[-1].items()}
        return out

    def protocol_spy(engine, rings, jumps=None, cubes=None, ranked=()):
        nonlocal dropped, padding_learned
        out = protocol(engine, rings, jumps, cubes, ranked)
        own_hulls: dict = {}
        for key, members in rings.items():
            for v in members:
                own_hulls.setdefault(v, set()).update(out[key].hull)
        for v, ids in learned[-1].items():
            assert ids & topo.knows[v] <= own_hulls.get(v, set()), v
            dropped += len(ids - topo.knows[v])
        padding = {v for res in out.values() for v in res.cube.hosts} - set(own_hulls)
        padding_learned += sum(len(learned[-1][v]) for v in padding)
        return out

    monkeypatch.setattr(overlay_mod, "hypercube_sort", sort_spy)
    monkeypatch.setattr(overlay_mod, "parallel_convex_hull", hull_spy)
    monkeypatch.setattr(holes_mod, "ring_protocol", protocol_spy)
    pipe = Pipeline(topo, PipelineConfig())
    pipe.build_abstraction()
    assert len(learned) == 2 and dropped > 0  # one sort per wave
    assert padding_learned > 0


def test_ring_protocol_on_cavity_ring():
    topo = fixture_topology("grid36-hole4")
    g = build_ldel2(topo)
    ring = next(list(f) for f in g.faces if len(f) == 8)
    assert sorted(ring) == [8, 9, 13, 14, 17, 18, 22, 23]
    engine = RoundEngine(topo)
    jumps = pointer_jumping(engine, {0: ring})
    rank_ring(engine, {0: ring}, jumps)
    res = ring_protocol(engine, {0: ring}, jumps)[0]
    assert jumps[0].leader == res.cube.members[0] == 8
    assert jumps[0].ring_size == 8
    # bounded faces are walked ccw
    assert jumps[0].angle_total == pytest.approx(-360.0, abs=1e-6)
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


def _line_refs(owners):
    return [(v, round(v * 0.9, 6), 0.0, ring) for v, ring in owners]


# (nodes, hull references): the heap tree of a line; the root's subtree
# under node 1 (first case) or node 2 (second) holds no hull node.  The
# second has owners at depths 3 and 4, so node 1 relays id 7 to child 4
# a round after it learned it, node 19 is on two hulls, and node 1 sends
# nine references up in one round, more than ceil(log2 31) = 5
FLOODS = [
    (9, _line_refs([(2, 0), (5, 0)])),
    (31, _line_refs([(7, 0)] + [(v, 1) for v in range(15, 23)] + [(19, 2)])),
]


def test_distribute_hulls_floods_once_and_forgets(monkeypatch):
    for n, refs in FLOODS:
        _check_flood(n, refs, monkeypatch)


def _check_flood(n, refs, monkeypatch):
    eng = line_engine(n)
    tree = build_broadcast_tree(eng)
    keep = {r[0] for r in refs}
    pre = {v: set(eng.topo.knows[v]) for v in eng.topo.ids}
    received = {v: [] for v in eng.topo.ids}
    send = eng.send

    def spy(src, dst, payload=None, **kw):
        if kw.get("tag") == "href":
            received[dst] += [tuple(r) for r in payload["refs"]]
            assert len(payload["refs"]) <= math.ceil(math.log2(n))
        send(src, dst, payload, **kw)

    monkeypatch.setattr(eng, "send", spy)
    deliveries = distribute_hulls(eng, tree, refs, keep)
    assert deliveries == sum(len(got) for got in received.values())
    for v in keep:
        assert Counter(received[v]) == Counter(r for r in refs if r[0] != v), v
    spanning = set()
    for v in keep:
        while v not in spanning:
            spanning.add(v)
            v = tree.parent.get(v, v)
    assert len(spanning) < n
    for v in set(eng.topo.ids) - spanning:
        assert received[v] == [], v
    hrefs = Counter((t["src"], t["dst"]) for t in eng.transcript if t["tag"] == "href")
    assert hrefs == brute_hull_flood(tree, [r[0] for r in refs])
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
