"""Ring overlay protocols: election, rank order, merged size and orientation, hull, trees, DS."""

from __future__ import annotations

import math
import random
from collections import Counter
from typing import NamedTuple

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import hullroute.holes as holes_mod
import hullroute.overlay as overlay_mod

from hullroute.errors import GeometryInconsistencyError, SimulationAbortError
from hullroute.geometry import Point, convex_hull_oracle
from hullroute.holes import hull_node_ids
from hullroute.ldel import build_ldel2, build_udg
from hullroute.overlay import (
    assign_hypercube_ids,
    build_broadcast_tree,
    distribute_hulls,
    dominating_set,
    hypercube_sort,
    pointer_jumping,
    ring_protocol,
)
from hullroute.pipeline import Pipeline, PipelineConfig
from hullroute.scenario import fixture_topology
from hullroute.simengine import RoundEngine, tally

from oracles import (
    brute_arc_min,
    brute_hull,
    brute_hull_ccw,
    brute_hull_gather,
    brute_min_path_ds,
    path_ds_optimum,
    polygon_orientation,
    with_ids,
)


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


# ---------------------------------------------------------------------------
# pointer jumping


KS = [2, 3, 4, 5, 8, 12, 16, 17, 33]


def levels(k):
    """Merge levels of a ring of k ranks, and cast levels below rank 0: ceil(log2 k), at least 1."""
    return max(1, math.ceil(math.log2(k)))


def rank_of(order):
    """Each node's rank in a ring's rank order."""
    return {v: s for s, v in enumerate(order)}


def jump_sends(monkeypatch) -> list:
    """Log every pj_succ and pj_pred send as (round, tag, src, dst, introduced id, payload)."""
    sent: list = []
    send = RoundEngine.send

    def spy(self, src, dst, payload=None, **kw):
        if kw.get("tag") in ("pj_succ", "pj_pred"):
            sent.append((self.round_no, kw["tag"], src, dst, kw["intro_ids"][0], dict(payload)))
        send(self, src, dst, payload, **kw)

    monkeypatch.setattr(RoundEngine, "send", spy)
    return sent


def check_jump_sends(members, sent) -> None:
    """Every pointer-jump message bridges 2^level ring nodes and carries its arc's minimum.

    A node's level on a side is the messages of that side's tag it was
    sent in earlier rounds.  A pj_succ from v introduces the node 2^level
    past v and carries the minimum over the arc behind it, back to but
    excluding v; a pj_pred from v introduces the node 2^level before v and
    carries the minimum over the arc behind v, back to but excluding that
    node, with its hops back from v as `o`.  A minimum is left out when
    it is the introduced id (pj_succ) or the sender (pj_pred).
    """
    k = len(members)
    at = {v: i for i, v in enumerate(members)}
    level: Counter = Counter()
    arrived: Counter = Counter()
    last = None
    for rnd, tag, v, dst, w, d in sent:
        if rnd != last:
            level.update(arrived)
            arrived.clear()
            last = rnd
        span = 1 << level[tag, v]
        if tag == "pj_succ":
            assert members[(at[v] + span) % k] == w, (rnd, v, span)
            assert d.get("ell", w) == brute_arc_min(members, v, span), (rnd, v, span)
        else:
            assert members[(at[v] - span) % k] == w, (rnd, v, span)
            ell = d.get("ell", v)
            assert ell == brute_arc_min(members, w, span), (rnd, v, span)
            assert d.get("o", 0) == (at[v] - at[ell]) % k, (rnd, v, span)
        arrived[tag, dst] += 1


def election_costs(engine, key):
    """Ring `key`'s election rounds and each node's sends, off the engine's session report and transcript."""
    (rounds,) = [rep.rounds for k, rep in engine.session_reports if k == key and rep.label == "pointer_jumping"]
    lines = [t for t in engine.transcript if t["session"] == key and t["tag"].startswith("pj_")]
    sends = {v: c.messages_adhoc + c.messages_longrange for v, c in tally(lines, lambda t: t["src"]).items()}
    return rounds, sends


@pytest.mark.parametrize("k", KS)
def test_pointer_jumping_elects_min_id(k):
    engine, members = ring_engine(k, seed=k)
    ranks = pointer_jumping(engine, {0: members})[0]
    assert ranks[min(members)] == 0
    bound = math.ceil(math.log2(k))
    rounds, sends = election_costs(engine, 0)
    assert rounds <= bound
    assert max(sends.values()) <= 2 * bound


def test_pointer_jumping_on_rings_of_every_size(monkeypatch):
    # a done node sends nothing more, yet on every ring size, with ids in
    # no order, each pointer-jump message still bridges 2^level ring nodes
    # and carries its arc's minimum, every node ends knowing its rank, its
    # hops back to the leader, and the election keeps to ceil(log2 k)
    # rounds and two messages per node and round
    sent = jump_sends(monkeypatch)
    for k in [*range(3, 71), 127, 128, 129, 176, 255, 256, 257, 300]:
        ids = list(range(1000, 1000 + k))
        random.Random(k).shuffle(ids)
        engine, members = ring_engine(k, ids=ids)
        sent.clear()
        ranks = pointer_jumping(engine, {0: members})[0]
        li = members.index(min(members))
        assert ranks == {v: (i - li) % k for i, v in enumerate(members)}, k
        check_jump_sends(members, sent)
        bound = math.ceil(math.log2(k))
        rounds, sends = election_costs(engine, 0)
        assert rounds <= bound, k
        assert max(sends.values()) <= 2 * bound, k


def test_a_pj_pred_that_overstates_its_hops_aborts_the_election(monkeypatch):
    # one pj_pred carrying the leader with one hop too many: the node that
    # takes it ends one rank off, and the election refuses to finish
    engine, members = ring_engine(12, seed=8)
    leader = min(members)
    send = engine.send
    mutated = []

    def spy(src, dst, payload=None, **kw):
        if kw.get("tag") == "pj_pred" and payload.get("ell") == leader and not mutated:
            mutated.append(dst)
            payload = {**payload, "o": payload["o"] + 1}
        send(src, dst, payload, **kw)

    monkeypatch.setattr(engine, "send", spy)
    with pytest.raises(SimulationAbortError, match="rank did not converge"):
        pointer_jumping(engine, {0: members})
    assert mutated


def test_pointer_jumping_shuffled_ids():
    # leadership must follow ids, not ring positions
    ids = [104, 101, 107, 100, 106, 103, 102, 105, 108, 110, 109]
    engine, members = ring_engine(len(ids), ids=ids, seed=4)
    ranks = pointer_jumping(engine, {0: members})[0]
    assert ranks[100] == 0


def test_jump_edges_carry_arc_minima(monkeypatch):
    # the election keeps no log of its links: the arc minimum each message
    # carries, or leaves to its header, is read off the sends themselves
    sent = jump_sends(monkeypatch)
    engine, members = ring_engine(13, seed=3, jitter=0.02)
    pointer_jumping(engine, {0: members})
    assert {tag for _, tag, *_ in sent} == {"pj_succ", "pj_pred"}
    assert {(tag, "ell" in d) for _, tag, *_, d in sent} == {
        (tag, carried) for tag in ("pj_succ", "pj_pred") for carried in (True, False)
    }
    check_jump_sends(members, sent)


def test_mixed_wave_reports_each_rings_own_rounds():
    # a k=4 circle just outside a k=40 circle; both elect in the same phases
    small, small_ids = circle_points(4, ids=range(100, 104))
    big, big_ids = circle_points(40)
    small = {v: Point(p.x + 6.4, p.y) for v, p in small.items()}
    rings = {"small": small_ids, "big": big_ids}
    engine = RoundEngine(build_udg({**small, **big}))
    res = pointer_jumping(engine, rings)
    costs = {key: election_costs(engine, key) for key in rings}
    for key, members in rings.items():
        k = len(members)
        assert costs[key][0] <= math.ceil(math.log2(k))
        assert res[key][min(members)] == 0
        # the same rounds and messages as a ring running alone
        alone = ring_engine(k, ids=members)[0]
        pointer_jumping(alone, {key: members})
        assert costs[key] == election_costs(alone, key)
    assert costs["small"][0] < costs["big"][0]
    # the phase lasts as long as the big ring's election, and no longer
    assert engine.phase_reports[-1].rounds == costs["big"][0]


def test_wave_holds_each_session_to_its_own_bound():
    # "short" asks to run again until round 3 against a bound of 2 while
    # "long" keeps the phase going to round 6 within its bound of 8: the
    # phase's bound alone, the largest, would let "short" through
    def wait(until, bound):
        return overlay_mod._Session([0], lambda eng, v, inbox: eng.round_no >= until, bound, lambda r: r.rounds)

    with pytest.raises(SimulationAbortError, match="'short' exceeded 2 rounds"):
        overlay_mod._run_wave(line_engine(3), "bounds", {"short": wait(3, 2), "long": wait(6, 8)})
    ran = overlay_mod._run_wave(line_engine(3), "bounds", {"short": wait(2, 2), "long": wait(6, 8)})
    assert ran == {"short": 2, "long": 6}


def test_a_stalled_session_aborts_in_the_round_it_overruns_its_own_bound():
    # "short" never goes quiet, its two ends mailing each other every
    # round; it aborts in round 2, its own bound, not past "long"'s 8,
    # the abort names it and no node, and none of its mail outlives it
    engine = line_engine(3)

    def chatter(eng, v, inbox):
        eng.send(v, 1 - v, "again")
        return True

    sessions = {
        "short": overlay_mod._Session([0, 1], chatter, 2),
        "long": overlay_mod._Session([2], lambda eng, v, inbox: eng.round_no >= 6, 8),
    }
    with pytest.raises(SimulationAbortError, match="phase 'bounds' session 'short' exceeded 2 rounds") as ei:
        overlay_mod._run_wave(engine, "bounds", sessions)
    assert (ei.value.node, ei.value.round_no, engine.round_no) == (None, 2, 2)
    heard = []

    def listen(eng, v, inbox):
        heard.extend(m.payload for m in inbox)
        return True

    reports = engine.run_sessions("after", {"short": ([0, 1, 2], listen, 1)})
    assert heard == [] and reports["short"].rounds == 0


def idling(monkeypatch, label, victim):
    """Phases labelled `label` keep `victim` pending one round past each call that had mail."""
    run_phase = RoundEngine.run_phase

    def spy(eng, phase, handler, max_rounds):
        def idle(e, v, inbox):
            return handler(e, v, inbox) and not (v == victim and inbox)

        return run_phase(eng, phase, idle if phase == label else handler, max_rounds)

    monkeypatch.setattr(RoundEngine, "run_phase", spy)


def test_an_election_node_that_idles_one_round_aborts_its_session(monkeypatch):
    # on a ring of 8 no node is done before round ceil(log2 8) = 3, the
    # session's cap, so the leader hears mail in round 3; if it asks to
    # run once more, the phase aborts in that round, naming the ring
    engine, members = ring_engine(8)
    idling(monkeypatch, "pointer_jumping", min(members))
    with pytest.raises(SimulationAbortError, match="phase 'pointer_jumping' session 0 exceeded 3 rounds"):
        pointer_jumping(engine, {0: members})
    assert engine.phase_reports[-1].rounds == 3


def test_a_hull_broadcast_node_that_idles_one_round_aborts_its_session(monkeypatch):
    # rank 7 of a ring of 8 is reached last, one hop per set bit, in round
    # ceil(log2 8) = 3, the session's cap; if it asks to run once more,
    # the phase aborts in that round, naming the ring
    engine, members = ring_engine(8)
    idling(monkeypatch, "hull_broadcast", members[7])
    with pytest.raises(SimulationAbortError, match="phase 'hull_broadcast' session 0 exceeded 3 rounds"):
        one_ring(engine, members)
    assert engine.phase_reports[-1].rounds == 3


def test_a_hull_merge_node_that_idles_one_round_aborts_its_session(monkeypatch):
    # every ship of star12-4's level 2 fits one message, so the level's
    # derived cap is 1 round (the guess 2 * 2^(L-1) + 2 gave it 6); the
    # outer ring's leader, node 0, receives rank 2's ship in that round,
    # and if it asks to run once more, the phase aborts, naming the ring
    pipe = Pipeline(fixture_topology("star12-4"), PipelineConfig())
    idling(monkeypatch, "hull_merge_2", 0)
    with pytest.raises(SimulationAbortError, match="phase 'hull_merge_2' session 0 exceeded 1 rounds"):
        pipe.build_abstraction()
    assert pipe.engine.phase_reports[-1].rounds == 1


def test_cast_and_merge_waves_make_no_idle_call():
    # in every hull merge level, which starts at 2, both hull broadcasts
    # and the hull distribution, a node is called only when mail reaches
    # it or in a round it sends
    watched = []
    for name in ("grid36-hole4", "crescent-24", "star12-4", "cshape-40", "scale-512-1"):
        pipe = Pipeline(fixture_topology(name), PipelineConfig())
        pipe.build_abstraction()
        watched += [p for p in pipe.engine.phase_reports if p.label.startswith("hull_")]
    labels = {p.label for p in watched}
    assert {"hull_merge_2", "hull_merge_3", "hull_broadcast", "hull_distribution"} <= labels
    assert "hull_merge_1" not in labels
    assert [(p.label, p.calls - p.active) for p in watched if p.calls != p.active] == []


# ---------------------------------------------------------------------------
# ring size merged up to the leader, orientation read off the hull's ranks


class RingRun(NamedTuple):
    """One ring's rank order, hull node ids and orientation after a build's wave one."""

    order: list
    hull: list
    orientation: int


def one_ring(engine, members):
    """Election, its rank order and ring_protocol for the ring members, as a build's wave one."""
    rings = {0: members}
    orders = assign_hypercube_ids(pointer_jumping(engine, rings))
    hulls, orientations = ring_protocol(engine, orders, ())
    return RingRun(orders[0], hulls[0], orientations[0])


def merged_sizes(monkeypatch) -> dict:
    """Fills with the ring size each leader ends the merge with, by key, as rank_ring checks it."""
    sizes = {}
    rank_ring = overlay_mod.rank_ring

    def spy(engine, orders, chains, merged):
        sizes.update(merged)
        return rank_ring(engine, orders, chains, merged)

    monkeypatch.setattr(overlay_mod, "rank_ring", spy)
    return sizes


@pytest.mark.parametrize("k", [3, 4, 6, 8, 12, 17])
def test_merged_totals_match_a_direct_sum(k, monkeypatch):
    engine, members = ring_engine(k, seed=k + 50, jitter=0.02)
    carried = []
    send = engine.send

    def spy(src, dst, payload=None, **kw):
        if kw.get("tag") == "hm" and "count" in payload:
            carried.append(payload["count"])
        send(src, dst, payload, **kw)

    monkeypatch.setattr(engine, "send", spy)
    sizes = merged_sizes(monkeypatch)
    res = one_ring(engine, members)
    assert sizes == {0: k}
    # a ccw walk: the hull's ranks ascend from the leader around the hull
    assert res.orientation == polygon_orientation([engine.topo.points[v] for v in members]) == 1
    # k ranks take k - 1 merges; the floor(k/2) of level 1 are local, and
    # one merge message per merge from level 2 on carries the right
    # block's count
    assert len(carried) == k - 1 - k // 2
    tags = {t["tag"] for t in engine.transcript}
    assert tags == {"pj_succ", "pj_pred", "hm", "hullb"}


def test_hull_rank_order_flips_orientation_clockwise():
    engine, members = ring_engine(9, seed=77)
    cw = [members[0]] + members[1:][::-1]
    assert one_ring(engine, cw).orientation == -1


# primitive lattice directions with coordinates in [-2, 2], counterclockwise
DIRS = sorted(
    {
        (dx // math.gcd(dx, dy), dy // math.gcd(dx, dy))
        for dx in range(-2, 3)
        for dy in range(-2, 3)
        if dx or dy
    },
    key=lambda d: math.atan2(d[1], d[0]),
)


def star_walk(spokes):
    """A simple star-shaped lattice polygon, counterclockwise, as exact float points.

    spokes maps a DIRS index to (m, s): a vertex 6m steps out along that
    direction, and the edge to the next vertex cut into s equal pieces, a
    collinear run.  The four axis directions are always spokes, so every
    angular gap is under pi and the origin lies inside.  Coordinates are
    multiples of 6 over 128: the pieces' ends are exact, and every point
    is within radio range of every other.
    """
    spokes = {**{i: (1, 1) for i, d in enumerate(DIRS) if 0 in d}, **spokes}
    corners = [(6 * m * DIRS[i][0], 6 * m * DIRS[i][1], s) for i, (m, s) in sorted(spokes.items())]
    walk = []
    for (x, y, s), (x2, y2, _) in zip(corners, corners[1:] + corners[:1]):
        walk += [(x + (x2 - x) * j // s, y + (y2 - y) * j // s) for j in range(s)]
    return [Point(x / 128, y / 128) for x, y in walk]


@given(
    st.dictionaries(
        st.integers(0, len(DIRS) - 1), st.tuples(st.integers(1, 4), st.integers(1, 3)), max_size=12
    ),
    st.integers(0, 99),
    st.booleans(),
    st.integers(0, 99),
)
# a square through its corners and edge midpoints, each side cut into four collinear runs
@example({i: (1, 2) for i, d in enumerate(DIRS) if max(map(abs, d)) == 1}, 3, True, 1)
def test_rank_ring_reads_the_orientation_off_the_hull_ranks(spokes, start, clockwise, swap):
    walk = star_walk(spokes)
    if clockwise:
        walk.reverse()
    k = len(walk)
    # the leader, id 0, sits at walk position start; ids follow the walk
    ids = [(i - start) % k for i in range(k)]
    engine = RoundEngine(build_udg(dict(zip(ids, walk))))
    res = one_ring(engine, ids)
    assert res.orientation == polygon_orientation(walk) == (-1 if clockwise else 1)
    rank = rank_of(res.order)
    chain = [[engine.topo.points[v].x, engine.topo.points[v].y, v, rank[v]] for v in res.hull]
    assert overlay_mod.rank_ring(engine, {0: res.order}, {0: chain}, {0: k}) == {0: res.orientation}
    # two hull neighbours' ranks swapped read neither way round; a triangle is
    # exempt, since any order of three ranks is one way round or the other
    if len(chain) >= 4:
        i = swap % len(chain)
        j = (i + 1) % len(chain)
        chain[i][3], chain[j][3] = chain[j][3], chain[i][3]
        with pytest.raises(GeometryInconsistencyError):
            overlay_mod.rank_ring(engine, {0: res.order}, {0: chain}, {0: k})


def test_a_block_that_under_reports_its_count_aborts(monkeypatch):
    engine, members = ring_engine(12, seed=5)
    send = engine.send
    mutated = []

    def spy(src, dst, payload=None, **kw):
        if kw.get("tag") == "hm" and "count" in payload and not mutated:
            mutated.append(src)
            payload = {**payload, "count": payload["count"] - 1}
        send(src, dst, payload, **kw)

    monkeypatch.setattr(engine, "send", spy)
    with pytest.raises(SimulationAbortError, match="lost nodes"):
        one_ring(engine, members)
    assert mutated
    # the leader noticed before it broadcast the hull
    assert "hullb" not in {t["tag"] for t in engine.transcript}


# ---------------------------------------------------------------------------
# rank order


@pytest.mark.parametrize("k", [3, 4, 8, 12, 16, 17])
def test_hypercube_ids_follow_ring_rank(k):
    # the layout is the ring from its minimum id on, in its own direction,
    # with no padding: k = 12 lays out 12 ranks, not 16
    engine, members = ring_engine(k, seed=k + 9)
    ranks = pointer_jumping(engine, {0: members})[0]
    order = assign_hypercube_ids({0: ranks})[0]
    li = members.index(min(members))
    assert order == members[li:] + members[:li]
    assert [ranks[v] for v in order] == list(range(k))


@pytest.mark.parametrize("k", [3, 5, 12, 17, 33])
def test_id_cast_reaches_every_rank_once_over_jump_edges(k):
    # no id is cast any more: the election leaves every node its ring rank,
    # its hops back to the leader, and the ring is laid out in rank order
    # with no message, no phase and no round
    engine, members = ring_engine(k, seed=21)
    ranks = pointer_jumping(engine, {0: members})[0]
    li = members.index(min(members))
    rank = {v: (i - li) % k for i, v in enumerate(members)}
    assert ranks == rank
    before = (engine.round_no, len(engine.phase_reports), len(engine.transcript))
    order = assign_hypercube_ids({0: ranks})[0]
    assert (engine.round_no, len(engine.phase_reports), len(engine.transcript)) == before
    assert "hc_assign" not in {t["tag"] for t in engine.transcript}
    assert rank_of(order) == rank


@pytest.mark.parametrize("k", [3, 5, 12, 17, 33])
def test_cube_has_no_padding_and_its_edges_are_known_jump_edges(k):
    engine, members = ring_engine(k, seed=21)
    order = assign_hypercube_ids(pointer_jumping(engine, {0: members}))[0]
    # no padding: the k ranks, each held by its own ring node
    assert sorted(order) == sorted(members)
    # ranks s and s + 2^j below k, which the merge and the casts link,
    # are ring nodes 2^j apart that pointer jumping taught each other
    for s in range(k):
        for j in range(levels(k)):
            if s + (1 << j) < k:
                u, w = order[s], order[s + (1 << j)]
                assert w in engine.topo.knows[u] and u in engine.topo.knows[w], (s, j)


# ---------------------------------------------------------------------------
# rank keys


@pytest.mark.parametrize("k", [4, 7, 12, 16, 23])
def test_hypercube_sort_lays_keys_out_by_rank(k):
    engine, members = ring_engine(k, seed=k + 123, jitter=0.03)
    order = assign_hypercube_ids(pointer_jumping(engine, {0: members}))[0]
    pts = engine.topo.points
    before = (engine.round_no, len(engine.phase_reports), engine.total_messages)
    keys = hypercube_sort(engine, {0: order})[0]
    assert keys == [[pts[v].x, pts[v].y, v, s] for s, v in enumerate(order)]
    # a layout, not a protocol: no round, no phase, no message
    assert (engine.round_no, len(engine.phase_reports), engine.total_messages) == before


# ---------------------------------------------------------------------------
# distributed hull


HULL_CASES = [(3, 0.0), (4, 0.0), (5, 0.0), (8, 0.03), (12, 0.03), (16, 0.0), (17, 0.03), (33, 0.03)]


def hull_ids(pts, members):
    """brute_hull_ccw of the members' positions, as node ids."""
    id_at = {(pts[v].x, pts[v].y): v for v in members}
    return [id_at[c] for c in brute_hull_ccw(list(id_at))]


@pytest.mark.parametrize("k,jitter", HULL_CASES)
def test_parallel_hull_equals_centralized(k, jitter):
    engine, members = ring_engine(k, seed=200 + k, jitter=jitter)
    res = one_ring(engine, members)
    pts = engine.topo.points
    assert res.hull == hull_ids(pts, members)
    # second, independently coded centralized route
    id_at = {(pts[v].x, pts[v].y): v for v in members}
    oracle = [id_at[(p.x, p.y)] for p in convex_hull_oracle(id_at)]
    assert res.hull == oracle


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
    res = one_ring(engine, members)
    assert res.hull == hull_ids(pts, members)
    assert len(res.hull) == 4  # corners only
    coord_of = {v: (pts[v].x, pts[v].y) for v in members}
    assert sorted(tuple(coord_of[v]) for v in res.hull) == brute_hull(coord_of.values())


def collinear_ring_points(k):
    """A ccw ring of k >= 3 lattice points whose sides are exactly collinear runs.

    The perimeter walk of a w x h rectangle at step 1/2, without its first
    corner when k is odd; the cut corner is a diagonal side.
    """
    m = (k + 1) // 2
    pts = rect_ring_points((m + 1) // 2, m // 2, step=0.5)
    if k % 2:
        pts = {v - 1: p for v, p in pts.items() if v}
    return pts


def teach_jump_links(engine, members):
    """Teach each ring node only the ids pointer jumping would: those 2^j ranks ahead and behind.

    Rank 0 is members[0]; the engine then rejects any message that
    travels neither such a link nor a radio link.
    """
    k = len(members)
    for r, v in enumerate(members):
        for j in range(k.bit_length()):
            if 1 << j < k:
                engine.topo.learn(v, members[(r + (1 << j)) % k])
                engine.topo.learn(v, members[(r - (1 << j)) % k])


@pytest.mark.parametrize("seed", [1, 2])
def test_rank_merge_equals_the_centralized_hull(seed):
    # by k mod 3: a circle at jitter 0, a jittered circle, collinear runs;
    # the k not a power of two leave the last block of a level short
    for k in range(3, 301):
        shape = (k + seed) % 3
        if shape == 2:
            pts, members = collinear_ring_points(k), list(range(k))
        else:
            pts, members = circle_points(k, seed=seed * 1000 + k, jitter=0.03 * shape)
        engine = RoundEngine(build_udg(pts))
        teach_jump_links(engine, members)
        hulls, _ = ring_protocol(engine, {0: members}, ())
        assert hulls[0] == hull_ids(pts, members), (k, shape)


@pytest.mark.parametrize("name", ["grid36-hole4", "crescent-24", "star12-4", "cshape-40", "scale-512-1"])
def test_shipped_chains_merge_to_the_centralized_hull(name):
    # every right block ships its hull chain (tag `hm`); the left hosts'
    # merges end in the centralized hull of every ring
    topo = fixture_topology(name)
    pipe = Pipeline(topo, PipelineConfig())
    pipe.build_abstraction()
    assert "hm" in {t["tag"] for t in pipe.engine.transcript}
    assert len(pipe.abstractions) == len(pipe.rings)
    for r in pipe.rings:
        assert pipe.abstractions[r.ring_id].hull_nodes == hull_node_ids(topo.points, r.members)
        assert pipe.abstractions[r.ring_id].hull_nodes == hull_ids(topo.points, r.members)


def _log_merge(monkeypatch) -> list:
    """Log every `hm` send as (phase index, session, round, src, points)."""
    sent: list = []
    send = RoundEngine.send

    def spy(self, src, dst, payload=None, **kw):
        if kw.get("tag") == "hm":
            sent.append((len(self.phase_reports), self.session, self.round_no, src, len(payload["hull"])))
        send(self, src, dst, payload, **kw)

    monkeypatch.setattr(RoundEngine, "send", spy)
    return sent


def _check_merge(engine, merge_log, depths) -> list[int]:
    """Check the caps and the rounds of every merge phase; returns their rounds.

    A message holds at most cap points, a host sends at most cap of them a
    round, a ship fills every message but its last, and a phase takes as
    many rounds as its busiest host needs at cap messages a round.  Level
    1 is local, so the phases start at hull_merge_2: every ring (session ->
    its levels d) merges in the first d - 1 phases of its ring_protocol
    call, and the call runs as many phases as its largest d less one.
    """
    cap = math.ceil(math.log2(len(engine.topo.ids)))
    assert merge_log
    assert max(n for *_, n in merge_log) <= cap
    assert max(Counter((r, src) for _, _, r, src, _ in merge_log).values()) <= cap
    ships: dict = {}
    for phase, session, _, src, n in merge_log:
        ships.setdefault((phase, session, src), []).append(n)
    for sizes in ships.values():
        assert len(sizes) == -(-sum(sizes) // cap)
    calls: list[list[int]] = []  # the merge phases of each ring_protocol call
    for i, rep in enumerate(engine.phase_reports):
        assert rep.label != "hull_merge_1"
        if rep.label == "hull_merge_2":
            calls.append([])
        if rep.label.startswith("hull_merge_"):
            calls[-1].append(i)
    levels = [i for call in calls for i in call]
    for i in levels:
        busiest = Counter(src for phase, _, _, src, _ in merge_log if phase == i)
        assert engine.phase_reports[i].rounds == -(-max(busiest.values()) // cap)
    merged = {
        session: sorted({phase for phase, key, *_ in merge_log if key == session})
        for session in depths
    }
    for call in calls:
        inside = {key: d for key, d in depths.items() if merged[key][0] in call}
        assert len(call) == max(inside.values()) - 1
        for key, d in inside.items():
            assert merged[key] == call[: d - 1], key
    assert sum(len(call) for call in calls) == len(levels)
    return [engine.phase_reports[i].rounds for i in levels]


@pytest.mark.parametrize("k,jitter", HULL_CASES)
def test_hull_merge_searches_both_tangents_at_once(k, jitter, monkeypatch):
    # the left host finds both tangents between the two blocks' hulls at
    # once, as the bridges of one local hull of their union, so a merge
    # level from 2 on takes the one round of its ship
    merge_log = _log_merge(monkeypatch)
    engine, members = ring_engine(k, seed=200 + k, jitter=jitter)
    res = one_ring(engine, members)
    assert _check_merge(engine, merge_log, {0: levels(k)}) == [1] * (levels(k) - 1)


def test_hull_merge_searches_both_tangents_at_once_on_every_ring(monkeypatch):
    # both waves: the closed rings, then the outer-hole arcs
    merge_log = _log_merge(monkeypatch)
    for topo in (fixture_topology("star12-4"), fixture_topology("scale-512-1")):
        merge_log.clear()
        pipe = Pipeline(topo, PipelineConfig())
        pipe.build_abstraction()
        depths = {key: levels(len(order)) for key, order in pipe.orders.items()}
        assert set(_check_merge(pipe.engine, merge_log, depths)) == {1}


def test_no_level_one_merge_message_in_either_wave(monkeypatch):
    # a host merges its ring successor's point without a message, so every
    # `hm` goes back 2^(L-1) >= 2 ranks, on the closed rings and on the arcs
    sent = []
    send = RoundEngine.send

    def spy(self, src, dst, payload=None, **kw):
        if kw.get("tag") == "hm":
            sent.append((self.session, src, dst))
        send(self, src, dst, payload, **kw)

    monkeypatch.setattr(RoundEngine, "send", spy)
    pipe = Pipeline(fixture_topology("scale-512-1"), PipelineConfig())
    pipe.build_abstraction()
    rank = {key: rank_of(order) for key, order in pipe.orders.items()}
    gaps = {rank[key][src] - rank[key][dst] for key, src, dst in sent}
    assert min(gaps) == 2 and all(gap & (gap - 1) == 0 for gap in gaps)
    kinds = {r.ring_id: r.kind for r in pipe.rings}
    assert {kinds[key] == holes_mod.KIND_OUTER_HOLE for key, _, _ in sent} == {True, False}
    assert "hull_merge_1" not in {p.label for p in pipe.engine.phase_reports}


def test_merge_messages_stay_under_the_cap(monkeypatch):
    # a convex ring whose hull outgrows cap^2 points: the biggest ship
    # takes several rounds, at cap messages a round
    merge_log = _log_merge(monkeypatch)
    engine, members = ring_engine(300)
    res = one_ring(engine, members)
    cap = math.ceil(math.log2(300))
    assert res.hull == hull_ids(engine.topo.points, members)
    assert len(res.hull) > cap * cap
    rounds = _check_merge(engine, merge_log, {0: levels(300)})
    assert max(rounds) > 1


def test_ring_nodes_forget_the_sort_and_merge_transit_ids(monkeypatch):
    # ids learned from the hulls shipped to a node are dropped once the
    # hull is known, unless they are hull nodes of its own rings; a node
    # on no ring of the wave takes no part in the merge and learns nothing
    topo = fixture_topology("star12-4")
    sort, hull, protocol = (
        overlay_mod.hypercube_sort,
        overlay_mod.parallel_convex_hull,
        holes_mod.ring_protocol,
    )
    learned: list[dict] = []
    dropped = 0
    outside_learned = 0

    def sort_spy(engine, orders):
        learned.append({v: set(topo.knows[v]) for v in topo.ids})
        return sort(engine, orders)

    def hull_spy(engine, *args):
        out = hull(engine, *args)
        learned[-1] = {v: topo.knows[v] - known for v, known in learned[-1].items()}
        return out

    def protocol_spy(engine, orders, *args):
        nonlocal dropped, outside_learned
        out = protocol(engine, orders, *args)
        own_hulls: dict = {}
        for key, order in orders.items():
            for v in order:
                own_hulls.setdefault(v, set()).update(out[0][key])
        for v, ids in learned[-1].items():
            assert ids & topo.knows[v] <= own_hulls.get(v, set()), v
            dropped += len(ids - topo.knows[v])
        outside = set(topo.ids) - {v for order in orders.values() for v in order}
        outside_learned += sum(len(learned[-1][v]) for v in outside)
        return out

    monkeypatch.setattr(overlay_mod, "hypercube_sort", sort_spy)
    monkeypatch.setattr(overlay_mod, "parallel_convex_hull", hull_spy)
    monkeypatch.setattr(holes_mod, "ring_protocol", protocol_spy)
    pipe = Pipeline(topo, PipelineConfig())
    pipe.build_abstraction()
    assert len(learned) == 2 and dropped > 0  # one layout per wave
    assert outside_learned == 0


def test_ring_protocol_on_cavity_ring(monkeypatch):
    topo = fixture_topology("grid36-hole4")
    g = build_ldel2(topo)
    ring = next(list(f) for f in g.faces if len(f) == 8)
    assert sorted(ring) == [8, 9, 13, 14, 17, 18, 22, 23]
    engine = RoundEngine(topo)
    ranks = pointer_jumping(engine, {0: ring})
    orders = assign_hypercube_ids(ranks)
    sizes = merged_sizes(monkeypatch)
    hulls, orientations = ring_protocol(engine, orders, ())
    assert orders[0][0] == 8 and ranks[0][8] == 0
    assert sizes == {0: 8}
    # bounded faces are walked ccw
    assert orientations == {0: 1}
    pts = topo.points
    coord_of = {v: (pts[v].x, pts[v].y) for v in ring}
    id_at = {c: v for v, c in coord_of.items()}
    want = [id_at[c] for c in brute_hull_ccw(list(coord_of.values()))]
    assert hulls == {0: want}


def test_hull_broadcast_sends_at_most_cap_points_per_message(monkeypatch):
    # a circle's hull is the whole ring: 40 points against a cap of 6; a
    # rectangle's is its corners, with long bays between them
    rect = rect_ring_points(10, 10, step=0.5)
    for pts, members in (circle_points(40, seed=3), (rect, list(range(len(rect))))):
        engine = RoundEngine(build_udg(pts))
        k = len(members)
        cap = math.ceil(math.log2(k))
        sent = []
        send = engine.send

        def spy(src, dst, payload=None, **kw):
            if kw.get("tag") == "hullb":
                assert "budget" not in payload
                sent.append((engine.round_no, src, dst, with_ids(payload["hull"], kw["intro_ids"], 2)))
            send(src, dst, payload, **kw)

        monkeypatch.setattr(engine, "send", spy)
        res = one_ring(engine, members)
        rank = rank_of(res.order)
        hull = sorted(rank[h] for h in res.hull)
        got: dict = {}
        for rnd, src, dst, chunk in sent:
            assert len(chunk) <= cap
            assert all(q == [pts[q[2]].x, pts[q[2]].y, q[2], rank[q[2]]] for q in chunk)
            got.setdefault(rank[dst], []).append((rnd, chunk))
        assert set(got) == set(range(1, k))
        for c, parts in got.items():
            assert len({rnd for rnd, _ in parts}) == 1, c
            # rank c roots the ranks [c, e) of the binomial tree
            e = min(c + (c & -c), k)
            before = max(hull, key=lambda h: (h - c) % k)
            after = min(hull, key=lambda h: (h - e) % k)
            want = sorted({h for h in hull if c <= h < e} | {before, after})
            assert sorted(q[3] for _, chunk in parts for q in chunk) == want, c
            assert len(parts) == math.ceil(len(want) / cap), c
            # so rank c holds the nearest hull node after it, too
            assert min(hull, key=lambda h: (h - c - 1) % k) in want, c


# ---------------------------------------------------------------------------
# broadcast tree and hull distribution


def test_broadcast_tree_heap_shape():
    # what the tree's shape leaves each node is one hop to the root, the
    # smallest id, and no other link
    eng = line_engine(15)
    pre = {v: set(eng.topo.knows[v]) for v in eng.topo.ids}
    assert build_broadcast_tree(eng, eng.round_no) == 0
    assert all(eng.topo.knows[v] == pre[v] | {0} - {v} for v in eng.topo.ids)
    charged = [t for t in eng.transcript if t["tag"].startswith("charge:broadcast_tree")]
    assert charged and charged[0]["tag"].endswith(":16")  # ceil(log2(15)^2)


def test_broadcast_tree_sizes():
    one = line_engine(1)
    assert build_broadcast_tree(one, 0) == 0
    assert one.round_no == 0
    assert one.transcript[-1]["tag"] == "charge:broadcast_tree:0"
    big = line_engine(1000)
    assert build_broadcast_tree(big, 0) == 0
    assert big.round_no == 100  # ceil(log2(1000)^2)
    assert all(0 in big.topo.knows[v] for v in big.topo.ids[1:])


def test_broadcast_tree_teaches_every_node_the_root_and_no_link(monkeypatch):
    # the tree leaves every node the smallest id, its root, and nothing
    # else; a recompute keeps, besides that id, only each node's radio
    # links, which are all it knew before the first build
    pipe = Pipeline(fixture_topology("grid36-hole4"), PipelineConfig())
    topo = pipe.topo
    assert all(topo.knows[v] == topo.adhoc[v] for v in topo.ids)
    pipe.build_abstraction()
    root = pipe.root
    assert root == topo.ids[0]
    assert all(root in topo.knows[v] for v in topo.ids if v != root)
    kept = []
    build = pipe.build_abstraction

    def spy():
        kept.append({v: set(topo.knows[v]) for v in topo.ids})
        build()

    monkeypatch.setattr(pipe, "build_abstraction", spy)
    assert pipe.periodic_recompute()["tree_reused"]
    assert kept == [{v: topo.adhoc[v] | {root} - {v} for v in topo.ids}]


@pytest.mark.parametrize("elapsed,charged", [(0, 16), (10, 6), (16, 0), (40, 0)])
def test_broadcast_tree_charges_only_the_rounds_it_still_needs(elapsed, charged):
    # the tree runs from round `began`, so rounds already past count toward
    # its ceil(log2(15)^2) = 16
    eng = line_engine(15)
    eng.charge_rounds(elapsed, "earlier")
    build_broadcast_tree(eng, 0)
    assert eng.round_no == max(16, elapsed) == elapsed + charged
    assert eng.transcript[-1]["tag"] == f"charge:broadcast_tree:{charged}"


# (nodes, the tree's root or None for the smallest id, hull ids by ring,
# leader by ring)
FLOODS = [
    # the one leader, 6, is no hull node; it sends the root its ring's
    # two entries
    (9, None, {0: [2, 5]}, {0: 6}),
    # node 19 is on two hulls, led by 15 and 30, so its two entries first
    # meet at the root; 15 sends its eight entries in two messages of at
    # most ceil(log2 31) = 5
    (31, None, {0: [7], 1: list(range(15, 23)), 2: [19]}, {0: 7, 1: 15, 2: 30}),
    # the root, node 0, leads ring 0 and sends nothing; 9 sends ring 1's
    # entries
    (15, None, {0: [0, 4], 1: [9, 12, 13]}, {0: 0, 1: 9}),
    # the root, node 6, is a hull node but leads nothing; node 5 leads two
    # rings and sends their entries, 6's two as one
    (15, 6, {0: [2, 6, 9], 1: [13], 2: [4, 6]}, {0: 5, 1: 13, 2: 5}),
    # no hull node at all
    (9, None, {}, {}),
]


def test_distribute_hulls_floods_once_and_forgets(monkeypatch):
    for n, root, hulls, leaders in FLOODS:
        _check_flood(n, root, hulls, leaders, monkeypatch)


def flood_tree(n, root, hulls, leaders):
    """The line's engine and broadcast tree root, each leader taught its rings' hull ids as the merge would."""
    eng = line_engine(n)
    if root is None:
        root = build_broadcast_tree(eng, eng.round_no)
    else:
        for v in eng.topo.ids:
            eng.topo.learn(v, root)
    for ring, ids in hulls.items():
        for v in ids:
            eng.topo.learn(leaders[ring], v)
    return eng, root


def _check_flood(n, root, hulls, leaders, monkeypatch):
    eng, root = flood_tree(n, root, hulls, leaders)
    cap = math.ceil(math.log2(n))
    # each leader's hull nodes, and each hull node's rings
    led, rings_of = {}, {}
    for ring, ids in hulls.items():
        led.setdefault(leaders[ring], set()).update(ids)
        for v in ids:
            rings_of.setdefault(v, set()).add(ring)
    hull_ids = set().union(*hulls.values())
    pre = {v: set(eng.topo.knows[v]) for v in eng.topo.ids}
    start = eng.round_no
    gathered, sends = Counter(), {}
    send = eng.send

    def spy(src, dst, payload=None, **kw):
        if kw.get("tag") == "href":
            assert (eng.round_no, dst) == (start, root)
            got = with_ids(payload["refs"], kw["intro_ids"], 0)
            assert 0 < len(got) <= cap
            for v, x, y, *rings in got:
                # an entry names each ring its sender leads that the node is a hull node of
                assert (x, y) == tuple(eng.topo.points[v])
                assert rings == sorted(r for r in rings_of[v] if leaders[r] == src)
            sends.setdefault(src, []).append(len(got))
            gathered.update(e[0] for e in got)
        send(src, dst, payload, **kw)

    monkeypatch.setattr(eng, "send", spy)
    distribute_hulls(eng, root, hulls, leaders)
    phase = eng.phase_reports[-1]
    assert phase.label == "hull_distribution"
    assert phase.rounds == int(bool(set(led) - {root}))
    # in round 0, each leader but the root sends the root each of its
    # hull nodes' entries once, in full messages but its last
    assert set(sends) == set(led) - {root}
    for src, sizes in sends.items():
        assert all(size == cap for size in sizes[:-1])
        assert sum(sizes) == len(led[src])
    assert set(gathered) == set().union(*(ids for p, ids in led.items() if p != root))
    hrefs = Counter((t["src"], t["dst"]) for t in eng.transcript if t["tag"] == "href")
    assert hrefs == brute_hull_gather(n, root, hulls, leaders)
    # the root keeps the hull ids and nothing else; no other node learns anything
    assert hull_ids - {root} <= eng.topo.knows[root]
    assert eng.topo.knows[root] - pre[root] <= hull_ids
    assert all(eng.topo.knows[v] == pre[v] for v in eng.topo.ids if v != root)


def test_distribute_hulls_wakes_only_the_owners_root_paths(monkeypatch):
    # a leader's root path is one hop: the handler runs for the leaders
    # and the tree root alone, each call with mail or sending, and only if
    # some leader is not the root; every other node, hull nodes that lead
    # nothing included, is never called and its knowledge is untouched
    woken, before = set(), {}
    run_phase = RoundEngine.run_phase

    def spy(eng, label, handler, max_rounds):
        if label != "hull_distribution":
            return run_phase(eng, label, handler, max_rounds)
        before.update((v, set(eng.topo.knows[v])) for v in eng.topo.ids)

        def called(e, v, inbox):
            woken.add(v)
            return handler(e, v, inbox)

        return run_phase(eng, label, called, max_rounds)

    monkeypatch.setattr(RoundEngine, "run_phase", spy)
    pipe = Pipeline(fixture_topology("star12-4"), PipelineConfig())
    pipe.build_abstraction()
    leaders = {rid: pipe.orders[rid][0] for rid in pipe._hulls}
    cases = [(pipe.root, leaders, set(woken), dict(before), pipe._knows_after_build, pipe.engine)]
    for n, root, hulls, leaders in FLOODS:
        woken.clear()
        before.clear()
        eng, root = flood_tree(n, root, hulls, leaders)
        distribute_hulls(eng, root, hulls, leaders)
        cases.append((root, leaders, set(woken), dict(before), eng.topo.knows, eng))
    for root, leaders, called, pre, knows, eng in cases:
        owners = set(leaders.values())
        assert called == (owners | {root} if owners - {root} else set())
        (phase,) = [p for p in eng.phase_reports if p.label == "hull_distribution"]
        assert phase.calls == phase.active
        assert all(knows[v] == pre[v] for v in pre.keys() - called)
    assert len(cases[0][2]) < len(set().union(*pipe._hulls.values()))


def test_distribute_hulls_aborts_when_a_gather_sender_idles_one_round(monkeypatch):
    # the gather takes one round, the session's cap: a leader that idles
    # through round 0 and sends in round 1 leaves mail in flight at the
    # cap, and the phase aborts in that round, naming itself and its cap
    n, root, hulls, leaders = FLOODS[1]
    eng, root = flood_tree(n, root, hulls, leaders)
    victim, start, idled = min(leaders.values()), eng.round_no, []
    run_phase = RoundEngine.run_phase

    def spy(eng, label, handler, max_rounds):
        def late(e, v, inbox):
            if v == victim and not idled:
                idled.append(e.round_no)
                return False
            return handler(e, v, inbox)

        return run_phase(eng, label, late, max_rounds)

    monkeypatch.setattr(RoundEngine, "run_phase", spy)
    with pytest.raises(SimulationAbortError, match="phase 'hull_distribution' exceeded 1 rounds"):
        distribute_hulls(eng, root, hulls, leaders)
    assert idled == [start]
    assert eng.phase_reports[-1].rounds == 1


# ---------------------------------------------------------------------------
# dominating set


def covers(path, ds):
    m = len(path)
    for i, v in enumerate(path):
        nbrs = ([path[i - 1]] if i > 0 else []) + ([path[i + 1]] if i + 1 < m else [])
        if v not in ds and not any(nb in ds for nb in nbrs):
            return False
    return True


@pytest.mark.parametrize("m", range(1, 31))
def test_dominating_set_always_valid(m):
    # the rank rule's set is a minimum dominating set of the path
    path = [100 + 7 * i for i in range(m)]
    (ds,) = dominating_set({"bay": path}).values()
    assert ds <= set(path)
    assert covers(path, ds)
    assert len(ds) == path_ds_optimum(m)
    if m <= 12:
        assert path_ds_optimum(m) == brute_min_path_ds(m)


def test_dominating_set_mean_size_bound():
    # the mean size over 100 bays of 30 members stays within 3 * ceil(m/3)
    m = 30
    paths = {bay: [1000 * bay + i for i in range(m)] for bay in range(100)}
    sets = dominating_set(paths)
    assert set(sets) == set(paths)
    sizes = [len(ds) for ds in sets.values()]
    assert sum(sizes) / len(sizes) <= 3 * math.ceil(m / 3)
