"""Long-range overlay protocols over hole rings.

Everything here runs as node handlers inside the round engine: pointer
jumping for leader election and jump-edge construction, hypercube id
assignment, distributed convex hull by merging blocks of consecutive
ranks, a broadcast tree over all nodes, hull reference distribution,
and the per-bay dominating set.  The hypercube ids and the finished hull
travel the same binomial tree of jump edges from the ring leader
(_tree_cast); in the id deal a node picks the ranks it serves from its
own jump edges, so no node needs the ring size.  The hull merge doubles
as the list ranking: it carries each block's node count and turn-angle
sum, so the leader ends with the exact ring size and angle total.

Message model: a long-range message is sized for ceil(log2 n) points
(_message_cap).  Hull distribution sends at most that many references
(id, x, y, ring) per message; the hull merge ships a block's hull in
messages of at most that many points, and a host sends at most that
many of them a round; the hull broadcast sends the finished hull down
each tree edge in messages of at most that many points, each
introducing only the ids of its own points.

The ring protocols take a mapping of rings (key -> members, ring order)
and run every ring in the same engine phases, one session per ring, so
a step costs the rounds of its slowest ring rather than the sum over
rings.  A single ring is the one-entry case.

Ring nodes address each other only through ids they have learned:
successors are radio neighbors, every longer link is created by an
explicit introduction riding a protocol message.  The engine rejects
any send that violates this, so the legality argument is enforced, not
assumed.
"""

from __future__ import annotations

import logging
import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Collection, Hashable, Mapping

from .errors import DegenerateInputError, SimulationAbortError
from .geometry import Point, monotone_hull, signed_turn_angle
from .ldel import NodeId
from .simengine import Handler, Message, PhaseReport, RoundEngine

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class JumpEdge:
    """Overlay edge bridging 2^level consecutive ring nodes.

    ell is the minimum node id over the bridged arc, half open: the arc
    behind `endpoints[1]` back to but excluding `endpoints[0]`.
    """

    endpoints: tuple[NodeId, NodeId]
    ell: NodeId
    level: int


@dataclass
class PointerJumpResult:
    leader: NodeId
    jump_edges: list[JumpEdge]
    jump_rounds: int
    messages_per_node: dict[NodeId, int]
    # filled from the hull merge by rank_ring
    angle_total: float = 0.0
    ring_size: int = 0


@dataclass
class HypercubeOverlay:
    """Ring ranks as hypercube slots; slot s is hosted by members[s].

    Only slots below the ring size exist: the hull merge and the tree
    casts use no others.  Slot s + 2^j is 2^j ranks past slot s, so every
    cube edge is a ring jump edge.
    """

    dimension: int
    id_map: dict[NodeId, int]
    members: list[NodeId]  # by rank; rank == hypercube slot

    def host_of(self, slot: int) -> NodeId:
        return self.members[slot]

    def arc(self, members: list[NodeId]) -> HypercubeOverlay:
        """The cube of an arc of this ring, in ring order."""
        return cube_over(self.members, self.id_map[members[0]], len(members))


def cube_over(order: list[NodeId], start: int, m: int) -> HypercubeOverlay:
    """The cube of the m ranks from start on of a ring in rank order."""
    members = [order[(start + s) % len(order)] for s in range(m)]
    return HypercubeOverlay(
        max(1, math.ceil(math.log2(m))), {v: r for r, v in enumerate(members)}, members
    )


@dataclass
class BroadcastTree:
    root: NodeId
    parent: dict[NodeId, NodeId]
    children: dict[NodeId, list[NodeId]]
    height: int
    max_degree: int


def _ring_maps(members: list[NodeId]) -> tuple[dict, dict]:
    k = len(members)
    succ = {members[i]: members[(i + 1) % k] for i in range(k)}
    pred = {members[i]: members[(i - 1) % k] for i in range(k)}
    return succ, pred


def _turn_angles(points: dict[NodeId, Point], members: list[NodeId]) -> dict[NodeId, float]:
    succ, pred = _ring_maps(members)
    return {
        v: signed_turn_angle(points[pred[v]], points[v], points[succ[v]])
        for v in members
    }


def _message_cap(engine: RoundEngine) -> int:
    """Most points one long-range message carries by design: ceil(log2 n).

    Hull references in distribute_hulls, whole chains in the hull merge.
    """
    return max(1, math.ceil(math.log2(len(engine.topo.ids))))


# ---------------------------------------------------------------------------
# waves: one engine phase runs the same step for every ring


@dataclass
class _Session:
    """One ring's (or bay's) part in a wave: who runs it, how, and for how long."""

    members: list[NodeId]
    handler: Handler
    max_rounds: int
    finish: Callable[[PhaseReport], Any] = lambda report: None


def _run_wave(
    engine: RoundEngine, label: str, sessions: Mapping[Hashable, _Session]
) -> dict[Hashable, Any]:
    """Run every session in one phase; returns each session's finish()."""
    reports = engine.run_sessions(
        label,
        {key: (s.members, s.handler) for key, s in sessions.items()},
        max((s.max_rounds for s in sessions.values()), default=0),
    )
    return {key: s.finish(reports[key]) for key, s in sessions.items()}


# ---------------------------------------------------------------------------
# pointer jumping


def pointer_jumping(
    engine: RoundEngine, rings: Mapping[Hashable, list[NodeId]]
) -> dict[Hashable, PointerJumpResult]:
    """Leader election by pointer doubling along each ring.

    Every round each active node introduces its current successor to its
    current predecessor and vice versa, doubling the bridged span.  A
    node is done when the minimum id on its predecessor side equals the
    one on its successor side, which forces both to be the global
    minimum.  Done nodes serve one extra round so late partners still
    receive their final update.  A message carries ids only, the new
    pointer and the arc minimum; the turn angles travel later, with the
    hull merge.  All rings run at once; each result's jump_rounds counts
    that ring's own rounds.
    """
    return _run_wave(
        engine,
        "pointer_jumping",
        {key: _jump_session(engine, members) for key, members in rings.items()},
    )


def _jump_session(engine: RoundEngine, members: list[NodeId]) -> _Session:
    k = len(members)
    succ0, pred0 = _ring_maps(members)

    st: dict[NodeId, dict] = {}
    for v in members:
        st[v] = {
            "succ": succ0[v],
            "pred": pred0[v],
            "l_succ": succ0[v],  # min id over (v -> succ]
            "l_pred": v,  # min id over (pred -> v]
            "level": 0,
            "done": False,
            "lame": 0,
            "msgs": 0,
        }
    edges: list[JumpEdge] = [
        JumpEdge((v, succ0[v]), st[v]["l_succ"], 0) for v in members
    ]

    def check_done(s: dict) -> None:
        if not s["done"] and s["l_pred"] == s["l_succ"]:
            s["done"] = True
            s["lame"] = 1  # one farewell round of intros

    for v in members:
        check_done(st[v])  # k == 1 degenerate guard; rings are >= 3

    def handler(eng: RoundEngine, v: NodeId, inbox: list[Message]) -> bool:
        s = st[v]
        grew = False
        for m in inbox:
            d = m.payload
            if m.tag == "pj_succ":
                # sender was our successor; its successor becomes ours
                s["l_succ"] = min(s["l_succ"], d["ell"])
                s["succ"] = d["nid"]
                s["level"] += 1
                edges.append(JumpEdge((v, s["succ"]), s["l_succ"], s["level"]))
                grew = True
            elif m.tag == "pj_pred":
                s["l_pred"] = min(s["l_pred"], d["ell"])
                s["pred"] = d["nid"]
        if grew or inbox:
            check_done(s)
        if s["done"] and s["lame"] == 0:
            return True
        if s["done"]:
            s["lame"] -= 1
        # a pointer equal to v has wrapped the whole ring: nothing to bridge
        if s["pred"] != v:
            eng.send(
                v,
                s["pred"],
                {"nid": s["succ"], "ell": s["l_succ"]},
                tag="pj_succ",
                intro_ids=(s["succ"],),
            )
            s["msgs"] += 1
        if s["succ"] != v:
            eng.send(
                v,
                s["succ"],
                {"nid": s["pred"], "ell": s["l_pred"]},
                tag="pj_pred",
                intro_ids=(s["pred"],),
            )
            s["msgs"] += 1
        return False

    def finish(report: PhaseReport) -> PointerJumpResult:
        leader = min(members)
        for v in members:
            if st[v]["l_pred"] != leader or st[v]["l_succ"] != leader:
                raise SimulationAbortError(v, engine.round_no, "ring min did not converge")
        return PointerJumpResult(
            leader=leader,
            jump_edges=edges,
            # the ring's final round only flushes deliveries
            jump_rounds=max(report.rounds - 1, 1),
            messages_per_node={v: st[v]["msgs"] for v in members},
        )

    return _Session(members, handler, 2 * k + 8, finish)


# ---------------------------------------------------------------------------
# ring size and angle total, merged up to the leader


def rank_ring(
    engine: RoundEngine,
    rings: Mapping[Hashable, list[NodeId]],
    results: Mapping[Hashable, PointerJumpResult],
    totals: Mapping[Hashable, tuple[int, float]],
) -> None:
    """Each leader's merged ring size and turn-angle total into its result; takes no round.

    The hull merge is also a doubling list ranking anchored at the
    leader: the first merge message of every right block carries the
    block's node count and turn-angle sum, so slot 0 ends with the ring's
    size and its angle total (parallel_convex_hull).  A size other than
    the ring's means the merge lost nodes.  The name stays because
    perfbench traces this step as a span of its own.
    """
    for key, members in rings.items():
        result = results[key]
        result.ring_size, result.angle_total = totals[key]
        if result.ring_size != len(members):
            raise SimulationAbortError(
                result.leader, engine.round_no, "hull merge lost nodes on the ring"
            )


# ---------------------------------------------------------------------------
# hypercube id assignment


def assign_hypercube_ids(
    engine: RoundEngine,
    rings: Mapping[Hashable, list[NodeId]],
    results: Mapping[Hashable, PointerJumpResult],
) -> dict[Hashable, HypercubeOverlay]:
    """Rank distribution from each leader down the binomial tree of jump edges.

    The node bridged by the leader's level-j jump edge receives the id
    with bit j set, then hands out ids below its own budget bit to its
    own jump neighbors (see _tree_cast).  No node needs the ring size:
    a node passes an id over its level-i edge only when that edge's arc
    minimum is not the leader, that is, when the arc does not wrap past
    rank 0, and the leader's budget is the first level whose arc holds
    the leader itself, ceil(log2 k).
    """
    return _run_wave(
        engine,
        "hypercube_ids",
        {
            key: _hypercube_session(engine, members, results[key])
            for key, members in rings.items()
        },
    )


def _hypercube_session(
    engine: RoundEngine, members: list[NodeId], result: PointerJumpResult
) -> _Session:
    leader = result.leader
    ell = {(e.endpoints[0], e.level): e.ell for e in result.jump_edges}
    d = min(e.level for e in result.jump_edges if e.endpoints[0] == leader and e.ell == leader)
    # ring order rotated so the leader is rank 0
    at = members.index(leader)
    ordered = members[at:] + members[:at]

    return _tree_cast(
        engine,
        ordered,
        d,
        "hc_assign",
        lambda rank, budget: [({"rank": rank, "budget": budget}, ())],
        # no edge at a level past the one whose arc held the leader: no send
        lambda v, i: ell.get((v, i), leader) != leader,
        lambda: cube_over(ordered, 0, len(ordered)),
    )


def _tree_cast(
    engine: RoundEngine,
    ordered: list[NodeId],
    d: int,
    tag: str,
    messages: Callable[[int, int], list[tuple[dict, tuple[NodeId, ...]]]],
    forward: Callable[[NodeId, int], bool],
    done: Callable[[], Any],
) -> _Session:
    """Rank 0 of `ordered` reaches every rank down the binomial tree of jump edges.

    Rank 0 starts with budget d.  A node v of rank r reached with budget
    b sends messages(r + 2^i, i), a list of (payload, introduced ids)
    whose payloads carry i as "budget", to rank r + 2^i over its level-i
    jump edge, for every i < b for which forward(v, i) holds: exactly
    when r + 2^i < k.  A node reached by several messages in one round
    is reached once.  The session's result is done(), once every rank
    was reached in exactly one round.
    """
    k = len(ordered)
    rank_of = {v: r for r, v in enumerate(ordered)}
    reached: set[NodeId] = set()

    def fanout(eng: RoundEngine, v: NodeId, budget: int) -> None:
        reached.add(v)
        r = rank_of[v]
        for i in range(budget):
            if forward(v, i):
                for payload, intro in messages(r + (1 << i), i):
                    eng.send(v, ordered[r + (1 << i)], payload, tag=tag, intro_ids=intro)

    def handler(eng: RoundEngine, v: NodeId, inbox: list[Message]) -> bool:
        if v == ordered[0] and v not in reached:
            fanout(eng, v, d)
        if inbox:
            if v in reached:
                raise SimulationAbortError(v, eng.round_no, f"{tag} reached the node twice")
            fanout(eng, v, inbox[0].payload["budget"])
        return v in reached

    def finish(report: PhaseReport) -> Any:
        if len(reached) != k:
            raise SimulationAbortError(ordered[0], engine.round_no, f"{tag} missed ring nodes")
        return done()

    return _Session(ordered, handler, 2 * d + 6, finish)


# ---------------------------------------------------------------------------
# distributed convex hull over blocks of consecutive ranks


def hypercube_sort(
    engine: RoundEngine,
    cubes: Mapping[Hashable, HypercubeOverlay],
    keys: Mapping[Hashable, dict[NodeId, tuple]],
) -> dict[Hashable, list[list]]:
    """Each cube's keys laid out by slot, which is ring rank; takes no round.

    Nothing is sorted: the hull merge works on blocks of consecutive
    ranks, so slot s just holds its own host's key.  The name stays
    because perfbench traces this step as a span of its own.
    """
    return {key: [list(keys[key][v]) for v in cube.members] for key, cube in cubes.items()}


def parallel_convex_hull(
    engine: RoundEngine,
    cubes: Mapping[Hashable, HypercubeOverlay],
    slot_keys: Mapping[Hashable, list[list]],
    angles: Mapping[Hashable, dict[NodeId, float]] | None = None,
) -> tuple[dict[Hashable, list[list]], dict[Hashable, tuple[int, float]]]:
    """Divide and conquer over blocks of consecutive slots, every cube at once.

    Slot s starts with its own host's point as its hull.  At level L
    every block of 2^L slots from a base merges its halves: the right
    half's host ships its ccw hull to the left half's host over their
    2^(L-1) jump edge, and the left host keeps the hull of the union
    (geometry.monotone_hull, the centralized oracle's chain).  A right
    half starting at or past k has nothing to merge.  A message carries
    at most _message_cap points and a host sends at most that many merge
    messages a round, so a level takes one round unless a hull exceeds
    cap^2 points.  For the cubes in `angles` (each host's turn angle)
    the right half's first message also carries the half's node count
    and angle sum, which the left host adds to its own.  Returns each
    cube's ccw hull as slot keys, and slot 0's count and angle sum for
    the cubes in `angles`.
    """
    hulls = {key: [[q] for q in slot_keys[key]] for key in cubes}
    sums = {
        key: [(1, turns[v]) for v in cubes[key].members] for key, turns in (angles or {}).items()
    }
    cap = _message_cap(engine)
    top = max((cube.dimension for cube in cubes.values()), default=0)
    for level in range(1, top + 1):
        # merge messages per (round, host), shared by every cube of the level
        sent: Counter = Counter()
        _run_wave(
            engine,
            f"hull_merge_{level}",
            {
                key: _merge_session(cube, hulls[key], sums.get(key), level, cap, sent)
                for key, cube in cubes.items()
                if cube.dimension >= level
            },
        )
    for key in cubes:
        if len(hulls[key][0]) < 3:
            raise DegenerateInputError("hull of fewer than 3 distinct points")
    return {key: hulls[key][0] for key in cubes}, {key: s[0] for key, s in sums.items()}


def _merge_session(
    cube: HypercubeOverlay,
    hulls: list[list],
    sums: list[tuple[int, float]] | None,
    level: int,
    cap: int,
    sent: Counter,
) -> _Session:
    """Merge every pair of 2^(level-1)-slot blocks of one cube.

    Each right block's host cuts its hull into messages of at most cap
    points and sends them in the level's first round, at most cap of its
    own merge messages a round, the rest in the rounds after; the first
    one also carries the block's (count, angle) from `sums`, if given.
    The left block's host merges whatever arrives into its hull and sums.
    """
    half = 1 << (level - 1)

    def ship(slot: int) -> list[dict]:
        out = [{"hull": hulls[slot][i : i + cap]} for i in range(0, len(hulls[slot]), cap)]
        if sums is not None:
            out[0]["count"], out[0]["angle"] = sums[slot]
        return out

    queue = {
        cube.host_of(base + half): ship(base + half)
        for base in range(0, len(cube.members) - half, 1 << level)
    }

    def handler(eng: RoundEngine, v: NodeId, inbox: list[Message]) -> bool:
        if inbox:
            slot = cube.id_map[v]
            got = hulls[slot] + [q for m in inbox for q in m.payload["hull"]]
            hulls[slot] = monotone_hull(sorted(got))
            for m in inbox:
                if "count" in m.payload:
                    count, angle = sums[slot]
                    sums[slot] = (count + m.payload["count"], angle + m.payload["angle"])
        payloads = queue.get(v, [])
        while payloads and sent[eng.round_no, v] < cap:
            payload = payloads.pop(0)
            sent[eng.round_no, v] += 1
            eng.send(
                v,
                cube.host_of(cube.id_map[v] - half),
                payload,
                tag="hm",
                intro_ids=tuple(sorted({q[2] for q in payload["hull"]})),
            )
        return not payloads

    return _Session(cube.members, handler, 2 * half + 2)


def _hull_broadcast_session(
    engine: RoundEngine, cube: HypercubeOverlay, ccw: list, ranked: bool
) -> _Session:
    """The leader sends the finished hull down the tree that dealt the ids.

    Each edge carries the hull in messages of at most _message_cap
    points, each introducing the ids of its own points.
    """
    hull = [[q[0], q[1], int(q[2])] + ([cube.id_map[q[2]]] if ranked else []) for q in ccw]
    cap = _message_cap(engine)
    chunks = [hull[i : i + cap] for i in range(0, len(hull), cap)]
    parts = [(chunk, tuple(sorted({q[2] for q in chunk}))) for chunk in chunks]
    return _tree_cast(
        engine,
        cube.members,
        cube.dimension,
        "hullb",
        lambda rank, budget: [({"hull": chunk, "budget": budget}, ids) for chunk, ids in parts],
        lambda v, i: cube.id_map[v] + (1 << i) < len(cube.members),
        lambda: None,
    )


# ---------------------------------------------------------------------------
# broadcast tree over all nodes


def build_broadcast_tree(engine: RoundEngine) -> BroadcastTree:
    """Balanced binary tree over node ids in heap layout.

    Stands in for the overlay-tree protocol this pipeline treats as a
    black box: the engine charges ceil(log2(n)^2) rounds for the
    construction and the tree edges are entered into the knowledge
    relation directly.
    """
    ids = engine.topo.ids
    n = len(ids)
    parent: dict[NodeId, NodeId] = {}
    children: dict[NodeId, list[NodeId]] = {v: [] for v in ids}
    for i in range(1, n):
        p = ids[(i - 1) // 2]
        parent[ids[i]] = p
        children[p].append(ids[i])
    height = n.bit_length() - 1
    max_degree = max(
        (len(children[v]) + (1 if v in parent else 0)) for v in ids
    )
    for child, p in parent.items():
        engine.topo.learn(p, child)
        engine.topo.learn(child, p)
    rounds = math.ceil(math.log2(n) ** 2) if n > 1 else 0
    engine.charge_rounds(rounds, "broadcast_tree")
    return BroadcastTree(
        root=ids[0], parent=parent, children=children, height=height, max_degree=max_degree
    )


def distribute_hulls(
    engine: RoundEngine,
    tree: BroadcastTree,
    hull_refs: list[tuple[NodeId, float, float, int]],
    keep_all: set[NodeId],
) -> int:
    """Gather the hull references at the tree root, then cast them down a heap of hull nodes.

    Gather leg: for the first tree.height rounds every node sends the
    references it holds or receives to its tree parent, so only the
    owners' root paths carry traffic.  In round tree.height the root
    holds every reference and, from their introductions, every hull id.
    Cast leg: the hull nodes form a binary heap over `order`, their
    sorted ids.  The root sends every reference to order[0], or starts
    the heap itself if it is order[0].  A hull node receives all of it
    in one round, knows `order` from it and its own references, and
    forwards to its heap children 2i+1 and 2i+2 every reference but
    each child's own.  A message carries at most ceil(log2 n)
    references and introduces their ids.

    Nodes in keep_all (the hull nodes, which own every reference) keep
    the hull ids they learn.  Every other id the phase taught a node is
    forgotten once it ends, so relays, a root that is no hull node
    included, end as they began.  Returns the number of reference
    deliveries.
    """
    topo = engine.topo
    batch = _message_cap(engine)
    height, start = tree.height, engine.round_no
    pre_known = {v: set(topo.knows[v]) for v in topo.ids}
    own: dict[NodeId, list] = {}
    for ref in hull_refs:
        own.setdefault(ref[0], []).append(list(ref))
    gathered: list = []
    deliveries = 0

    def send(eng: RoundEngine, v: NodeId, dst: NodeId, refs: list) -> None:
        for i in range(0, len(refs), batch):
            chunk = refs[i : i + batch]
            ids = tuple(sorted({ref[0] for ref in chunk}))
            eng.send(v, dst, {"refs": chunk}, tag="href", intro_ids=ids)

    def serve(eng: RoundEngine, v: NodeId, refs: list) -> None:
        """Hull node v holds every reference: pass them on to its heap children."""
        refs = sorted(refs)
        order = sorted({ref[0] for ref in refs})
        i = order.index(v)
        for c in order[2 * i + 1 : 2 * i + 3]:
            send(eng, v, c, [ref for ref in refs if ref[0] != c])

    def handler(eng: RoundEngine, v: NodeId, inbox: list[Message]) -> bool:
        nonlocal deliveries
        got = [ref for m in inbox for ref in m.payload["refs"]]
        deliveries += len(got)
        t = eng.round_no - start
        if t == 0:
            got += own.get(v, [])
        if t < height and v != tree.root:
            send(eng, v, tree.parent[v], got)
        elif t <= height and v == tree.root:
            gathered.extend(got)
            if t == height and gathered:
                first = min(ref[0] for ref in gathered)
                if first == v:
                    serve(eng, v, gathered)
                else:
                    send(eng, v, first, sorted(ref for ref in gathered if ref[0] != first))
        elif got:
            serve(eng, v, got + own.get(v, []))
        return v != tree.root or t >= height

    report = engine.run_phase("hull_distribution", handler, max_rounds=2 * height + 1)
    for v, before in pre_known.items():
        kept = keep_all if v in keep_all else ()
        for rid in topo.knows[v] - before:
            if rid not in kept:
                topo.forget(v, rid)
    log.debug(
        "hull distribution: gather %d rounds, cast %d rounds, %d references, heap of %d",
        height, report.rounds - height, len(hull_refs), len(own),
    )
    return deliveries


# ---------------------------------------------------------------------------
# per-bay dominating set


def dominating_set(
    engine: RoundEngine,
    paths: Mapping[Hashable, list[NodeId]],
    seeds: Mapping[Hashable, int],
) -> dict[Hashable, tuple[set[NodeId], int]]:
    """Randomized dominating set of each boundary sub-path (degree <= 2).

    Phases of two rounds each: every uncovered node joins with
    probability 1/2 and announces to its path neighbors, which then
    count themselves covered.  A phase cap with deterministic join
    keeps termination and validity unconditional.  All paths run at
    once.  Returns (set, phases used) per path.
    """
    out = {key: (set(path), 0) for key, path in paths.items() if len(path) <= 1}
    out.update(
        _run_wave(
            engine,
            "dominating_set",
            {
                key: _dominating_session(engine, path, seeds[key])
                for key, path in paths.items()
                if len(path) > 1
            },
        )
    )
    return {key: out[key] for key in paths}


def _dominating_session(engine: RoundEngine, path: list[NodeId], seed: int) -> _Session:
    m = len(path)
    nbrs: dict[NodeId, list[NodeId]] = {}
    for i, v in enumerate(path):
        nbrs[v] = []
        if i > 0:
            nbrs[v].append(path[i - 1])
        if i + 1 < m:
            nbrs[v].append(path[i + 1])
    rng = {v: random.Random((seed * 1_000_003 + v) * 2654435761 % (2**63)) for v in path}
    in_ds: set[NodeId] = set()
    covered: set[NodeId] = set()
    cap = 4 * math.ceil(math.log2(m + 2)) + 8
    state = {v: {"phase": 0, "parity": 0} for v in path}

    def handler(eng: RoundEngine, v: NodeId, inbox: list[Message]) -> bool:
        s = state[v]
        for msg in inbox:
            if msg.tag == "ds_join" and msg.src in nbrs[v]:
                covered.add(v)
        if v in in_ds or v in covered:
            return True
        if s["parity"] == 1:
            # absorption round: wait for announcements in flight
            s["parity"] = 0
            return False
        s["phase"] += 1
        join = s["phase"] > cap or rng[v].random() < 0.5
        if join:
            in_ds.add(v)
            covered.add(v)
            for nb in nbrs[v]:
                eng.send(v, nb, None, tag="ds_join")
            return True
        s["parity"] = 1
        return False

    def finish(report: PhaseReport) -> tuple[set[NodeId], int]:
        for v in path:
            if v not in in_ds and not any(nb in in_ds for nb in nbrs[v]):
                raise SimulationAbortError(v, engine.round_no, "domination gap")
        return in_ds, max(s["phase"] for s in state.values())

    return _Session(path, handler, 4 * cap + 20, finish)


# ---------------------------------------------------------------------------
# combined driver: every step, every ring


@dataclass
class RingProtocolResult:
    cube: HypercubeOverlay
    hull: list[NodeId]


def ring_protocol(
    engine: RoundEngine,
    rings: Mapping[Hashable, list[NodeId]],
    jumps: Mapping[Hashable, PointerJumpResult] | None = None,
    cubes: Mapping[Hashable, HypercubeOverlay] | None = None,
    classify: Callable[[Mapping[Hashable, PointerJumpResult]], Collection[Hashable]] | None = None,
) -> dict[Hashable, RingProtocolResult]:
    """Leader election, hypercube ids, hull merge, hull broadcast.

    Every ring runs each step in the same phase.  Completed election
    results can be passed in so the rings are not re-elected; given
    cubes skip the id deal too.  The rings dealt their ids here merge
    their sizes and turn-angle totals up to their leaders along with the
    hull (rank_ring fills them into the jump results), and, before the
    broadcast, classify(jumps) names the rings whose hull broadcast
    carries every hull node's rank.  The merge teaches the left blocks'
    hosts the ids of the hulls shipped to them; once the hull is known,
    each host forgets every id learned since the merge began that is not
    a hull node of one of its rings.
    """
    pts = engine.topo.points
    angles = None
    if cubes is None:
        if jumps is None:
            jumps = pointer_jumping(engine, rings)
        cubes = assign_hypercube_ids(engine, rings, jumps)
        # each node turns between its two radio neighbors on the ring
        angles = {key: _turn_angles(pts, members) for key, members in rings.items()}
    keys = {
        key: {v: (pts[v].x, pts[v].y, v) for v in members}
        for key, members in rings.items()
    }
    knows = engine.topo.knows
    keep = {v: set(knows[v]) for members in rings.values() for v in members}
    chains, totals = parallel_convex_hull(
        engine, cubes, hypercube_sort(engine, cubes, keys), angles
    )
    ranked: Collection[Hashable] = ()
    if angles is not None:
        rank_ring(engine, rings, jumps, totals)
        if classify is not None:
            ranked = classify(jumps)
    _run_wave(
        engine,
        "hull_broadcast",
        {k: _hull_broadcast_session(engine, c, chains[k], k in ranked) for k, c in cubes.items()},
    )
    hulls = {key: [int(q[2]) for q in chains[key]] for key in cubes}
    for key, members in rings.items():
        for v in members:
            keep[v].update(hulls[key])
    for v, ids in keep.items():
        for rid in knows[v] - ids:
            engine.topo.forget(v, rid)
    return {key: RingProtocolResult(cubes[key], hulls[key]) for key in rings}
