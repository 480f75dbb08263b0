"""Long-range overlay protocols over hole rings.

Everything here runs as node handlers inside the round engine: pointer
jumping for leader election and jump-edge construction, hypercube id
assignment, distributed convex hull by merging blocks of consecutive
ranks, a broadcast tree over all nodes, and hull reference
distribution.  The hypercube ids and the finished hull, scoped to each
subtree, travel the same binomial tree of jump edges from the ring
leader (_tree_cast); in the id deal a node picks the ranks it serves
from its own jump edges, so no node needs the ring size.  On a closed
ring the hull merge doubles as the list ranking: it carries each
block's node count, so the leader ends with the exact ring size, and
its merged hull holds each hull node's ring rank, whose order around
the hull is the ring's orientation; the leader checks both before it
broadcasts the hull (rank_ring).  The per-bay dominating set takes no
round: every bay member decides from ring ranks the hull broadcast
left it.

Message model: a long-range message is sized for ceil(log2 n) points
(_message_cap).  Every sender cuts what it ships into messages of at
most that many points, each introducing only the ids of its own points
(_cut): one entry (id, x, y, ring, ...) per hull node in the
distribution, a block's hull as (x, y, id, rank) in the merge, a
subtree's part of the hull in the broadcast.  No fact crosses a link
twice: a pointer-jump message carries the new pointer only as its
introduction, and a relay of the distribution sends each entry up
once.  Nor does a payload repeat its header: an item's id rides only
among the message's sorted introductions, and the payload lists the
items without it, in the same order (_cut, _uncut), so an entry goes
as [x, y, ring, ...] and a hull point as [x, y, rank]; a pointer-jump
message holds its arc minimum only when that is neither the id it
introduces nor its sender; and a tree cast holds no budget, since a
node reads it off its own rank (_tree_cast).  In the merge a host
sends at most that many long-range messages a round, as counted by
the engine.  The hull broadcast is scoped: each tree edge
carries only the hull points of the child's subtree of ranks and the
two hull points that bracket it, so every ring node learns its bay's
two hull ends.  Ids a node learns only in transit are forgotten once a
protocol ends (_forget_learned).

The ring protocols take a mapping keyed by ring, of its members in ring
order or, from the id deal on, of its cube, and run every ring in the
same engine phases, one session per ring, so a step costs the rounds of
its slowest ring rather than the sum over rings.  A single ring is the
one-entry case.

Ring nodes address each other only through ids they have learned:
successors are radio neighbors, every longer link is created by an
explicit introduction riding a protocol message.  The engine rejects
any send that violates this, so the legality argument is enforced, not
assumed.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Mapping

from .errors import DegenerateInputError, GeometryInconsistencyError, SimulationAbortError
from .geometry import monotone_hull
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


@dataclass
class HypercubeOverlay:
    """Ring ranks as hypercube slots; slot s is hosted by members[s].

    Only slots below the ring size exist: the hull merge and the tree
    casts use no others.  Slot s + 2^j is 2^j ranks past slot s, so every
    cube edge is a ring jump edge.  An arc's cube is not closed: its last
    slot is not followed by slot 0 on the ring.
    """

    dimension: int
    id_map: dict[NodeId, int]
    members: list[NodeId]  # by rank; rank == hypercube slot
    closed: bool

    def arc(self, members: list[NodeId]) -> HypercubeOverlay:
        """The cube of an arc of this ring, in ring order."""
        return cube_over(self.members, self.id_map[members[0]], len(members))


def cube_over(order: list[NodeId], start: int, m: int) -> HypercubeOverlay:
    """The cube of the m ranks from start on of a ring in rank order."""
    members = [order[(start + s) % len(order)] for s in range(m)]
    return HypercubeOverlay(
        max(1, math.ceil(math.log2(m))),
        {v: r for r, v in enumerate(members)},
        members,
        m == len(order),
    )


@dataclass
class BroadcastTree:
    root: NodeId
    parent: dict[NodeId, NodeId]
    height: int

    def depths(self) -> dict[NodeId, int]:
        """Each node's hops up to the root, read off `parent`."""
        depth = {self.root: 0}
        for v in self.parent:
            path = []
            while v not in depth:
                path.append(v)
                v = self.parent[v]
            d = depth[v]
            for w in reversed(path):
                d += 1
                depth[w] = d
        return depth


def _ring_maps(members: list[NodeId]) -> tuple[dict, dict]:
    k = len(members)
    succ = {members[i]: members[(i + 1) % k] for i in range(k)}
    pred = {members[i]: members[(i - 1) % k] for i in range(k)}
    return succ, pred


def _message_cap(engine: RoundEngine) -> int:
    """Most points one long-range message carries by design: ceil(log2 n).

    Hull references in distribute_hulls, whole chains in the hull merge.
    """
    return max(1, math.ceil(math.log2(len(engine.topo.ids))))


def _cut(engine: RoundEngine, items: Mapping[NodeId, list]) -> list[tuple[list, tuple[NodeId, ...]]]:
    """items, keyed by the node each names, in messages of at most _message_cap.

    Messages take the items in the mapping's order, cap at a time, and
    each introduces the ids of its own items.  The id is all the header
    says of an item, so the payload lists the items without it, in
    ascending id order, and the receiver pairs them with the sorted
    introductions again (_uncut).  Returns each message's (items, ids).
    """
    cap = _message_cap(engine)
    ids = list(items)
    chunks = [sorted(ids[at : at + cap]) for at in range(0, len(ids), cap)]
    return [([items[v] for v in chunk], tuple(chunk)) for chunk in chunks]


def _uncut(m: Message, key: str) -> dict[NodeId, list]:
    """The items of m.payload[key], keyed by the ids m introduces (_cut)."""
    return dict(zip(m.intro_ids, m.payload[key], strict=True))


def _hull_items(points: list[list]) -> dict[NodeId, list]:
    """Hull points [x, y, id, rank] as _cut items: [x, y, rank] by id."""
    return {q[2]: [q[0], q[1], q[3]] for q in points}


def _hull_points(inbox: list[Message]) -> list[list]:
    """The hull points [x, y, id, rank] the messages of inbox carry (_hull_items)."""
    return [[x, y, v, r] for m in inbox for v, (x, y, r) in _uncut(m, "hull").items()]


def _forget_learned(
    engine: RoundEngine,
    before: Mapping[NodeId, set[NodeId]],
    keep: Mapping[NodeId, set[NodeId]],
) -> None:
    """Each node of `before` forgets every id it learned since, but those `keep` gives it."""
    knows = engine.topo.knows
    for v, known in before.items():
        for rid in knows[v] - known - keep.get(v, set()):
            engine.topo.forget(v, rid)


# ---------------------------------------------------------------------------
# waves: one engine phase runs the same step for every ring


@dataclass
class _Session:
    """One ring's part in a wave: who runs it, how, and for how long."""

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
    receive their final update.  A message carries ids only: the new
    pointer is the one id it introduces, and its payload holds the arc
    minimum only when the header does not already name it, that is,
    when the minimum is neither the introduced id (pj_succ) nor the
    sender (pj_pred).  All rings run at once; each result's jump_rounds
    counts that ring's own rounds.
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
            # the one id a message introduces is the receiver's new pointer;
            # an arc minimum left out is that id (pj_succ) or the sender (pj_pred)
            if m.tag == "pj_succ":
                # sender was our successor; its successor becomes ours
                s["l_succ"] = min(s["l_succ"], d.get("ell", m.intro_ids[0]))
                s["succ"] = m.intro_ids[0]
                s["level"] += 1
                edges.append(JumpEdge((v, s["succ"]), s["l_succ"], s["level"]))
                grew = True
            elif m.tag == "pj_pred":
                s["l_pred"] = min(s["l_pred"], d.get("ell", m.src))
                s["pred"] = m.intro_ids[0]
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
                {} if s["l_succ"] == s["succ"] else {"ell": s["l_succ"]},
                tag="pj_succ",
                intro_ids=(s["succ"],),
            )
            s["msgs"] += 1
        if s["succ"] != v:
            eng.send(
                v,
                s["succ"],
                {} if s["l_pred"] == v else {"ell": s["l_pred"]},
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
# ring size and orientation, read by the leader off what the merge left it


def rank_ring(
    engine: RoundEngine,
    cubes: Mapping[Hashable, HypercubeOverlay],
    chains: Mapping[Hashable, list[list]],
    sizes: Mapping[Hashable, int],
) -> dict[Hashable, int]:
    """Each leader checks its merged ring size and reads the ring's orientation off its hull; takes no round.

    Slot 0 of a closed cube ends the merge with the ring's size k and
    its ccw hull as [x, y, id, rank] (parallel_convex_hull); a size other
    than k means the merge lost nodes.  A simple ring meets its hull
    vertices in hull order (compute_bays relies on it), so their ranks
    are a rotation of an ascending list when the ring is walked ccw, +1
    as polygon_orientation signs it, or of a descending one when it is
    walked cw, -1.  Any other order aborts before the hull broadcast; a
    hull has at least 3 points, so the two cases differ.  Returns each
    closed ring's orientation.  The name stays because perfbench traces
    this step as a span of its own.
    """
    out = {}
    for key, size in sizes.items():
        leader = cubes[key].members[0]
        if size != len(cubes[key].members):
            raise SimulationAbortError(leader, engine.round_no, "hull merge lost nodes on the ring")
        ranks = [q[3] for q in chains[key]]
        descents = sum(a > b for a, b in zip(ranks, ranks[1:] + ranks[:1]))
        if descents not in (1, len(ranks) - 1):
            raise GeometryInconsistencyError(f"ring {key} meets its hull out of hull order: ranks {ranks}")
        out[key] = 1 if descents == 1 else -1
    return out


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
    # each ring's order rotated so its leader is rank 0
    ordered = {}
    for key, members in rings.items():
        at = members.index(results[key].leader)
        ordered[key] = members[at:] + members[:at]
    _run_wave(
        engine,
        "hypercube_ids",
        {key: _hypercube_session(engine, order, results[key]) for key, order in ordered.items()},
    )
    return {key: cube_over(order, 0, len(order)) for key, order in ordered.items()}


def _hypercube_session(
    engine: RoundEngine, ordered: list[NodeId], result: PointerJumpResult
) -> _Session:
    leader = result.leader
    ell = {(e.endpoints[0], e.level): e.ell for e in result.jump_edges}
    d = min(e.level for e in result.jump_edges if e.endpoints[0] == leader and e.ell == leader)
    return _tree_cast(
        engine,
        ordered,
        d,
        "hc_assign",
        lambda inbox, rank, budget: [({"rank": rank}, ())],
        # no edge at a level past the one whose arc held the leader: no send
        lambda v, i: ell.get((v, i), leader) != leader,
    )


def _tree_cast(
    engine: RoundEngine,
    ordered: list[NodeId],
    d: int,
    tag: str,
    messages: Callable[[list[Message], int, int], list[tuple[dict, tuple[NodeId, ...]]]],
    forward: Callable[[NodeId, int], bool],
) -> _Session:
    """Rank 0 of `ordered` reaches every rank down the binomial tree of jump edges.

    Rank 0 starts with budget d; a node of rank r > 0 is reached with
    budget i, the lowest set bit of r (r = 2^i times an odd number), so
    no message carries a budget.  A node v of rank r reached with budget
    b sends messages(inbox, r + 2^i, i), a list of (payload, introduced
    ids) made from the messages v received (none at rank 0), to rank
    r + 2^i over its level-i jump edge, for every i < b for which
    forward(v, i) holds: exactly when r + 2^i < k.  A node reached by
    several messages in one round is reached once.  The session aborts
    unless every rank was reached, each in exactly one round.
    """
    k = len(ordered)
    rank_of = {v: r for r, v in enumerate(ordered)}
    reached: set[NodeId] = set()

    def fanout(eng: RoundEngine, v: NodeId, budget: int, inbox: list[Message]) -> None:
        reached.add(v)
        r = rank_of[v]
        for i in range(budget):
            if forward(v, i):
                for payload, intro in messages(inbox, r + (1 << i), i):
                    eng.send(v, ordered[r + (1 << i)], payload, tag=tag, intro_ids=intro)

    def handler(eng: RoundEngine, v: NodeId, inbox: list[Message]) -> bool:
        if v == ordered[0] and v not in reached:
            fanout(eng, v, d, [])
        if inbox:
            if v in reached:
                raise SimulationAbortError(v, eng.round_no, f"{tag} reached the node twice")
            r = rank_of[v]
            fanout(eng, v, (r & -r).bit_length() - 1, inbox)
        return v in reached

    def finish(report: PhaseReport) -> None:
        if len(reached) != k:
            raise SimulationAbortError(ordered[0], engine.round_no, f"{tag} missed ring nodes")

    return _Session(ordered, handler, 2 * d + 6, finish)


# ---------------------------------------------------------------------------
# distributed convex hull over blocks of consecutive ranks


def hypercube_sort(
    engine: RoundEngine, cubes: Mapping[Hashable, HypercubeOverlay]
) -> dict[Hashable, list[list]]:
    """Each cube's hosts as [x, y, id, rank] keys laid out by slot, which is ring rank; takes no round.

    Nothing is sorted: the hull merge works on blocks of consecutive
    ranks, so slot s just holds its own host's key.  The rank rides the
    merge with the point, so the leader ends it knowing every hull
    node's rank.  The name stays because perfbench traces this step as a
    span of its own.
    """
    pts = engine.topo.points
    return {
        key: [[pts[v].x, pts[v].y, v, s] for s, v in enumerate(cube.members)]
        for key, cube in cubes.items()
    }


def parallel_convex_hull(
    engine: RoundEngine,
    cubes: Mapping[Hashable, HypercubeOverlay],
    slot_keys: Mapping[Hashable, list[list]],
) -> tuple[dict[Hashable, list[list]], dict[Hashable, int]]:
    """Divide and conquer over blocks of consecutive slots, every cube at once.

    Slot s starts with its own host's point as its hull.  At level L
    every block of 2^L slots from a base merges its halves: the right
    half's host ships its ccw hull to the left half's host over their
    2^(L-1) jump edge, and the left host keeps the hull of the union
    (geometry.monotone_hull, the centralized oracle's chain).  A right
    half starting at or past k has nothing to merge.  A message carries
    at most _message_cap points and a host sends merge messages while it
    has sent fewer than that many long-range messages this round, so a
    level takes one round unless a hull exceeds cap^2 points.  On a
    closed cube every host starts with count 1, and the right half's
    first message also carries the half's node count, which the left
    host adds to its own.  An arc's cube carries none; the arc's
    orientation is detect_outer_holes' exact sign.  Returns each cube's
    ccw hull as slot keys, whose ranks give a closed ring's orientation
    (rank_ring), and slot 0's count for the closed cubes.
    """
    hulls = {key: [[q] for q in slot_keys[key]] for key in cubes}
    counts = {key: [1] * len(cube.members) for key, cube in cubes.items() if cube.closed}
    top = max((cube.dimension for cube in cubes.values()), default=0)
    for level in range(1, top + 1):
        _run_wave(
            engine,
            f"hull_merge_{level}",
            {
                key: _merge_session(engine, cube, hulls[key], counts.get(key), level)
                for key, cube in cubes.items()
                if cube.dimension >= level
            },
        )
    for key in cubes:
        if len(hulls[key][0]) < 3:
            raise DegenerateInputError("hull of fewer than 3 distinct points")
    return {key: hulls[key][0] for key in cubes}, {key: c[0] for key, c in counts.items()}


def _merge_session(
    engine: RoundEngine,
    cube: HypercubeOverlay,
    hulls: list[list],
    counts: list[int] | None,
    level: int,
) -> _Session:
    """Merge every pair of 2^(level-1)-slot blocks of one cube.

    Each right block's host cuts its hull into messages (_cut) and sends
    them from the level's first round on, while the engine counts fewer
    than cap long-range sends by it in the round, over every cube; on a
    closed cube the first one also carries the block's node count from
    `counts`.  The left block's host merges whatever arrives into its
    hull and count.  A merged point keeps its rank, so the leader's hull
    holds every hull node's rank.
    """
    half = 1 << (level - 1)
    cap = _message_cap(engine)

    def ship(slot: int) -> list[tuple[dict, tuple[NodeId, ...]]]:
        out = [({"hull": chunk}, ids) for chunk, ids in _cut(engine, _hull_items(hulls[slot]))]
        if counts is not None:
            out[0][0]["count"] = counts[slot]
        return out

    queue = {
        cube.members[base + half]: ship(base + half)
        for base in range(0, len(cube.members) - half, 1 << level)
    }

    def handler(eng: RoundEngine, v: NodeId, inbox: list[Message]) -> bool:
        if inbox:
            slot = cube.id_map[v]
            hulls[slot] = monotone_hull(sorted(hulls[slot] + _hull_points(inbox)))
            for m in inbox:
                if "count" in m.payload:
                    counts[slot] += m.payload["count"]
        payloads = queue.get(v, [])
        while payloads and eng.longrange_this_round(v) < cap:
            payload, ids = payloads.pop(0)
            eng.send(v, cube.members[cube.id_map[v] - half], payload, tag="hm", intro_ids=ids)
        return not payloads

    return _Session(cube.members, handler, 2 * half + 2)


def _hull_broadcast_session(engine: RoundEngine, cube: HypercubeOverlay, ccw: list) -> _Session:
    """The leader sends each subtree of the tree that dealt the ids its part of the hull.

    The child c = r + 2^i of rank r roots the ranks [c, e), with
    e = min(c + 2^i, k).  Its message carries the hull points ranked in
    [c, e), the last hull point before c and the first at or after e,
    as [x, y, id, rank] with the id among the introductions (_cut):
    each node of the subtree learns the nearest
    hull node before and after it on the ring, its bay's two ends (a
    hull node, its two hull neighbors).  On a closed ring both brackets
    wrap past rank 0.  An arc's first and last slots are hull nodes, so
    its brackets never wrap and a subtree that ends with the arc has no
    after-bracket.  A node cuts its children's points from the points
    it holds, the leader from its merged hull, whose points carry their
    ranks: a child's ranks and brackets lie within its parent's, so a
    sender knows every id it introduces.  Messages carry at most
    _message_cap points, each introducing the ids of its own points.  On
    a closed ring each message also carries the ring size k, which the
    leader ends the merge with: the bay that wraps past rank 0 counts its
    members modulo k (dominating_set).  No message carries a budget
    (_tree_cast): a node of a closed ring holds its rank from the id
    deal, and a node of an arc its rank on the arc, its outer rank less
    that of its bay's first end, both of which wave one's broadcast left
    it.
    """
    k = len(cube.members)
    size = {"size": k} if cube.closed else {}

    def scoped(inbox: list[Message], c: int, i: int) -> list[tuple[dict, tuple[NodeId, ...]]]:
        pts = _hull_points(inbox) or ccw
        e = min(c + (1 << i), k)
        part = {q[3]: q for q in pts if c <= q[3] < e}
        before = max(pts, key=lambda q: (q[3] - c) % k)
        part.setdefault(before[3], before)
        if e < k or cube.closed:
            after = min(pts, key=lambda q: (q[3] - e) % k)
            part.setdefault(after[3], after)
        sent = _hull_items([part[r] for r in sorted(part)])
        return [({"hull": chunk, **size}, ids) for chunk, ids in _cut(engine, sent)]

    return _tree_cast(
        engine,
        cube.members,
        cube.dimension,
        "hullb",
        scoped,
        lambda v, i: cube.id_map[v] + (1 << i) < k,
    )


# ---------------------------------------------------------------------------
# broadcast tree over all nodes


def build_broadcast_tree(engine: RoundEngine, began: int) -> BroadcastTree:
    """Balanced binary tree over node ids in heap layout.

    Stands in for the overlay-tree protocol this pipeline treats as a
    black box, and the tree edges are entered into the knowledge
    relation directly.  The construction takes ceil(log2(n)^2) rounds.
    It needs only the radio graph, so it starts in round `began`, the
    build's first, and runs beside every phase since; the engine charges
    only the rounds it still needs when it is called, none once that
    many have passed.
    """
    ids = engine.topo.ids
    n = len(ids)
    parent = {ids[i]: ids[(i - 1) // 2] for i in range(1, n)}
    for child, p in parent.items():
        engine.topo.learn(p, child)
        engine.topo.learn(child, p)
    rounds = math.ceil(math.log2(n) ** 2) if n > 1 else 0
    beside = min(rounds, engine.round_no - began)
    charged = rounds - beside
    engine.charge_rounds(charged, "broadcast_tree")
    log.debug(
        "broadcast tree: %d rounds, %d beside the earlier phases, %d charged",
        rounds, beside, charged,
    )
    return BroadcastTree(root=ids[0], parent=parent, height=n.bit_length() - 1)


def distribute_hulls(
    engine: RoundEngine,
    tree: BroadcastTree,
    hull_refs: list[tuple[NodeId, float, float, int]],
) -> int:
    """Gather one entry per hull node at the tree root, then cast them down a heap of hull nodes.

    `hull_refs` holds one (id, x, y, ring) reference per hull node and
    ring; a hull node's entry is [id, x, y, ring, ...], one point with
    every ring it is a hull node of, so a node on two hulls ships its id
    and position once.  Gather leg, a convergecast: a node at depth d
    sends its parent every entry its subtree holds, once, in round
    tree.height - d, when its children's have all arrived; only the
    owners' root paths carry traffic.  In round tree.height the root
    holds every entry and, from their introductions, every hull id.
    Cast leg: the hull nodes form a binary heap over `order`, their
    sorted ids.  The root sends every entry to order[0], or starts the
    heap itself if it is order[0].  A hull node receives all of it in
    one round, knows `order` from it and its own entry, and forwards to
    its heap children 2i+1 and 2i+2 every entry but each child's own.  A
    message carries at most ceil(log2 n) entries and introduces their
    ids, which the entries leave out on the wire (_cut).

    The hull nodes, which own every entry, keep the hull ids they learn.
    Every other id the phase taught a node is forgotten once it ends, so
    relays, a root that is no hull node included, end as they began.
    Returns the number of entry deliveries.
    """
    topo = engine.topo
    height, start = tree.height, engine.round_no
    depth = tree.depths()
    before = {v: set(topo.knows[v]) for v in topo.ids}
    # each hull node's entry as it goes on the wire, by id: [x, y, ring, ...]
    own: dict[NodeId, list] = {}
    for v, x, y, ring in hull_refs:
        own.setdefault(v, [x, y]).append(ring)
    # the entries a node sends its parent in the gather: its own, its children's
    held = {v: {v: entry} for v, entry in own.items()}
    deliveries = 0

    def send(eng: RoundEngine, v: NodeId, dst: NodeId, entries: dict) -> None:
        for chunk, ids in _cut(eng, entries):
            eng.send(v, dst, {"refs": chunk}, tag="href", intro_ids=ids)

    def serve(eng: RoundEngine, v: NodeId, entries: dict) -> None:
        """Hull node v holds every entry: pass them on to its heap children."""
        order = sorted(entries)
        i = order.index(v)
        for c in order[2 * i + 1 : 2 * i + 3]:
            send(eng, v, c, {w: entries[w] for w in order if w != c})

    def handler(eng: RoundEngine, v: NodeId, inbox: list[Message]) -> bool:
        nonlocal deliveries
        got = {w: e for m in inbox for w, e in _uncut(m, "refs").items()}
        deliveries += sum(len(m.intro_ids) for m in inbox)
        t = eng.round_no - start
        if t > height:
            if got:
                serve(eng, v, {**got, v: own[v]})
            return True
        if got:
            held.setdefault(v, {}).update(got)
        if t == height - depth[v]:
            sub = dict(sorted(held.pop(v, {}).items()))
            if v != tree.root:
                send(eng, v, tree.parent[v], sub)
            elif sub:
                first = min(sub)
                if first == v:
                    serve(eng, v, sub)
                else:
                    send(eng, v, first, {w: e for w, e in sub.items() if w != first})
        return v != tree.root or t >= height

    report = engine.run_phase("hull_distribution", handler, max_rounds=2 * height + 1)
    _forget_learned(engine, before, dict.fromkeys(own, set(own)))
    log.debug(
        "hull distribution: gather %d rounds, cast %d rounds, %d references, heap of %d",
        height, report.rounds - height, len(hull_refs), len(own),
    )
    return deliveries


# ---------------------------------------------------------------------------
# per-bay dominating set


def dominating_set(paths: Mapping[Hashable, list[NodeId]]) -> dict[Hashable, set[NodeId]]:
    """Minimum dominating set of each bay path, decided by every member alone; takes no round.

    Member j of a path of m (j counted from 0 after the bay's first end)
    joins when j mod 3 = 1, or when j = m - 1 and j mod 3 = 0: exactly
    ceil(m/3) members, and every member is one of them or next to one.
    A member knows j and m from three ring ranks it holds after the hull
    broadcast, whose points are [x, y, id, rank]: its own, and those of
    its bay's two hull ends, the nearest hull points before and after it
    (_hull_broadcast_session).  An arc's ranks never wrap; a closed
    ring's are taken modulo its size, which the broadcast carries too.
    """
    return {
        key: {v for j, v in enumerate(path) if j % 3 == 1 or j == len(path) - 1 and j % 3 == 0}
        for key, path in paths.items()
    }


# ---------------------------------------------------------------------------
# combined driver: every step, every ring


@dataclass
class RingProtocolResult:
    cube: HypercubeOverlay
    hull: list[NodeId]
    # the leader's merged ring size, and the walk's orientation read off the
    # hull's ranks with polygon_orientation's sign (rank_ring); None on an arc
    ring_size: int | None
    orientation: int | None


def ring_protocol(
    engine: RoundEngine, cubes: Mapping[Hashable, HypercubeOverlay]
) -> dict[Hashable, RingProtocolResult]:
    """Hull merge, the leaders' checks, hull broadcast, for every cube at once.

    The cubes come from the id deal (assign_hypercube_ids) or, for the
    outer-hole arcs, from the outer ring's ranks (HypercubeOverlay.arc).
    Every closed ring merges its size up to its leader along with the
    hull, and the leader checks the size and reads the ring's
    orientation off the merged hull's ranks (rank_ring) before it
    broadcasts the hull.  The merge teaches the left blocks'
    hosts the ids of the hulls shipped to them; once the hull is
    broadcast, each host forgets every id learned since the merge began
    that is not a hull node of one of its rings.
    """
    before = {v: set(engine.topo.knows[v]) for cube in cubes.values() for v in cube.members}
    chains, sizes = parallel_convex_hull(engine, cubes, hypercube_sort(engine, cubes))
    orientations = rank_ring(engine, cubes, chains, sizes)
    _run_wave(
        engine,
        "hull_broadcast",
        {k: _hull_broadcast_session(engine, c, chains[k]) for k, c in cubes.items()},
    )
    hulls = {key: [q[2] for q in chains[key]] for key in cubes}
    keep: dict[NodeId, set[NodeId]] = {}
    for key, cube in cubes.items():
        for v in cube.members:
            keep.setdefault(v, set()).update(hulls[key])
    _forget_learned(engine, before, keep)
    return {
        key: RingProtocolResult(cube, hulls[key], sizes.get(key), orientations.get(key))
        for key, cube in cubes.items()
    }
