"""Long-range overlay protocols over hole rings.

Everything here runs as node handlers inside the round engine: pointer
jumping for leader election and ring ranks, distributed convex hull by
merging blocks of consecutive ranks, and the hull gather at the
overlay tree's root.
The overlay tree over all nodes is charged, not simulated: it leaves
every node its root's id and nothing more, and that id is all
build_broadcast_tree returns and the hull gather takes.  The
election is also Wyllie's list ranking, so every node ends it knowing
its rank, and a ring's layout is its members in rank order, which no
message deals (assign_hypercube_ids).
Ranks s and s + 2^j know each other: pointer jumping introduced them.
Level 1 of the merge, a node and its radio-neighbour successor, is
local.  The finished hull, scoped to each subtree, travels the binomial
tree over the ranks from the ring leader (_hull_broadcast_session).
On a closed ring the hull merge carries each block's node count, so the
leader ends with the exact ring size, and on every ring its merged hull
holds each hull node's ring rank, whose order around the hull is the
ring's orientation; the leader checks both before it broadcasts the
hull (rank_ring).  The per-bay dominating set takes no round: every bay
member decides from ring ranks the hull broadcast left it.

Message model: a long-range message is sized for ceil(log2 n) points
(_message_cap).  Every sender cuts what it ships into messages of at
most that many points, each introducing only the ids of its own points
(_cut): one entry (id, x, y, rings) per hull node in the distribution,
a block's hull as (x, y, id, rank) in the merge, a subtree's part of
the hull in the broadcast.  No fact crosses a link twice: a pointer-jump
message carries the new pointer only as its introduction, and a leader
sends the tree root each entry of its rings once, the root merging two
entries of one node into one.  Nor does a payload repeat its header: an
item's id rides only among the message's sorted introductions, and the
payload lists the items without it, in the same order (_cut, _uncut),
so an entry goes as [x, y, rings] and a hull point as [x, y, rank]; a
pointer-jump message holds its arc minimum only when that is neither
the id it introduces nor its sender, and a pj_pred's minimum brings its
hops back from the sender along; and the hull broadcast holds no
budget, since a node reads it off its own rank.  In the merge a node
sends at most that many messages a round over every ring, as the merge
counts them itself.  The hull broadcast is scoped: each tree edge
carries only the hull points of the child's subtree of ranks and the
two hull points that bracket it, so every ring node learns its bay's
two hull ends.
The full abstraction, every hull node's entry, is kept at the tree
root alone: each ring's leader sends it its ring's entries in one hop
(distribute_hulls), and a hull node plans by asking the root.
Ids a node learns only in transit are forgotten once a protocol ends
(_forget_learned).

The ring protocols take a mapping keyed by ring, of its members in ring
order or, once the election has ranked it, in rank order, and run every
ring in the same engine phases, one session per ring, so a step costs
the rounds of its slowest ring rather than the sum over rings, and each
ring brings its own round bound, at which the engine aborts a ring
that is still busy (_run_wave).  A single ring is the one-entry case.
A session starts at the nodes that act without mail (_Session.start);
every other node acts only when mail reaches it.

Ring nodes address each other only through ids they have learned:
successors are radio neighbors, every longer link is created by an
explicit introduction riding a protocol message.  The engine rejects
any send that violates this, so the legality argument is enforced, not
assumed.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Collection, Hashable, Mapping

from .errors import DegenerateInputError, GeometryInconsistencyError, SimulationAbortError
from .geometry import monotone_hull
from .ldel import NodeId
from .simengine import Handler, Message, PhaseReport, RoundEngine

log = logging.getLogger(__name__)


def _message_cap(engine: RoundEngine) -> int:
    """Most points one long-range message carries by design: ceil(log2 n), at least 1 (_levels).

    Hull references in distribute_hulls, whole chains in the hull merge.
    """
    return _levels(len(engine.topo.ids))


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


def _levels(k: int) -> int:
    """Merge levels, and cast levels below rank 0, of a ring of k ranks: ceil(log2 k), at least 1."""
    return max(1, (k - 1).bit_length())


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
    """One ring's part in a wave: the nodes that act without mail, how, and for how long."""

    start: list[NodeId]
    handler: Handler
    max_rounds: int
    finish: Callable[[PhaseReport], Any] = lambda report: None


def _run_wave(
    engine: RoundEngine, label: str, sessions: Mapping[Hashable, _Session]
) -> dict[Hashable, Any]:
    """Run every session in one phase, each held to its own max_rounds; returns each finish()."""
    reports = engine.run_sessions(label, {key: (s.start, s.handler, s.max_rounds) for key, s in sessions.items()})
    return {key: s.finish(reports[key]) for key, s in sessions.items()}


# ---------------------------------------------------------------------------
# pointer jumping


def pointer_jumping(
    engine: RoundEngine, rings: Mapping[Hashable, list[NodeId]]
) -> dict[Hashable, dict[NodeId, int]]:
    """Leader election by pointer doubling along each ring.

    Every round each active node introduces its current successor to its
    current predecessor and vice versa, doubling the bridged span.  A
    node is done when the minimum id on its predecessor side equals the
    one on its successor side, which forces both to be the global
    minimum.  A done node sends nothing more, as in Wyllie's list
    ranking: its partners share the arcs on its two sides, so both
    already hold the minimum on the side facing it.  It still reads mail
    that arrives later.  A message carries ids only: the new pointer is
    the one id it introduces, and its payload holds the arc minimum only
    when the header does not already name it, that is, when the minimum
    is neither the introduced id (pj_succ) nor the sender (pj_pred).
    The election also ranks the ring, as Wyllie's list ranking does: a
    node keeps the hops back to its pred-side minimum, and a pj_pred
    that carries the minimum carries those hops from the sender as `o`.
    A node takes a minimum only when it is smaller than its own, 2^level
    + o hops back, since its predecessor is 2^level hops back when the
    message was sent.  Once the minimum is the leader, the hops are the
    node's rank.  All rings run at once, one session per ring: its
    rounds are its session report's, its sends its pj_* transcript lines.
    A ring of k nodes goes quiet within _levels(k) = ceil(log2 k) rounds,
    its session's cap: after round j a node's pointers are 2^j hops away
    on each side and its two minima cover those arcs, so by the round j
    with 2^j >= k each arc is the whole ring, both minima are the
    leader, and the node is done and sends nothing.  Returns each ring's
    ranks, {node: hops back to the leader}, as the nodes hold them.
    """
    return _run_wave(
        engine,
        "pointer_jumping",
        {key: _jump_session(engine, members) for key, members in rings.items()},
    )


def _jump_session(engine: RoundEngine, members: list[NodeId]) -> _Session:
    k = len(members)
    st: dict[NodeId, dict] = {}
    for i, v in enumerate(members):
        succ = members[(i + 1) % k]
        st[v] = {
            "succ": succ,
            "pred": members[i - 1],
            "l_succ": succ,  # min id over (v -> succ]
            "l_pred": v,  # min id over (pred -> v]
            "o_pred": 0,  # hops back from v to l_pred
            "level": 0,
        }

    def handler(eng: RoundEngine, v: NodeId, inbox: list[Message]) -> bool:
        s = st[v]
        back = 1 << s["level"]  # hops back to the pred that sent this round's pj_pred
        for m in inbox:
            d = m.payload
            # the one id a message introduces is the receiver's new pointer;
            # an arc minimum left out is that id (pj_succ) or the sender (pj_pred)
            if m.tag == "pj_succ":
                # sender was our successor; its successor becomes ours
                s["l_succ"] = min(s["l_succ"], d.get("ell", m.intro_ids[0]))
                s["succ"] = m.intro_ids[0]
                s["level"] += 1
            elif m.tag == "pj_pred":
                ell = d.get("ell", m.src)
                if ell < s["l_pred"]:
                    s["l_pred"], s["o_pred"] = ell, back + d.get("o", 0)
                s["pred"] = m.intro_ids[0]
        if s["l_pred"] == s["l_succ"]:
            return True  # done: both partners already hold the minimum on v's side
        # a pointer equal to v has wrapped the whole ring: nothing to bridge
        if s["pred"] != v:
            eng.send(
                v,
                s["pred"],
                {} if s["l_succ"] == s["succ"] else {"ell": s["l_succ"]},
                tag="pj_succ",
                intro_ids=(s["succ"],),
            )
        if s["succ"] != v:
            eng.send(
                v,
                s["succ"],
                {} if s["l_pred"] == v else {"ell": s["l_pred"], "o": s["o_pred"]},
                tag="pj_pred",
                intro_ids=(s["pred"],),
            )
        return False

    def finish(report: PhaseReport) -> dict[NodeId, int]:
        leader = min(members)
        at = members.index(leader)
        for i, v in enumerate(members):
            if st[v]["l_pred"] != leader or st[v]["l_succ"] != leader:
                raise SimulationAbortError(v, engine.round_no, "ring min did not converge")
            if st[v]["o_pred"] != (i - at) % k:
                raise SimulationAbortError(v, engine.round_no, "rank did not converge")
        return {v: st[v]["o_pred"] for v in members}

    return _Session(members, handler, _levels(k), finish)


# ---------------------------------------------------------------------------
# ring size and orientation, read by the leader off what the merge left it


def rank_ring(
    engine: RoundEngine,
    orders: Mapping[Hashable, list[NodeId]],
    chains: Mapping[Hashable, list[list]],
    sizes: Mapping[Hashable, int],
) -> dict[Hashable, int]:
    """Each leader checks its merged ring size and reads its ring's orientation off its hull; takes no round.

    Rank 0 of every ring ends the merge with its ccw hull as [x, y, id,
    rank], and that of a closed ring with its size k, in `sizes`
    (parallel_convex_hull); another size means the merge lost nodes.  A
    simple ring, or an arc closed by its chord, meets its hull vertices
    in hull order (compute_bays relies on it), so their ranks are a
    rotation of an ascending list when the ring is walked ccw, +1, the
    sign of the walk's enclosed area, or of a descending one when it is
    walked cw, -1.  Any other order aborts before the hull broadcast; a
    hull has at least 3 points, so the two cases differ.  Returns each
    ring's orientation.  The name stays because perfbench traces this
    step as a span of its own.
    """
    out = {}
    for key, order in orders.items():
        if sizes.get(key, len(order)) != len(order):
            raise SimulationAbortError(order[0], engine.round_no, "hull merge lost nodes on the ring")
        ranks = [q[3] for q in chains[key]]
        descents = sum(a > b for a, b in zip(ranks, ranks[1:] + ranks[:1]))
        if descents not in (1, len(ranks) - 1):
            raise GeometryInconsistencyError(f"ring {key} meets its hull out of hull order: ranks {ranks}")
        out[key] = 1 if descents == 1 else -1
    return out


# ---------------------------------------------------------------------------
# rank order


def assign_hypercube_ids(ranks: Mapping[Hashable, Mapping[NodeId, int]]) -> dict[Hashable, list[NodeId]]:
    """Each ring's members in rank order, the layout every later step uses; takes no round.

    Every node ends the election knowing its rank, its hops back to the
    leader (pointer_jumping), so no message deals it.  The name, from when
    this step dealt hypercube ids, stays because perfbench traces it as a
    span of its own and the build calls it through this module.
    """
    return {key: sorted(r, key=r.__getitem__) for key, r in ranks.items()}


# ---------------------------------------------------------------------------
# distributed convex hull over blocks of consecutive ranks


def hypercube_sort(
    engine: RoundEngine, orders: Mapping[Hashable, list[NodeId]]
) -> dict[Hashable, list[list]]:
    """Each ring's members as [x, y, id, rank] keys in rank order; takes no round.

    Nothing is sorted: the hull merge works on blocks of consecutive
    ranks, so rank s just holds its own node's key.  The rank rides the
    merge with the point, so the leader ends it knowing every hull
    node's rank.  The name, from when this step sorted over a hypercube,
    stays because perfbench traces it as a span of its own.
    """
    pts = engine.topo.points
    return {
        key: [[pts[v].x, pts[v].y, v, s] for s, v in enumerate(order)]
        for key, order in orders.items()
    }


def parallel_convex_hull(
    engine: RoundEngine,
    orders: Mapping[Hashable, list[NodeId]],
    arcs: Collection[Hashable],
) -> tuple[dict[Hashable, list[list]], dict[Hashable, int]]:
    """Divide and conquer over blocks of consecutive ranks, every ring at once.

    Rank s starts with its own rank key as its hull (hypercube_sort).
    At level L every block of 2^L ranks from a base merges its halves:
    the left half's first node keeps the hull of the union
    (geometry.monotone_hull, the centralized oracle's chain).  Level 1
    takes no message and no round: rank 2j + 1 is 2j's ring successor
    and radio neighbour, whose point 2j has held since the LDel2 build.
    From level 2 on, the right half's first node ships its ccw hull to
    the left's, 2^(L-1) ranks back, whose id pointer jumping taught it.
    A right half starting at or past k has nothing to merge; a ring of k
    ranks merges in _levels(k) levels.  A message carries at most
    _message_cap points, and a node sends merge messages while it has
    sent fewer than that many this round over every ring, counted in the
    level's `sent`, so a level takes one round unless a hull exceeds
    cap^2 points.  On a closed ring every node starts with count 1, and
    the left node adds the right half's count, which from level 2 on
    rides the half's first message.  The rings keyed in `arcs` are
    outer-hole arcs, which carry no count.  A node that ships m messages
    at a level, over every ring, sends cap of them a round until its
    queues drain, so a ring's cap at the level is the largest
    ceil(m / cap) of its shipping nodes.  Returns each ring's ccw hull
    as rank keys, whose ranks give its orientation (rank_ring), and rank
    0's count for the closed rings.
    """
    # looked up on this module, so a wrapper set on it (perfbench's tracer) sees the call
    hulls = {key: [[q] for q in keys] for key, keys in hypercube_sort(engine, orders).items()}
    counts = {key: [1] * len(order) for key, order in orders.items() if key not in arcs}
    for key, order in orders.items():
        for s in range(0, len(order) - 1, 2):
            if order[s + 1] not in engine.topo.adhoc[order[s]]:
                raise SimulationAbortError(order[s], engine.round_no, "rank successor is no radio neighbour")
            hulls[key][s] = monotone_hull(sorted(hulls[key][s] + hulls[key][s + 1]))
            if key in counts:
                counts[key][s] += 1
    levels = {key: _levels(len(order)) for key, order in orders.items()}
    cap = _message_cap(engine)
    for level in range(2, max(levels.values(), default=0) + 1):
        shipped: Counter[NodeId] = Counter()
        sent: Counter[tuple[int, NodeId]] = Counter()
        sessions = {
            key: _merge_session(engine, order, hulls[key], counts.get(key), level, shipped, sent)
            for key, order in orders.items()
            if levels[key] >= level
        }
        for session in sessions.values():
            session.max_rounds = max(-(-shipped[v] // cap) for v in session.start)
        _run_wave(engine, f"hull_merge_{level}", sessions)
    for key in orders:
        if len(hulls[key][0]) < 3:
            raise DegenerateInputError("hull of fewer than 3 distinct points")
    return {key: hulls[key][0] for key in orders}, {key: c[0] for key, c in counts.items()}


def _merge_session(
    engine: RoundEngine,
    order: list[NodeId],
    hulls: list[list],
    counts: list[int] | None,
    level: int,
    shipped: Counter[NodeId],
    sent: Counter[tuple[int, NodeId]],
) -> _Session:
    """Merge every pair of 2^(level-1)-rank blocks of one ring in rank order.

    Each right block's first node cuts its hull into messages (_cut),
    counted in `shipped`, whence parallel_convex_hull sets the cap, and
    sends them from the level's first round on, while `sent`, keyed by
    (round, node) and shared by the level's sessions, counts fewer than
    cap sends by it in the round over every ring; on a closed ring the
    first one also carries the block's node count from `counts`.  The
    left block's first node merges whatever arrives into its hull and
    count.  A merged point keeps its rank, so the leader's hull holds
    every hull node's rank.
    """
    half = 1 << (level - 1)
    cap = _message_cap(engine)
    rank_of = {v: s for s, v in enumerate(order)}

    def ship(s: int) -> list[tuple[dict, tuple[NodeId, ...]]]:
        out = [({"hull": chunk}, ids) for chunk, ids in _cut(engine, _hull_items(hulls[s]))]
        if counts is not None:
            out[0][0]["count"] = counts[s]
        return out

    queue = {order[base + half]: ship(base + half) for base in range(0, len(order) - half, 1 << level)}
    shipped.update({v: len(payloads) for v, payloads in queue.items()})

    def handler(eng: RoundEngine, v: NodeId, inbox: list[Message]) -> bool:
        s = rank_of[v]
        if inbox:
            hulls[s] = monotone_hull(sorted(hulls[s] + _hull_points(inbox)))
            for m in inbox:
                if "count" in m.payload:
                    counts[s] += m.payload["count"]
        payloads = queue.get(v, [])
        while payloads and sent[eng.round_no, v] < cap:
            payload, ids = payloads.pop(0)
            eng.send(v, order[s - half], payload, tag="hm", intro_ids=ids)
            sent[eng.round_no, v] += 1
        return not payloads

    return _Session(list(queue), handler, 0)


def _hull_broadcast_session(engine: RoundEngine, order: list[NodeId], ccw: list, size: int | None) -> _Session:
    """The leader sends each subtree of the binomial tree over the ranks its part of the hull.

    The session starts at the leader, rank 0; every other rank acts once,
    when the cast reaches it, and every call is its last.  Rank r = 2^b
    times an odd number sends to each rank c = r + 2^i < k with i < b,
    and rank 0 to each c = 2^i < k, i < _levels(k), whose ids pointer
    jumping taught it.  No message carries a budget: a node of a closed
    ring holds its rank from the election, and a node of an arc its rank
    on the arc, its outer rank less that of its bay's first end, both of
    which wave one's broadcast left it.  Child c roots the ranks [c, e),
    with e = min(c + 2^i, k).  Its message carries the hull points ranked
    in [c, e), the last hull point before c and the first at or after e,
    as [x, y, id, rank] with the id among the introductions (_cut): each
    node of the subtree learns the nearest hull node before and after it
    on the ring, its bay's two ends (a hull node, its two hull
    neighbors).  On a closed ring both brackets wrap past rank 0.  An
    arc's first and last ranks are hull nodes, so its brackets never
    wrap and a subtree that ends with the arc has no after-bracket.  A
    node cuts its children's points from the points it received, the
    leader from its merged hull, whose points carry their ranks: a
    child's ranks and brackets lie within its parent's, so a sender
    knows every id it introduces.  Messages carry at most _message_cap
    points, each introducing the ids of its own points.  On a closed
    ring each message also carries the ring size k, `size`, which the
    leader ends the merge with (None on an arc): the bay that wraps past
    rank 0 counts its members modulo k (dominating_set).  A node reached
    by several messages in one round is reached once; the session aborts
    unless every rank was reached, each in exactly one round.  Rank r is
    reached after one hop per set bit of r, and r < k <= 2^d has at most
    d = _levels(k) of them, so the session goes quiet within d rounds,
    its cap.
    """
    k, d = len(order), _levels(len(order))
    rank_of = {v: r for r, v in enumerate(order)}
    header = {} if size is None else {"size": size}
    reached: set[NodeId] = set()

    def handler(eng: RoundEngine, v: NodeId, inbox: list[Message]) -> bool:
        if v in reached:
            raise SimulationAbortError(v, eng.round_no, "hullb reached the node twice")
        reached.add(v)
        r, pts = rank_of[v], _hull_points(inbox) or ccw
        for i in range((r & -r).bit_length() - 1 if r else d):
            c, e = r + (1 << i), min(r + (2 << i), k)
            if c >= k:
                break
            part = {q[3]: q for q in pts if c <= q[3] < e}
            before = max(pts, key=lambda q: (q[3] - c) % k)
            part.setdefault(before[3], before)
            if e < k or size is not None:
                after = min(pts, key=lambda q: (q[3] - e) % k)
                part.setdefault(after[3], after)
            for chunk, ids in _cut(eng, _hull_items([part[s] for s in sorted(part)])):
                eng.send(v, order[c], {"hull": chunk, **header}, tag="hullb", intro_ids=ids)
        return True

    def finish(report: PhaseReport) -> None:
        if len(reached) != k:
            raise SimulationAbortError(order[0], engine.round_no, "hullb missed ring nodes")

    return _Session(order[:1], handler, d, finish)


# ---------------------------------------------------------------------------
# the broadcast tree's root, and the hull gather at it


def build_broadcast_tree(engine: RoundEngine, began: int) -> NodeId:
    """Teach every node the id of the overlay tree's root, the smallest id; returns it.

    Stands in for the overlay-tree construction this pipeline treats as
    a black box (Gmyr, Hinnenthal, Scheideler & Sohler, ICALP 2017),
    which can tell every node the root's id within its rounds.  That id
    is all any protocol here uses of the tree, so it alone is entered
    into the knowledge relation, directly, and no tree link is.  The
    construction takes ceil(log2(n)^2) rounds.  It needs only the radio
    graph, so it starts in round `began`, the build's first, and runs
    beside every phase since; the engine charges only the rounds it
    still needs when it is called, none once that many have passed.
    """
    ids = engine.topo.ids
    n = len(ids)
    for v in ids[1:]:
        engine.topo.learn(v, ids[0])
    rounds = math.ceil(math.log2(n) ** 2) if n > 1 else 0
    beside = min(rounds, engine.round_no - began)
    charged = rounds - beside
    engine.charge_rounds(charged, "broadcast_tree")
    log.debug(
        "broadcast tree: %d rounds, %d beside the earlier phases, %d charged",
        rounds, beside, charged,
    )
    return ids[0]


def distribute_hulls(
    engine: RoundEngine,
    root: NodeId,
    hulls: Mapping[int, list[NodeId]],
    leaders: Mapping[int, NodeId],
) -> None:
    """Gather every hull node's entry at the tree root, in one hop.

    `hulls` holds each non-outer ring's hull node ids and `leaders` its
    rank 0, a closed ring's leader or an arc's first hull end, which
    ended the hull merge holding the ring's whole hull.  A hull node's
    entry is [x, y, ring, ...]: its position, then, sorted, each ring it
    is a hull node of.  The phase is one session whose cap is one round.
    In round 0 each leader but the tree root sends the root, whose id
    every node holds (build_broadcast_tree), the entries of the rings it
    leads, cut into messages of at most ceil(log2 n) entries that
    introduce their ids (_cut).  In round 1 the root holds every entry,
    two entries of one node merged into one: it is the one node that
    holds the full abstraction, and a plan made at any other hull node
    is asked of it (routing.Router).  Only the leaders and the root are
    called, each call with mail or a send, and hull nodes that lead
    nothing take no part.  The root keeps the hull ids and forgets the
    leaders' other ids once the phase ends.
    """
    topo, pts = engine.topo, engine.topo.points
    # each leader's hull nodes, each with the rings it leads that it is a hull node of
    led: dict[NodeId, dict[NodeId, set[int]]] = {}
    for ring, ids in hulls.items():
        for v in ids:
            led.setdefault(leaders[ring], {}).setdefault(v, set()).add(ring)
    before = {root: set(topo.knows[root])}

    def handler(eng: RoundEngine, v: NodeId, inbox: list[Message]) -> bool:
        # a leader's one call, round 0, gathers; the root's, round 1, only receives
        if v != root:
            entries = {w: [pts[w].x, pts[w].y, *sorted(rings)] for w, rings in sorted(led[v].items())}
            for chunk, ids in _cut(eng, entries):
                eng.send(v, root, {"refs": chunk}, tag="href", intro_ids=ids)
        return True

    # one session keyed None, as out-of-phase traffic is: it is no ring's
    start = sorted(led.keys() - {root})
    _run_wave(engine, "hull_distribution", {None: _Session(start, handler, 1)})
    hull_ids = set().union(*hulls.values())
    _forget_learned(engine, before, {root: hull_ids})
    log.debug(
        "hull distribution: %d leaders send %d hull nodes to root %d",
        len(start), len(hull_ids), root,
    )


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


def ring_protocol(
    engine: RoundEngine, orders: Mapping[Hashable, list[NodeId]], arcs: Collection[Hashable]
) -> tuple[dict[Hashable, list[NodeId]], dict[Hashable, int]]:
    """Hull merge, the leaders' checks, hull broadcast, for every ring at once.

    `orders` holds each ring's members in rank order: a closed ring's
    from the ranks the election left every node (assign_hypercube_ids),
    an outer-hole arc's, keyed in `arcs`, as the arc's members, from its
    first hull end on.  The merge's first level is local, so its first
    phase is hull_merge_2.
    Every closed ring merges its size up to its leader along with the
    hull, and the leader checks the size; every ring's leader, an arc's
    rank 0 too, reads the ring's orientation off the merged hull's
    ranks (rank_ring) before it broadcasts the hull.  The merge teaches
    the left blocks' first nodes the ids of the hulls shipped to them;
    once the hull is broadcast, each ring node forgets every id learned
    since the merge began that is no hull node of one of its rings.
    Returns each ring's ccw hull node ids and its orientation, +1 for a
    ccw walk and -1 for a cw one, by key.
    """
    before = {v: set(engine.topo.knows[v]) for order in orders.values() for v in order}
    chains, sizes = parallel_convex_hull(engine, orders, arcs)
    orientations = rank_ring(engine, orders, chains, sizes)
    _run_wave(
        engine,
        "hull_broadcast",
        {key: _hull_broadcast_session(engine, order, chains[key], sizes.get(key)) for key, order in orders.items()},
    )
    hulls = {key: [q[2] for q in chains[key]] for key in orders}
    keep: dict[NodeId, set[NodeId]] = {}
    for key, order in orders.items():
        for v in order:
            keep.setdefault(v, set()).update(hulls[key])
    _forget_learned(engine, before, keep)
    return hulls, orientations
