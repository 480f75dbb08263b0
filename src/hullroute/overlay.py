"""Long-range overlay protocols over hole rings.

Everything here runs as node handlers inside the round engine: pointer
jumping for leader election and jump-edge construction, an exact
list-ranking pass for ring size and angle totals, hypercube id
assignment, bitonic sorting across the (padded) hypercube, distributed
convex hull by tangent merging, a broadcast tree over all nodes, hull
reference distribution, and the per-bay dominating set.  The hypercube
ids and the finished hull travel the same binomial tree of jump edges
from the ring leader (_tree_cast).

Message model: a long-range message is sized for ceil(log2 n) points
(_message_cap).  Hull distribution sends at most that many references
(id, x, y, ring) per message, and the hull merge ships a block's chains
unasked only when they fit.

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

import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Collection, Hashable, Mapping

from .errors import DegenerateInputError, SimulationAbortError
from .geometry import Point, orient2d, signed_turn_angle
from .ldel import NodeId
from .simengine import Handler, Message, PhaseReport, RoundEngine


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
    # filled by the ranking pass
    angle_total: float = 0.0
    ring_size: int = 0
    suffix_angle: dict[NodeId, float] = field(default_factory=dict)
    suffix_count: dict[NodeId, int] = field(default_factory=dict)


@dataclass
class HypercubeOverlay:
    """Ring ranks as hypercube slots; slot s is hosted by hosts[s].

    Padding slots follow the last real one around the ring (cube_over), so
    no host holds more than two and every cube edge is a ring jump edge.
    """

    dimension: int
    id_map: dict[NodeId, int]
    members: list[NodeId]  # by rank; rank == hypercube slot
    hosts: list[NodeId]  # by slot

    @property
    def slots(self) -> int:
        return 1 << self.dimension

    def host_of(self, slot: int) -> NodeId:
        return self.hosts[slot]

    def arc(self, members: list[NodeId]) -> HypercubeOverlay:
        """The cube of an arc of this ring, in ring order; its padding follows the arc."""
        return cube_over(self.members, self.id_map[members[0]], len(members))


def cube_over(order: list[NodeId], start: int, m: int) -> HypercubeOverlay:
    """The cube of the m ranks from start on of a ring in rank order."""
    d = max(1, math.ceil(math.log2(m)))
    hosts = [order[(start + s) % len(order)] for s in range(1 << d)]
    return HypercubeOverlay(d, {v: r for r, v in enumerate(hosts[:m])}, hosts[:m], hosts)


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
    pointer and the arc minimum; the turn angles travel in the ranking
    pass.  All rings run at once; each result's jump_rounds counts that
    ring's own rounds.
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
# exact ranking pass (suffix sums toward the leader)


def rank_ring(
    engine: RoundEngine,
    rings: Mapping[Hashable, list[NodeId]],
    results: Mapping[Hashable, PointerJumpResult],
) -> None:
    """List ranking anchored at each ring's leader, by request/reply doubling.

    The ring is cut at the leader: every node accumulates the turn-angle
    sum and node count of the arc from itself forward to the node just
    before the leader.  The leader's own chain wraps the full ring, so
    it ends up with the exact ring size and total angle, independent of
    whether the size is a power of two.  Fills in each result.
    """
    pts = engine.topo.points
    _run_wave(
        engine,
        "ring_ranking",
        {
            key: _rank_session(engine, pts, members, results[key])
            for key, members in rings.items()
        },
    )


def _rank_session(
    engine: RoundEngine, pts, members: list[NodeId], result: PointerJumpResult
) -> _Session:
    angle = _turn_angles(pts, members)
    succ0, _ = _ring_maps(members)
    leader = result.leader

    st = {
        v: {"nxt": succ0[v], "a": angle[v], "c": 1, "pending": False, "msgs": 0}
        for v in members
    }

    def handler(eng: RoundEngine, v: NodeId, inbox: list[Message]) -> bool:
        s = st[v]
        replies = []
        for m in inbox:
            if m.tag == "rk_req":
                replies.append(m.src)
            elif m.tag == "rk_rep":
                d = m.payload
                s["a"] += d["a"]
                s["c"] += d["c"]
                s["nxt"] = d["nxt"]
                s["pending"] = False
        # a reply ships our current (a, c, nxt); chains never wrap past
        # the leader, so the requester's arc and ours are contiguous and
        # the composition is exact under any interleaving
        for dst in replies:
            eng.send(
                v,
                dst,
                {"a": s["a"], "c": s["c"], "nxt": s["nxt"]},
                tag="rk_rep",
                intro_ids=(s["nxt"],),
            )
            s["msgs"] += 1
        if not s["pending"] and s["nxt"] != leader:
            eng.send(v, s["nxt"], None, tag="rk_req")
            s["pending"] = True
            s["msgs"] += 1
        return s["nxt"] == leader

    def finish(report: PhaseReport) -> None:
        result.suffix_angle = {v: st[v]["a"] for v in members}
        result.suffix_count = {v: st[v]["c"] for v in members}
        result.angle_total = st[leader]["a"]
        result.ring_size = st[leader]["c"]
        if result.ring_size != len(members):
            raise SimulationAbortError(
                leader, engine.round_no, "ranking pass lost nodes on the ring"
            )

    return _Session(members, handler, 6 * len(members) + 16, finish)


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
    own jump neighbors (see _tree_cast).  Slots at or past the ring size
    are padding, hosted by wrapping around the ring (see cube_over).
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
    k = result.ring_size
    d = max(1, math.ceil(math.log2(k)))
    # ring order rotated so the leader is rank 0
    succ0, _ = _ring_maps(members)
    ordered = [result.leader]
    while len(ordered) < k:
        ordered.append(succ0[ordered[-1]])

    return _tree_cast(
        engine,
        ordered,
        d,
        "hc_assign",
        lambda rank, budget: {
            "rank": rank,
            "budget": budget,
            "k": k,
            "d": d,
        },
        (),
        lambda: cube_over(ordered, 0, k),
    )


def _tree_cast(
    engine: RoundEngine,
    ordered: list[NodeId],
    d: int,
    tag: str,
    payload: Callable[[int, int], dict],
    intro: tuple[NodeId, ...],
    done: Callable[[], Any],
) -> _Session:
    """Rank 0 of `ordered` reaches every rank down the binomial tree of jump edges.

    Rank 0 starts with budget d.  A node of rank r reached with budget b
    sends payload(r + 2^i, i), which carries i as "budget", to rank
    r + 2^i over its level-i jump edge, for every i < b and r + 2^i < k.
    The session's result is done(), once every rank was reached once.
    """
    k = len(ordered)
    rank_of = {v: r for r, v in enumerate(ordered)}
    reached: set[NodeId] = set()

    def fanout(eng: RoundEngine, v: NodeId, budget: int) -> None:
        reached.add(v)
        r = rank_of[v]
        for i in range(budget):
            if r + (1 << i) < k:
                eng.send(
                    v,
                    ordered[r + (1 << i)],
                    payload(r + (1 << i), i),
                    tag=tag,
                    intro_ids=intro,
                )

    def handler(eng: RoundEngine, v: NodeId, inbox: list[Message]) -> bool:
        if v == ordered[0] and v not in reached:
            fanout(eng, v, d)
        for m in inbox:
            if v in reached:
                raise SimulationAbortError(v, eng.round_no, f"{tag} reached the node twice")
            fanout(eng, v, m.payload["budget"])
        return v in reached

    def finish(report: PhaseReport) -> Any:
        if len(reached) != k:
            raise SimulationAbortError(ordered[0], engine.round_no, f"{tag} missed ring nodes")
        return done()

    return _Session(ordered, handler, 2 * d + 6, finish)


# ---------------------------------------------------------------------------
# bitonic sort over the padded hypercube


SENTINEL = (math.inf, math.inf, -1)


def hypercube_sort(
    engine: RoundEngine,
    cubes: Mapping[Hashable, HypercubeOverlay],
    keys: Mapping[Hashable, dict[NodeId, tuple]],
) -> dict[Hashable, list[tuple]]:
    """Batcher bitonic sort per cube; slot i ends holding the i-th smallest key.

    Exactly d(d+1)/2 compare-exchange stages between slots differing in
    one bit, each one round with no reply.  The padding slots start with
    the sentinel, the largest key, and a slot is padding while it holds
    it: since the sentinel wins every comparison, which slots are padding
    after each stage depends only on (k, d), so every host works it out
    itself.  The stage list of a smaller cube is a prefix of a larger
    cube's, so stage by stage every cube still sorting runs in one
    phase.  Returns the keys by slot per cube.
    """
    slot_keys: dict[Hashable, list[tuple]] = {}
    padding: dict[Hashable, list[bool]] = {}
    for key, cube in cubes.items():
        k = len(cube.members)
        slot_keys[key] = [
            tuple(keys[key][cube.members[s]]) if s < k else SENTINEL
            for s in range(cube.slots)
        ]
        padding[key] = [s >= k for s in range(cube.slots)]

    top = max((cube.dimension for cube in cubes.values()), default=0)
    for kblk in range(1, top + 1):
        for j in range(kblk - 1, -1, -1):
            _run_wave(
                engine,
                f"bitonic_{kblk}_{j}",
                {
                    key: _sort_stage(cube, slot_keys[key], padding[key], kblk, 1 << j)
                    for key, cube in cubes.items()
                    if cube.dimension >= kblk
                },
            )
    return slot_keys


def _sort_stage(
    cube: HypercubeOverlay,
    slot_key: list[tuple],
    pad: list[bool],
    kblk: int,
    dist: int,
) -> _Session:
    """One compare-exchange stage in one round; pad is advanced as it ends.

    Two real keys cross in the same round, and each host keeps the min or
    the max for its slot.  A real key facing a padding slot is sent only
    when the sentinel takes its slot.  Two padding slots send nothing.
    """

    def keeps_min(s: int) -> bool:
        # the lower slot of an ascending comparator, or the upper of a descending one
        return (s & dist == 0) == ((s >> kblk) & 1 == 0)

    after = [p if p == pad[s ^ dist] else not keeps_min(s) for s, p in enumerate(pad)]
    hosted: dict[NodeId, list[int]] = {}
    for s, v in enumerate(cube.hosts):
        hosted.setdefault(v, []).append(s)
    started: set[NodeId] = set()

    def handler(eng: RoundEngine, v: NodeId, inbox: list[Message]) -> bool:
        if v not in started:
            started.add(v)
            for s in hosted[v]:
                partner = s ^ dist
                if pad[s] or (pad[partner] and not after[s]):
                    continue
                eng.send(
                    v,
                    cube.host_of(partner),
                    {"slot": partner, "key": list(slot_key[s])},
                    tag="bs_key",
                    # the key's owner id travels with the key
                    intro_ids=(int(slot_key[s][2]),),
                )
                if pad[partner]:
                    slot_key[s] = SENTINEL
        for m in inbox:
            s, got = m.payload["slot"], tuple(m.payload["key"])
            if not pad[s]:
                got = min(got, slot_key[s]) if keeps_min(s) else max(got, slot_key[s])
            slot_key[s] = got
        return True

    def finish(report: PhaseReport) -> None:
        pad[:] = after

    return _Session(list(hosted), handler, 2, finish)


# ---------------------------------------------------------------------------
# distributed convex hull by tangent merging


# bisection budget per tangent search, in probes per bit of the chain
# length; past it the right block ships its chains whole
_PROBE_SLACK = 2

# the upper chain bends away from the left side (+1), the lower from the right
_SIDES = (("u", 1), ("l", -1))


def _chain(seq: list, s: int) -> list:
    """Monotone chain over x-sorted points, bending strictly away from side s.

    Collinear and inward turns are popped, so of collinear candidates the
    farthest survives.  `_chain([pt] + bc, s)[1]` is the tangent foot from
    pt onto bc; `_chain(a + b, s)` merges two x-separated chains.
    """
    out: list = []
    for q in seq:
        while len(out) >= 2 and orient2d(out[-2], out[-1], q) != -s:
            out.pop()
        out.append(q)
    return out


def parallel_convex_hull(
    engine: RoundEngine,
    cubes: Mapping[Hashable, HypercubeOverlay],
    slot_keys: Mapping[Hashable, list[tuple]],
    ranked: Collection[Hashable] = (),
) -> dict[Hashable, list[NodeId]]:
    """Divide and conquer over subcube dimensions, every cube at once.

    Each block keeps its sub-hull as upper/lower x-sorted chains at the
    block's lowest slot; after the sort the k real keys fill slots
    0..k-1, so a pair whose right block starts at or past k has nothing
    to merge.  When the right block's chains fit in one message
    (_message_cap), its host ships them whole in the level's first round
    and the left block's host merges them with a monotone chain.  Bigger
    blocks find the upper and lower common tangents in one search: the
    left block's host bisects both of its chains, and each message to
    the right block's host carries one probe point per side still
    searching, whose tangent foot that host answers with a local
    monotone chain.  Each side has its own probe budget; if either side
    fails, the right block ships its chains whole after all, preserving
    round bounds at the price of one big message.  After the last merge
    each ring leader broadcasts its hull down the jump-edge tree that
    dealt the hypercube ids; for the cubes in `ranked` every hull node
    travels with its rank.  Returns the ccw hull ids per cube.
    """
    chains: dict[Hashable, dict[int, dict[str, list]]] = {}
    for key, cube in cubes.items():
        chains[key] = {}
        for s in range(len(cube.members)):
            pt = list(slot_keys[key][s])
            chains[key][s] = {"u": [pt], "l": [pt]}

    top = max((cube.dimension for cube in cubes.values()), default=0)
    for level in range(1, top + 1):
        _run_wave(
            engine,
            f"hull_merge_{level}",
            {
                key: _merge_session(engine, cube, chains[key], level)
                for key, cube in cubes.items()
                if cube.dimension >= level
            },
        )

    hulls: dict[Hashable, list] = {}
    for key in cubes:
        lower, upper = chains[key][0]["l"], chains[key][0]["u"]
        if len({tuple(q[:2]) for q in lower + upper}) < 3:
            raise DegenerateInputError("hull of fewer than 3 distinct points")
        hulls[key] = [q for q in lower] + [q for q in reversed(upper[1:-1])]
    _run_wave(
        engine,
        "hull_broadcast",
        {k: _hull_broadcast_session(engine, c, hulls[k], k in ranked) for k, c in cubes.items()},
    )
    return {key: [int(q[2]) for q in ccw] for key, ccw in hulls.items()}


def _bisect_step(ac: list, search: dict, answer: list, s: int) -> bool:
    """Narrow one side's tangent search by the answer [idx, b] to its probe.

    b is the tangent foot of the probe point on the right block's chain,
    and idx its index there.  Returns False when the probe looks like the
    tangent but the full chain disagrees, which only degenerate inputs
    reach.
    """
    idx, b = answer
    mid = search["mid"]
    a = ac[mid]
    if mid + 1 < len(ac) and orient2d(a, b, ac[mid + 1]) == s:
        search["lo"] = mid + 1
    elif mid > 0 and orient2d(a, b, ac[mid - 1]) == s:
        search["hi"] = mid - 1
    elif all(orient2d(a, b, q) != s for q in ac if q is not a):
        # slide over collinear predecessors so the foot is the smallest
        # valid index; keeps interior collinear vertices out of the chain
        while mid > 0 and orient2d(ac[mid - 1], b, a) == 0:
            mid -= 1
            a = ac[mid]
        search["foot"] = (mid, idx)
    else:
        return False
    return True


def _merge_session(
    engine: RoundEngine,
    cube: HypercubeOverlay,
    chains: dict[int, dict[str, list]],
    level: int,
) -> _Session:
    """Merge every pair of 2^(level-1)-slot blocks of one cube.

    In the level's first round the right block's host ships its chains
    whole when they fit in one message, and then ignores the pair's
    probes.  Chains of m points hold at most m + 2 entries, so while
    2^(level-1) + 2 fits, the left block's host knows they will come and
    does not probe at all.
    """
    k = len(cube.members)
    half = 1 << (level - 1)
    cap = _message_cap(engine)
    # a right block starting at or past k is all padding: nothing to merge
    pairs = {
        base: {
            "bslot": base + half,
            "A": cube.host_of(base),
            "B": cube.host_of(base + half),
            "done": False,
            **{
                c: {"lo": 0, "hi": len(chains[base][c]) - 1, "probes": 0, "foot": None}
                for c, _ in _SIDES
            },
        }
        for base in range(0, k - half, 1 << level)
    }
    started: set[NodeId] = set()

    def fits(p) -> bool:
        bc = chains[p["bslot"]]
        return len(bc["u"]) + len(bc["l"]) <= cap

    def ask(eng, v, base, p):
        eng.send(v, p["B"], {"base": base}, tag="hs")

    def ship(eng, v, base, p):
        bc = chains[p["bslot"]]
        ids = [int(q[2]) for q in bc["u"] + bc["l"]]
        eng.send(
            v,
            p["A"],
            {"base": base, "u": bc["u"], "l": bc["l"]},
            tag="hc",
            intro_ids=tuple(sorted(set(ids))),
        )

    def probe(eng, v, base, p):
        """One message probes every side still searching, or the chains ship."""
        msg = {"base": base}
        for c, _ in _SIDES:
            sr = p[c]
            if sr["foot"] is not None:
                continue
            ac = chains[base][c]
            if sr["lo"] > sr["hi"] or sr["probes"] > _PROBE_SLACK * (len(ac).bit_length() + 2):
                ask(eng, v, base, p)
                return
            sr["mid"] = (sr["lo"] + sr["hi"]) // 2
            sr["probes"] += 1
            msg[c] = ac[sr["mid"]][:2]
        eng.send(v, p["B"], msg, tag="hp")

    def merge_handler(eng: RoundEngine, v: NodeId, inbox: list[Message]) -> bool:
        if v not in started:
            started.add(v)
            for base, p in pairs.items():
                if p["B"] == v and fits(p):
                    ship(eng, v, base, p)
                if p["A"] == v and half + 2 > cap:
                    probe(eng, v, base, p)
        for m in inbox:
            d_ = m.payload
            base = d_["base"]
            p = pairs[base]
            bchains = chains[p["bslot"]]
            if m.tag in ("hp", "hs") and fits(p):
                continue  # the chains shipped in the first round
            if m.tag == "hp":
                feet = {"base": base}
                for c, s in _SIDES:
                    if c in d_:
                        bc = bchains[c]
                        idx = bc.index(_chain([d_[c]] + bc, s)[1])
                        feet[c] = [idx, bc[idx][:2]]
                eng.send(v, m.src, feet, tag="ha")
            elif m.tag == "ha":
                if not all(
                    _bisect_step(chains[base][c], p[c], d_[c], s) for c, s in _SIDES if c in d_
                ):
                    ask(eng, v, base, p)
                elif all(p[c]["foot"] is not None for c, _ in _SIDES):
                    # ask for the right chains from each tangent foot on
                    feet = {c: p[c]["foot"][1] for c, _ in _SIDES}
                    eng.send(v, p["B"], {"base": base, **feet}, tag="hq")
                else:
                    probe(eng, v, base, p)
            elif m.tag == "hs":
                ship(eng, v, base, p)
            elif m.tag == "hc":
                for c, s in _SIDES:
                    chains[base][c] = _chain(chains[base][c] + d_[c], s)
                p["done"] = True
            elif m.tag == "hq":
                suffix = {c: bchains[c][d_[c] :] for c, _ in _SIDES}
                ids = [int(q[2]) for q in suffix["u"] + suffix["l"]]
                eng.send(
                    v,
                    m.src,
                    {"base": base, **suffix},
                    tag="hr",
                    intro_ids=tuple(sorted(set(ids))),
                )
            elif m.tag == "hr":
                for c, _ in _SIDES:
                    chains[base][c] = chains[base][c][: p[c]["foot"][0] + 1] + d_[c]
                p["done"] = True
        return all(p["done"] for p in pairs.values() if p["A"] == v)

    def finish(report: PhaseReport) -> None:
        for p in pairs.values():
            if not p["done"]:
                raise SimulationAbortError(p["A"], engine.round_no, "merge incomplete")

    return _Session(cube.members, merge_handler, 8 * cube.slots + 40, finish)


def _hull_broadcast_session(
    engine: RoundEngine, cube: HypercubeOverlay, ccw: list, ranked: bool
) -> _Session:
    """The leader sends the finished hull down the tree that dealt the ids."""
    hull = [[q[0], q[1], int(q[2])] + ([cube.id_map[q[2]]] if ranked else []) for q in ccw]
    return _tree_cast(
        engine,
        cube.members,
        cube.dimension,
        "hullb",
        lambda rank, budget: {"hull": hull, "budget": budget},
        tuple(sorted({q[2] for q in hull})),
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
    """Flood the hull references over the tree edges that lead to hull nodes.

    Every reference travels up to the parent.  It travels down only into
    a child that has already sent some reference up, so only subtrees
    holding an owner see it; a child heard from for the first time is
    sent every reference seen so far except those that came from it.  In
    each round, everything one node forwards to one neighbour leaves in
    messages of at most ceil(log2 n) references.  A tree has no cycles,
    so nobody sees a reference twice.

    Nodes in keep_all (the hull nodes, which own every reference) retain
    every id they learn.  Every other node relays with the ids it learns
    and forgets, once the phase ends, exactly the ids this flood taught
    it.  Returns the number of reference deliveries.
    """
    topo = engine.topo
    batch = _message_cap(engine)
    pre_known = {v: set(topo.knows[v]) for v in topo.ids if v not in keep_all}
    # per node: every reference seen so far, with the neighbour it came from
    seen: dict[NodeId, list[tuple[NodeId, list]]] = {v: [] for v in topo.ids}
    for ref in hull_refs:
        seen[ref[0]].append((ref[0], list(ref)))
    # per node: the neighbours it forwards to (the parent, and children
    # heard from), each with how much of seen[v] it was already offered
    offered: dict[NodeId, dict[NodeId, int]] = {
        v: ({tree.parent[v]: 0} if v in tree.parent else {}) for v in topo.ids
    }
    deliveries = 0

    def handler(eng: RoundEngine, v: NodeId, inbox: list[Message]) -> bool:
        nonlocal deliveries
        got, out = seen[v], offered[v]
        for m in inbox:
            got.extend((m.src, ref) for ref in m.payload["refs"])
            deliveries += len(m.payload["refs"])
            out.setdefault(m.src, 0)
        for nb, start in out.items():
            fresh = [ref for src, ref in got[start:] if src != nb]
            out[nb] = len(got)
            for i in range(0, len(fresh), batch):
                chunk = fresh[i : i + batch]
                ids = tuple(sorted({ref[0] for ref in chunk}))
                eng.send(v, nb, {"refs": chunk}, tag="href", intro_ids=ids)
        return True

    engine.run_phase("hull_distribution", handler, max_rounds=4 * tree.height + 10)
    for v, before in pre_known.items():
        for rid in topo.knows[v] - before:
            topo.forget(v, rid)
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
    ranked: Collection[Hashable] = (),
) -> dict[Hashable, RingProtocolResult]:
    """Leader election, ranking, hypercube, sort, hull, broadcast.

    Every ring runs each step in the same phase.  Completed
    election/ranking results can be passed in so the rings are not
    re-elected when classification already ran it; given cubes skip the
    id deal too.  The sort and the merge teach the hosts the ids of keys
    and chains they pass on; once the hull is known, each host forgets
    every id learned since the sort that is not a hull node of one of
    its rings.
    """
    if cubes is None:
        if jumps is None:
            jumps = pointer_jumping(engine, rings)
            rank_ring(engine, rings, jumps)
        cubes = assign_hypercube_ids(engine, rings, jumps)
    pts = engine.topo.points
    keys = {
        key: {v: (pts[v].x, pts[v].y, v) for v in members}
        for key, members in rings.items()
    }
    knows = engine.topo.knows
    keep = {v: set(knows[v]) for cube in cubes.values() for v in cube.hosts}
    hulls = parallel_convex_hull(engine, cubes, hypercube_sort(engine, cubes, keys), ranked)
    for key, members in rings.items():
        for v in members:
            keep[v].update(hulls[key])
    for v, ids in keep.items():
        for rid in knows[v] - ids:
            engine.topo.forget(v, rid)
    return {key: RingProtocolResult(cubes[key], hulls[key]) for key in rings}
