"""Long-range overlay protocols over hole rings.

Everything here runs as node handlers inside the round engine: pointer
jumping for leader election and jump-edge construction, an exact
list-ranking pass for ring size and angle totals, hypercube id
assignment, bitonic sorting across the (padded) hypercube, distributed
convex hull by tangent merging, a broadcast tree over all nodes, hull
reference distribution, and the per-bay dominating set.

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
from typing import Any, Callable, Hashable, Mapping

from .errors import DegenerateInputError, SimulationAbortError
from .geometry import Orientation, Point, orientation, signed_turn_angle
from .ldel import NodeId
from .simengine import Handler, Message, PhaseReport, RoundEngine


@dataclass(frozen=True)
class JumpEdge:
    """Overlay edge bridging 2^level consecutive ring nodes.

    ell is the minimum node id over the bridged arc, half open: the arc
    behind `endpoints[1]` back to but excluding `endpoints[0]`.
    angle_sum carries the signed turn-angle sum over the same arc.
    """

    endpoints: tuple[NodeId, NodeId]
    ell: NodeId
    level: int
    angle_sum: float


@dataclass
class PointerJumpResult:
    leader: NodeId
    jump_edges: list[JumpEdge]
    jump_rounds: int
    known_min: dict[NodeId, NodeId]
    messages_per_node: dict[NodeId, int]
    # filled by the ranking pass
    angle_total: float = 0.0
    ring_size: int = 0
    suffix_angle: dict[NodeId, float] = field(default_factory=dict)
    suffix_count: dict[NodeId, int] = field(default_factory=dict)


@dataclass
class HypercubeOverlay:
    dimension: int
    id_map: dict[NodeId, int]
    leader: NodeId
    members: list[NodeId]  # by ring rank; rank == hypercube slot

    @property
    def slots(self) -> int:
        return 1 << self.dimension

    def host_of(self, slot: int) -> NodeId:
        if slot < len(self.members):
            return self.members[slot]
        return self.leader  # virtual padding slot

    def bitstring(self, v: NodeId) -> str:
        return format(self.id_map[v], f"0{self.dimension}b")


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
    receive their final update.  All rings run at once; each result's
    jump_rounds counts that ring's own rounds.
    """
    pts = engine.topo.points
    return _run_wave(
        engine,
        "pointer_jumping",
        {key: _jump_session(engine, pts, members) for key, members in rings.items()},
    )


def _jump_session(engine: RoundEngine, pts, members: list[NodeId]) -> _Session:
    k = len(members)
    succ0, pred0 = _ring_maps(members)
    angle = _turn_angles(pts, members)

    st: dict[NodeId, dict] = {}
    for v in members:
        st[v] = {
            "succ": succ0[v],
            "pred": pred0[v],
            "l_succ": succ0[v],  # min id over (v -> succ]
            "l_pred": v,  # min id over (pred -> v]
            "a_succ": angle[succ0[v]],
            "a_pred": angle[v],
            "level": 0,
            "done": False,
            "lame": 0,
            "msgs": 0,
        }
    edges: list[JumpEdge] = [
        JumpEdge((v, succ0[v]), st[v]["l_succ"], 0, st[v]["a_succ"]) for v in members
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
                s["a_succ"] += d["a"]
                s["succ"] = d["nid"]
                s["level"] += 1
                edges.append(JumpEdge((v, s["succ"]), s["l_succ"], s["level"], s["a_succ"]))
                grew = True
            elif m.tag == "pj_pred":
                s["l_pred"] = min(s["l_pred"], d["ell"])
                s["a_pred"] += d["a"]
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
                {"nid": s["succ"], "ell": s["l_succ"], "a": s["a_succ"]},
                tag="pj_succ",
                intro_ids=(s["succ"],),
            )
            s["msgs"] += 1
        if s["succ"] != v:
            eng.send(
                v,
                s["succ"],
                {"nid": s["pred"], "ell": s["l_pred"], "a": s["a_pred"]},
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
            known_min={v: st[v]["l_pred"] for v in members},
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
    """Recursive rank distribution from each leader over jump edges.

    The node bridged by the leader's level-j jump edge receives the id
    with bit j set, then hands out ids below its own budget bit to its
    own jump neighbors.  Ranks at or past the ring size are virtual
    slots hosted by the leader.  The received rank must agree with the
    ranking pass; any mismatch is a protocol bug and aborts.
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
    leader = result.leader
    d = max(1, math.ceil(math.log2(k)))
    # ring order rotated so the leader is rank 0
    succ0, _ = _ring_maps(members)
    ordered = [leader]
    while len(ordered) < k:
        ordered.append(succ0[ordered[-1]])
    rank_of = {v: i for i, v in enumerate(ordered)}

    assigned: dict[NodeId, int] = {leader: 0}
    budget: dict[NodeId, int] = {leader: d}
    dealt: set[NodeId] = set()

    def fanout(eng: RoundEngine, v: NodeId) -> None:
        b = budget[v]
        r = assigned[v]
        for i in range(b):
            tr = r + (1 << i)
            if tr >= k:
                continue
            target = ordered[tr]
            eng.send(
                v,
                target,
                {"rank": tr, "budget": i, "k": k, "d": d, "T": result.angle_total},
                tag="hc_assign",
            )

    def handler(eng: RoundEngine, v: NodeId, inbox: list[Message]) -> bool:
        for m in inbox:
            if m.tag != "hc_assign":
                continue
            if v in assigned:
                raise SimulationAbortError(v, eng.round_no, "duplicate hypercube id")
            got = m.payload["rank"]
            if rank_of[v] != got:
                raise SimulationAbortError(
                    v, eng.round_no, f"rank mismatch: dealt {got}, ranked {rank_of[v]}"
                )
            assigned[v] = got
            budget[v] = m.payload["budget"]
            fanout(eng, v)
        if v == leader and v not in dealt:
            dealt.add(v)
            fanout(eng, v)
        return v in assigned

    def finish(report: PhaseReport) -> HypercubeOverlay:
        if len(assigned) != k or len(set(assigned.values())) != k:
            raise SimulationAbortError(leader, engine.round_no, "id assignment incomplete")
        return HypercubeOverlay(dimension=d, id_map=assigned, leader=leader, members=ordered)

    return _Session(members, handler, 2 * d + 6, finish)


# ---------------------------------------------------------------------------
# bitonic sort over the padded hypercube


SENTINEL = (math.inf, math.inf, -1)


def hypercube_sort(
    engine: RoundEngine,
    cubes: Mapping[Hashable, HypercubeOverlay],
    keys: Mapping[Hashable, dict[NodeId, tuple]],
) -> dict[Hashable, tuple[list[tuple], int]]:
    """Batcher bitonic sort per cube; slot i ends holding the i-th smallest key.

    Exactly d(d+1)/2 compare-exchange stages, each a one round-trip
    exchange between slots differing in one bit.  The lower slot always
    initiates; virtual slots (leader-hosted, sentinel keys) never
    initiate toward a real slot because real slots occupy the lowest
    indices.  The stage list of a smaller cube is a prefix of a larger
    cube's, so stage by stage every cube still sorting runs in one
    phase.  Returns (keys by slot, stage count) per cube.
    """
    slot_keys: dict[Hashable, list[tuple]] = {}
    hosted: dict[Hashable, dict[NodeId, list[int]]] = {}
    for key, cube in cubes.items():
        slot_keys[key] = [
            tuple(keys[key][cube.host_of(s)]) if s < len(cube.members) else SENTINEL
            for s in range(cube.slots)
        ]
        hosted[key] = {}
        for s in range(cube.slots):
            hosted[key].setdefault(cube.host_of(s), []).append(s)

    top = max((cube.dimension for cube in cubes.values()), default=0)
    for kblk in range(1, top + 1):
        for j in range(kblk - 1, -1, -1):
            _run_wave(
                engine,
                f"bitonic_{kblk}_{j}",
                {
                    key: _sort_stage(cube, slot_keys[key], hosted[key], kblk, 1 << j)
                    for key, cube in cubes.items()
                    if cube.dimension >= kblk
                },
            )
    return {
        key: (slot_keys[key], cube.dimension * (cube.dimension + 1) // 2)
        for key, cube in cubes.items()
    }


def _sort_stage(
    cube: HypercubeOverlay,
    slot_key: list[tuple],
    hosted: dict[NodeId, list[int]],
    kblk: int,
    dist: int,
) -> _Session:
    started: set[NodeId] = set()

    def handler(eng: RoundEngine, v: NodeId, inbox: list[Message]) -> bool:
        if v not in started:
            started.add(v)
            for i in hosted[v]:
                partner = i ^ dist
                if partner < i:
                    continue
                hj = cube.host_of(partner)
                asc = ((i >> kblk) & 1) == 0
                if hj == v:
                    a, b = slot_key[i], slot_key[partner]
                    if (asc and a > b) or (not asc and a < b):
                        slot_key[i], slot_key[partner] = b, a
                else:
                    kid = int(slot_key[i][2])
                    eng.send(
                        v,
                        hj,
                        {"slot": i, "asc": asc, "key": list(slot_key[i])},
                        tag="bs_key",
                        # the key's owner id travels with the key
                        intro_ids=(kid,) if kid >= 0 else (),
                    )
        for m in inbox:
            if m.tag == "bs_key":
                i, asc = m.payload["slot"], m.payload["asc"]
                ki = tuple(m.payload["key"])
                jslot = i ^ dist
                kj = slot_key[jslot]
                lo, hi = (ki, kj) if ki <= kj else (kj, ki)
                keep, give = (hi, lo) if asc else (lo, hi)
                slot_key[jslot] = keep
                gid = int(give[2])
                eng.send(
                    v,
                    m.src,
                    {"slot": i, "key": list(give)},
                    tag="bs_ret",
                    intro_ids=(gid,) if gid >= 0 else (),
                )
            elif m.tag == "bs_ret":
                slot_key[m.payload["slot"]] = tuple(m.payload["key"])
        return True

    return _Session(cube.members, handler, 4)


# ---------------------------------------------------------------------------
# distributed convex hull by tangent merging


# bisection budget per tangent search, in probes per bit of the chain
# length; past it the right block ships its chains whole
_PROBE_SLACK = 2


def _side(a, b, q) -> int:
    o = orientation(Point(a[0], a[1]), Point(b[0], b[1]), Point(q[0], q[1]))
    if o is Orientation.LEFT:
        return 1
    if o is Orientation.RIGHT:
        return -1
    return 0


def _chain(seq: list, s: int) -> list:
    """Monotone chain over x-sorted points, bending strictly away from side s.

    Collinear and inward turns are popped, so of collinear candidates the
    farthest survives.  `_chain([pt] + bc, s)[1]` is the tangent foot from
    pt onto bc; `_chain(a + b, s)` merges two x-separated chains.
    """
    out: list = []
    for q in seq:
        while len(out) >= 2 and _side(out[-2], out[-1], q) != -s:
            out.pop()
        out.append(q)
    return out


def parallel_convex_hull(
    engine: RoundEngine,
    cubes: Mapping[Hashable, HypercubeOverlay],
    slot_keys: Mapping[Hashable, list[tuple]],
) -> dict[Hashable, tuple[list[NodeId], dict[NodeId, Point]]]:
    """Divide and conquer over subcube dimensions, every cube at once.

    Each block keeps its sub-hull as upper/lower x-sorted chains at the
    block's lowest slot.  Merging two blocks finds the upper and lower
    common tangents: the left leader binary-searches its own chain,
    probing the right leader, which answers each probe point's tangent
    foot with a local monotone chain.  A failed search ships the right
    chains whole and merges them by the same chain, preserving round
    bounds at the price of one big message.  After the last merge each
    ring leader broadcasts its hull back over the jump-edge tree.
    Returns (ccw hull ids, hull points) per cube.
    """
    chains: dict[Hashable, dict[int, dict[str, list]]] = {}
    for key, cube in cubes.items():
        chains[key] = {}
        for s in range(cube.slots):
            sk = slot_keys[key][s]
            if sk[2] >= 0:
                pt = [sk[0], sk[1], sk[2]]
                chains[key][s] = {"u": [pt], "l": [pt]}
            else:
                chains[key][s] = {"u": [], "l": []}

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
        {key: _hull_broadcast_session(engine, cube, hulls[key]) for key, cube in cubes.items()},
    )
    return {
        key: (
            [int(q[2]) for q in ccw],
            {int(q[2]): Point(q[0], q[1]) for q in ccw},
        )
        for key, ccw in hulls.items()
    }


def _merge_session(
    engine: RoundEngine,
    cube: HypercubeOverlay,
    chains: dict[int, dict[str, list]],
    level: int,
) -> _Session:
    """Merge every pair of 2^(level-1)-slot blocks of one cube."""
    n = cube.slots
    half = 1 << (level - 1)
    pairs: dict[int, dict] = {}
    for base in range(0, n, 1 << level):
        pairs[base] = {
            "bslot": base + half,
            "A": cube.host_of(base),
            "B": cube.host_of(base + half),
            "stage": "init",
            "side": 1,
            "lo": 0,
            "hi": 0,
            "probes": 0,
            "feet": {},
        }
    started: set[NodeId] = set()

    def _a_probe(eng, v, base, p):
        au = chains[base]["u" if p["side"] == 1 else "l"]
        if p["lo"] > p["hi"] or p["probes"] > _PROBE_SLACK * (len(au).bit_length() + 2):
            p["stage"] = "ship"
            eng.send(v, p["B"], {"base": base}, tag="hs")
            return
        mid = (p["lo"] + p["hi"]) // 2
        p["mid"] = mid
        p["probes"] += 1
        eng.send(
            v,
            p["B"],
            {"base": base, "side": p["side"], "pt": au[mid][:2]},
            tag="hp",
        )

    def _a_found(eng, v, base, p, jb):
        p["feet"][p["side"]] = (p["mid"], jb)
        if p["side"] == 1:
            p["side"] = -1
            p["lo"], p["hi"] = 0, len(chains[base]["l"]) - 1
            p["probes"] = 0
            _a_probe(eng, v, base, p)
        else:
            ju = p["feet"][1][1]
            jl = p["feet"][-1][1]
            p["stage"] = "suffix"
            eng.send(v, p["B"], {"base": base, "ju": ju, "jl": jl}, tag="hq")

    def _assemble(base, p, bu, bl):
        iu = p["feet"][1][0]
        il = p["feet"][-1][0]
        chains[base]["u"] = chains[base]["u"][: iu + 1] + bu
        chains[base]["l"] = chains[base]["l"][: il + 1] + bl
        p["stage"] = "done"

    def merge_handler(eng: RoundEngine, v: NodeId, inbox: list[Message]) -> bool:
        if v not in started:
            started.add(v)
            for base, p in pairs.items():
                if p["A"] != v or p["stage"] != "init":
                    continue
                if p["A"] == p["B"]:
                    # the right block is empty virtual padding hosted by the leader
                    p["stage"] = "done"
                    continue
                p["stage"] = "search"
                p["lo"], p["hi"] = 0, len(chains[base]["u"]) - 1
                _a_probe(eng, v, base, p)
        for m in inbox:
            d_ = m.payload
            base = d_["base"]
            p = pairs[base]
            if m.tag == "hp":
                side = d_["side"]
                bc = chains[p["bslot"]]["u" if side == 1 else "l"]
                if not bc:
                    eng.send(v, m.src, {"base": base, "empty": True}, tag="ha")
                    continue
                idx = bc.index(_chain([d_["pt"]] + bc, side)[1])
                eng.send(
                    v,
                    m.src,
                    {"base": base, "empty": False, "idx": idx, "b": bc[idx][:2]},
                    tag="ha",
                )
            elif m.tag == "ha":
                if d_["empty"]:
                    p["stage"] = "done"
                    continue
                ac = chains[base]["u" if p["side"] == 1 else "l"]
                mid, b, s = p["mid"], d_["b"], p["side"]
                a = ac[mid]
                nxt_bad = mid + 1 < len(ac) and _side(a, b, ac[mid + 1]) == s
                prv_bad = mid > 0 and _side(a, b, ac[mid - 1]) == s
                if nxt_bad:
                    p["lo"] = mid + 1
                    _a_probe(eng, v, base, p)
                elif prv_bad:
                    p["hi"] = mid - 1
                    _a_probe(eng, v, base, p)
                else:
                    # full-chain verification; bisection can stop at a
                    # locally-flat vertex on degenerate inputs
                    if all(
                        _side(a, b, q) != s for q in ac if q is not a
                    ):
                        # slide over collinear predecessors so the foot
                        # is the smallest valid index; keeps interior
                        # collinear vertices out of the merged chain
                        while mid > 0 and _side(ac[mid - 1], b, a) == 0:
                            mid -= 1
                            a = ac[mid]
                        p["mid"] = mid
                        _a_found(eng, v, base, p, d_["idx"])
                    else:
                        p["stage"] = "ship"
                        eng.send(v, p["B"], {"base": base}, tag="hs")
            elif m.tag == "hs":
                bslot = pairs[base]["bslot"]
                ids = [int(q[2]) for q in chains[bslot]["u"] + chains[bslot]["l"]]
                eng.send(
                    v,
                    m.src,
                    {"base": base, "u": chains[bslot]["u"], "l": chains[bslot]["l"]},
                    tag="hc",
                    intro_ids=tuple(sorted(set(ids))),
                )
            elif m.tag == "hc":
                chains[base]["u"] = _chain(chains[base]["u"] + d_["u"], 1)
                chains[base]["l"] = _chain(chains[base]["l"] + d_["l"], -1)
                p["stage"] = "done"
            elif m.tag == "hq":
                bslot = pairs[base]["bslot"]
                bu = chains[bslot]["u"][d_["ju"] :]
                bl = chains[bslot]["l"][d_["jl"] :]
                ids = [int(q[2]) for q in bu + bl]
                eng.send(
                    v,
                    m.src,
                    {"base": base, "u": bu, "l": bl},
                    tag="hr",
                    intro_ids=tuple(sorted(set(ids))),
                )
            elif m.tag == "hr":
                _assemble(base, p, d_["u"], d_["l"])
        # the started block moved every A-side pair out of "init"
        return all(p["stage"] == "done" for p in pairs.values() if p["A"] == v)

    def finish(report: PhaseReport) -> None:
        for p in pairs.values():
            if p["stage"] != "done":
                raise SimulationAbortError(p["A"], engine.round_no, "merge incomplete")

    return _Session(cube.members, merge_handler, 8 * n + 40, finish)


def _hull_broadcast_session(
    engine: RoundEngine, cube: HypercubeOverlay, ccw: list
) -> _Session:
    """The leader sends the finished hull down the jump-edge binomial tree."""
    k = len(cube.members)
    d_bits = cube.dimension
    payload = {"hull": [[q[0], q[1], int(q[2])] for q in ccw]}
    intro = tuple(sorted({int(q[2]) for q in ccw}))
    got: set[NodeId] = set()

    def bcast_handler(eng: RoundEngine, v: NodeId, inbox: list[Message]) -> bool:
        if v == cube.leader and v not in got:
            got.add(v)
            for i in range(d_bits - 1, -1, -1):
                tr = 1 << i
                if tr < k:
                    eng.send(
                        v,
                        cube.members[tr],
                        dict(payload, budget=i),
                        tag="hullb",
                        intro_ids=intro,
                    )
        for m in inbox:
            if m.tag != "hullb":
                continue
            got.add(v)
            rank = cube.id_map[v]
            for i in range(m.payload["budget"] - 1, -1, -1):
                tr = rank + (1 << i)
                if tr < k:
                    eng.send(
                        v,
                        cube.members[tr],
                        dict(payload, budget=i),
                        tag="hullb",
                        intro_ids=intro,
                    )
        return v in got

    def finish(report: PhaseReport) -> None:
        if len(got) != k:
            raise SimulationAbortError(cube.leader, engine.round_no, "hull broadcast gap")

    return _Session(cube.members, bcast_handler, 2 * d_bits + 6, finish)


# ---------------------------------------------------------------------------
# broadcast tree over all nodes


def build_broadcast_tree(
    engine: RoundEngine, c1: float = 1.0
) -> BroadcastTree:
    """Balanced binary tree over node ids in heap layout.

    Stands in for the overlay-tree protocol this pipeline treats as a
    black box: the engine charges ceil(c1 * log2(n)^2) rounds for the
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
    rounds = math.ceil(c1 * (math.log2(n) ** 2)) if n > 1 else 0
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
    """Flood every hull-node reference through the tree.

    Each reference travels up from its owner and down into every other
    subtree; a tree has no cycles, so nobody sees a reference twice.
    Nodes in keep_all (the hull nodes) retain every id they learn; all
    other nodes forget ids that this flood alone taught them.
    Returns the number of deliveries.
    """
    topo = engine.topo
    owners: dict[NodeId, list] = {}
    for ref in hull_refs:
        owners.setdefault(ref[0], []).append(list(ref))
    pre_known = {v: set(topo.knows[v]) for v in topo.ids}
    deliveries = 0
    seeded: set[NodeId] = set()

    def tree_neighbors(v: NodeId) -> list[NodeId]:
        out = list(tree.children[v])
        if v in tree.parent:
            out.append(tree.parent[v])
        return out

    def handler(eng: RoundEngine, v: NodeId, inbox: list[Message]) -> bool:
        nonlocal deliveries
        if v not in seeded:
            seeded.add(v)
            for ref in owners.get(v, []):
                for nb in tree_neighbors(v):
                    eng.send(v, nb, {"ref": ref}, tag="href", intro_ids=(ref[0],))
        drop: set[NodeId] = set()
        for m in inbox:
            if m.tag != "href":
                continue
            deliveries += 1
            ref = m.payload["ref"]
            for nb in tree_neighbors(v):
                if nb != m.src:
                    eng.send(v, nb, {"ref": ref}, tag="href", intro_ids=(ref[0],))
            drop.add(ref[0])
        # a node on two hulls arrives as two refs with one id; forget the
        # id only after the whole inbox is forwarded, or the second send
        # would introduce an id v just deleted
        for rid in drop:
            if v not in keep_all and rid not in pre_known[v] and rid != v:
                eng.delete_id(v, rid)
        return True

    engine.run_phase("hull_distribution", handler, max_rounds=4 * tree.height + 10)
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
    members: list[NodeId]
    jump: PointerJumpResult
    cube: HypercubeOverlay
    sort_stages: int
    hull: list[NodeId]
    hull_points: dict[NodeId, Point]


def ring_protocol(
    engine: RoundEngine,
    rings: Mapping[Hashable, list[NodeId]],
    jumps: Mapping[Hashable, PointerJumpResult] | None = None,
) -> dict[Hashable, RingProtocolResult]:
    """Leader election, ranking, hypercube, sort, hull, broadcast.

    Every ring runs each step in the same phase.  Completed
    election/ranking results can be passed in so the rings are not
    re-elected when classification already ran it.
    """
    if jumps is None:
        jumps = pointer_jumping(engine, rings)
        rank_ring(engine, rings, jumps)
    cubes = assign_hypercube_ids(engine, rings, jumps)
    pts = engine.topo.points
    keys = {
        key: {v: (pts[v].x, pts[v].y, v) for v in members}
        for key, members in rings.items()
    }
    sorted_keys = hypercube_sort(engine, cubes, keys)
    hulls = parallel_convex_hull(
        engine, cubes, {key: slots for key, (slots, _) in sorted_keys.items()}
    )
    return {
        key: RingProtocolResult(
            members=list(members),
            jump=jumps[key],
            cube=cubes[key],
            sort_stages=sorted_keys[key][1],
            hull=hulls[key][0],
            hull_points=hulls[key][1],
        )
        for key, members in rings.items()
    }
