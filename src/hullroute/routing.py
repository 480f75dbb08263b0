"""Path finding over the planarized radio network.

Three layers live here. `chew_route` walks the corridor of triangles that
the straight segment between two nodes crosses, and either reaches the far
node or stops on the first node of an obstructing hole. Above it sits one
waypoint graph over the hole hulls: the full visibility graph, or its
constrained-Delaunay thinning. `Router` ties everything together: it
classifies a query into one of five cases by hull containment, fetches
waypoint node ids from the backend it built, realizes every leg with
`chew_route`, and runs each query as one phase of the round engine, in
which data only ever rides ad hoc links.
"""

from __future__ import annotations

import heapq
import logging
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from scipy.sparse.csgraph import dijkstra

from .errors import (
    AssumptionViolationError,
    DispatchError,
    GeometryInconsistencyError,
    NoPathError,
    NodeLookupError,
    NotReadyError,
)
from .geometry import (
    Point,
    angle_key,
    bounding_box,
    dist,
    incircle,
    monotone_hull,
    orient2d,
    point_in_polygon,
    ring_crossings,
    segment_crosses_polygon,
    segments_properly_intersect,
    _on_segment,
)
from .holes import (
    KIND_OUTER_BOUNDARY,
    KIND_OUTER_HOLE,
    HoleRing,
    HullAbstraction,
)
from .ldel import HybridTopology, NodeId, PlanarGraph, edge_key
from .overlay import _forget_learned
from .simengine import Channel, Message, RoundEngine

CHEW_BOUND = 5.9
CASE1_BOUND_VIS = 17.7
CASE1_BOUND_ODEL = 35.37

BACKEND_VIS = "visibility"
BACKEND_ODEL = "overlay-delaunay"

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# segment walking


@dataclass(frozen=True)
class ReachedTarget:
    """The walk arrived at the node sitting on the target position."""


@dataclass(frozen=True)
class HitHoleNode:
    """The walk stopped on a node of the blocking face."""

    node: NodeId
    face: int


def chew_route(g: PlanarGraph, s: NodeId, t: NodeId) -> tuple[list[NodeId], object]:
    """Walk from s toward node t along the crossed-face corridor.

    The walk steps from face to face on `face_left`: it starts in the face
    that st leaves s through, and leaves each triangle through the one other
    edge st properly crosses. A vertex lying on st splits the walk in two;
    each vertex is tested once, when the walk first meets it.

    Returns (path, outcome). The path always starts at s; on ReachedTarget
    it ends at t, on HitHoleNode it ends at a node of the first blocked face
    the segment enters.
    """
    if s not in g.points or t not in g.points:
        raise NodeLookupError(f"unknown walk endpoint {s} or {t}")
    if t == s:
        return [s], ReachedTarget()
    if g.has_edge(s, t):
        return [s, t], ReachedTarget()

    ps, pt = g.points[s], g.points[t]
    spokes = g.adj[s]
    for v in spokes:
        if _on_segment(g.points[v], ps, pt):
            return _split_walk(g, s, v, t)
    # st leaves s left of the last spoke clockwise of it (spokes are ccw)
    key = angle_key(ps)
    a, b = s, spokes[bisect_right([key(g.points[w]) for w in spokes], key(pt)) - 1]
    face = g.face_left[(a, b)]
    # entry edges (left end, right end) of every face after the first
    crossed: list[tuple[NodeId, NodeId]] = []
    while not g.is_blocked_face(face):
        c = next(v for v in g.faces[face] if v != a and v != b)
        if c == t:
            break
        if _on_segment(g.points[c], ps, pt):
            return _split_walk(g, s, c, t)
        if segments_properly_intersect(ps, pt, g.points[b], g.points[c]):
            a, b = c, b
        elif segments_properly_intersect(ps, pt, g.points[c], g.points[a]):
            a, b = a, c
        else:
            raise GeometryInconsistencyError(f"corridor walk {s}->{t}: no exit from face {face}")
        crossed.append((a, b))
        face = g.face_left[(a, b)]

    left = _dedup_consecutive([s] + [u for u, _ in crossed])
    right = _dedup_consecutive([s] + [v for _, v in crossed])
    if not g.is_blocked_face(face):
        path = min(left + [t], right + [t], key=lambda p: (_polyline_length(g, p), p))
        _check_walkable(g, path)
        return path, ReachedTarget()

    cands = [chain for chain in (left, right) if chain[-1] in g.faces[face]]
    if not cands:
        raise GeometryInconsistencyError(
            f"corridor walk {s}->{t}: no chain ends on blocked face {face}"
        )
    path = min(cands, key=lambda p: (_polyline_length(g, p), p))
    _check_walkable(g, path)
    return path, HitHoleNode(path[-1], face)


def _split_walk(g: PlanarGraph, s: NodeId, mid: NodeId, t: NodeId) -> tuple[list[NodeId], object]:
    """Walk s->mid, then mid->t unless the first half is blocked."""
    p1, o1 = chew_route(g, s, mid)
    if not isinstance(o1, ReachedTarget):
        return p1, o1
    p2, o2 = chew_route(g, mid, t)
    return p1 + p2[1:], o2


def _polyline_length(g: PlanarGraph, path: Sequence[NodeId]) -> float:
    return sum(dist(g.points[a], g.points[b]) for a, b in zip(path, path[1:]))


def _check_walkable(g: PlanarGraph, path: Sequence[NodeId]) -> None:
    for a, b in zip(path, path[1:]):
        if not g.has_edge(a, b):
            raise GeometryInconsistencyError(f"corridor chain uses non-edge {a}-{b}")


# ---------------------------------------------------------------------------
# waypoint graphs over hull polygons


@dataclass(frozen=True)
class HullPolygon:
    """Convex hull of one hole, as both node ids and positions (ccw).

    `box` is the closed bounding box (x0, y0, x1, y1) of `pts`.
    """

    hole_id: int
    nodes: tuple[NodeId, ...]
    pts: tuple[Point, ...]
    box: tuple[float, float, float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "box", bounding_box(self.pts))


def _boxes_meet(p: tuple[float, float, float, float], q: tuple[float, float, float, float]) -> bool:
    """True unless an axis-parallel line keeps box p weakly on one side, box q on the other.

    The open interior of a hull lies in its box's open interior, so when
    this is False no segment or hull inside p meets the interior of a hull
    inside q: an exact reject ahead of the separating-line tests.
    """
    return p[0] < q[2] and q[0] < p[2] and p[1] < q[3] and q[1] < p[3]


def hull_polygon(points: Mapping[NodeId, Point], hole_id: int, hull_nodes: Sequence[NodeId]) -> HullPolygon:
    return HullPolygon(hole_id, tuple(hull_nodes), tuple(points[v] for v in hull_nodes))


@dataclass
class WaypointGraph:
    """Hull vertices, their positions, length-weighted adjacency, hull edges."""

    hulls: list[HullPolygon]
    positions: dict[NodeId, Point]
    adj: dict[NodeId, dict[NodeId, float]]
    constraints: set[tuple[NodeId, NodeId]]


def _apart(poly: Sequence[Point], pts: Sequence[Point]) -> bool:
    """True when an edge line of the ccw convex poly has all pts on or right of it.

    The points, and so their convex hull, then keep out of poly's open
    interior.
    """
    n = len(poly)
    return any(
        all(orient2d(poly[i], poly[(i + 1) % n], q) <= 0 for q in pts)
        for i in range(n)
    )


def _crosses_hull(a: Point, b: Point, pts: Sequence[Point]) -> bool:
    """True iff the open segment ab meets the open interior of the ccw hull.

    Separating axes of a segment and a convex polygon: the hull's edge
    lines, and the line ab itself, which separates unless hull vertices
    lie strictly on both of its sides.
    """
    if _apart(pts, (a, b)):
        return False
    sides = {orient2d(a, b, q) for q in pts}
    return 1 in sides and -1 in sides


def _check_disjoint(hulls: Sequence[HullPolygon]) -> None:
    """Reject hull pairs whose interiors overlap; shared edges are allowed."""
    for i, a in enumerate(hulls):
        for b in hulls[i + 1 :]:
            if _boxes_meet(a.box, b.box) and not (_apart(a.pts, b.pts) or _apart(b.pts, a.pts)):
                raise AssumptionViolationError(
                    f"hulls {a.hole_id} and {b.hole_id} intersect"
                )


def _blocked(a: Point, b: Point, hulls: Sequence[HullPolygon]) -> bool:
    box = bounding_box((a, b))
    return any(_boxes_meet(box, h.box) and _crosses_hull(a, b, h.pts) for h in hulls)


def _visible_from(p: Point, verts: Iterable[NodeId], positions: Mapping[NodeId, Point],
                  hulls: Sequence[HullPolygon]) -> dict[NodeId, float]:
    """Distance from p to every vertex of `verts` that no hull interior hides."""
    return {v: dist(p, positions[v]) for v in verts if not _blocked(p, positions[v], hulls)}


def _hull_vertex_sets(hulls: Sequence[HullPolygon]):
    positions: dict[NodeId, Point] = {}
    boundary: set[tuple[NodeId, NodeId]] = set()
    for h in hulls:
        k = len(h.nodes)
        for i, v in enumerate(h.nodes):
            positions[v] = h.pts[i]
            if k >= 2:
                boundary.add(edge_key(v, h.nodes[(i + 1) % k]))
    return positions, boundary


def build_visibility_graph(hulls: Sequence[HullPolygon]) -> WaypointGraph:
    """All-pairs visibility over hull vertices; disjoint interiors leave every hull edge visible."""
    _check_disjoint(hulls)
    positions, boundary = _hull_vertex_sets(hulls)
    adj: dict[NodeId, dict[NodeId, float]] = {v: {} for v in positions}
    verts = sorted(positions)
    for i, u in enumerate(verts):
        for v, w in _visible_from(positions[u], verts[i + 1 :], positions, hulls).items():
            adj[u][v] = w
            adj[v][u] = w
    return WaypointGraph(list(hulls), positions, adj, boundary)


def _empty_circle(u: NodeId, v: NodeId, vis: WaypointGraph) -> bool:
    """True iff some circle through u and v has every witness strictly outside.

    Witnesses are the vertices visible from both u and v, which is what
    confines circles to the free space around the hulls (Chew 1989). The
    tightest left witness bounds the circles from the left; the edge lives
    iff every right witness lies strictly outside the circle through it.
    A witness on the chord defeats every circle, and so does a right
    witness on that circle: exact cocircular ties drop the edge.
    """
    pos = vis.positions
    pu, pv = pos[u], pos[v]
    best: Point | None = None
    right: list[Point] = []
    for w in vis.adj[u].keys() & vis.adj[v].keys():
        pw = pos[w]
        side = orient2d(pu, pv, pw)
        if side > 0:
            if best is None or incircle(pu, pv, best, pw) > 0:
                best = pw
        elif side < 0:
            right.append(pw)
        elif _on_segment(pw, pu, pv):
            return False
    return best is None or all(incircle(pu, pv, best, q) < 0 for q in right)


def build_overlay_delaunay(vis: WaypointGraph) -> WaypointGraph:
    """Constrained Delaunay thinning of a visibility graph; hull edges stay.

    The thinning keeps a visible edge iff `_empty_circle` admits it, every
    test an exact sign, so the result is planar with no repair pass.
    """
    positions, boundary = vis.positions, vis.constraints
    adj: dict[NodeId, dict[NodeId, float]] = {v: {} for v in positions}
    for u, nbrs in vis.adj.items():
        for v, w in nbrs.items():
            if u < v and ((u, v) in boundary or _empty_circle(u, v, vis)):
                adj[u][v] = adj[v][u] = w
    n, m = len(positions), sum(map(len, adj.values())) // 2
    if n >= 3 and m > 3 * n - 6:
        raise GeometryInconsistencyError(
            f"overlay edge count {m} exceeds planar bound for {n} vertices"
        )
    return WaypointGraph(vis.hulls, positions, adj, boundary)


# temporary endpoint ids sort before every node id, so of two equally long
# chains the one that reaches a temporary endpoint directly wins
_TEMP_SRC = -1
_TEMP_DST = -2


def overlay_shortest_path(
    graph: WaypointGraph, s: NodeId, t: NodeId, points: Mapping[NodeId, Point]
) -> list[NodeId]:
    """Euclidean shortest waypoint chain from s to t, lexicographic tie-break.

    The target, and the source unless it is a graph vertex, is inserted
    temporarily at its position in `points` with visibility edges to every
    graph vertex (and, when both ends are temporary, to each other). So the
    last hop may come from any vertex that sees t, also on a thinned graph.
    Returns node ids.
    """
    for v in (s, t):
        if v not in points:
            raise NodeLookupError(f"no position for waypoint endpoint {v}")
    if s == t:
        return [s]
    # edges of the temporary endpoints, kept beside the graph's own
    temp: dict[NodeId, dict[NodeId, float]] = {}

    def link(u: NodeId, v: NodeId, w: float) -> None:
        temp.setdefault(u, {})[v] = w
        temp.setdefault(v, {})[u] = w

    def insert(x: NodeId, tmp: NodeId) -> NodeId:
        for v, w in _visible_from(points[x], graph.positions, graph.positions, graph.hulls).items():
            link(tmp, v, w)
        return tmp

    a = s if s in graph.positions else insert(s, _TEMP_SRC)
    b = insert(t, _TEMP_DST)
    if a == _TEMP_SRC and not _blocked(points[s], points[t], graph.hulls):
        link(a, b, dist(points[s], points[t]))

    # carry the node sequence in the heap so equal lengths settle on the
    # lexicographically smallest sequence
    ends = {a: s, b: t}
    heap: list[tuple[float, tuple[NodeId, ...]]] = [(0.0, (a,))]
    settled: set[NodeId] = set()
    while heap:
        d, seq = heapq.heappop(heap)
        v = seq[-1]
        if v in settled:
            continue
        settled.add(v)
        if v == b:
            return _dedup_consecutive([ends.get(q, q) for q in seq])
        nbrs = graph.adj.get(v, {}) | temp.get(v, {})
        for w in sorted(nbrs):
            if w not in settled:
                heapq.heappush(heap, (d + nbrs[w], seq + (w,)))
    raise NoPathError(f"overlay disconnects {s} from {t}")


# ---------------------------------------------------------------------------
# five-way dispatcher


@dataclass
class RouteResult:
    path: list[NodeId]
    euclidean_length: float
    udg_shortest: float
    straight_line: float
    competitive_ratio: float
    case_taken: str
    rounds_used: int
    longrange_msgs: int
    e_route: int = 0
    legs: list[tuple[float, float]] = field(default_factory=list)
    # each waypoint plan, re-plans included: (planning hull node, chain)
    plans: list[tuple[NodeId, list[NodeId]]] = field(default_factory=list)


@dataclass(eq=False)
class _RingCtx:
    """A classified ring plus everything routing needs about it."""

    ring: HoleRing
    abstraction: HullAbstraction
    polygon: HullPolygon
    ring_pts: list[Point]
    pos_of: dict[NodeId, int]
    bay_polys: list[list[Point]]
    # outer-hole rings are open arcs: their chord is virtual, walks on the
    # members list must never wrap across it
    closed: bool


class Router:
    """Five-case router over a frozen set of hull abstractions."""

    def __init__(
        self,
        g: PlanarGraph,
        rings: Sequence[HoleRing],
        abstractions: Mapping[int, HullAbstraction],
        root: NodeId,
        backend: str = BACKEND_VIS,
    ):
        if backend not in (BACKEND_VIS, BACKEND_ODEL):
            raise DispatchError(f"unknown backend {backend!r}")
        self.g = g
        # the overlay tree's root, the one node that holds every hull and
        # so the one every plan is asked of (overlay.distribute_hulls)
        self.root = root
        ctxs: list[_RingCtx] = []
        for ring in rings:
            if not ring.orientation_sum:  # classify_rings sets it on every ring, arcs too
                raise NotReadyError(f"ring {ring.ring_id} not classified yet")
            ab = abstractions.get(ring.ring_id)
            if ab is None:
                raise NotReadyError(f"ring {ring.ring_id} has no hull abstraction")
            ctxs.append(self._make_ctx(ring, ab))
        self.obstacles = [c for c in ctxs if c.ring.kind != KIND_OUTER_BOUNDARY]
        # form_rings keeps each face walk's order, so a closed ring's first
        # edge has its face on the left: a hole's, or the outer face
        self._face_ring = {g.face_left[c.ring.members[0], c.ring.members[1]]: c for c in ctxs if c.closed}
        if g.outer_face not in self._face_ring:
            raise NotReadyError("outer boundary ring missing")
        vis = build_visibility_graph([c.polygon for c in self.obstacles])
        self.waypoints = vis if backend == BACKEND_VIS else build_overlay_delaunay(vis)

    # -- construction helpers ----------------------------------------------

    def _make_ctx(self, ring: HoleRing, ab: HullAbstraction) -> _RingCtx:
        pts = [self.g.points[v] for v in ring.members]
        poly = hull_polygon(self.g.points, ring.ring_id, ab.hull_nodes)
        pos_of = {v: i for i, v in enumerate(ring.members)}
        bay_polys = [[self.g.points[v] for v in bay.strip] for bay in ab.bay_areas]
        return _RingCtx(ring, ab, poly, pts, pos_of, bay_polys, closed=ring.kind != KIND_OUTER_HOLE)

    # -- placement ----------------------------------------------------------

    def locate(self, v: NodeId) -> tuple[_RingCtx, int] | None:
        """(ring context, bay index) when v lies strictly inside a hull.

        A hull's interior is its hole face, which holds no node, plus its
        closed bay polygons; so every node inside a hull sits in a bay, and
        a bay member in its own: bays of a simple ring meet only at hull nodes.
        """
        p = self.g.points[v]
        for ctx in self.obstacles:
            if _apart(ctx.polygon.pts, (p,)):
                continue
            for bi, poly in enumerate(ctx.bay_polys):
                if point_in_polygon(p, poly, strict=False):
                    return ctx, bi
            raise GeometryInconsistencyError(
                f"node {v} lies inside hull {ctx.ring.ring_id} but in none of its bays"
            )
        return None

    def _ring_of_face(self, face: int) -> _RingCtx:
        ctx = self._face_ring.get(face)
        if ctx is None:
            raise GeometryInconsistencyError(f"blocked face {face} matches no ring")
        return ctx

    # -- ring walking ---------------------------------------------------------

    def _ring_walk(self, ctx: _RingCtx, a: NodeId, b: NodeId) -> list[NodeId]:
        """Hop along the ring from a to b the short way (ties toward smaller id)."""
        members = ctx.ring.members
        k = len(members)
        ia, ib = ctx.pos_of[a], ctx.pos_of[b]
        if ia == ib:
            return [a]
        if not ctx.closed:
            step = 1 if ib > ia else -1
            return members[ia : ib + step if ib + step >= 0 else None : step]
        fwd = (ib - ia) % k
        bwd = (ia - ib) % k
        if fwd < bwd or (fwd == bwd and members[(ia + 1) % k] < members[(ia - 1) % k]):
            return [members[(ia + i) % k] for i in range(fwd + 1)]
        return [members[(ia - i) % k] for i in range(bwd + 1)]

    @staticmethod
    def _hops(ctx: _RingCtx, i: int, j: int) -> int:
        """Ring hops between member positions i and j; arcs never wrap."""
        d = abs(i - j)
        return min(d, len(ctx.ring.members) - d) if ctx.closed else d

    def _nearest_hull(self, ctx: _RingCtx, v: NodeId) -> list[NodeId]:
        """Ring path from v to its closest hull node in hops, ties by id."""
        i = ctx.pos_of[v]
        h = min(ctx.abstraction.hull_nodes, key=lambda h: (self._hops(ctx, i, ctx.pos_of[h]), h))
        return self._ring_walk(ctx, v, h)

    # -- leg realization -----------------------------------------------------

    def _leg(self, cur: NodeId, tgt: NodeId) -> tuple[list[NodeId], HitHoleNode | None]:
        """Chew toward tgt; recover along the ring when both live on the hit ring."""
        path, out = chew_route(self.g, cur, tgt)
        if isinstance(out, ReachedTarget):
            return path, None
        ctx = self._ring_of_face(out.face)
        if tgt in ctx.pos_of and out.node in ctx.pos_of:
            walk = self._ring_walk(ctx, out.node, tgt)
            return path + walk[1:], None
        return path, out

    # -- case 1: both endpoints outside all hulls ------------------------------

    def _route_outside(self, s: NodeId, t: NodeId):
        """Walk, case, waypoint legs and plans with their path indices; every plan after the first re-plans."""
        path, out = chew_route(self.g, s, t)
        if isinstance(out, ReachedTarget):
            return path, "Visible", [], []
        legs: list[tuple[float, float]] = []
        plans: list[tuple[NodeId, list[NodeId], int]] = []
        budget = 4 * len(self.obstacles) + 8
        points = self.g.points
        while budget > 0:
            budget -= 1
            ctx = self._ring_of_face(out.face)
            walk = self._nearest_hull(ctx, out.node)
            path += walk[1:]
            chain = overlay_shortest_path(self.waypoints, path[-1], t, points)
            plans.append((path[-1], chain, len(path) - 1))
            done = True
            for a, b in zip(chain, chain[1:]):
                leg_path, hit = self._leg(a, b)
                path += leg_path[1:]
                if hit is not None:
                    out = hit  # re-plan from the new hole node
                    done = False
                    break
                legs.append((dist(points[a], points[b]), _polyline_length(self.g, leg_path)))
            if done:
                return path, "Case1", legs, plans
        raise NoPathError(f"waypoint replanning budget exhausted between {s} and {t}")

    # -- machinery inside one bay -----------------------------------------

    def _bay_core(self, ctx: _RingCtx, bay_idx: int, a: NodeId, b: NodeId) -> tuple[list[NodeId], int]:
        """Route a→b when the straight segment stays inside one bay area."""
        pa, pb = self.g.points[a], self.g.points[b]
        path, out = chew_route(self.g, a, b)
        if isinstance(out, ReachedTarget):
            return path, 0
        h0 = out.node
        if h0 not in ctx.pos_of:
            raise NoPathError(
                f"bay walk {a}->{b} stopped on node {h0} outside ring {ctx.ring.ring_id}"
            )
        ds = ctx.abstraction.dominating_sets[bay_idx]

        # ring edges where ab enters and leaves the ring; without an inner
        # crossing, the first ring edge at h0
        crossed = ring_crossings(pa, pb, ctx.ring_pts) or [max(ctx.pos_of[h0] - 1, 0)]
        p1, pt_node = (self._ds_nearest(ctx, ds, e) for e in (crossed[0], crossed[-1]))

        sub = self._bay_subpath(ctx, bay_idx, p1, pt_node)
        extremes = _extreme_points(self.g.points, sub)
        # the orientation the ring's leader read off its hull, -1 for a turn of +360
        sign = round(ctx.ring.orientation_sum / -360)
        e_t = next(
            (e for e in extremes if not segment_crosses_polygon(self.g.points[e], pb, ctx.ring_pts, sign)),
            extremes[-1],
        )
        chain = extremes[: extremes.index(e_t) + 1]

        walk = self._ring_walk(ctx, h0, p1)
        path += walk[1:]
        cur = path[-1]
        for tgt in chain + [b]:
            if cur == tgt:
                continue
            leg_path, hit = self._leg(cur, tgt)
            if hit is not None:
                raise NoPathError(f"bay leg {cur}->{tgt} blocked at {hit.node}")
            path += leg_path[1:]
            cur = tgt
        return path, len(chain)

    def _ds_nearest(self, ctx: _RingCtx, ds: set[NodeId], edge: int) -> NodeId:
        """DS node with fewest ring hops to an end of ring edge `edge`, ties by id."""
        anchor = (edge, (edge + 1) % len(ctx.ring.members))
        return min(ds, key=lambda v: (min(self._hops(ctx, ctx.pos_of[v], j) for j in anchor), v))

    def _bay_subpath(self, ctx: _RingCtx, bay_idx: int, p1: NodeId, pt: NodeId) -> list[NodeId]:
        """Boundary nodes of the bay's strip from P1 to Pt."""
        strip = ctx.abstraction.bay_areas[bay_idx].strip
        i, j = strip.index(p1), strip.index(pt)
        return strip[i : j + 1] if i <= j else strip[j : i + 1][::-1]

    # -- bay exits -------------------------------------------------------------

    def _bay_exit(self, ctx: _RingCtx, bay_idx: int, x: NodeId, toward: Point) -> NodeId:
        """The end of x's bay edge that is shorter to go through toward the far end."""
        a, b = ctx.abstraction.bay_areas[bay_idx].edge
        px = self.g.points[x]
        return min(
            (a, b),
            key=lambda h: (dist(px, self.g.points[h]) + dist(self.g.points[h], toward), h),
        )

    # -- public queries ----------------------------------------------------------

    def route(self, engine: RoundEngine, s: NodeId, t: NodeId) -> RouteResult:
        """Leave s's bay through a hull node, route outside, enter t's bay.

        The one query entry. A query between two nodes of one bay (Case5)
        stays in that bay. The knowledge model: s holds t's id before
        anything is sent, and delivery teaches t the id of s. Neither is
        abstraction storage, so both ends forget what the query taught
        them, also when delivery fails. Planning sends nothing.
        """
        if s not in self.g.points or t not in self.g.points:
            raise NodeLookupError(f"route endpoints {s},{t} not in graph")
        if s == t:
            return RouteResult([s], 0.0, 0.0, 0.0, 1.0, "Visible", 0, 0)
        ls, lt = self.locate(s), self.locate(t)
        if ls is None and lt is None:
            case = "Case1"  # refined to Visible by _route_outside
        elif ls is None or lt is None:
            case = "Case2"
        elif ls == lt:
            case = "Case5"
        else:
            case = "Case4" if ls[0] is lt[0] else "Case3"
        try:
            path, case, legs, e_route, plans = self._plan(s, t, ls, lt, case)
        except (NoPathError, GeometryInconsistencyError) as exc:
            raise type(exc)(f"{case}: {exc}") from exc
        before = {v: set(engine.topo.knows[v]) for v in (s, t)}
        engine.topo.learn(s, t)
        try:
            return self._deliver(engine, s, t, path, case, legs, e_route, plans)
        finally:
            _forget_learned(engine, before, {})

    def _plan(self, s, t, ls, lt, case):
        """The walk of one query, its refined case, waypoint legs, |E|, and plans with their path indices."""
        if case == "Case5":
            path, e_route = self._bay_core(*ls, s, t)
            return path, case, [], e_route, []
        pt_s, pt_t = self.g.points[s], self.g.points[t]
        a = self._bay_exit(*ls, s, pt_t) if ls else s
        b = self._bay_exit(*lt, t, pt_s) if lt else t
        path, e_route = self._bay_core(*ls, s, a) if ls else ([s], 0)
        legs, plans = [], []
        if a != b:
            p, outside, legs, plans = self._route_outside(a, b)
            plans = [(h, chain, len(path) - 1 + i) for h, chain, i in plans]
            path += p[1:]
            if case == "Case1":
                case = outside
        if lt:
            p, e = self._bay_core(*lt, b, t)
            path += p[1:]
            e_route += e
        return path, case, legs, e_route, plans

    def _deliver(self, engine, s, t, path, case, legs, e_route, plans) -> RouteResult:
        """Send the data along the planned walk and measure it.

        Each plan made at a hull node other than the tree root is asked
        of the root, where the walk reaches that node.  The walk's pieces
        meet end to end, so no node follows itself.
        """
        _check_walkable(self.g, path)
        asks = [(i, [self.g.points[w] for w in chain]) for h, chain, i in plans if h != self.root]
        rounds, lr = self._transmit(engine, s, t, path, asks)
        if path[0] != s or path[-1] != t:
            raise GeometryInconsistencyError(f"{case}: path endpoints {path[0]},{path[-1]} != {s},{t}")
        length = _polyline_length(self.g, path)
        sl = dist(self.g.points[s], self.g.points[t])
        d = _udg_shortest(engine.topo, s, t)
        ratio = length / d if d > 0 else 1.0
        replans = max(len(plans) - 1, 0)
        log.debug("query %d->%d: %s, %d hops, %d replans", s, t, case, len(path) - 1, replans)
        plans = [(h, chain) for h, chain, _ in plans]
        return RouteResult(list(path), length, d, sl, ratio, case, rounds, lr, e_route, legs, plans)

    # -- engine traffic -----------------------------------------------------------

    def _transmit(
        self,
        engine: RoundEngine,
        s: NodeId,
        t: NodeId,
        path: Sequence[NodeId],
        asks: Sequence[tuple[int, list[Point]]] = (),
    ) -> tuple[int, int]:
        """Run the query as one session keyed None; returns its rounds and long-range messages.

        s asks t's position over the long-range channel, then hop i carries
        seq i from path[i] to path[i + 1] ad hoc, so a walk may revisit nodes.
        `asks` holds, in path order, each plan made away from the tree
        root: (i, the chain's waypoint positions).  Before hop i,
        path[i] sends the root t's position (rt_plan) and the root answers
        with the chain (rt_chain): one long-range round trip per plan.
        """
        pos = self.g.points[t]
        queue, asked = list(asks), []

        def handler(eng: RoundEngine, v: NodeId, inbox: list[Message]) -> bool:
            # one message is in flight at a time; only s, in round 0, runs without mail
            m = inbox[0] if inbox else None
            if m is None:
                eng.send(s, t, None, channel=Channel.LONGRANGE, tag="rt_query")
            elif m.tag == "rt_query":
                eng.send(t, s, {"x": pos.x, "y": pos.y}, channel=Channel.LONGRANGE, tag="rt_pos")
            elif m.tag == "rt_plan":
                answer = {"seq": m.payload["seq"], "chain": [[q.x, q.y] for q in asked.pop()]}
                eng.send(v, m.src, answer, channel=Channel.LONGRANGE, tag="rt_chain")
            else:
                # the answer starts hop 0, the data of hop seq starts hop
                # seq + 1, and a chain the hop its plan was asked for
                i = 0 if m.tag == "rt_pos" else m.payload["seq"] + (m.tag == "rt_data")
                if queue and queue[0][0] == i:
                    asked.append(queue.pop(0)[1])
                    ask = {"seq": i, "x": pos.x, "y": pos.y}
                    eng.send(v, self.root, ask, channel=Channel.LONGRANGE, tag="rt_plan")
                elif i < len(path) - 1:
                    eng.send(v, path[i + 1], {"seq": i}, channel=Channel.ADHOC, tag="rt_data")
            return True

        rounds = 2 + (len(path) - 1) + 2 * len(asks)
        rep = engine.run_sessions("query", {None: ([s], handler, rounds)})[None]
        return rep.rounds, rep.messages_longrange


def _extreme_points(points: Mapping[NodeId, Point], sub: Sequence[NodeId]) -> list[NodeId]:
    """Convex hull of a bay sub-path, ordered by position along it."""
    uniq = list(dict.fromkeys(sub))
    hull = {v for _, _, v in monotone_hull(sorted((*points[v], v) for v in uniq))}
    return [v for v in uniq if v in hull]


def _dedup_consecutive(path: Sequence[NodeId]) -> list[NodeId]:
    return [v for i, v in enumerate(path) if i == 0 or path[i - 1] != v]


def _udg_shortest(topo: HybridTopology, s: NodeId, t: NodeId) -> float:
    """Shortest unit-disk path length: Dijkstra from s on the cached matrix."""
    if s == t:
        return 0.0
    d = float(dijkstra(topo.udg_matrix(), directed=False, indices=topo.index_of(s))[topo.index_of(t)])
    if not math.isfinite(d):
        raise NoPathError(f"no unit-disk path between {s} and {t}")
    return d


def measure_competitiveness(topo: HybridTopology, results: Sequence[RouteResult]) -> dict:
    """Aggregate competitive ratios per case.

    Each result carries d(s,t) from `_udg_shortest` on `topo` as it stood
    when the query ran, so a later node move does not rewrite its ratio.
    """
    per_case: dict[str, dict] = {}
    overall_max = 0.0
    for r in results:
        slot = per_case.setdefault(r.case_taken, {"count": 0, "max_ratio": 0.0, "sum": 0.0})
        slot["count"] += 1
        slot["max_ratio"] = max(slot["max_ratio"], r.competitive_ratio)
        slot["sum"] += r.competitive_ratio
        overall_max = max(overall_max, r.competitive_ratio)
    for slot in per_case.values():
        slot["mean_ratio"] = slot["sum"] / slot["count"]
        del slot["sum"]
    return {"per_case": per_case, "max_ratio": overall_max, "count": len(results)}
