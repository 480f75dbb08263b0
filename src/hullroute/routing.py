"""Path finding over the planarized radio network.

Three layers live here. `chew_route` walks the corridor of triangles that
the straight segment between two nodes crosses, and either reaches the far
node or stops on the first node of an obstructing hole. Above it sits one
waypoint graph over the hole hulls: the full visibility graph, or its
constrained-Delaunay thinning. `Router` ties everything together: it
classifies a query into one of five cases by hull containment, fetches
waypoint node ids from the backend it built, realizes every leg with
`chew_route`, and drives the actual transmission through the round engine
so that data only ever rides ad hoc links.
"""

from __future__ import annotations

import heapq
import logging
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from scipy.sparse.csgraph import dijkstra

from .errors import (
    AssumptionViolationError,
    DegenerateInputError,
    DispatchError,
    GeometryInconsistencyError,
    NoPathError,
    NodeLookupError,
    NotReadyError,
)
from .geometry import (
    Orientation,
    Point,
    convex_hull_oracle,
    cross,
    dist,
    point_in_polygon,
    segment_crosses_polygon,
    segment_polygon_params,
    segments_properly_intersect,
    _on_segment,
    orientation,
)
from .holes import (
    KIND_INNER,
    KIND_OUTER_BOUNDARY,
    KIND_OUTER_HOLE,
    HoleRing,
    HullAbstraction,
)
from .ldel import HybridTopology, NodeId, PlanarGraph, edge_key
from .simengine import Channel, RoundEngine

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
    angles = [math.atan2(g.points[w].y - ps.y, g.points[w].x - ps.x) for w in spokes]
    a, b = s, spokes[bisect_right(angles, math.atan2(pt.y - ps.y, pt.x - ps.x)) - 1]
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
    """Convex hull of one hole, as both node ids and positions (ccw)."""

    hole_id: int
    nodes: tuple[NodeId, ...]
    pts: tuple[Point, ...]


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
        all(orientation(poly[i], poly[(i + 1) % n], q) is not Orientation.LEFT for q in pts)
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
    sides = {orientation(a, b, q) for q in pts}
    return Orientation.LEFT in sides and Orientation.RIGHT in sides


def _check_disjoint(hulls: Sequence[HullPolygon]) -> None:
    """Reject hull pairs whose interiors overlap; shared edges are allowed."""
    for i, a in enumerate(hulls):
        for b in hulls[i + 1 :]:
            if not (_apart(a.pts, b.pts) or _apart(b.pts, a.pts)):
                raise AssumptionViolationError(
                    f"hulls {a.hole_id} and {b.hole_id} intersect"
                )


def _blocked(a: Point, b: Point, hulls: Sequence[HullPolygon]) -> bool:
    return any(_crosses_hull(a, b, h.pts) for h in hulls)


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
    """All-pairs visibility over hull vertices; hull edges always included."""
    _check_disjoint(hulls)
    positions, boundary = _hull_vertex_sets(hulls)
    adj: dict[NodeId, dict[NodeId, float]] = {v: {} for v in positions}
    verts = sorted(positions)
    for i, u in enumerate(verts):
        for v in verts[i + 1 :]:
            if edge_key(u, v) in boundary or not _blocked(positions[u], positions[v], hulls):
                w = dist(positions[u], positions[v])
                adj[u][v] = w
                adj[v][u] = w
    return WaypointGraph(list(hulls), positions, adj, boundary)


def _angle_at(w: Point, u: Point, v: Point) -> float:
    ax, ay = u.x - w.x, u.y - w.y
    bx, by = v.x - w.x, v.y - w.y
    na = math.hypot(ax, ay)
    nb = math.hypot(bx, by)
    if na == 0.0 or nb == 0.0:
        return math.pi
    c = (ax * bx + ay * by) / (na * nb)
    return math.acos(max(-1.0, min(1.0, c)))


def build_overlay_delaunay(vis: WaypointGraph) -> WaypointGraph:
    """Constrained Delaunay thinning of a visibility graph; hull edges stay.

    A visible edge uv admits an empty circle among the witness set iff the
    largest inscribed angle on its left plus the largest on its right stays
    below pi. Witnesses are the vertices visible from both endpoints, which
    is what confines circles to the free space around the hulls.
    """
    positions, boundary, vadj = vis.positions, vis.constraints, vis.adj
    n = len(positions)
    kept: list[tuple[NodeId, NodeId]] = []
    for u, nbrs in vadj.items():
        for v in nbrs:
            if v < u:
                continue
            e = (u, v)
            if e in boundary:
                kept.append(e)
                continue
            pu, pv = positions[u], positions[v]
            max_l = 0.0
            max_r = 0.0
            ok = True
            for w in nbrs:
                if w == v or w not in vadj[v]:
                    continue
                pw = positions[w]
                side = cross(pu, pv, pw)
                if abs(side) <= 1e-12:
                    if _on_segment(pw, pu, pv):
                        ok = False  # a point on the chord defeats every circle
                        break
                    continue
                ang = _angle_at(pw, pu, pv)
                if side > 0.0:
                    max_l = max(max_l, ang)
                else:
                    max_r = max(max_r, ang)
            if ok and max_l + max_r < math.pi - 1e-12:
                kept.append(e)

    # planarity pass: constraints always win; among the rest the longer
    # edge of a crossing pair dies, ties by lexicographic order
    def length(e):
        return vadj[e[0]][e[1]]

    kept_sorted = sorted(kept, key=lambda e: (e not in boundary, length(e), e))
    final: list[tuple[NodeId, NodeId]] = []
    for e in kept_sorted:
        pa, pb = positions[e[0]], positions[e[1]]
        clash = False
        for f in final:
            if segments_properly_intersect(pa, pb, positions[f[0]], positions[f[1]]):
                clash = True
                break
        if not clash:
            final.append(e)

    if n >= 3 and len(final) > 3 * n - 6:
        raise GeometryInconsistencyError(
            f"overlay edge count {len(final)} exceeds planar bound for {n} vertices"
        )
    adj: dict[NodeId, dict[NodeId, float]] = {v: {} for v in positions}
    for u, v in final:
        w = length((u, v))
        adj[u][v] = w
        adj[v][u] = w
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
        p = points[x]
        for v, q in graph.positions.items():
            if not _blocked(p, q, graph.hulls):
                link(tmp, v, dist(p, q))
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
    backend: str = BACKEND_VIS
    e_route: int = 0
    legs: list[tuple[float, float]] = field(default_factory=list)


@dataclass
class _RingCtx:
    """A classified ring plus everything routing needs about it."""

    ring: HoleRing
    abstraction: HullAbstraction
    polygon: HullPolygon
    ring_pts: list[Point]
    pos_of: dict[NodeId, int]
    hull_set: set[NodeId]
    bay_polys: list[list[Point]]
    # outer-hole rings are open arcs: their chord is virtual, walks on the
    # members list must never wrap across it
    closed: bool = True


class Router:
    """Five-case router over a frozen set of hull abstractions."""

    def __init__(
        self,
        g: PlanarGraph,
        rings: Sequence[HoleRing],
        abstractions: Mapping[int, HullAbstraction],
        backend: str = BACKEND_VIS,
    ):
        if backend not in (BACKEND_VIS, BACKEND_ODEL):
            raise DispatchError(f"unknown backend {backend!r}")
        self.g = g
        self.backend = backend
        self.obstacles: list[_RingCtx] = []
        self.outer: _RingCtx | None = None
        self._face_ring: dict[frozenset, _RingCtx] = {}
        for ring in rings:
            if ring.kind is None:
                raise NotReadyError(f"ring {ring.ring_id} not classified yet")
            ab = abstractions.get(ring.ring_id)
            if ab is None:
                raise NotReadyError(f"ring {ring.ring_id} has no hull abstraction")
            ctx = self._make_ctx(ring, ab)
            if ring.kind == KIND_OUTER_BOUNDARY:
                self.outer = ctx
            else:
                self.obstacles.append(ctx)
                if ring.kind == KIND_INNER:
                    self._face_ring[frozenset(ring.members)] = ctx
        if self.outer is None:
            raise NotReadyError("outer boundary ring missing")
        vis = build_visibility_graph([c.polygon for c in self.obstacles])
        self.waypoints = vis if backend == BACKEND_VIS else build_overlay_delaunay(vis)
        self._replans = 0  # waypoint re-plans of the current query

    # -- construction helpers ----------------------------------------------

    def _make_ctx(self, ring: HoleRing, ab: HullAbstraction) -> _RingCtx:
        pts = [self.g.points[v] for v in ring.members]
        poly = hull_polygon(self.g.points, ring.ring_id, ab.hull_nodes)
        pos_of = {v: i for i, v in enumerate(ring.members)}
        bay_polys = []
        for bay in ab.bay_areas:
            a, b = bay.edge
            bay_polys.append(
                [self.g.points[a]]
                + [self.g.points[v] for v in bay.members]
                + [self.g.points[b]]
            )
        return _RingCtx(
            ring, ab, poly, pts, pos_of, set(ab.hull_nodes), bay_polys,
            closed=ring.kind != KIND_OUTER_HOLE,
        )

    # -- placement ----------------------------------------------------------

    def locate(self, v: NodeId) -> tuple[_RingCtx, int | None] | None:
        """(ring context, bay index) when v lies strictly inside a hull."""
        p = self.g.points[v]
        for ctx in self.obstacles:
            if _apart(ctx.polygon.pts, (p,)):
                continue
            for bi, bay in enumerate(ctx.abstraction.bay_areas):
                if v in bay.members:
                    return ctx, bi
            for bi, poly in enumerate(ctx.bay_polys):
                if len(poly) >= 3 and point_in_polygon(p, poly, strict=False):
                    return ctx, bi
            return ctx, None
        return None

    def _ring_of_face(self, face: int) -> _RingCtx:
        if face == self.g.outer_face:
            return self.outer
        ctx = self._face_ring.get(frozenset(self.g.faces[face]))
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

    def _nearest_hull(self, ctx: _RingCtx, v: NodeId) -> list[NodeId]:
        """Ring path from v to its closest hull node in hops, ties by id."""
        if v in ctx.hull_set:
            return [v]
        members = ctx.ring.members
        k = len(members)
        i = ctx.pos_of[v]
        offsets = range(1, k)
        for d in offsets:
            cands = []
            for j in (i + d, i - d):
                if ctx.closed:
                    j %= k
                elif not (0 <= j < k):
                    continue
                if members[j] in ctx.hull_set:
                    cands.append(members[j])
            if cands:
                return self._ring_walk(ctx, v, min(cands))
        raise GeometryInconsistencyError(f"ring {ctx.ring.ring_id} has no hull node")

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

    def _route_outside(self, s: NodeId, t: NodeId) -> tuple[list[NodeId], str, list[tuple[float, float]]]:
        path, out = chew_route(self.g, s, t)
        if isinstance(out, ReachedTarget):
            return path, "Visible", []
        legs: list[tuple[float, float]] = []
        budget = 4 * len(self.obstacles) + 8
        points = self.g.points
        while budget > 0:
            budget -= 1
            ctx = self._ring_of_face(out.face)
            walk = self._nearest_hull(ctx, out.node)
            path += walk[1:]
            chain = overlay_shortest_path(self.waypoints, path[-1], t, points)
            done = True
            for a, b in zip(chain, chain[1:]):
                leg_path, hit = self._leg(a, b)
                path += leg_path[1:]
                if hit is not None:
                    out = hit  # re-plan from the new hole node
                    self._replans += 1
                    done = False
                    break
                legs.append((dist(points[a], points[b]), _polyline_length(self.g, leg_path)))
            if done:
                return path, "Case1", legs
        raise NoPathError(f"waypoint replanning budget exhausted between {s} and {t}")

    # -- machinery inside one bay -----------------------------------------

    def _bay_core(self, ctx: _RingCtx, bay_idx: int | None, a: NodeId, b: NodeId) -> tuple[list[NodeId], int]:
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
        ds = self._bay_ds(ctx, bay_idx)

        params = [u for u in segment_polygon_params(pa, pb, ctx.ring_pts) if 1e-9 < u < 1.0 - 1e-9]
        if params:
            s_pt = Point(pa.x + (pb.x - pa.x) * params[0], pa.y + (pb.y - pa.y) * params[0])
            t_pt = Point(pa.x + (pb.x - pa.x) * params[-1], pa.y + (pb.y - pa.y) * params[-1])
        else:
            s_pt = t_pt = self.g.points[h0]
        p1 = self._ds_nearest(ctx, ds, s_pt)
        pt_node = self._ds_nearest(ctx, ds, t_pt)

        sub = self._bay_subpath(ctx, bay_idx, p1, pt_node)
        extremes = _extreme_points(self.g.points, sub)
        e_t = next(
            (e for e in extremes if not segment_crosses_polygon(self.g.points[e], pb, ctx.ring_pts)),
            extremes[-1] if extremes else None,
        )
        chain = extremes[: extremes.index(e_t) + 1] if e_t is not None else []

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

    def _bay_ds(self, ctx: _RingCtx, bay_idx: int | None) -> set[NodeId]:
        if bay_idx is not None:
            ds = ctx.abstraction.dominating_sets.get(bay_idx)
            if ds:
                return ds
        merged: set[NodeId] = set()
        for d in ctx.abstraction.dominating_sets.values():
            merged |= d
        return merged or set(ctx.ring.members)

    def _ds_nearest(self, ctx: _RingCtx, ds: set[NodeId], target: Point) -> NodeId:
        """DS node with fewest ring hops to the boundary point, ties by id."""
        members = ctx.ring.members
        k = len(members)
        anchor = None
        for i in range(k):
            if _on_segment(target, self.g.points[members[i]], self.g.points[members[(i + 1) % k]]):
                anchor = (i, (i + 1) % k)
                break
        if anchor is None:
            # target off the boundary (degenerate grazing); fall back to euclid
            return min(ds, key=lambda v: (dist(self.g.points[v], target), v))

        def hops(v: NodeId) -> int:
            iv = ctx.pos_of[v]
            if ctx.closed:
                return min(min((iv - j) % k, (j - iv) % k) for j in anchor)
            return min(abs(iv - j) for j in anchor)

        return min(ds, key=lambda v: (hops(v), v))

    def _bay_subpath(self, ctx: _RingCtx, bay_idx: int | None, p1: NodeId, pt: NodeId) -> list[NodeId]:
        """Boundary nodes from P1 to Pt, trimmed to the bay when one is known."""
        if bay_idx is not None:
            bay = ctx.abstraction.bay_areas[bay_idx]
            strip = [bay.edge[0], *bay.members, bay.edge[1]]
            if p1 in strip and pt in strip:
                i, j = strip.index(p1), strip.index(pt)
                return strip[i : j + 1] if i <= j else strip[j : i + 1][::-1]
        return self._ring_walk(ctx, p1, pt)

    # -- bay exits for cases 2-4 -----------------------------------------------

    def _bay_exit(self, ctx: _RingCtx, bay_idx: int | None, x: NodeId, toward: Point) -> NodeId:
        if bay_idx is None:
            return min(
                ctx.hull_set,
                key=lambda h: (dist(self.g.points[x], self.g.points[h]) + dist(self.g.points[h], toward), h),
            )
        a, b = ctx.abstraction.bay_areas[bay_idx].edge
        px = self.g.points[x]
        return min(
            (a, b),
            key=lambda h: (dist(px, self.g.points[h]) + dist(self.g.points[h], toward), h),
        )

    # -- public queries ----------------------------------------------------------

    def _open_query(self, engine: RoundEngine, s: NodeId, t: NodeId, case: str) -> RouteResult | None:
        """Reject a query mid-phase or on unknown nodes; answer s == t at once."""
        if engine._phase is not None:
            raise NotReadyError("route query during a protocol phase")
        if s not in self.g.points or t not in self.g.points:
            raise NodeLookupError(f"route endpoints {s},{t} not in graph")
        self._replans = 0
        if s == t:
            return RouteResult([s], 0.0, 0.0, 0.0, 1.0, case, 0, 0, self.backend)
        return None

    def route(self, engine: RoundEngine, s: NodeId, t: NodeId) -> RouteResult:
        if (trivial := self._open_query(engine, s, t, "Visible")) is not None:
            return trivial

        ls, lt = self.locate(s), self.locate(t)
        if ls is None and lt is None:
            case = "Case1"  # refined to Visible by _route_outside
        elif ls is not None and lt is not None:
            if ls[0] is lt[0]:
                case = "Case5" if ls[1] == lt[1] and ls[1] is not None else "Case4"
            else:
                case = "Case3"
        else:
            case = "Case2"

        try:
            path, case, legs, e_route = self._dispatch(case, s, t, ls, lt)
        except (NoPathError, GeometryInconsistencyError, DispatchError) as exc:
            raise type(exc)(f"{case}: {exc}") from exc

        path = _dedup_consecutive(path)
        _check_walkable(self.g, path)
        rounds, lr = self._transmit(engine, s, t, path)
        return self._finish(engine.topo, s, t, path, case, rounds, lr, legs, e_route)

    def _dispatch(self, case, s, t, ls, lt):
        pt_s = self.g.points[s]
        pt_t = self.g.points[t]
        if case == "Case1":
            path, case, legs = self._route_outside(s, t)
            return path, case, legs, 0
        if case == "Case5":
            ctx, bay = ls
            path, e_route = self._bay_core(ctx, bay, s, t)
            return path, case, [], e_route
        if case == "Case4":
            ctx = ls[0]
            exit_s = self._bay_exit(ctx, ls[1], s, pt_t)
            exit_t = self._bay_exit(ctx, lt[1], t, pt_s)
            return self._via_exits(s, t, exit_s, exit_t, ls, lt, case)
        if case == "Case3":
            exit_s = self._bay_exit(ls[0], ls[1], s, pt_t)
            exit_t = self._bay_exit(lt[0], lt[1], t, pt_s)
            return self._via_exits(s, t, exit_s, exit_t, ls, lt, case)
        # Case2: exactly one endpoint inside
        if ls is not None:
            exit_s = self._bay_exit(ls[0], ls[1], s, pt_t)
            return self._via_exits(s, t, exit_s, None, ls, None, case)
        exit_t = self._bay_exit(lt[0], lt[1], t, pt_s)
        return self._via_exits(s, t, None, exit_t, None, lt, case)

    def _via_exits(self, s, t, exit_s, exit_t, ls, lt, case):
        """Inside legs via bay machinery, outside leg via case-1 machinery."""
        path: list[NodeId] = [s]
        legs: list[tuple[float, float]] = []
        e_route = 0
        if exit_s is not None and exit_s != s:
            p, e = self._bay_core(ls[0], ls[1], s, exit_s)
            path += p[1:]
            e_route += e
        a = path[-1]
        b = exit_t if exit_t is not None else t
        if a != b:
            p, _, lg = self._route_outside(a, b)
            path += p[1:]
            legs += lg
        if exit_t is not None and exit_t != t:
            p, e = self._bay_core(lt[0], lt[1], exit_t, t)
            # core computed exit->t; our path already sits at exit
            path += p[1:]
            e_route += e
        return path, case, legs, e_route

    def route_bay(self, engine: RoundEngine, s: NodeId, t: NodeId) -> RouteResult:
        if (trivial := self._open_query(engine, s, t, "Case5")) is not None:
            return trivial
        ls, lt = self.locate(s), self.locate(t)
        if ls is None or lt is None or ls[0] is not lt[0] or ls[1] != lt[1] or ls[1] is None:
            raise DispatchError(f"{s} and {t} do not share a bay")
        path, e_route = self._bay_core(ls[0], ls[1], s, t)
        path = _dedup_consecutive(path)
        _check_walkable(self.g, path)
        rounds, lr = self._transmit(engine, s, t, path)
        res = self._finish(engine.topo, s, t, path, "Case5", rounds, lr, [], e_route)
        bound = (2 + e_route) * CHEW_BOUND
        if res.competitive_ratio > bound + 1e-9:
            raise GeometryInconsistencyError(
                f"Case5: ratio {res.competitive_ratio:.3f} exceeds (2+{e_route})*5.9"
            )
        return res

    # -- engine traffic -----------------------------------------------------------

    def _transmit(self, engine: RoundEngine, s: NodeId, t: NodeId, path: Sequence[NodeId]) -> tuple[int, int]:
        # position handshake: one long-range round trip
        engine.send(s, t, None, channel=Channel.LONGRANGE, tag="rt_query")
        engine.step_round()
        engine.collect(t)
        engine.send(t, s, {"x": self.g.points[t].x, "y": self.g.points[t].y},
                    channel=Channel.LONGRANGE, tag="rt_pos")
        engine.step_round()
        engine.collect(s)
        # data rides ad hoc links only, one hop per round
        for i, (u, v) in enumerate(zip(path, path[1:])):
            engine.send(u, v, {"seq": i}, channel=Channel.ADHOC, tag="rt_data")
            engine.step_round()
            engine.collect(v)
        return 2 + (len(path) - 1), 2

    def _finish(self, topo, s, t, path, case, rounds, lr, legs, e_route) -> RouteResult:
        if path[0] != s or path[-1] != t:
            raise GeometryInconsistencyError(f"{case}: path endpoints {path[0]},{path[-1]} != {s},{t}")
        length = _polyline_length(self.g, path)
        sl = dist(self.g.points[s], self.g.points[t])
        d = _udg_shortest(topo, s, t)
        ratio = length / d if d > 0 else 1.0
        log.debug("query %d->%d: %s, %d hops, %d replans", s, t, case, len(path) - 1, self._replans)
        return RouteResult(list(path), length, d, sl, ratio, case, rounds, lr,
                           self.backend, e_route, legs)


def _extreme_points(points: Mapping[NodeId, Point], sub: Sequence[NodeId]) -> list[NodeId]:
    """Convex hull of a bay sub-path, ordered by position along it."""
    uniq = list(dict.fromkeys(sub))
    if len(uniq) <= 2:
        return uniq
    pts = {v: points[v] for v in uniq}
    try:
        hull = convex_hull_oracle(list(pts.values()))
    except DegenerateInputError:  # the sub-path is collinear
        return [uniq[0], uniq[-1]]
    hull_set = {(p.x, p.y) for p in hull}
    order = {v: i for i, v in enumerate(uniq)}
    ex = [v for v in uniq if (pts[v].x, pts[v].y) in hull_set]
    ex.sort(key=lambda v: order[v])
    return ex


def _dedup_consecutive(path: Sequence[NodeId]) -> list[NodeId]:
    out: list[NodeId] = []
    for v in path:
        if not out or out[-1] != v:
            out.append(v)
    return out


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
        if not r.path:
            continue
        slot = per_case.setdefault(r.case_taken, {"count": 0, "max_ratio": 0.0, "sum": 0.0})
        slot["count"] += 1
        slot["max_ratio"] = max(slot["max_ratio"], r.competitive_ratio)
        slot["sum"] += r.competitive_ratio
        overall_max = max(overall_max, r.competitive_ratio)
    for slot in per_case.values():
        slot["mean_ratio"] = slot["sum"] / slot["count"]
        del slot["sum"]
    return {"per_case": per_case, "max_ratio": overall_max, "count": len(results)}
