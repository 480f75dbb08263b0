"""Unit disk topology and its 2-localized Delaunay planarization.

The planar backbone is built from two ingredients over the unit disk
graph: Gabriel edges (diametral disk empty of every other node) and
edges of triangles whose side lengths are all within radio range and
whose circumdisk contains no node reachable within two hops of any
corner.  Both tests are exact (geometry's filtered predicates), and
exact cocircular ties are broken by Simulation of Simplicity, so the
union is planar by construction; it is embedded via a rotation system
so faces can be walked counterclockwise, and Euler's formula checks it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.spatial import cKDTree

from .errors import (
    DegenerateInputError,
    DisconnectedError,
    GeometryInconsistencyError,
    NodeLookupError,
)
from .geometry import (
    _CCW_BOUND,
    _U,
    Point,
    angle_key,
    circumcenter,
    dist,
    in_diametral_disk,
    incircle_sos,
    orient2d,
)

NodeId = int
Edge = tuple[NodeId, NodeId]  # always stored with u < v

UNIT_RANGE = 1.0
# nodes this far apart or closer share a radio link; the slack keeps a
# pair whose computed distance rounds just above the range linked
_LINK_DISTANCE = UNIT_RANGE * (1.0 + 1e-12)


def edge_key(u: NodeId, v: NodeId) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass
class HybridTopology:
    """Node positions plus the two edge sets of a hybrid network.

    `adhoc` is the symmetric unit-disk adjacency (radio links).  `knows`
    holds the directed knowledge relation: w in knows[v] means v can
    address w over the long-range channel.  Knowledge starts out equal
    to the radio neighborhood and only grows through introductions,
    unless a node explicitly forgets an id.
    """

    points: dict[NodeId, Point]
    adhoc: dict[NodeId, set[NodeId]]
    knows: dict[NodeId, set[NodeId]]

    def __post_init__(self) -> None:
        self._ids = sorted(self.points)
        self._index = {v: i for i, v in enumerate(self._ids)}
        n = len(self._ids)
        self._coords = np.fromiter(
            chain.from_iterable(self.points[v] for v in self._ids), float, 2 * n
        ).reshape(n, 2)
        self._udg: csr_matrix | None = None

    @property
    def ids(self) -> list[NodeId]:
        return self._ids

    @property
    def coords(self) -> np.ndarray:
        return self._coords

    def index_of(self, v: NodeId) -> int:
        return self._index[v]

    def node_knows(self, v: NodeId, w: NodeId) -> bool:
        return w in self.knows.get(v, ())

    def learn(self, v: NodeId, w: NodeId) -> None:
        if w in self.points and v != w:
            self.knows[v].add(w)

    def forget(self, v: NodeId, w: NodeId) -> None:
        self.knows[v].discard(w)

    def udg_matrix(self) -> csr_matrix:
        """Radio links weighted by length, rows and columns in `ids` order.

        Built on first use and kept until a node moves.
        """
        if self._udg is None:
            rows, cols, vals = [], [], []
            for v in self._ids:
                pv = self.points[v]
                for w in self.adhoc[v]:
                    rows.append(self._index[v])
                    cols.append(self._index[w])
                    vals.append(dist(pv, self.points[w]))
            n = len(self._ids)
            self._udg = csr_matrix((vals, (rows, cols)), shape=(n, n))
        return self._udg

    def move_node(self, v: NodeId, pos: Point) -> None:
        """Reposition one node and refresh its radio links."""
        if v not in self.points:
            raise NodeLookupError(f"unknown node {v}")
        self._udg = None
        self.points[v] = Point(*pos)
        self._coords[self._index[v]] = pos
        for w in self.adhoc[v]:
            self.adhoc[w].discard(v)
        self.adhoc[v] = set()
        d = np.hypot(*(self._coords - self._coords[self._index[v]]).T)
        for i in np.nonzero(d <= _LINK_DISTANCE)[0]:
            w = self._ids[i]
            if w != v:
                self.adhoc[v].add(w)
                self.adhoc[w].add(v)
                self.knows[v].add(w)
                self.knows[w].add(v)


def build_udg(points: Mapping[NodeId, Point]) -> HybridTopology:
    """Unit disk graph over the given positions; rejects disconnected input."""
    if not points:
        raise DegenerateInputError("empty node set")
    if all(type(v) is int and type(p) is Point for v, p in points.items()):
        pts = dict(points)
    else:
        pts = {int(v): Point(*p) for v, p in points.items()}
    if len(set(pts.values())) != len(pts):
        raise DegenerateInputError("node positions must be pairwise distinct")
    topo = HybridTopology(points=pts, adhoc={}, knows={})
    ids = topo.ids
    adhoc: dict[NodeId, set[NodeId]] = {v: set() for v in ids}
    # one flat list read two at a time: no ndarray row per pair, no list per
    # pair, and the links land in the kd-tree's pair order
    pairs = cKDTree(topo.coords).query_pairs(r=_LINK_DISTANCE, output_type="ndarray")
    flat = iter(pairs.ravel().tolist())
    for i, j in zip(flat, flat):
        u, v = ids[i], ids[j]
        adhoc[u].add(v)
        adhoc[v].add(u)
    check_connected(adhoc)
    topo.adhoc = adhoc
    topo.knows = {v: set(adhoc[v]) for v in ids}
    return topo


def check_connected(adhoc: Mapping[NodeId, set[NodeId]]) -> None:
    """Raise DisconnectedError unless the radio links join every node."""
    start = min(adhoc)
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for w in adhoc[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) < len(adhoc):
        raise DisconnectedError(
            f"unit disk graph is disconnected: reached {len(seen)} of {len(adhoc)} nodes"
        )


def two_hop_neighborhood(topo: HybridTopology, v: NodeId) -> set[NodeId]:
    """Nodes within two radio hops of v, excluding v itself."""
    if v not in topo.points:
        raise NodeLookupError(f"unknown node {v}")
    out: set[NodeId] = set()
    for w in topo.adhoc[v]:
        out.add(w)
        out.update(topo.adhoc[w])
    out.discard(v)
    return out


@dataclass
class PlanarGraph:
    """Embedded planar graph with faces extracted from the rotation system."""

    points: dict[NodeId, Point]
    edges: set[Edge]
    adj: dict[NodeId, list[NodeId]] = field(default_factory=dict)  # CCW by angle
    faces: list[tuple[NodeId, ...]] = field(default_factory=list)
    outer_face: int = -1
    face_left: dict[tuple[NodeId, NodeId], int] = field(default_factory=dict)

    def finalize(self) -> None:
        self.adj = _rotation_system(self.points, self.edges)
        self.faces, self.face_left, self.outer_face = _extract_faces(self.points, self.adj)

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        return edge_key(u, v) in self.edges

    def is_blocked_face(self, f: int) -> bool:
        """The ring rule: holes (>= 4 nodes) and the outer face, which routes cannot cross."""
        return f == self.outer_face or len(self.faces[f]) >= 4


def _rotation_system(points: Mapping[NodeId, Point], edges: Iterable[Edge]) -> dict[NodeId, list[NodeId]]:
    adj: dict[NodeId, list[NodeId]] = {v: [] for v in points}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    for v, nbrs in adj.items():
        key = angle_key(points[v])
        nbrs.sort(key=lambda w: key(points[w]))
    return adj


def _extract_faces(
    points: Mapping[NodeId, Point], adj: Mapping[NodeId, list[NodeId]]
) -> tuple[list[tuple[NodeId, ...]], dict[tuple[NodeId, NodeId], int], int]:
    """Walk every face once.

    Successor rule: after arriving along u -> v, leave along the neighbor
    just before u in v's counterclockwise order.  Bounded faces then come
    out counterclockwise and the outer face clockwise.
    """
    pos_in = {
        v: {w: i for i, w in enumerate(nbrs)} for v, nbrs in adj.items()
    }
    faces: list[tuple[NodeId, ...]] = []
    face_left: dict[tuple[NodeId, NodeId], int] = {}
    visited: set[tuple[NodeId, NodeId]] = set()
    for start_v, nbrs in adj.items():
        for start_w in nbrs:
            if (start_v, start_w) in visited:
                continue
            cycle: list[NodeId] = []
            u, v = start_v, start_w
            while (u, v) not in visited:
                visited.add((u, v))
                cycle.append(u)
                nxt = adj[v]
                i = pos_in[v][u]
                w = nxt[(i - 1) % len(nxt)]
                u, v = v, w
            fi = len(faces)
            faces.append(tuple(cycle))
            for i in range(len(cycle)):
                face_left[(cycle[i], cycle[(i + 1) % len(cycle)])] = fi
    # the lowest of the leftmost nodes looks west into the outer face, which
    # lies past its last spoke counterclockwise
    v = min(adj, key=points.__getitem__)
    return faces, face_left, face_left[(v, adj[v][-1])] if adj[v] else 0


def _candidate_triangles(topo: HybridTopology) -> Iterable[tuple[NodeId, NodeId, NodeId]]:
    for u in topo.ids:
        nu = [w for w in topo.adhoc[u] if w > u]
        nu.sort()
        for i, v in enumerate(nu):
            av = topo.adhoc[v]
            for w in nu[i + 1 :]:
                if w in av:
                    yield (u, v, w)


def build_ldel2(topo: HybridTopology) -> PlanarGraph:
    """2-localized Delaunay planarization of the unit disk graph."""
    ids = topo.ids
    pts = topo.points
    tree = cKDTree(topo.coords)
    two_hop = {v: two_hop_neighborhood(topo, v) for v in ids}
    # every coordinate is below scale, so a float is within _U * scale
    scale = 1.0 + float(np.abs(topo.coords).max())
    edges: set[Edge] = set()

    # Gabriel edges: the closed diametral disk holds no other node, so of
    # the two diagonals of a cocircular cell, whose other corners sit on
    # the circle, neither is Gabriel. The midpoint, half-length and
    # cKDTree's distances are each off by a few _U * scale, so a query
    # widened by 64 of them misses no node of the closed disk.
    slack = 64.0 * _U * scale
    for u in ids:
        pu = pts[u]
        for v in topo.adhoc[u]:
            if v < u:
                continue
            pv = pts[v]
            mid = ((pu[0] + pv[0]) / 2.0, (pu[1] + pv[1]) / 2.0)
            near = tree.query_ball_point(mid, dist(pu, pv) / 2.0 + slack)
            if not any(ids[i] not in (u, v) and in_diametral_disk(pts[ids[i]], pu, pv) for i in near):
                edges.add(edge_key(u, v))

    # Triangles whose open circumdisk holds no node within two hops of a
    # corner. Exact cocircular ties go to Simulation of Simplicity on node
    # ids, so of a cocircular cell's two diagonals exactly one survives
    # and the union is planar by construction (Li, Calinescu & Wan 2002).
    for u, v, w in _candidate_triangles(topo):
        turn = orient2d(pts[u], pts[v], pts[w])
        if turn == 0:
            continue
        if turn < 0:
            v, w = w, v
        tri = (pts[u], pts[v], pts[w])
        witnesses = two_hop[u] | two_hop[v] | two_hop[w]
        near = _disk_candidates(tree, tri, scale)
        if any(
            x in witnesses and x not in (u, v, w) and incircle_sos((*tri, pts[x]), (u, v, w, x)) > 0
            for x in (witnesses if near is None else (ids[i] for i in near))
        ):
            continue
        edges.update((edge_key(u, v), edge_key(u, w), edge_key(v, w)))

    g = PlanarGraph(points=dict(pts), edges=edges)
    g.finalize()
    _check_euler(g)
    return g


def _disk_candidates(tree: cKDTree, tri: Sequence[Point], scale: float) -> list[int] | None:
    """Tree indices of a superset of the nodes in the ccw tri's closed circumdisk.

    None when the disk is wider than the node set, or when the triangle is
    so flat that its float cross product D is within twice its rounding
    error. Otherwise D is within half of the true one and, with legs of
    length at most L from the first corner, the translated Cramer solve
    puts the center within 48 * _U * R * (1 + L^2 / D) of the true one;
    cKDTree's distances are off by a few _U * scale. The query radius
    adds twice both.
    """
    a, b, c = tri
    left = (b[0] - a[0]) * (c[1] - a[1])
    right = (b[1] - a[1]) * (c[0] - a[0])
    det = left - right
    if not det > 2.0 * _CCW_BOUND * (abs(left) + abs(right)):
        return None
    center, r = circumcenter(a, b, c)
    legs = max(dist(a, b), dist(a, c)) ** 2
    reach = r + 128.0 * _U * (r * (1.0 + legs / det) + scale)
    return tree.query_ball_point(center, reach) if reach < scale else None


def _check_euler(g: PlanarGraph) -> None:
    v, e, f = len(g.points), len(g.edges), len(g.faces)
    if v - e + f != 2:
        raise GeometryInconsistencyError(
            f"Euler check failed: V={v} E={e} F={f} gives {v - e + f}"
        )

