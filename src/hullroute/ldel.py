"""Unit disk topology and its 2-localized Delaunay planarization.

The planar backbone is built from two ingredients over the unit disk
graph: Gabriel edges (diametral disk empty of every other node) and
edges of triangles whose side lengths are all within radio range and
whose circumdisk contains no node reachable within two hops of any
corner.  The union is planarized by a conflict pass that never removes
a Gabriel edge, then embedded via a rotation system so faces can be
walked counterclockwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
from .geometry import EPS, Point, circumcenter, dist, polygon_signed_area

NodeId = int
Edge = tuple[NodeId, NodeId]  # always stored with u < v


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
    radius: float = 1.0

    def __post_init__(self) -> None:
        self._ids = sorted(self.points)
        self._index = {v: i for i, v in enumerate(self._ids)}
        self._coords = np.array([self.points[v] for v in self._ids], dtype=float)
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
        for i in np.nonzero(d <= self.radius)[0]:
            w = self._ids[i]
            if w != v:
                self.adhoc[v].add(w)
                self.adhoc[w].add(v)
                self.knows[v].add(w)
                self.knows[w].add(v)


def build_udg(points: Mapping[NodeId, Point], radius: float = 1.0) -> HybridTopology:
    """Unit disk graph over the given positions; rejects disconnected input."""
    if not points:
        raise DegenerateInputError("empty node set")
    pts = {int(v): Point(*p) for v, p in points.items()}
    if len(set(pts.values())) != len(pts):
        raise DegenerateInputError("node positions must be pairwise distinct")
    ids = sorted(pts)
    coords = np.array([pts[v] for v in ids], dtype=float)
    tree = cKDTree(coords)
    pairs = tree.query_pairs(r=radius * (1.0 + 1e-12), output_type="ndarray")
    adhoc: dict[NodeId, set[NodeId]] = {v: set() for v in ids}
    for i, j in pairs:
        u, v = ids[int(i)], ids[int(j)]
        adhoc[u].add(v)
        adhoc[v].add(u)
    # connectivity
    seen = {ids[0]}
    stack = [ids[0]]
    while stack:
        u = stack.pop()
        for w in adhoc[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) < len(ids):
        raise DisconnectedError(
            f"unit disk graph is disconnected: reached {len(seen)} of {len(ids)} nodes"
        )
    knows = {v: set(adhoc[v]) for v in ids}
    return HybridTopology(points=pts, adhoc=adhoc, knows=knows, radius=radius)


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
    edge_kind: dict[Edge, str]
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
        """Faces a route cannot cross: holes (>= 4 nodes) and the outer face."""
        return f == self.outer_face or len(self.faces[f]) >= 4

    def neighbors(self, v: NodeId) -> list[NodeId]:
        return self.adj[v]


def _rotation_system(points: Mapping[NodeId, Point], edges: Iterable[Edge]) -> dict[NodeId, list[NodeId]]:
    adj: dict[NodeId, list[NodeId]] = {v: [] for v in points}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    for v, nbrs in adj.items():
        pv = points[v]
        nbrs.sort(key=lambda w: math.atan2(points[w][1] - pv[1], points[w][0] - pv[0]))
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
    if len(faces) == 1:
        return faces, face_left, 0
    negatives = [
        fi
        for fi, cyc in enumerate(faces)
        if polygon_signed_area([points[v] for v in cyc]) < 0
    ]
    if len(negatives) != 1:
        raise GeometryInconsistencyError(
            f"expected exactly one clockwise face, found {len(negatives)}"
        )
    return faces, face_left, negatives[0]


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

    edges: set[Edge] = set()
    kind: dict[Edge, str] = {}
    # smallest supporting circumradius per edge, for the conflict pass
    support_r: dict[Edge, float] = {}

    # Gabriel edges: any node inside the diametral disk of a radio link is
    # itself a common neighbor, so scanning all nodes equals scanning 1-hop.
    # The disk is closed: of the two diagonals of a cocircular cell, whose
    # other corners sit on the circle, neither is Gabriel.
    for u in ids:
        pu = pts[u]
        for v in topo.adhoc[u]:
            if v < u:
                continue
            pv = pts[v]
            mid = ((pu[0] + pv[0]) / 2.0, (pu[1] + pv[1]) / 2.0)
            r = dist(pu, pv) / 2.0
            near = tree.query_ball_point(mid, r * (1.0 + EPS))
            if all(ids[i] in (u, v) for i in near):
                e = edge_key(u, v)
                edges.add(e)
                kind[e] = "gabriel"
                support_r[e] = r

    for u, v, w in _candidate_triangles(topo):
        pu, pv, pw = pts[u], pts[v], pts[w]
        try:
            center, r = circumcenter(pu, pv, pw)
        except DegenerateInputError:
            continue
        inside = tree.query_ball_point(center, r * (1.0 - EPS))
        hu, hv, hw = two_hop[u], two_hop[v], two_hop[w]
        ok = True
        for i in inside:
            x = ids[i]
            if x in (u, v, w):
                continue
            if x in hu or x in hv or x in hw:
                ok = False
                break
        if not ok:
            continue
        for a, b in ((u, v), (u, w), (v, w)):
            e = edge_key(a, b)
            if e not in edges:
                edges.add(e)
                kind[e] = "triangle"
                support_r[e] = r
            elif kind[e] == "triangle":
                support_r[e] = min(support_r[e], r)

    _conflict_pass(pts, edges, kind, support_r)

    g = PlanarGraph(points=dict(pts), edges=edges, edge_kind=kind)
    g.finalize()
    _check_euler(g)
    return g


def _conflict_pass(
    pts: Mapping[NodeId, Point],
    edges: set[Edge],
    kind: dict[Edge, str],
    support_r: dict[Edge, float],
) -> None:
    """Drop crossing edges; Gabriel edges always survive.

    Theory says the union is already planar, so this is a safety net for
    near-degenerate float decisions.  Between two crossing non-Gabriel
    edges the one whose smallest supporting circumcircle is larger loses;
    ties fall back to the lexicographically larger edge id.
    """
    from .geometry import segments_properly_intersect

    cell = {}
    size = 1.0
    for e in edges:
        u, v = e
        cx = int(min(pts[u][0], pts[v][0]) / size)
        cy = int(min(pts[u][1], pts[v][1]) / size)
        for dx in (0, 1):
            for dy in (0, 1):
                cell.setdefault((cx + dx, cy + dy), []).append(e)
    doomed: set[Edge] = set()
    seen_pairs: set[tuple[Edge, Edge]] = set()
    for bucket in cell.values():
        for i, e1 in enumerate(bucket):
            for e2 in bucket[i + 1 :]:
                pair = (e1, e2) if e1 < e2 else (e2, e1)
                if pair in seen_pairs:
                    continue
                seen_pairs.add(pair)
                a, b = pair
                if set(a) & set(b):
                    continue
                if not segments_properly_intersect(pts[a[0]], pts[a[1]], pts[b[0]], pts[b[1]]):
                    continue
                ga, gb = kind[a] == "gabriel", kind[b] == "gabriel"
                if ga and gb:
                    raise GeometryInconsistencyError(f"two Gabriel edges cross: {a} x {b}")
                if ga:
                    doomed.add(b)
                elif gb:
                    doomed.add(a)
                else:
                    ra, rb = support_r[a], support_r[b]
                    if ra > rb + 1e-12:
                        doomed.add(a)
                    elif rb > ra + 1e-12:
                        doomed.add(b)
                    else:
                        doomed.add(max(a, b))
    for e in doomed:
        edges.discard(e)
        kind.pop(e, None)


def _check_euler(g: PlanarGraph) -> None:
    v, e, f = len(g.points), len(g.edges), len(g.faces)
    if v - e + f != 2:
        raise GeometryInconsistencyError(
            f"Euler check failed: V={v} E={e} F={f} gives {v - e + f}"
        )

