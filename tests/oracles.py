"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately naive: O(n^2)/O(n^3) scans, direct
formulas, no shared code with the package beyond the Point tuple. The one
exception is `brute_corridor`, which uses the package's segment and
orientation predicates, so that it checks the corridor walk rather than
the predicates.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from itertools import combinations

EPS = 1e-12


def odist(p, q):
    return math.hypot(p[0] - q[0], p[1] - q[1])


def ocircumcircle(a, b, c):
    """Center/radius by solving the perpendicular bisector equations."""
    d = 2.0 * (a[0] * (b[1] - c[1]) + b[0] * (c[1] - a[1]) + c[0] * (a[1] - b[1]))
    if d == 0.0:
        raise ValueError("collinear")
    a2, b2, c2 = (a[0] ** 2 + a[1] ** 2), (b[0] ** 2 + b[1] ** 2), (c[0] ** 2 + c[1] ** 2)
    ux = (a2 * (b[1] - c[1]) + b2 * (c[1] - a[1]) + c2 * (a[1] - b[1])) / d
    uy = (a2 * (c[0] - b[0]) + b2 * (a[0] - c[0]) + c2 * (b[0] - a[0])) / d
    return (ux, uy), odist((ux, uy), a)


def brute_udg_edges(points: dict, radius: float = 1.0):
    """All unordered pairs at distance <= radius, by pairwise scan."""
    ids = sorted(points)
    return {
        (u, v)
        for u, v in combinations(ids, 2)
        if odist(points[u], points[v]) <= radius * (1.0 + 1e-12)
    }


def brute_hops(points: dict, edges, src: int):
    """BFS hop counts over an undirected edge set."""
    adj: dict[int, set] = {v: set() for v in points}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    hops = {src: 0}
    q = deque([src])
    while q:
        u = q.popleft()
        for w in adj[u]:
            if w not in hops:
                hops[w] = hops[u] + 1
                q.append(w)
    return hops


def brute_delaunay_triangles(points: dict):
    """Triangles of Del(V): circumdisk strictly empty of every other node."""
    ids = sorted(points)
    out = []
    for a, b, c in combinations(ids, 3):
        pa, pb, pc = points[a], points[b], points[c]
        try:
            center, r = ocircumcircle(pa, pb, pc)
        except ValueError:
            continue
        ok = True
        for w in ids:
            if w in (a, b, c):
                continue
            if odist(points[w], center) < r * (1.0 - 1e-12):
                ok = False
                break
        if ok:
            out.append((a, b, c))
    return out


def brute_gabriel_edges(points: dict, radius: float = 1.0):
    """UDG edges whose diametral disk is strictly empty of other nodes."""
    out = set()
    for u, v in brute_udg_edges(points, radius):
        pu, pv = points[u], points[v]
        m = ((pu[0] + pv[0]) / 2.0, (pu[1] + pv[1]) / 2.0)
        r = odist(pu, pv) / 2.0
        if all(
            odist(points[w], m) >= r * (1.0 - 1e-12)
            for w in points
            if w not in (u, v)
        ):
            out.add((u, v))
    return out


def shoelace(pts):
    area = 0.0
    n = len(pts)
    for i in range(n):
        x1, y1 = pts[i]
        x2, y2 = pts[(i + 1) % n]
        area += x1 * y2 - x2 * y1
    return area / 2.0


def polygon_orientation(pts):
    """+1 for a counterclockwise simple polygon, -1 for a clockwise one: the sign of its
    shoelace sum, exact on the integer-scaled coordinates."""
    _, pts = _integers((), pts)
    area = sum(x1 * y2 - x2 * y1 for (x1, y1), (x2, y2) in zip(pts, pts[1:] + pts[:1]))
    return (area > 0) - (area < 0)


def brute_hull(pts):
    """Hull as sorted vertex set, via gift wrapping (Jarvis march)."""
    uniq = sorted(set(tuple(p) for p in pts))
    if len(uniq) < 3:
        return uniq

    def crs(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    start = uniq[0]
    hull = [start]
    cur = start
    while True:
        cand = None
        for q in uniq:
            if q == cur:
                continue
            if cand is None:
                cand = q
                continue
            c = crs(cur, cand, q)
            if c > 1e-12 or (abs(c) <= 1e-12 and odist(cur, q) > odist(cur, cand)):
                # q is further counterclockwise (or further out on the same ray)
                cand = q
        if cand == start:
            break
        hull.append(cand)
        cur = cand
        if len(hull) > len(uniq) + 1:
            raise RuntimeError("gift wrapping failed to close")
    return sorted(hull)


def brute_hull_ccw(pts):
    """Hull as a ccw cycle starting at the lexicographic minimum.

    Reuses the gift-wrapping march (which walks clockwise) and reverses
    the cycle around its fixed starting vertex.
    """
    uniq = sorted(set(tuple(p) for p in pts))
    if len(uniq) < 3:
        return uniq

    def crs(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    start = uniq[0]
    hull = [start]
    cur = start
    while True:
        cand = None
        for q in uniq:
            if q == cur:
                continue
            if cand is None:
                cand = q
                continue
            c = crs(cur, cand, q)
            if c > 1e-12 or (abs(c) <= 1e-12 and odist(cur, q) > odist(cur, cand)):
                cand = q
        if cand == start:
            break
        hull.append(cand)
        cur = cand
        if len(hull) > len(uniq) + 1:
            raise RuntimeError("gift wrapping failed to close")
    return [hull[0]] + hull[1:][::-1]


def brute_outer_holes(points: dict, members, hull_nodes, radius: float = 1.0):
    """Outer-hole arcs of a ring: walks by index between sorted hull positions.

    Each pair of hull nodes adjacent in ring order spans the arc from one
    to the other, both included. An arc is an outer hole when its chord
    is longer than `radius` and the arc with its chord encloses area,
    found by an exact shoelace sum over the coordinates.
    """
    k = len(members)
    idxs = sorted(members.index(h) for h in hull_nodes)
    out = []
    for a, b in zip(idxs, idxs[1:] + [idxs[0] + k]):
        arc = [members[j % k] for j in range(a, b + 1)]
        if odist(points[arc[0]], points[arc[-1]]) <= radius:
            continue
        pts = [(Fraction(points[v][0]), Fraction(points[v][1])) for v in arc]
        twice_area = sum(
            p[0] * q[1] - q[0] * p[1] for p, q in zip(pts, pts[1:] + pts[:1])
        )
        if twice_area != 0:
            out.append(arc)
    return out


def brute_arc_min(members, start, span):
    """Minimum id over the half-open ring arc (start -> start+span]."""
    k = len(members)
    i = members.index(start)
    return min(members[(i + s) % k] for s in range(1, span + 1))


def brute_dijkstra(points: dict, edges, src: int):
    """Plain Dijkstra with Euclidean weights over an undirected edge set."""
    import heapq

    adj: dict[int, list] = {v: [] for v in points}
    for u, v in edges:
        w = odist(points[u], points[v])
        adj[u].append((v, w))
        adj[v].append((u, w))
    dist = {src: 0.0}
    heap = [(0.0, src)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist.get(u, float("inf")):
            continue
        for v, w in adj[u]:
            nd = d + w
            if nd < dist.get(v, float("inf")) - 1e-15:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist

def path_ds_optimum(m: int) -> int:
    """Minimum dominating set size of a path with m vertices."""
    return math.ceil(m / 3)


def brute_min_path_ds(m: int) -> int:
    """Exhaustive minimum dominating set of a path, for small m."""
    best = m
    for mask in range(1 << m):
        members = [i for i in range(m) if mask >> i & 1]
        if not members:
            if m == 0:
                return 0
            continue
        covered = set()
        for i in members:
            covered.update({i - 1, i, i + 1})
        if set(range(m)) <= covered:
            best = min(best, len(members))
    return best


def brute_visible(a, b, hole_polygons):
    """Segment ab blocked iff it passes through any hole polygon's interior."""

    def seg_int(p1, p2, q1, q2):
        def crs(o, s, t):
            return (s[0] - o[0]) * (t[1] - o[1]) - (s[1] - o[1]) * (t[0] - o[0])

        d1, d2 = crs(q1, q2, p1), crs(q1, q2, p2)
        d3, d4 = crs(p1, p2, q1), crs(p1, p2, q2)
        return ((d1 > 1e-12 and d2 < -1e-12) or (d1 < -1e-12 and d2 > 1e-12)) and (
            (d3 > 1e-12 and d4 < -1e-12) or (d3 < -1e-12 and d4 > 1e-12)
        )

    def inside(p, poly):
        c = False
        n = len(poly)
        for i in range(n):
            u, v = poly[i], poly[(i + 1) % n]
            if (u[1] > p[1]) != (v[1] > p[1]):
                xi = u[0] + (p[1] - u[1]) * (v[0] - u[0]) / (v[1] - u[1])
                if p[0] < xi:
                    c = not c
        return c

    for poly in hole_polygons:
        n = len(poly)
        for i in range(n):
            if seg_int(a, b, poly[i], poly[(i + 1) % n]):
                return False
        for k in range(1, 40):
            t = k / 40.0
            mid = (a[0] + (b[0] - a[0]) * t, a[1] + (b[1] - a[1]) * t)
            if inside(mid, poly):
                return False
    return True


def brute_two_hop(points: dict, radius: float = 1.0):
    """Per node: nodes at BFS distance 1 or 2 over the unit disk graph."""
    edges = brute_udg_edges(points, radius)
    out = {}
    for v in points:
        hops = brute_hops(points, edges, v)
        out[v] = {w for w, h in hops.items() if 1 <= h <= 2}
    return out


def brute_ldel2(points: dict, radius: float = 1.0):
    """Independent localized Delaunay construction.

    Gabriel edges plus edges of short triangles whose circumdisk is empty
    of the two-hop neighborhoods of the corners, then the same crossing
    resolution the implementation is required to apply.  Returns
    (edges, gabriel_edges, triangles_kept).
    """
    two_hop = brute_two_hop(points, radius)
    gabriel = brute_gabriel_edges(points, radius)
    support = {}
    kind = {}
    for e in gabriel:
        kind[e] = "gabriel"
        support[e] = 0.0
    tris = []
    ids = sorted(points)
    for a, b, c in combinations(ids, 3):
        pa, pb, pc = points[a], points[b], points[c]
        if (
            odist(pa, pb) > radius * (1 + 1e-12)
            or odist(pa, pc) > radius * (1 + 1e-12)
            or odist(pb, pc) > radius * (1 + 1e-12)
        ):
            continue
        try:
            center, r = ocircumcircle(pa, pb, pc)
        except ValueError:
            continue
        scope = two_hop[a] | two_hop[b] | two_hop[c]
        if any(
            odist(points[w], center) < r * (1.0 - 1e-12)
            for w in scope
            if w not in (a, b, c)
        ):
            continue
        tris.append((a, b, c))
        for e in ((a, b), (a, c), (b, c)):
            if e not in kind:
                kind[e] = "triangle"
                support[e] = r
            elif kind[e] == "triangle":
                support[e] = min(support[e], r)

    def crosses(e, f):
        if set(e) & set(f):
            return False
        p1, p2 = points[e[0]], points[e[1]]
        q1, q2 = points[f[0]], points[f[1]]

        def crs(o, s, t):
            return (s[0] - o[0]) * (t[1] - o[1]) - (s[1] - o[1]) * (t[0] - o[0])

        d1, d2 = crs(q1, q2, p1), crs(q1, q2, p2)
        d3, d4 = crs(p1, p2, q1), crs(p1, p2, q2)
        return ((d1 > 1e-12 and d2 < -1e-12) or (d1 < -1e-12 and d2 > 1e-12)) and (
            (d3 > 1e-12 and d4 < -1e-12) or (d3 < -1e-12 and d4 > 1e-12)
        )

    edges = set(kind)
    while True:
        losers = set()
        for e, f in combinations(sorted(edges), 2):
            if not crosses(e, f):
                continue
            ke, kf = kind[e], kind[f]
            if ke == "gabriel" and kf == "gabriel":
                raise AssertionError(f"gabriel edges cross: {e} {f}")
            if ke == "gabriel":
                losers.add(f)
            elif kf == "gabriel":
                losers.add(e)
            elif support[e] > support[f] + 1e-12:
                losers.add(e)
            elif support[f] > support[e] + 1e-12:
                losers.add(f)
            else:
                losers.add(max(e, f))
        if not losers:
            break
        edges -= losers
    tris = [
        t
        for t in tris
        if all(e in edges for e in ((t[0], t[1]), (t[0], t[2]), (t[1], t[2])))
    ]
    return edges, gabriel, tris


def brute_cdt(polygons):
    """Constrained Delaunay edges over polygon corners, by circle search.

    polygons: list of (id list, point list) pairs, each a convex obstacle.
    An edge survives iff some circle through its endpoints contains no
    doubly-visible witness; candidate circles are the diametral one and
    every circumcircle through a witness.  Polygon boundary edges are
    constraints and always survive.
    """
    pos = {}
    boundary = set()
    for ids, pts in polygons:
        k = len(ids)
        for i, v in enumerate(ids):
            pos[v] = pts[i]
            boundary.add(tuple(sorted((v, ids[(i + 1) % k]))))
    polys = [pts for _, pts in polygons]
    verts = sorted(pos)

    def vis(u, v):
        return tuple(sorted((u, v))) in boundary or brute_visible(pos[u], pos[v], polys)

    edges = set(boundary)
    for u, v in combinations(verts, 2):
        e = tuple(sorted((u, v)))
        if e in boundary or not vis(u, v):
            continue
        wits = [w for w in verts if w != u and w != v and vis(u, w) and vis(v, w)]
        pu, pv = pos[u], pos[v]
        centers = [((pu[0] + pv[0]) / 2.0, (pu[1] + pv[1]) / 2.0)]
        for w in wits:
            try:
                c, _ = ocircumcircle(pu, pv, pos[w])
            except ValueError:
                continue
            centers.append(c)
        for c in centers:
            r = odist(c, pu)
            if all(odist(c, pos[w]) >= r - 1e-9 for w in wits):
                edges.add(e)
                break
    return pos, edges


def brute_hulls_overlap(a, b):
    """True iff the interiors of two convex polygons overlap.

    Clips a against every edge half-plane of b (Sutherland-Hodgman) in
    exact Fraction arithmetic; the interiors overlap iff the clipped
    region keeps a positive area.  Either vertex order is accepted.
    """

    def area2(pts):
        return sum(p[0] * q[1] - q[0] * p[1] for p, q in zip(pts, pts[1:] + pts[:1]))

    def exact_ccw(poly):
        pts = [(Fraction(p[0]), Fraction(p[1])) for p in poly]
        return pts if area2(pts) > 0 else pts[::-1]

    def crs(o, p, q):
        return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])

    region, clip = exact_ccw(a), exact_ccw(b)
    for i in range(len(clip)):
        c, d = clip[i], clip[(i + 1) % len(clip)]
        out = []
        for j in range(len(region)):
            p, q = region[j], region[(j + 1) % len(region)]
            sp, sq = crs(c, d, p), crs(c, d, q)
            if sp >= 0:
                out.append(p)
            if (sp > 0 > sq) or (sp < 0 < sq):
                t = sp / (sp - sq)
                out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
        region = out
        if len(region) < 3:
            return False
    return area2(region) > 0


def brute_corridor(g, s, t):
    """Reference corridor walk over a PlanarGraph, by scanning everything.

    Every edge st properly crosses, sorted by exact crossing parameter; a
    split at the earliest vertex on st. The face of the interval before a
    crossing is the one on s's side of the crossed edge, the last
    interval's is the one past the last crossing, both read off face_left
    by orientation sign; with no crossing, it is the face whose corner at
    s holds the direction to t. Returns (path, None) when t is reached,
    else (path, (hole node, blocked face)).
    """
    from hullroute.geometry import _on_segment, orient2d, segments_properly_intersect

    if s == t:
        return [s], None
    if (min(s, t), max(s, t)) in g.edges:
        return [s, t], None
    ps, pt = g.points[s], g.points[t]
    dx, dy = pt[0] - ps[0], pt[1] - ps[1]

    on_st = [
        ((p[0] - ps[0]) * dx + (p[1] - ps[1]) * dy, v)
        for v, p in g.points.items()
        if v not in (s, t) and _on_segment(p, ps, pt)
    ]
    if on_st:
        mid = min(on_st)[1]
        p1, hit = brute_corridor(g, s, mid)
        if hit is not None:
            return p1, hit
        p2, hit = brute_corridor(g, mid, t)
        return p1 + p2[1:], hit

    fs, ft = [Fraction(c) for c in ps], [Fraction(c) for c in pt]
    fdx, fdy = ft[0] - fs[0], ft[1] - fs[1]
    cuts = []
    sx0, sx1, sy0, sy1 = min(ps[0], pt[0]), max(ps[0], pt[0]), min(ps[1], pt[1]), max(ps[1], pt[1])
    for u, v in g.edges:
        pu, pv = g.points[u], g.points[v]
        if max(pu[0], pv[0]) < sx0 or min(pu[0], pv[0]) > sx1:
            continue
        if max(pu[1], pv[1]) < sy0 or min(pu[1], pv[1]) > sy1:
            continue
        if segments_properly_intersect(ps, pt, pu, pv):
            fu, fv = [Fraction(c) for c in pu], [Fraction(c) for c in pv]
            ex, ey = fv[0] - fu[0], fv[1] - fu[1]
            par = ((fu[0] - fs[0]) * ey - (fu[1] - fs[1]) * ex) / (fdx * ey - fdy * ex)
            # u left of st, then v
            cuts.append((par, u, v) if orient2d(ps, pt, pu) > 0 else (par, v, u))
    cuts.sort()

    def side(u, v, p):
        """The face of edge uv on the side of point p."""
        return g.face_left[(u, v)] if orient2d(g.points[u], g.points[v], p) > 0 else g.face_left[(v, u)]

    left, right = [s], [s]
    for i in range(len(cuts) + 1):
        if i < len(cuts):
            face = side(cuts[i][1], cuts[i][2], ps)
        elif cuts:
            face = side(cuts[-1][1], cuts[-1][2], pt)
        else:
            face = _corner_face(g, s, pt)
        if face == g.outer_face or len(g.faces[face]) >= 4:
            ends = [c for c in (left, right) if c[-1] in g.faces[face]]
            path = min(ends, key=lambda c: (_chain_length(g.points, c), c))
            return path, (path[-1], face)
        if i == len(cuts):
            break
        _, a, b = cuts[i]
        if left[-1] != a:
            left.append(a)
        if right[-1] != b:
            right.append(b)
    path = min(left + [t], right + [t], key=lambda c: (_chain_length(g.points, c), c))
    return path, None


def _corner_face(g, s, x):
    """The face whose corner at s holds the direction from s to x.

    Each face lies left of its directed edges p -> s -> n; x is inside a
    convex corner when it is left of both, inside a reflex one when left
    of either, and a face that turns back at s (p == n) holds every
    direction but the edge's.
    """
    from hullroute.geometry import orient2d

    ps = g.points[s]
    for fi, cyc in enumerate(g.faces):
        for i, v in enumerate(cyc):
            if v != s:
                continue
            p, n = g.points[cyc[i - 1]], g.points[cyc[(i + 1) % len(cyc)]]
            if p == n:
                return fi
            after, before = orient2d(ps, n, x) > 0, orient2d(p, ps, x) > 0
            turn = orient2d(p, ps, n)
            if (after and before) if turn > 0 else (after or before) if turn < 0 else after:
                return fi
    raise AssertionError(f"no face at {s} holds the direction to {x}")


def _chain_length(points, chain):
    return sum(odist(points[a], points[b]) for a, b in zip(chain, chain[1:]))


def with_ids(items, ids, at):
    """Wire items with their node ids put back: ids[j] goes in at index `at` of items[j].

    A message names each item's node only among the ids it introduces,
    sorted, and lists its items in the same order.
    """
    if len(items) != len(ids) or list(ids) != sorted(ids):
        raise AssertionError(f"{len(items)} items against introductions {ids}")
    return [list(q[:at]) + [v] + list(q[at:]) for q, v in zip(items, ids)]


def brute_hull_gather(n, root, hulls, leaders):
    """Messages per directed edge of the hull distribution's one-hop gather.

    `hulls` holds each ring's hull node ids and `leaders` its rank 0,
    which owns the entries of the ring's hull nodes; a node on two hulls
    led by one leader is one entry. Computed from a closed form, not by
    running rounds, with cap = ceil(log2 n) entries to a message, for n
    nodes: each leader but the tree root `root` sends the root
    ceil(k / cap) messages, k the hull nodes of the rings it leads.
    Returns {(src, dst): messages}.
    """
    cap = max(1, (n - 1).bit_length())
    led = {}
    for ring, ids in hulls.items():
        led.setdefault(leaders[ring], set()).update(ids)
    return {(p, root): -(-len(ids) // cap) for p, ids in led.items() if p != root}


def crossing_edge_pairs(points: dict, edges):
    """Pairs of edges whose open segments share a point.

    Uses the package's exact segment predicate, like `brute_corridor`;
    only pairs whose midpoints lie within the longest edge's length of
    each other are tested, which misses no crossing.
    """
    from scipy.spatial import cKDTree

    from hullroute.geometry import segments_properly_intersect

    edges = sorted(edges)
    if len(edges) < 2:
        return []
    mids = [
        ((points[u][0] + points[v][0]) / 2.0, (points[u][1] + points[v][1]) / 2.0)
        for u, v in edges
    ]
    reach = max(odist(points[u], points[v]) for u, v in edges) * (1.0 + 1e-9)
    out = []
    for i, j in sorted(cKDTree(mids).query_pairs(reach)):
        e, f = edges[i], edges[j]
        if set(e) & set(f):
            continue
        if segments_properly_intersect(points[e[0]], points[e[1]], points[f[0]], points[f[1]]):
            out.append((e, f))
    return out


def _integers(ends, poly):
    """ends and poly with every coordinate times one power of two: integers, as floats are
    dyadic, so that the oracles' sums and products are exact and fast."""
    pts = [(Fraction(p[0]), Fraction(p[1])) for p in [*ends, *poly]]
    scale = max(v.denominator for p in pts for v in p)
    pts = [(int(x * scale), int(y * scale)) for x, y in pts]
    return pts[: len(ends)], pts[len(ends) :]


def _exact_cuts(a, b, pts):
    """Sorted (t, i, along) for the points of the open segment ab on edge i of pts.

    Exact for integers; a point lies at a + t(b - a). An edge off ab's line
    gives the point it shares with ab; an edge along that line gives its
    ends lying inside ab.
    """
    def crs(o, p, q):
        return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])

    if a == b:
        return []
    ab = (b[0] - a[0], b[1] - a[1])
    norm = ab[0] ** 2 + ab[1] ** 2
    out = []
    for i, c in enumerate(pts):
        d = pts[(i + 1) % len(pts)]
        if crs(a, b, c) == 0 == crs(a, b, d):
            ts = [Fraction((q[0] - a[0]) * ab[0] + (q[1] - a[1]) * ab[1], norm) for q in (c, d)]
            out += [(t, i, True) for t in ts if 0 < t < 1]
            continue
        den = ab[0] * (d[1] - c[1]) - ab[1] * (d[0] - c[0])
        if den == 0:
            continue
        t, u = Fraction(crs(a, c, d), den), Fraction(crs(a, c, b), den)
        if 0 < t < 1 and 0 <= u <= 1:
            out.append((t, i, False))
    return sorted(out)


def brute_ring_crossings(a, b, poly):
    """Edges of poly that the open segment ab meets off its line, ordered along ab.

    Exact parameters; edges on ab's line are left out, and hits at one
    parameter keep the smallest edge index.
    """
    out: list = []
    (a, b), pts = _integers((a, b), poly)
    for t, i, along in _exact_cuts(a, b, pts):
        if along:
            continue
        if out and out[-1][0] == t:
            out[-1] = (t, min(out[-1][1], i))
        else:
            out.append((t, i))
    return [i for _, i in out]


def brute_segment_crosses_polygon(a, b, poly):
    """True iff a point of the open segment ab lies strictly inside poly.

    The exact boundary points cut ab into pieces that each lie wholly
    inside, outside or on the boundary; the exact midpoint of each piece
    is tested by ray casting in Fractions.
    """
    (a, b), pts = _integers((a, b), poly)
    ts = [Fraction(0)] + [t for t, _, _ in _exact_cuts(a, b, pts)] + [Fraction(1)]

    def strictly_inside(p):
        inside = False
        for i, u in enumerate(pts):
            v = pts[(i + 1) % len(pts)]
            cr = (v[0] - u[0]) * (p[1] - u[1]) - (v[1] - u[1]) * (p[0] - u[0])
            if cr == 0 and min(u[0], v[0]) <= p[0] <= max(u[0], v[0]) and min(u[1], v[1]) <= p[1] <= max(u[1], v[1]):
                return False
            if (u[1] > p[1]) != (v[1] > p[1]):
                if p[0] < u[0] + Fraction(p[1] - u[1]) * (v[0] - u[0]) / (v[1] - u[1]):
                    inside = not inside
        return inside

    if a == b:
        return strictly_inside(a)
    for lo, hi in zip(ts, ts[1:]):
        if lo == hi:
            continue
        m = (lo + hi) / 2
        if strictly_inside((a[0] + m * (b[0] - a[0]), a[1] + m * (b[1] - a[1]))):
            return True
    return False
