from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hullroute.errors import DegenerateInputError
from hullroute.geometry import (
    Point,
    Polygon,
    convex_hull_oracle,
    circumcenter,
    incircle,
    incircle_sos,
    orient2d,
    point_in_polygon,
    polygon_orientation,
    polygon_signed_area,
    ring_crossings,
    segment_crosses_polygon,
    segments_properly_intersect,
)
from oracles import brute_hull, brute_ring_crossings, brute_segment_crosses_polygon


def test_orientation_basic():
    assert orient2d(Point(0, 0), Point(1, 0), Point(0, 1)) == 1
    assert orient2d(Point(0, 0), Point(0, 1), Point(1, 0)) == -1
    assert orient2d(Point(0, 0), Point(1, 0), Point(2, 0)) == 0


def test_orientation_antisymmetry_sampled():
    rng = random.Random(7)
    for _ in range(300):
        a, b, c = (Point(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(3))
        assert orient2d(a, b, c) == -orient2d(a, c, b)


def test_collinear_circumcircle_rejected():
    with pytest.raises(DegenerateInputError):
        circumcenter(Point(0, 0), Point(1, 0), Point(2, 0))


def test_circumcenter_rejects_a_triple_too_flat_for_floats():
    # the case test_incircle_is_exact_on_nudged_quadruples hit: not
    # collinear, but the float cross product rounds to 0
    a, b, c = Point(0.3, 0.2), Point(1.0, 0.8999999999999999), Point(1.7, 1.5999999999999999)
    assert orient2d(a, b, c) == 1
    with pytest.raises(DegenerateInputError):
        circumcenter(a, b, c)


def test_segments_properly_intersect():
    # X crossing
    assert segments_properly_intersect(Point(0, 0), Point(1, 1), Point(0, 1), Point(1, 0))
    # shared endpoint only
    assert not segments_properly_intersect(Point(0, 0), Point(1, 1), Point(1, 1), Point(2, 0))
    # parallel disjoint
    assert not segments_properly_intersect(Point(0, 0), Point(1, 0), Point(0, 1), Point(1, 1))
    # T junction: endpoint of one in the interior of the other
    assert not segments_properly_intersect(Point(0, 0), Point(2, 0), Point(1, 0), Point(1, 1))
    # collinear with interior overlap
    assert segments_properly_intersect(Point(0, 0), Point(2, 0), Point(1, 0), Point(3, 0))
    # collinear, touching at endpoints only
    assert not segments_properly_intersect(Point(0, 0), Point(1, 0), Point(1, 0), Point(2, 0))


def test_convex_hull_oracle_square():
    pts = [Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1), Point(0.5, 0.5)]
    assert convex_hull_oracle(pts) == [Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)]


def test_convex_hull_collinear_interior_dropped():
    pts = [Point(0, 0), Point(2, 0), Point(1, 0), Point(1, 1)]
    assert convex_hull_oracle(pts) == [Point(0, 0), Point(2, 0), Point(1, 1)]
    with pytest.raises(DegenerateInputError):
        convex_hull_oracle([Point(0, 0), Point(1, 0), Point(2, 0)])


def test_convex_hull_matches_halfplane_oracle():
    rng = random.Random(5)
    for _ in range(60):
        pts = [Point(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(rng.randint(3, 40))]
        try:
            hull = convex_hull_oracle(pts)
        except DegenerateInputError:
            continue
        assert sorted(hull) == brute_hull(pts)
        assert polygon_signed_area(hull) > 0
        assert hull[0] == min(hull)


def test_point_in_polygon():
    sq = [Point(0, 0), Point(2, 0), Point(2, 2), Point(0, 2)]
    assert point_in_polygon(Point(1, 1), sq)
    assert not point_in_polygon(Point(3, 1), sq)
    assert not point_in_polygon(Point(0, 1), sq, strict=True)
    assert point_in_polygon(Point(0, 1), sq, strict=False)


def test_segment_crosses_polygon():
    sq = [Point(0, 0), Point(2, 0), Point(2, 2), Point(0, 2)]
    assert segment_crosses_polygon(Point(-1, 1), Point(3, 1), sq)
    assert not segment_crosses_polygon(Point(-1, 3), Point(3, 3), sq)
    # diagonal between two corners passes through the interior
    assert segment_crosses_polygon(Point(0, 0), Point(2, 2), sq)
    # edge itself does not enter the open interior
    assert not segment_crosses_polygon(Point(0, 0), Point(2, 0), sq)


def test_polygon_validation():
    Polygon((Point(0, 0), Point(1, 0), Point(1, 1)))
    with pytest.raises(DegenerateInputError):
        Polygon((Point(0, 0), Point(1, 1), Point(1, 0)))  # clockwise
    with pytest.raises(DegenerateInputError):
        Polygon((Point(0, 0), Point(1, 0)))
    with pytest.raises(DegenerateInputError):
        Polygon((Point(0, 0), Point(1, 1), Point(1, 0), Point(0, 1)))  # bowtie


def test_ring_crossings_name_the_crossed_edges():
    sq = [Point(0, 0), Point(2, 0), Point(2, 2), Point(0, 2)]
    assert ring_crossings(Point(-1, 1), Point(3, 1), sq) == [3, 1]
    assert ring_crossings(Point(3, 1), Point(-1, 1), sq) == [1, 3]
    # through a corner: both edges meet it, the smaller index stays
    assert ring_crossings(Point(-1, -1), Point(1, 1), sq) == [0]
    # along an edge: the edge is skipped, and each corner counts under its other edge
    assert ring_crossings(Point(0.5, 0), Point(1.5, 0), sq) == []
    assert ring_crossings(Point(-1, 0), Point(3, 0), sq) == [3, 1]


def _lattice_polygon(rng: random.Random) -> list[tuple[int, int]]:
    """A simple polygon of 3 to 8 even lattice points, so edge midpoints are lattice points too."""

    def crs(o, p, q):
        return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])

    def dot(o, p, q):
        return (p[0] - o[0]) * (q[0] - o[0]) + (p[1] - o[1]) * (q[1] - o[1])

    def meet(p, q, r, s):  # closed segments pq and rs share a point
        d = [crs(r, s, p), crs(r, s, q), crs(p, q, r), crs(p, q, s)]
        if d[0] * d[1] > 0 or d[2] * d[3] > 0:
            return False
        if any(d):
            return True
        return all(min(p[k], q[k]) <= max(r[k], s[k]) and min(r[k], s[k]) <= max(p[k], q[k]) for k in (0, 1))

    while True:
        pts = list({(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(rng.randint(3, 8))})
        cx, cy = sum(x for x, _ in pts) / len(pts), sum(y for _, y in pts) / len(pts)
        pts.sort(key=lambda p: math.atan2(p[1] - cy, p[0] - cx))
        n = len(pts)
        edges = [(pts[i], pts[(i + 1) % n]) for i in range(n)]
        if n < 3 or sum(crs((0, 0), p, q) for p, q in edges) == 0:
            continue
        # adjacent edges may only share their corner, other edges nothing
        if any(crs(p, q, r) == 0 and dot(q, p, r) > 0 for p, q, r in zip(pts, pts[1:] + pts[:1], pts[2:] + pts[:2])):
            continue
        if any(meet(*edges[i], *edges[j]) for i in range(n) for j in range(i + 2, n) if (i, j) != (0, n - 1)):
            continue
        return [(2 * x, 2 * y) for x, y in pts]


def _near_degenerate_segment(rng: random.Random, poly: list[tuple[int, int]]):
    """Lattice ends of a segment through a vertex, along an edge, ending on the boundary, or anywhere."""
    n = len(poly)
    i = rng.randrange(n)
    (cx, cy), (dx, dy) = poly[i], poly[(i + 1) % n]

    def lattice():
        return rng.randint(-12, 12), rng.randint(-12, 12)

    kind = rng.choice(("vertex", "along", "end_vertex", "end_edge", "any"))
    if kind == "vertex":
        ux, uy = rng.choice([(x, y) for x in range(-3, 4) for y in range(-3, 4) if x or y])
        m1, m2 = rng.randint(1, 3), rng.randint(1, 3)
        a, b = (cx - m1 * ux, cy - m1 * uy), (cx + m2 * ux, cy + m2 * uy)
    elif kind == "along":
        g = math.gcd(dx - cx, dy - cy)
        ux, uy = (dx - cx) // g, (dy - cy) // g
        m1, m2 = rng.sample(range(-2, g + 3), 2)
        a, b = (cx + m1 * ux, cy + m1 * uy), (cx + m2 * ux, cy + m2 * uy)
    elif kind == "end_vertex":
        a, b = (cx, cy), lattice()
    elif kind == "end_edge":
        a, b = ((cx + dx) // 2, (cy + dy) // 2), lattice()
    else:
        a, b = lattice(), lattice()
    return (a, b) if rng.random() < 0.5 else (b, a)


def test_ring_walk_matches_the_exact_oracle_on_near_degenerate_segments():
    # lattice shapes scaled by non-dyadic steps: rounding moves points on
    # a line or an edge just off it, or leaves them on it
    rng = random.Random(11)
    scales = (0.1, 0.3, 1 / 3, 0.7)
    for case in range(3000):
        poly = _lattice_polygon(rng)
        if rng.random() < 0.5:
            poly.reverse()
        a, b = _near_degenerate_segment(rng, poly)
        s = scales[case % len(scales)]
        fa, fb = Point(a[0] * s, a[1] * s), Point(b[0] * s, b[1] * s)
        fpoly = [Point(x * s, y * s) for x, y in poly]
        assert ring_crossings(fa, fb, fpoly) == brute_ring_crossings(fa, fb, fpoly), (case, fa, fb, fpoly)
        assert segment_crosses_polygon(fa, fb, fpoly) == brute_segment_crosses_polygon(fa, fb, fpoly), (
            case, fa, fb, fpoly,
        )


def test_segment_crosses_polygon_with_the_orientation_given_answers_alike():
    # a caller that tests one ring often passes its orientation, taken once
    rng = random.Random(12)
    for case in range(1000):
        poly = [Point(*p) for p in _lattice_polygon(rng)]
        if rng.random() < 0.5:
            poly.reverse()
        a, b = (Point(*p) for p in _near_degenerate_segment(rng, poly))
        sign = polygon_orientation(poly)
        assert segment_crosses_polygon(a, b, poly, sign) == segment_crosses_polygon(a, b, poly), case


# ---------------------------------------------------------------------------
# exact predicates: properties against Fraction arithmetic


def exact_orient(a, b, c):
    ax, ay, bx, by, cx, cy = map(Fraction, (*a, *b, *c))
    d = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return (d > 0) - (d < 0)


def exact_incircle(a, b, c, d):
    rows = [[Fraction(p[0]) - Fraction(d[0]), Fraction(p[1]) - Fraction(d[1])] for p in (a, b, c)]
    m = [[x, y, x * x + y * y] for x, y in rows]
    det = (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )
    return (det > 0) - (det < 0)


coord = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)
point = st.builds(Point, coord, coord)


def nudge(p, steps):
    """p moved by a few ulps per coordinate, toward +inf or -inf."""
    x, y = p
    for _ in range(abs(steps[0])):
        x = math.nextafter(x, math.copysign(math.inf, steps[0]))
    for _ in range(abs(steps[1])):
        y = math.nextafter(y, math.copysign(math.inf, steps[1]))
    return Point(x, y)


ulps = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


@given(point, point, st.floats(-3.0, 3.0, allow_nan=False), ulps)
def test_orient2d_is_exact_near_collinear_triples(a, b, t, steps):
    # c on the line ab as far as floats allow, then a few ulps off
    c = nudge(Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)), steps)
    assert orient2d(a, b, c) == exact_orient(a, b, c)


@given(coord, st.floats(0.01, 1.0), st.integers(-80, 80), st.lists(st.integers(-40, 40), min_size=3, max_size=3))
def test_orient2d_on_collinear_rows(y, step, k0, ks):
    row = [Point(k * step, y) for k in ks]
    assert orient2d(*row) == 0
    column = [Point(y, k * step) for k in ks]
    assert orient2d(*column) == 0
    # dyadic coordinates keep the diagonal exactly collinear
    diag = [Point(k * 0.25, (k0 + k * 4) * 0.125) for k in ks]
    assert orient2d(*diag) == 0
    # and a non-dyadic step usually does not: then the sign must be exact
    skew = [Point(k * step, y + k * step) for k in ks]
    assert orient2d(*skew) == exact_orient(*skew)


@given(point, point, point, point, ulps)
def test_incircle_is_exact_on_nudged_quadruples(a, b, c, d, steps):
    assert incircle(a, b, c, d) == exact_incircle(a, b, c, d)
    # d moved onto the circle as far as floats allow, then nudged
    try:
        center, r = circumcenter(a, b, c)
    except DegenerateInputError:
        return
    ang = math.atan2(d.y - center.y, d.x - center.x)
    on = nudge(Point(center.x + r * math.cos(ang), center.y + r * math.sin(ang)), steps)
    assert incircle(a, b, c, on) == exact_incircle(a, b, c, on)


rect = st.tuples(
    st.floats(-20.0, 20.0), st.floats(-20.0, 20.0), st.floats(0.05, 1.0), st.floats(0.05, 1.0)
)


def rectangle(x0, y0, w, h):
    """Counterclockwise corners, exactly cocircular only when the sums are exact."""
    return [Point(x0, y0), Point(x0 + w, y0), Point(x0 + w, y0 + h), Point(x0, y0 + h)]


@given(rect)
def test_incircle_is_exact_on_cocircular_rectangles(r):
    a, b, c, d = rectangle(*r)
    for quad in itertools.permutations((a, b, c, d)):
        assert incircle(*quad) == exact_incircle(*quad)


def parity(perm):
    inversions = sum(1 for i, j in itertools.combinations(range(len(perm)), 2) if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


@given(rect, st.permutations(range(4)))
@example((0.0, 0.0, 0.5, 0.5), [0, 1, 2, 3])
def test_incircle_sos_is_the_same_under_every_argument_order(r, keys):
    pts = rectangle(*r)
    base = incircle_sos(pts, keys)
    assert base != 0
    for perm in itertools.permutations(range(4)):
        got = incircle_sos([pts[i] for i in perm], [keys[i] for i in perm])
        assert got * parity(perm) == base


@given(rect, st.permutations(range(4)))
def test_exactly_one_diagonal_of_a_cocircular_cell_wins(r, keys):
    """ac wins when abc and acd hold no other corner, bd when abd and bcd."""
    p = rectangle(*r)

    def empty(i, j, k, x):
        return incircle_sos((p[i], p[j], p[k], p[x]), (keys[i], keys[j], keys[k], keys[x])) < 0

    ac = empty(0, 1, 2, 3) and empty(0, 2, 3, 1)
    bd = empty(0, 1, 3, 2) and empty(1, 2, 3, 0)
    assert ac != bd


@given(st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=3, max_size=3, unique=True),
       st.floats(0.05, 1.3))
def test_polygon_edges_never_cross_the_open_interior(corners, s):
    # non-dyadic scales put float midpoints of an edge just off its line
    tri = [Point(x * s, y * s) for x, y in corners]
    if orient2d(*tri) == 0:
        return
    if orient2d(*tri) < 0:
        tri.reverse()
    for i in range(3):
        c, d = tri[i], tri[(i + 1) % 3]
        assert not segment_crosses_polygon(c, d, tri)
        assert not segment_crosses_polygon(d, c, tri)


@given(
    st.lists(st.tuples(st.floats(0.0, 0.99), st.floats(0.2, 5.0)), min_size=5, max_size=12),
    st.integers(0, 11),
    st.booleans(),
)
def test_polygon_orientation_agrees_with_the_signed_area(spokes, start, clockwise):
    # one vertex per sector of a star around the origin: a simple polygon
    # whose angular gaps stay under pi, so the origin is inside and the
    # area is far from 0
    k = len(spokes)
    poly = [
        Point(r * math.cos(2 * math.pi * (i + f) / k), r * math.sin(2 * math.pi * (i + f) / k))
        for i, (f, r) in enumerate(spokes)
    ]
    poly = poly[start % k :] + poly[: start % k]
    if clockwise:
        poly.reverse()
    want = -1 if clockwise else 1
    assert polygon_orientation(poly) == want
    assert (polygon_signed_area(poly) > 0) == (want > 0)
