"""Planar geometric primitives shared by the whole package.

Coordinates are measured in units of the radio range, so an ad hoc link
exists exactly between points at distance <= 1.  Every sign decision is
exact for the given float coordinates: `orient2d`, `incircle` and
`in_diametral_disk` evaluate their determinant in floats and accept its
sign when it clears Shewchuk's (1997) static error bound, and recompute
it with `fractions.Fraction` otherwise.  `angle_key`,
`segments_properly_intersect`, `_on_segment`, `point_in_polygon` and the
bay legs' `ring_crossings` and `segment_crosses_polygon` are built on
them; `ring_crossings` orders a segment's crossings by their exact
Fraction parameters along it.  `circumcenter` rejects a collinear
triple, or one too flat for a float circumcircle, with
DegenerateInputError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Iterable, NamedTuple, Sequence

from .errors import DegenerateInputError

# unit roundoff of a double, and Shewchuk's bounds on the rounding error of
# the float determinants relative to their permanents (ccwerrboundA and
# iccerrboundA in predicates.c); those assume no underflow, whose absolute
# error _UNDERFLOW covers for coordinates below 1e9
_U = 2.0**-53
_CCW_BOUND = (3.0 + 16.0 * _U) * _U
_ICC_BOUND = (10.0 + 96.0 * _U) * _U
_UNDERFLOW = 2.0**-1000


class Point(NamedTuple):
    x: float
    y: float


def dist(p: Point, q: Point) -> float:
    return math.hypot(p[0] - q[0], p[1] - q[1])


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _filtered_sign(terms, pts, factor: float) -> int:
    """Exact sign of terms(*pts)[0].

    terms returns a determinant and its permanent (the same sum with every
    product made positive). The float determinant's sign stands when it
    clears factor times the permanent; otherwise terms runs on Fractions.
    """
    det, permanent = terms(*pts)
    bound = factor * permanent + _UNDERFLOW
    if det > bound:
        return 1
    if -det > bound:
        return -1
    return _sign(terms(*([Fraction(v) for v in p] for p in pts))[0])


def _dot_terms(p, a, b):
    left = (a[0] - p[0]) * (b[0] - p[0])
    right = (a[1] - p[1]) * (b[1] - p[1])
    return left + right, abs(left) + abs(right)


def _lifted_terms(a, b, c, d):
    # Shewchuk's incircle expansion by the lifted column, rows cycled
    rows = [(p[0] - d[0], p[1] - d[1]) for p in (a, b, c)]
    det = permanent = 0
    for i in range(3):
        (x1, y1), (x2, y2), (x3, y3) = rows[i], rows[i - 2], rows[i - 1]
        lift, left, right = x1 * x1 + y1 * y1, x2 * y3, x3 * y2
        det += lift * (left - right)
        permanent += (abs(left) + abs(right)) * lift
    return det, permanent


def orient2d(a: Point, b: Point, c: Point) -> int:
    """Exact sign of (b - a) x (c - a): +1 when a, b, c turn left, 0 when collinear."""
    # _filtered_sign inlined, as the hottest predicate; coincident points,
    # the exact ties routing meets, skip the Fractions
    left = (a[0] - c[0]) * (b[1] - c[1])
    right = (a[1] - c[1]) * (b[0] - c[0])
    det = left - right
    bound = _CCW_BOUND * (abs(left) + abs(right)) + _UNDERFLOW
    if det > bound:
        return 1
    if -det > bound:
        return -1
    if a == b or b == c or c == a:
        return 0
    ax, ay, bx, by, cx, cy = map(Fraction, (a[0], a[1], b[0], b[1], c[0], c[1]))
    return _sign((ax - cx) * (by - cy) - (ay - cy) * (bx - cx))


def in_diametral_disk(p: Point, a: Point, b: Point) -> bool:
    """True iff p lies in the closed disk with diameter ab: (a - p).(b - p) <= 0."""
    return _filtered_sign(_dot_terms, (p, a, b), _CCW_BOUND) <= 0


def incircle(a: Point, b: Point, c: Point, d: Point) -> int:
    """Exact incircle sign: +1 when d lies inside the circle through the
    counterclockwise a, b, c, 0 on it, -1 outside (all flip for clockwise)."""
    return _filtered_sign(_lifted_terms, (a, b, c, d), _ICC_BOUND)


def incircle_sos(pts: tuple[Point, ...], keys: Sequence[int]) -> int:
    """`incircle(*pts)` with exact ties broken by Simulation of Simplicity.

    Each point's lifted coordinate x^2 + y^2 is raised by an infinitesimal
    that is larger the smaller its key (Edelsbrunner & Muecke 1990). The
    lifted determinant is linear in those, so a tie takes the sign of the
    z-cofactor of the smallest-keyed point whose cofactor is nonzero; the
    cofactor of point i is (-1)^i times the orientation of the other three.
    The answer is 0 only when all four points lie on one line.
    """
    s = incircle(*pts)
    for i in sorted(range(4), key=keys.__getitem__):
        if s:
            break
        s = orient2d(*pts[:i], *pts[i + 1 :]) * (-1) ** i
    return s


def angle_key(o: Point):
    """Sort key for points by the angle of their direction from o in (-pi, pi]."""

    def upper(p) -> bool:  # angle in (0, pi]
        return p[1] > o[1] or (p[1] == o[1] and p[0] < o[0])

    return cmp_to_key(lambda p, q: (upper(p) - upper(q)) or -orient2d(o, p, q))


def circumcenter(a: Point, b: Point, c: Point) -> tuple[Point, float]:
    """Center and radius of the circle through three non-collinear points.

    Solved relative to a, so its rounding error scales with the triangle.
    """
    if orient2d(a, b, c) == 0:
        raise DegenerateInputError(f"collinear points have no circumcircle: {a}, {b}, {c}")
    bx, by = b[0] - a[0], b[1] - a[1]
    cx, cy = c[0] - a[0], c[1] - a[1]
    d = 2.0 * (bx * cy - by * cx)
    if d == 0.0:
        raise DegenerateInputError(f"points too nearly collinear for a float circumcircle: {a}, {b}, {c}")
    b2 = bx * bx + by * by
    c2 = cx * cx + cy * cy
    ux = (cy * b2 - by * c2) / d
    uy = (bx * c2 - cx * b2) / d
    return Point(a[0] + ux, a[1] + uy), math.hypot(ux, uy)


def segments_properly_intersect(p1: Point, p2: Point, q1: Point, q2: Point) -> bool:
    """True iff the open segments p1p2 and q1q2 share a point."""
    if p1 == p2 or q1 == q2:
        return False
    d1 = orient2d(q1, q2, p1)
    d2 = orient2d(q1, q2, p2)
    if d1 * d2 > 0:
        return False
    if d1 or d2:
        return d1 * d2 < 0 and orient2d(p1, p2, q1) * orient2d(p1, p2, q2) < 0
    # collinear: open intervals on a shared supporting line
    axis = 0 if p1[0] != p2[0] else 1
    lo_p, hi_p = sorted((p1[axis], p2[axis]))
    lo_q, hi_q = sorted((q1[axis], q2[axis]))
    return min(hi_p, hi_q) > max(lo_p, lo_q)


def polygon_signed_area(pts: Sequence[Point]) -> float:
    """Shoelace area: positive for counterclockwise vertex order."""
    area = 0.0
    n = len(pts)
    for i in range(n):
        x1, y1 = pts[i]
        x2, y2 = pts[(i + 1) % n]
        area += x1 * y2 - x2 * y1
    return area / 2.0


def polygon_orientation(pts: Sequence[Point]) -> int:
    """Exact sign of a simple polygon's area: orient2d at its lexicographically smallest,
    so convex, vertex."""
    i = min(range(len(pts)), key=lambda j: (pts[j][0], pts[j][1]))
    return orient2d(pts[i - 1], pts[i], pts[(i + 1) % len(pts)])


def polygon_perimeter(pts: Sequence[Point]) -> float:
    return sum(dist(pts[i], pts[(i + 1) % len(pts)]) for i in range(len(pts)))


def monotone_hull(pts: Sequence) -> list:
    """Strict monotone chain (Andrew 1979) over points sorted by (x, y).

    Returns the extreme points counterclockwise from the first; collinear
    points are dropped, so collinear input gives its two ends.  Entries
    may carry fields past x and y, such as a node id.
    """

    def chain(seq: Sequence) -> list:
        out: list = []
        for p in seq:
            while len(out) >= 2 and orient2d(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    if len(pts) < 2:
        return list(pts)
    return chain(pts)[:-1] + chain(pts[::-1])[:-1]


def convex_hull_oracle(points: Iterable[Point]) -> list[Point]:
    """Convex hull, counterclockwise, starting at the lexicographic minimum.

    Monotone chain with strict turns: collinear interior points are dropped.
    """
    pts = sorted(set(Point(*p) for p in points))
    if len(pts) < 3:
        raise DegenerateInputError("hull needs at least 3 distinct points")
    hull = monotone_hull(pts)
    if len(hull) < 3:
        raise DegenerateInputError("all points are collinear")
    return hull


def bounding_box(pts: Sequence[Point]) -> tuple[float, float, float, float]:
    """The closed box (x0, y0, x1, y1) around pts."""
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    return min(xs), min(ys), max(xs), max(ys)


def point_in_polygon(p: Point, poly: Sequence[Point], strict: bool = True) -> bool:
    """Ray-casting containment test.

    With strict=True, points on the boundary count as outside; with
    strict=False they count as inside.  An edge straddling p's height
    crosses the rightward ray iff p lies left of it, walked upward; p on
    the edge's line would be on the edge, which returned already.
    """
    py = p[1]
    inside = False
    a = poly[-1]
    for b in poly:
        if _on_segment(p, a, b):
            return not strict
        if (a[1] > py) != (b[1] > py) and (orient2d(a, b, p) > 0) == (b[1] > a[1]):
            inside = not inside
        a = b
    return inside


def _on_segment(p: Point, a: Point, b: Point) -> bool:
    """True iff p lies on the closed segment ab."""
    px, py = p
    ax, ay = a
    bx, by = b
    if (px < ax and px < bx) or (px > ax and px > bx) or (py < ay and py < by) or (py > ay and py > by):
        return False
    return orient2d(a, b, p) == 0


def _meet_terms(a, b, c, d):
    """Line cd meets line ab at a + t(b - a), t = num / den: num and den."""
    ex, ey = d[0] - c[0], d[1] - c[1]
    return (c[0] - a[0]) * ey - (c[1] - a[1]) * ex, (b[0] - a[0]) * ey - (b[1] - a[1]) * ex


def ring_crossings(a: Point, b: Point, poly: Sequence[Point]) -> list[int]:
    """Edges i, poly[i] to poly[i + 1], that the open segment ab meets off its line, from a on.

    Edges that ab runs along are skipped, and a vertex on ab counts once,
    under the smaller index of its edges off ab's line. orient2d signs
    decide every hit, and each hit's parameter along ab, in Fractions,
    orders them.
    """
    n = len(poly)
    side = [orient2d(a, b, p) for p in poly]
    hits = []
    for i in range(n):
        v, j = poly[i], (i + 1) % n
        if side[i] * side[j] < 0:
            if orient2d(v, poly[j], a) * orient2d(v, poly[j], b) < 0:
                hits.append(i)
        elif side[i] == 0 and a != v != b and _on_segment(v, a, b):
            off = [e for e, s in (((i - 1) % n, side[i - 1]), (i, side[j])) if s]
            hits += sorted(off)[:1]

    def at(i: int) -> tuple[Fraction, int]:
        num, den = _meet_terms(*([Fraction(v) for v in p] for p in (a, b, poly[i], poly[(i + 1) % n])))
        return num / den, i

    return sorted(hits, key=at)


def segment_crosses_polygon(
    a: Point, b: Point, poly: Sequence[Point], orientation: int | None = None
) -> bool:
    """True iff the open segment ab intersects the open region bounded by poly.

    Without a proper edge crossing, ab changes region only at the vertices
    on it: the piece leaving such a vertex toward b is inside iff b lies in
    the vertex's open interior cone, and the piece leaving a is inside iff
    b lies on the inner side of the edge a is on, or else iff a is inside.
    Each test is an orient2d sign, flipped for a clockwise poly.  The
    router passes a ring's orientation as its leader read it off the hull.
    """
    if a == b:
        return point_in_polygon(a, poly)
    n = len(poly)
    s = polygon_orientation(poly) if orientation is None else orientation
    side = [orient2d(a, b, p) for p in poly]
    for i in range(n):
        u, v, w = poly[i - 1], poly[i], poly[(i + 1) % n]
        if side[i] * side[(i + 1) % n] < 0:
            if orient2d(v, w, a) * orient2d(v, w, b) < 0:
                return True
        elif side[i] == 0 and v != b and _on_segment(v, a, b):
            into, out = s * orient2d(u, v, b) > 0, s * orient2d(v, w, b) > 0
            if (into and out) if s * orient2d(u, v, w) >= 0 else (into or out):
                return True
    for c, d in zip(poly, [*poly[1:], poly[0]]):
        if _on_segment(a, c, d):
            return a != c and a != d and s * orient2d(c, d, b) > 0
    return point_in_polygon(a, poly)


@dataclass(frozen=True)
class Polygon:
    """Simple polygon with counterclockwise vertex order and positive area."""

    vertices: tuple[Point, ...]

    def __post_init__(self) -> None:
        v = tuple(Point(*p) for p in self.vertices)
        object.__setattr__(self, "vertices", v)
        if len(v) < 3:
            raise DegenerateInputError("polygon needs at least 3 vertices")
        if len(set(v)) != len(v):
            raise DegenerateInputError("polygon has repeated vertices")
        if polygon_signed_area(v) <= 0.0:
            raise DegenerateInputError("polygon must be counterclockwise with positive area")
        n = len(v)
        for i in range(n):
            for j in range(i + 1, n):
                if segments_properly_intersect(v[i], v[(i + 1) % n], v[j], v[(j + 1) % n]):
                    raise DegenerateInputError("polygon edges self-intersect")

    def contains(self, p: Point, strict: bool = True) -> bool:
        return point_in_polygon(p, self.vertices, strict=strict)

    def bounds(self) -> tuple[float, float, float, float]:
        return bounding_box(self.vertices)
