"""Planar geometric primitives shared by the whole package.

Coordinates are measured in units of the radio range, so an ad hoc link
exists exactly between points at distance <= 1.  All sign tests run on
normalized determinants with a fixed tolerance; inputs closer to a
degeneracy than that are rejected rather than silently classified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple, Sequence

from .errors import DegenerateInputError

# Tolerance for normalized orientation / cocircularity determinants.
EPS = 1e-12


class Point(NamedTuple):
    x: float
    y: float


class Orientation(Enum):
    LEFT = 1
    COLLINEAR = 0
    RIGHT = -1


def dist(p: Point, q: Point) -> float:
    return math.hypot(p[0] - q[0], p[1] - q[1])


def cross(o: Point, a: Point, b: Point) -> float:
    """z-component of (a-o) x (b-o)."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def orientation(a: Point, b: Point, c: Point) -> Orientation:
    """Orientation of the ordered triple, normalized by the leg lengths."""
    raw = cross(a, b, c)
    scale = dist(a, b) * dist(a, c)
    if scale == 0.0:
        return Orientation.COLLINEAR
    n = raw / scale
    if n > EPS:
        return Orientation.LEFT
    if n < -EPS:
        return Orientation.RIGHT
    return Orientation.COLLINEAR


def circumcenter(a: Point, b: Point, c: Point) -> tuple[Point, float]:
    """Center and radius of the circle through three non-collinear points."""
    d = 2.0 * (a[0] * (b[1] - c[1]) + b[0] * (c[1] - a[1]) + c[0] * (a[1] - b[1]))
    if orientation(a, b, c) is Orientation.COLLINEAR:
        raise DegenerateInputError(f"collinear points have no circumcircle: {a}, {b}, {c}")
    a2 = a[0] * a[0] + a[1] * a[1]
    b2 = b[0] * b[0] + b[1] * b[1]
    c2 = c[0] * c[0] + c[1] * c[1]
    ux = (a2 * (b[1] - c[1]) + b2 * (c[1] - a[1]) + c2 * (a[1] - b[1])) / d
    uy = (a2 * (c[0] - b[0]) + b2 * (a[0] - c[0]) + c2 * (b[0] - a[0])) / d
    center = Point(ux, uy)
    return center, dist(center, a)


def segments_properly_intersect(p1: Point, p2: Point, q1: Point, q2: Point) -> bool:
    """True iff the open segments p1p2 and q1q2 share a point."""
    d1 = cross(q1, q2, p1)
    d2 = cross(q1, q2, p2)
    d3 = cross(p1, p2, q1)
    d4 = cross(p1, p2, q2)
    scale_q = dist(q1, q2)
    scale_p = dist(p1, p2)
    if scale_p == 0.0 or scale_q == 0.0:
        return False
    t1, t2 = d1 / (scale_q * scale_q), d2 / (scale_q * scale_q)
    t3, t4 = d3 / (scale_p * scale_p), d4 / (scale_p * scale_p)
    if ((t1 > EPS and t2 < -EPS) or (t1 < -EPS and t2 > EPS)) and (
        (t3 > EPS and t4 < -EPS) or (t3 < -EPS and t4 > EPS)
    ):
        return True
    # Collinear overlap: open intervals on a shared supporting line.
    if abs(t1) <= EPS and abs(t2) <= EPS and abs(t3) <= EPS and abs(t4) <= EPS:
        axis = 0 if abs(p2[0] - p1[0]) >= abs(p2[1] - p1[1]) else 1
        lo_p, hi_p = sorted((p1[axis], p2[axis]))
        lo_q, hi_q = sorted((q1[axis], q2[axis]))
        return min(hi_p, hi_q) - max(lo_p, lo_q) > EPS * max(1.0, scale_p, scale_q)
    return False


def signed_turn_angle(u: Point, v: Point, w: Point) -> float:
    """Turn angle at v on the walk u -> v -> w, in degrees.

    Right (clockwise) turns are positive, left turns negative, straight is 0.
    A closed clockwise tour therefore sums to +360 and a counterclockwise
    tour to -360.
    """
    if u == v or v == w:
        raise DegenerateInputError("turn angle needs two nonzero steps")
    ax, ay = v[0] - u[0], v[1] - u[1]
    bx, by = w[0] - v[0], w[1] - v[1]
    crs = ax * by - ay * bx
    dot = ax * bx + ay * by
    return -math.degrees(math.atan2(crs, dot))


def polygon_signed_area(pts: Sequence[Point]) -> float:
    """Shoelace area: positive for counterclockwise vertex order."""
    area = 0.0
    n = len(pts)
    for i in range(n):
        x1, y1 = pts[i]
        x2, y2 = pts[(i + 1) % n]
        area += x1 * y2 - x2 * y1
    return area / 2.0


def polygon_perimeter(pts: Sequence[Point]) -> float:
    return sum(dist(pts[i], pts[(i + 1) % len(pts)]) for i in range(len(pts)))


def convex_hull_oracle(points: Iterable[Point]) -> list[Point]:
    """Convex hull, counterclockwise, starting at the lexicographic minimum.

    Monotone chain with strict turns: collinear interior points are dropped.
    """
    pts = sorted(set(Point(*p) for p in points))
    if len(pts) < 3:
        raise DegenerateInputError("hull needs at least 3 distinct points")

    def chain(seq: Sequence[Point]) -> list[Point]:
        out: list[Point] = []
        for p in seq:
            while len(out) >= 2:
                scale = dist(out[-2], out[-1]) * dist(out[-2], p)
                if scale > 0.0 and cross(out[-2], out[-1], p) / scale > EPS:
                    break
                out.pop()
            out.append(p)
        return out

    lower = chain(pts)
    upper = chain(list(reversed(pts)))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise DegenerateInputError("all points are collinear")
    return hull


def point_in_polygon(p: Point, poly: Sequence[Point], strict: bool = True) -> bool:
    """Ray-casting containment test.

    With strict=True, points on the boundary count as outside; with
    strict=False they count as inside.
    """
    n = len(poly)
    # boundary check first
    for i in range(n):
        a, b = poly[i], poly[(i + 1) % n]
        if _on_segment(p, a, b):
            return not strict
    inside = False
    for i in range(n):
        a, b = poly[i], poly[(i + 1) % n]
        if (a[1] > p[1]) != (b[1] > p[1]):
            xi = a[0] + (p[1] - a[1]) * (b[0] - a[0]) / (b[1] - a[1])
            if p[0] < xi:
                inside = not inside
    return inside


def _on_segment(p: Point, a: Point, b: Point) -> bool:
    scale = dist(a, b)
    if scale == 0.0:
        return dist(p, a) <= EPS
    if abs(cross(a, b, p)) / (scale * scale) > EPS:
        return False
    lo_x, hi_x = sorted((a[0], b[0]))
    lo_y, hi_y = sorted((a[1], b[1]))
    pad = EPS * max(1.0, scale)
    return lo_x - pad <= p[0] <= hi_x + pad and lo_y - pad <= p[1] <= hi_y + pad


def segment_polygon_params(a: Point, b: Point, poly: Sequence[Point]) -> list[float]:
    """Sorted parameters t in [0,1] where segment ab meets the polygon boundary."""
    out: list[float] = []
    n = len(poly)
    abx, aby = b[0] - a[0], b[1] - a[1]
    for i in range(n):
        c, d = poly[i], poly[(i + 1) % n]
        denom = abx * (d[1] - c[1]) - aby * (d[0] - c[0])
        if abs(denom) < 1e-30:
            # parallel: record endpoint touches via on-segment checks
            for t, q in ((0.0, a), (1.0, b)):
                if _on_segment(q, c, d):
                    out.append(t)
            continue
        t = ((c[0] - a[0]) * (d[1] - c[1]) - (c[1] - a[1]) * (d[0] - c[0])) / denom
        u = ((c[0] - a[0]) * aby - (c[1] - a[1]) * abx) / denom
        pad = 1e-9
        if -pad <= t <= 1.0 + pad and -pad <= u <= 1.0 + pad:
            out.append(min(1.0, max(0.0, t)))
    out.sort()
    dedup: list[float] = []
    for t in out:
        if not dedup or t - dedup[-1] > 1e-9:
            dedup.append(t)
    return dedup


def segment_crosses_polygon(a: Point, b: Point, poly: Sequence[Point]) -> bool:
    """True iff the open segment ab intersects the open region bounded by poly."""
    params = segment_polygon_params(a, b, poly)
    cuts = [0.0] + params + [1.0]
    for i in range(len(cuts) - 1):
        lo, hi = cuts[i], cuts[i + 1]
        if hi - lo < 1e-9:
            continue
        t = (lo + hi) / 2.0
        mid = Point(a[0] + (b[0] - a[0]) * t, a[1] + (b[1] - a[1]) * t)
        if point_in_polygon(mid, poly, strict=True):
            return True
    return False


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

    @property
    def area(self) -> float:
        return polygon_signed_area(self.vertices)

    def contains(self, p: Point, strict: bool = True) -> bool:
        return point_in_polygon(p, self.vertices, strict=strict)

    def bounds(self) -> tuple[float, float, float, float]:
        xs = [p[0] for p in self.vertices]
        ys = [p[1] for p in self.vertices]
        return min(xs), min(ys), max(xs), max(ys)
