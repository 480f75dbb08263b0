from __future__ import annotations

import math
import random

import pytest

from hullroute.errors import DegenerateInputError
from hullroute.geometry import (
    Orientation,
    Point,
    Polygon,
    convex_hull_oracle,
    circumcenter,
    orientation,
    point_in_polygon,
    polygon_signed_area,
    segment_crosses_polygon,
    segments_properly_intersect,
    signed_turn_angle,
)
from oracles import brute_hull, shoelace


def test_orientation_basic():
    assert orientation(Point(0, 0), Point(1, 0), Point(0, 1)) is Orientation.LEFT
    assert orientation(Point(0, 0), Point(0, 1), Point(1, 0)) is Orientation.RIGHT
    assert orientation(Point(0, 0), Point(1, 0), Point(2, 0)) is Orientation.COLLINEAR


def test_orientation_antisymmetry_sampled():
    rng = random.Random(7)
    for _ in range(300):
        a, b, c = (Point(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(3))
        o1 = orientation(a, b, c)
        o2 = orientation(a, c, b)
        if o1 is Orientation.COLLINEAR:
            assert o2 is Orientation.COLLINEAR
        else:
            assert o1.value == -o2.value


def test_collinear_circumcircle_rejected():
    with pytest.raises(DegenerateInputError):
        circumcenter(Point(0, 0), Point(1, 0), Point(2, 0))


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


def test_signed_turn_angle():
    assert signed_turn_angle(Point(0, 0), Point(1, 0), Point(2, 0)) == pytest.approx(0.0)
    assert signed_turn_angle(Point(0, 0), Point(1, 0), Point(1, -1)) == pytest.approx(90.0)
    assert signed_turn_angle(Point(0, 0), Point(1, 0), Point(1, 1)) == pytest.approx(-90.0)
    with pytest.raises(DegenerateInputError):
        signed_turn_angle(Point(0, 0), Point(0, 0), Point(1, 1))


def test_turn_angles_sum_on_simple_polygons():
    rng = random.Random(23)
    for _ in range(50):
        # star-shaped polygon around the origin: strictly increasing angles
        # stratified angles keep the origin inside, so the angular order
        # yields a simple polygon
        k = rng.randint(4, 12)
        step = 2 * math.pi / k
        angles = [i * step + rng.uniform(0.05, 0.95) * step for i in range(k)]
        radii = [rng.uniform(1, 3) for _ in angles]
        pts = [Point(math.cos(t) * r, math.sin(t) * r) for t, r in zip(angles, radii)]
        if abs(shoelace(pts)) < 1e-6:
            continue
        ccw = pts if shoelace(pts) > 0 else list(reversed(pts))
        n = len(ccw)
        total = sum(
            signed_turn_angle(ccw[i - 1], ccw[i], ccw[(i + 1) % n]) for i in range(n)
        )
        assert total == pytest.approx(-360.0, abs=1e-6)
        cw = list(reversed(ccw))
        total_cw = sum(
            signed_turn_angle(cw[i - 1], cw[i], cw[(i + 1) % n]) for i in range(n)
        )
        assert total_cw == pytest.approx(360.0, abs=1e-6)


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
