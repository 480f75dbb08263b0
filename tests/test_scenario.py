"""Scenario generation: pinned topologies and the obstacle box reject."""

from __future__ import annotations

import hashlib
import json
import math
import random

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from hullroute.errors import DegenerateInputError, GenerationError
from hullroute.geometry import Point, Polygon, point_in_polygon
from hullroute.scenario import (
    ScenarioSpec,
    _grid_points,
    fixture_topology,
    generate_scenario,
    holes_grid_spec,
    scaling_spec,
)

# sha256 of topology_rows, recorded before scenario generation and the UDG
# build took their fast paths; any change to a point, a radio link, a
# knowledge set or the order a set or dict iterates in moves it
GOLDEN = {
    "grid36-hole4": "426c078a7130cff673d6c12762e19e926c7488a0008b20c6a16932e22c21f4e8",
    "crescent-24": "8043d76d064a5d2237af4219ee32563fcc8711e6502ddfe5e7c02bbd5d880fa0",
    "star12-4": "6968ef223981b5a2d733bbdb29caea0b81311003204a005387a13eaa82c876c5",
    "cshape-40": "a688aeff3049e199f9c03a11fac1d4d1081cab970579267f6b07450bfbdd8759",
    "scale-512-1": "976b0f6b463b076c3b21c5acab4c7201d80aff48db92bb29020568b3b3472680",
    "scale-2048-1": "652510820b0d55fee711e955218fe1c7b47191fbbc86735779a3c35159ae9b66",
    "scale-4096-1": "28fa86ff76a52e6d9f5b878c0d42d1bd3ec256a75448575fb2bc7b6ece112054",
    "holes-grid-2048": "f3bf610baac5a160d43a3f921d658c33d65921863b043597b7bcfe6744be6963",
}


def topology_rows(topo) -> list:
    """[v, x, y, adhoc[v], knows[v]] per node in ids order, sets in iteration order."""
    return [
        [v, topo.points[v].x, topo.points[v].y, list(topo.adhoc[v]), list(topo.knows[v])]
        for v in topo.ids
    ]


def pinned_topology(name: str):
    # holes-grid-2048 was pinned before fixture_topology named it grid-2048
    return fixture_topology(name.removeprefix("holes-"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_topology_matches_golden_digest(name):
    topo = pinned_topology(name)
    assert list(topo.points) == topo.ids == list(topo.adhoc) == list(topo.knows)
    rows = topology_rows(topo)
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == GOLDEN[name]


@pytest.mark.parametrize(
    "name,spec",
    [("scale-300-2", scaling_spec(300, 2)), ("grid-400", holes_grid_spec(400)), ("grid-400-2", holes_grid_spec(400, k=2))],
)
def test_fixture_topology_names_generated_instances(name, spec):
    assert fixture_topology(name).points == generate_scenario(spec).points


@pytest.mark.parametrize("name", ["scale-512", "scale-512-1-2", "scale-x-1", "scale-0512-1", "grid-0", "grid-2048-0", ""])
def test_fixture_topology_rejects_unknown_and_malformed_names(name):
    with pytest.raises(GenerationError):
        fixture_topology(name)


def brute_grid_points(spec: ScenarioSpec, spacing: float, rng: random.Random) -> list[Point]:
    """_grid_points with the plain polygon test on every lattice point."""
    x0, y0, x1, y1 = spec.region
    cols = int(math.floor((x1 - x0) / spacing + 1e-9)) + 1
    rows = int(math.floor((y1 - y0) / spacing + 1e-9)) + 1
    pts = []
    for j in range(rows):
        for i in range(cols):
            x = x0 + i * spacing + rng.uniform(-spec.jitter, spec.jitter)
            y = y0 + j * spacing + rng.uniform(-spec.jitter, spec.jitter)
            p = Point(x, y)
            if not any(point_in_polygon(p, ob.vertices, strict=False) for ob in spec.obstacles):
                pts.append(p)
    return pts


lattice_point = st.tuples(st.integers(0, 8), st.integers(0, 8))


@st.composite
def lattice_polygon(draw) -> Polygon:
    """Simple polygon on integer vertices, star-shaped about their centroid."""
    corners = draw(st.lists(lattice_point, min_size=3, max_size=8, unique=True))
    cx = sum(x for x, _ in corners) / len(corners)
    cy = sum(y for _, y in corners) / len(corners)
    corners.sort(key=lambda p: math.atan2(p[1] - cy, p[0] - cx))
    try:
        return Polygon(tuple(Point(float(x), float(y)) for x, y in corners))
    except DegenerateInputError:
        assume(False)


@given(
    st.lists(lattice_polygon(), min_size=1, max_size=3),
    st.sampled_from([0.5, 1.0]),
    st.sampled_from([0.0, 0.0, 0.3]),
    st.integers(0, 2**16),
)
@example(  # box edges, polygon edges and vertices all on lattice lines
    [Polygon((Point(2.0, 2.0), Point(6.0, 2.0), Point(6.0, 6.0), Point(2.0, 6.0)))], 1.0, 0.0, 0
)
@example(
    [Polygon((Point(1.0, 1.0), Point(7.0, 3.0), Point(4.0, 4.0), Point(3.0, 7.0)))], 0.5, 0.0, 0
)
def test_grid_points_box_reject_matches_plain_polygon_test(obstacles, spacing, jitter, seed):
    spec = ScenarioSpec(seed=seed, region=(-1.0, -1.0, 9.0, 9.0), jitter=jitter, obstacles=obstacles)
    got = _grid_points(spec, spacing, random.Random(seed))
    assert got == brute_grid_points(spec, spacing, random.Random(seed))
