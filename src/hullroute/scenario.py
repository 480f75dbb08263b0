"""Scenario generation and serialization.

Scenarios are deterministic functions of their spec: the same seed and
parameters always produce the same node set.  Obstacle polygons carve
node-free regions out of the sampling area; the cavities they leave
behind are what the abstraction later detects as holes.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError, DisconnectedError, GenerationError
from .geometry import Point, Polygon, polygon_signed_area
from .ldel import UNIT_RANGE, HybridTopology, build_udg

# densified-spacing retries after the first attempt
MAX_RETRIES = 8


@dataclass
class ScenarioSpec:
    """Parameters for one generated scenario.

    A jittered lattice of the given spacing is laid over the region, and
    nodes inside an obstacle are discarded.  If the unit disk graph comes
    out disconnected, generation retries with a densified spacing, up to
    MAX_RETRIES times.
    """

    seed: int
    region: tuple[float, float, float, float] = (0.0, 0.0, 3.5, 3.5)
    spacing: float = 0.7
    jitter: float = 1e-6
    obstacles: list[Polygon] = field(default_factory=list)

    name: str = ""


def generate_scenario(spec: ScenarioSpec) -> HybridTopology:
    spacing = spec.spacing
    last_err: Exception | None = None
    for attempt in range(MAX_RETRIES + 1):
        rng = random.Random(spec.seed * 1_000_003 + attempt)
        pts = _grid_points(spec, spacing, rng)
        if len(pts) < 2:
            last_err = GenerationError("not enough nodes survived the obstacles")
            spacing *= 0.92
            continue
        try:
            return build_udg(dict(enumerate(pts)))
        except DisconnectedError as e:
            last_err = e
            spacing *= 0.92
    raise GenerationError(
        f"could not generate a connected scenario after {MAX_RETRIES + 1} "
        f"attempts (last spacing {spacing:.4f}): {last_err}"
    )


def _blocked(p: Point, boxed: list[tuple[tuple[float, float, float, float], Polygon]]) -> bool:
    """p lies in a closed obstacle; `boxed` pairs each obstacle with its bounds.

    A point outside an obstacle's closed box is outside the obstacle, so
    the box test rejects exactly and the polygon test runs only inside it.
    """
    x, y = p
    return any(
        bx0 <= x <= bx1 and by0 <= y <= by1 and ob.contains(p, strict=False)
        for (bx0, by0, bx1, by1), ob in boxed
    )


def _grid_points(spec: ScenarioSpec, spacing: float, rng: random.Random) -> list[Point]:
    x0, y0, x1, y1 = spec.region
    cols = int(math.floor((x1 - x0) / spacing + 1e-9)) + 1
    rows = int(math.floor((y1 - y0) / spacing + 1e-9)) + 1
    boxed = [(ob.bounds(), ob) for ob in spec.obstacles]
    jitter, uniform = spec.jitter, rng.uniform
    pts: list[Point] = []
    for j in range(rows):
        for i in range(cols):
            x = x0 + i * spacing + uniform(-jitter, jitter)
            y = y0 + j * spacing + uniform(-jitter, jitter)
            p = Point(x, y)
            if not _blocked(p, boxed):
                pts.append(p)
    return pts


# ---------------------------------------------------------------------------
# named fixtures


def _square(cx: float, cy: float, side: float) -> Polygon:
    h = side / 2.0
    return Polygon(
        (
            Point(cx - h, cy - h),
            Point(cx + h, cy - h),
            Point(cx + h, cy + h),
            Point(cx - h, cy + h),
        )
    )


def _star_polygon(cx: float, cy: float, spikes: int, r_out: float, r_in: float) -> Polygon:
    pts = []
    for i in range(spikes * 2):
        ang = math.pi * i / spikes
        r = r_out if i % 2 == 0 else r_in
        pts.append(Point(cx + r * math.cos(ang), cy + r * math.sin(ang)))
    return Polygon(tuple(pts))


def _crescent_polygon(cx: float, cy: float) -> Polygon:
    """Crescent: outer arc bulging up, inner arc biting in from above."""
    outer_r, inner_r = 2.2, 1.9
    inner_c = (cx, cy + 1.1)
    pts: list[Point] = []
    n = 16
    for i in range(n + 1):  # outer arc, left to right along the bottom bulge
        ang = math.pi + i * math.pi / n
        pts.append(Point(cx + outer_r * math.cos(ang), cy + outer_r * math.sin(ang)))
    for i in range(1, n):  # inner arc, right to left
        ang = math.pi * (i / n)
        x = inner_c[0] + inner_r * math.cos(ang)
        y = inner_c[1] - inner_r * math.sin(ang)
        pts.append(Point(x, y))
    poly = pts if polygon_signed_area(pts) > 0 else list(reversed(pts))
    return Polygon(tuple(poly))


def _cshape_points(seed: int) -> dict[int, Point]:
    """Two concentric arcs forming a C with a 3.0 mouth gap, 40 nodes."""
    rng = random.Random(seed)
    r_out, r_in = 2.8, 2.2
    theta0 = math.asin(1.5 / r_out)  # half mouth angle: chord 3.0 at outer tips
    pts: list[Point] = []
    n = 20
    for i in range(n):
        ang = theta0 + (2 * math.pi - 2 * theta0) * i / (n - 1)
        for r in (r_out, r_in):
            jr = r + rng.uniform(-0.02, 0.02)
            ja = ang + rng.uniform(-0.004, 0.004)
            pts.append(Point(jr * math.cos(ja), jr * math.sin(ja)))
    return dict(enumerate(pts))


def fixture_spec(name: str) -> ScenarioSpec:
    """Named, frozen scenario specs used by tests and the CLI."""
    if name == "grid36-hole4":
        return ScenarioSpec(
            seed=1,
            region=(0.0, 0.0, 3.5, 3.5),
            spacing=0.7,
            jitter=1e-6,
            obstacles=[_square(1.75, 1.75, 1.4)],
            name=name,
        )
    if name == "crescent-24":
        return ScenarioSpec(
            seed=7,
            region=(0.0, 0.0, 8.0, 8.0),
            spacing=0.5,
            jitter=0.04,
            obstacles=[_crescent_polygon(4.0, 3.6)],
            name=name,
        )
    if name == "star12-4":
        return ScenarioSpec(
            seed=11,
            region=(0.0, 0.0, 9.0, 9.0),
            spacing=0.5,
            jitter=0.04,
            obstacles=[_star_polygon(4.5, 4.5, 4, 2.6, 1.1)],
            name=name,
        )
    raise GenerationError(f"unknown fixture {name!r}")


def shuffled_ids(ids: list[int], seed: int) -> dict[int, int]:
    """A relabelling of `ids` onto themselves, drawn with `seed`: {old id: new id}."""
    new = list(ids)
    random.Random(seed).shuffle(new)
    return dict(zip(ids, new))


def fixture_topology(name: str) -> HybridTopology:
    """A fixture, scale-N-S for scaling_spec(N, S) or grid-N[-K] for holes_grid_spec(N, k=K).

    A `~S` suffix on any of these names, as in star12-4~2, relabels the
    instance's ids by shuffled_ids(ids, S): the same positions, the ids
    dealt at random instead of in generation order.
    """
    if m := re.fullmatch(r"(.+)~(0|[1-9][0-9]*)", name):
        topo = fixture_topology(m[1])
        relabel = shuffled_ids(topo.ids, int(m[2]))
        return build_udg(dict(sorted((relabel[v], p) for v, p in topo.points.items())))
    if name == "cshape-40":
        return build_udg(_cshape_points(seed=3))
    if m := re.fullmatch(r"scale-([1-9][0-9]*)-(0|[1-9][0-9]*)", name):
        return generate_scenario(scaling_spec(int(m[1]), int(m[2])))
    if m := re.fullmatch(r"grid-([1-9][0-9]*)(?:-([1-9][0-9]*))?", name):
        return generate_scenario(holes_grid_spec(int(m[1]), k=int(m[2]) if m[2] else None))
    return generate_scenario(fixture_spec(name))


def scaling_spec(n: int, seed: int = 5) -> ScenarioSpec:
    """Square jittered lattice with two fixed-size cavities, ~n nodes."""
    spacing = 0.55
    side = (math.isqrt(n) - 1) * spacing
    return ScenarioSpec(
        seed=seed,
        region=(0.0, 0.0, side, side),
        spacing=spacing,
        jitter=0.05,
        obstacles=[
            _square(side * 0.3, side * 0.35, 1.5),
            _square(side * 0.7, side * 0.65, 1.5),
        ],
        name=f"scale-{n}",
    )


def holes_grid_spec(n: int, seed: int = 5, k: int | None = None) -> ScenarioSpec:
    """scaling_spec(n, seed)'s lattice with a k x k grid of square holes.

    k defaults to round(sqrt(n) / 7.5), so the hole count grows in
    proportion to n (6 x 6 at n = 2048).  Square (i, j), side 1.5, is
    centred at step * (i + 1/2, j + 1/2) with step = width / k.
    """
    base = scaling_spec(n, seed)
    k = k or max(1, round(math.isqrt(n) / 7.5))
    x0, y0, x1, _ = base.region
    step = (x1 - x0) / k
    base.obstacles = [
        _square(x0 + step * (i + 0.5), y0 + step * (j + 0.5), 1.5)
        for i in range(k)
        for j in range(k)
    ]
    base.name = f"holes{k}x{k}-{n}"
    return base


# ---------------------------------------------------------------------------
# serialization


def topology_to_json(topo: HybridTopology) -> str:
    payload = {
        "nodes": [
            {"id": v, "x": topo.points[v].x, "y": topo.points[v].y} for v in topo.ids
        ],
        "radius": UNIT_RANGE,
    }
    return json.dumps(payload, sort_keys=True)


def read_json(path: str | Path):
    """The parsed JSON file at path; ConfigError if it is unreadable or not JSON."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def load_topology(path: str | Path) -> HybridTopology:
    """The topology save_topology wrote to path; ConfigError if it is malformed."""
    data = read_json(path)
    try:
        nodes = [(int(n["id"]), Point(float(n["x"]), float(n["y"]))) for n in data["nodes"]]
        radius = float(data.get("radius", UNIT_RANGE))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: malformed topology: {exc!r}") from exc
    if radius != UNIT_RANGE:
        raise ConfigError(f"{path}: radio range must be {UNIT_RANGE}, not {radius}")
    pts: dict[int, Point] = {}
    for v, p in nodes:
        if v in pts:
            raise ConfigError(f"{path}: duplicate node id {v}")
        pts[v] = p
    return build_udg(pts)


def save_topology(topo: HybridTopology, path: str | Path) -> None:
    Path(path).write_text(topology_to_json(topo) + "\n")
