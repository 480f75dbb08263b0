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
from dataclasses import dataclass, field
from pathlib import Path

from .errors import GenerationError
from .geometry import Point, Polygon, polygon_signed_area
from .ldel import HybridTopology, build_udg
from .errors import DisconnectedError


@dataclass
class ScenarioSpec:
    """Parameters for one generated scenario.

    mode "grid" lays a jittered lattice over the region; mode "poisson"
    throws darts with a minimum-separation constraint until target_count
    nodes are placed.  Nodes inside an obstacle are discarded.  If the
    unit disk graph comes out disconnected, generation retries with a
    densified spacing, up to max_retries.
    """

    seed: int
    mode: str = "grid"
    region: tuple[float, float, float, float] = (0.0, 0.0, 3.5, 3.5)
    spacing: float = 0.7
    jitter: float = 1e-6
    obstacles: list[Polygon] = field(default_factory=list)
    target_count: int | None = None
    radius: float = 1.0
    max_retries: int = 8

    name: str = ""


def generate_scenario(spec: ScenarioSpec) -> HybridTopology:
    spacing = spec.spacing
    last_err: Exception | None = None
    for attempt in range(spec.max_retries + 1):
        rng = random.Random(spec.seed * 1_000_003 + attempt)
        if spec.mode == "grid":
            pts = _grid_points(spec, spacing, rng)
        elif spec.mode == "poisson":
            pts = _poisson_points(spec, spacing, rng)
        else:
            raise GenerationError(f"unknown scenario mode {spec.mode!r}")
        if len(pts) < 2:
            last_err = GenerationError("not enough nodes survived the obstacles")
            spacing *= 0.92
            continue
        try:
            return build_udg(dict(enumerate(pts)), radius=spec.radius)
        except DisconnectedError as e:
            last_err = e
            spacing *= 0.92
    raise GenerationError(
        f"could not generate a connected scenario after {spec.max_retries + 1} "
        f"attempts (last spacing {spacing:.4f}): {last_err}"
    )


def _blocked(p: Point, obstacles: list[Polygon]) -> bool:
    return any(ob.contains(p, strict=False) for ob in obstacles)


def _grid_points(spec: ScenarioSpec, spacing: float, rng: random.Random) -> list[Point]:
    x0, y0, x1, y1 = spec.region
    cols = int(math.floor((x1 - x0) / spacing + 1e-9)) + 1
    rows = int(math.floor((y1 - y0) / spacing + 1e-9)) + 1
    pts: list[Point] = []
    for j in range(rows):
        for i in range(cols):
            x = x0 + i * spacing + rng.uniform(-spec.jitter, spec.jitter)
            y = y0 + j * spacing + rng.uniform(-spec.jitter, spec.jitter)
            p = Point(x, y)
            if not _blocked(p, spec.obstacles):
                pts.append(p)
    return pts


def _poisson_points(spec: ScenarioSpec, spacing: float, rng: random.Random) -> list[Point]:
    if spec.target_count is None:
        raise GenerationError("poisson mode needs target_count")
    x0, y0, x1, y1 = spec.region
    pts: list[Point] = []
    cell = spacing / math.sqrt(2.0)
    grid: dict[tuple[int, int], Point] = {}
    attempts = 0
    budget = spec.target_count * 200
    while len(pts) < spec.target_count and attempts < budget:
        attempts += 1
        p = Point(rng.uniform(x0, x1), rng.uniform(y0, y1))
        if _blocked(p, spec.obstacles):
            continue
        ci, cj = int(p.x / cell), int(p.y / cell)
        ok = True
        for di in range(-2, 3):
            for dj in range(-2, 3):
                q = grid.get((ci + di, cj + dj))
                if q is not None and math.hypot(p.x - q.x, p.y - q.y) < spacing:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            grid[(ci, cj)] = p
            pts.append(p)
    if len(pts) < spec.target_count:
        raise GenerationError(
            f"poisson sampling placed only {len(pts)} of {spec.target_count} nodes; "
            "density too low for the region/spacing"
        )
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
            mode="grid",
            region=(0.0, 0.0, 3.5, 3.5),
            spacing=0.7,
            jitter=1e-6,
            obstacles=[_square(1.75, 1.75, 1.4)],
            name=name,
        )
    if name == "crescent-24":
        return ScenarioSpec(
            seed=7,
            mode="grid",
            region=(0.0, 0.0, 8.0, 8.0),
            spacing=0.5,
            jitter=0.04,
            obstacles=[_crescent_polygon(4.0, 3.6)],
            name=name,
        )
    if name == "star12-4":
        return ScenarioSpec(
            seed=11,
            mode="grid",
            region=(0.0, 0.0, 9.0, 9.0),
            spacing=0.5,
            jitter=0.04,
            obstacles=[_star_polygon(4.5, 4.5, 4, 2.6, 1.1)],
            name=name,
        )
    raise GenerationError(f"unknown fixture {name!r}")


def fixture_topology(name: str) -> HybridTopology:
    if name == "cshape-40":
        return build_udg(_cshape_points(seed=3))
    return generate_scenario(fixture_spec(name))


def scaling_spec(n: int, seed: int = 5) -> ScenarioSpec:
    """Square jittered lattice with two fixed-size cavities, ~n nodes."""
    spacing = 0.55
    side = (math.isqrt(n) - 1) * spacing
    return ScenarioSpec(
        seed=seed,
        mode="grid",
        region=(0.0, 0.0, side, side),
        spacing=spacing,
        jitter=0.05,
        obstacles=[
            _square(side * 0.3, side * 0.35, 1.5),
            _square(side * 0.7, side * 0.65, 1.5),
        ],
        name=f"scale-{n}",
    )


# ---------------------------------------------------------------------------
# serialization


def topology_to_json(topo: HybridTopology) -> str:
    payload = {
        "nodes": [
            {"id": v, "x": topo.points[v].x, "y": topo.points[v].y} for v in topo.ids
        ],
        "radius": topo.radius,
    }
    return json.dumps(payload, sort_keys=True)


def topology_from_json(text: str) -> HybridTopology:
    data = json.loads(text)
    pts = {int(n["id"]): Point(float(n["x"]), float(n["y"])) for n in data["nodes"]}
    return build_udg(pts, radius=float(data.get("radius", 1.0)))


def load_topology(path: str | Path) -> HybridTopology:
    return topology_from_json(Path(path).read_text())


def save_topology(topo: HybridTopology, path: str | Path) -> None:
    Path(path).write_text(topology_to_json(topo) + "\n")
