"""Workloads: inputs made from the seed, one timed pass each, output checks.

A run of a workload is a list of passes. Each pass generates one scenario
instance from its own seed, builds the abstraction and does the workload's
operations in a closed loop (one client; the next query starts when the
previous one returned). The run's seed fixes every instance seed, and
`--seconds` fixes how many passes run, from each workload's nominal pass
cost, so the inputs and every simulated metric depend on (seed, seconds)
alone. Several instances per run keep the figures steady across seeds: one
instance's geometry moves its cost by more than 10%.

An instance whose build raises AssumptionViolationError lies outside the
model the paper assumes (for example, an outer hole's hull overlaps a
cavity's hull) and is replaced by the next draw; the run reports every such
skip. Any other HullrouteError is a failed operation.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import math
import random
import resource
import statistics
import time
from dataclasses import dataclass, field, replace

import hullroute.routing as routing_mod
from hullroute import (
    BACKEND_ODEL,
    BACKEND_VIS,
    AssumptionViolationError,
    HullrouteError,
    Pipeline,
    PipelineConfig,
    Point,
    Polygon,
    ScenarioSpec,
    generate_scenario,
    scaling_spec,
)
from hullroute.holes import hull_node_ids

from metrics import percentile, tail_percentile
from tracer import Tracer

# extra inadmissible draws tolerated per run before it gives up
MAX_SKIPPED = 8
MAX_MOVE = 0.03  # largest node displacement per mobility epoch
RECOMPUTE_INTERVAL = 64  # idle rounds charged before each recompute


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    backend: str
    queries: int  # per pass, or per epoch when epochs > 0
    nominal_pass_s: float  # one pass on a 2-core x86 host; sizes a run from --seconds
    why: str
    loads: str
    bypasses: str
    epochs: int = 0
    movers: int = 0  # nodes moved per epoch
    holes_grid: int = 0  # k for a k x k grid of square holes


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "abstraction-2048", 2048, BACKEND_VIS, queries=0, nominal_pass_s=8.0,
            why="Build, audit and report at n~2010, no queries: loads ldel, simengine, holes, overlay and the Router build; bypasses per-query routing and recompute.",
            loads="scenario, ldel, simengine, holes, overlay, routing (Router build), pipeline (audits, report)",
            bypasses="per-query routing: locate, chew walk, waypoint planning, distance oracle",
        ),
        Workload(
            "queries-512", 512, BACKEND_VIS, queries=300, nominal_pass_s=4.2,
            why="300 closed-loop random queries per build at n~471 (visibility): loads the per-query path (chew walk, waypoints, oracle); bypasses recompute and overlay-Delaunay.",
            loads="routing per query: locate, chew walk, waypoint planning, transmit, distance oracle",
            bypasses="overlay-Delaunay queries, periodic recompute; the engine is idle between queries",
        ),
        Workload(
            "mobility-512", 512, BACKEND_ODEL, queries=40, nominal_pass_s=6.0,
            epochs=2, movers=5,
            why="Epochs of node moves, periodic_recompute and overlay-Delaunay queries at n~471: loads the write path with tree reuse; bypasses tree construction after build 1.",
            loads="pipeline.periodic_recompute with broadcast-tree reuse, overlay-Delaunay waypoint planning",
            bypasses="broadcast-tree construction after the first build, visibility-backend queries",
        ),
        Workload(
            "manyholes-6x6", 1024, BACKEND_VIS, queries=100, nominal_pass_s=75.0,
            holes_grid=6,
            why="6x6 square holes at n~757: hole count loads the Router build, hull distribution and serial per-ring rounds; bypasses recompute. Not listed in BENCHMARK.json: 60+ s per pass.",
            loads="routing (Router build, waypoint replans), overlay.distribute_hulls, serial per-ring protocols",
            bypasses="mobility and recompute",
        ),
    ]
}


# ---------------------------------------------------------------------------
# inputs


def square(cx: float, cy: float, side: float) -> Polygon:
    h = side / 2.0
    return Polygon(
        (Point(cx - h, cy - h), Point(cx + h, cy - h), Point(cx + h, cy + h), Point(cx - h, cy + h))
    )


def many_holes_spec(n: int, k: int, seed: int, side: float = 1.5) -> ScenarioSpec:
    """scaling_spec(n, seed) geometry with a k x k grid of square holes.

    Square (i, j) is centred at step*(i + 1/2, j + 1/2), step = width / k,
    in place of the two fixed cavities.
    """
    base = scaling_spec(n, seed)
    x0, y0, x1, _ = base.region
    step = (x1 - x0) / k
    holes = [
        square(x0 + step * (i + 0.5), y0 + step * (j + 0.5), side)
        for i in range(k)
        for j in range(k)
    ]
    return replace(base, obstacles=holes, name=f"manyholes-{k}x{k}-{n}")


def scenario_spec(wl: Workload, seed: int) -> ScenarioSpec:
    if wl.holes_grid:
        return many_holes_spec(wl.n, wl.holes_grid, seed)
    return scaling_spec(wl.n, seed)


def run_instances(wl: Workload, seed: int, seconds: float, run) -> tuple[list, list[str]]:
    """Call run(instance_seed) on each of the run's instances, in order.

    The first instance uses the run's seed itself, so `--seed 5` includes
    scaling_spec(n, 5); the rest are drawn from it. run returns a
    PassResult; an inadmissible one is set aside and the next seed drawn.
    Returns the admissible results and a line per skipped draw.
    """
    count = max(1, round(seconds / wl.nominal_pass_s))
    rng = random.Random(seed)
    draws = itertools.chain([seed], iter(lambda: rng.randrange(1 << 30), None))
    done, skipped = [], []
    while len(done) < count and len(skipped) <= MAX_SKIPPED:
        p = run(next(draws))
        if p.inadmissible:
            skipped.append(f"instance {p.seed}: {p.inadmissible}")
        else:
            done.append(p)
    return done, skipped


# ---------------------------------------------------------------------------
# one pass


@dataclass
class PassResult:
    seed: int
    setup_s: list[float] = field(default_factory=list)
    build_s: float = math.nan
    run_s: float = math.nan
    route_ms: list[float] = field(default_factory=list)
    loop_s: float = 0.0  # route calls plus measure_competitiveness
    recompute_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)  # raised HullrouteErrors
    inadmissible: str = ""  # why the instance lies outside the model, if it does
    violations: list[str] = field(default_factory=list)  # failed output checks
    ratios: list[float] = field(default_factory=list)
    sim: dict = field(default_factory=dict)  # deterministic results of the pass


def _request(tracer: Tracer | None, rid: str) -> None:
    if tracer is not None:
        tracer.request = rid


def hull_violations(pipe: Pipeline) -> list[str]:
    """Rings whose distributed hull differs from the centralized oracle."""
    points = pipe.topo.points
    return [
        f"ring {r.ring_id}: distributed hull differs from the oracle"
        for r in pipe.rings
        if list(pipe.abstractions[r.ring_id].hull_nodes) != hull_node_ids(points, r.members)
    ]


def path_violation(pipe: Pipeline, s: int, t: int, path: list[int]) -> str | None:
    if path[0] != s or path[-1] != t:
        return f"route {s}->{t}: path runs {path[0]}->{path[-1]}"
    for a, b in zip(path, path[1:]):
        if not pipe.g.has_edge(a, b):
            return f"route {s}->{t}: hop {a}-{b} is not an LDel2 edge"
    return None


def ratio_violation(res, backend: str) -> str | None:
    """The bound the acceptance gate applies to the route's case, if any."""
    if res.case_taken == "Visible":
        ok = res.euclidean_length <= routing_mod.CHEW_BOUND * res.straight_line + 1e-9
        bound = f"{routing_mod.CHEW_BOUND}*|st|"
    elif res.case_taken == "Case1":
        limit = routing_mod.CASE1_BOUND_VIS if backend == BACKEND_VIS else routing_mod.CASE1_BOUND_ODEL
        ok = res.competitive_ratio <= limit + 1e-9
        bound = str(limit)
    elif res.case_taken == "Case5":
        ok = res.competitive_ratio <= (2 + res.e_route) * routing_mod.CHEW_BOUND + 1e-9
        bound = f"(2+{res.e_route})*{routing_mod.CHEW_BOUND}"
    else:
        return None
    if ok:
        return None
    s, t = res.path[0], res.path[-1]
    return f"route {s}->{t} {res.case_taken}: ratio {res.competitive_ratio:.4f} exceeds {bound}"


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _failed_bounds(bounds: dict) -> int:
    return sum(1 for v in bounds.values() if not v["ok"])


def _route_batch(pipe, wl, rng, out: PassResult, routes: list, tracer, qbase: int) -> None:
    clock = time.perf_counter
    ids = sorted(pipe.topo.points)
    for i in range(wl.queries):
        s, t = rng.sample(ids, 2)
        pipe.topo.learn(s, t)  # the source holds the target id, as run_queries does
        _request(tracer, f"query:{qbase + i}")
        out.attempted += 1
        t0 = clock()
        try:
            res = pipe.router.route(pipe.engine, s, t)
        except HullrouteError as e:
            out.failed += 1
            out.errors.append(f"route {s}->{t}: {type(e).__name__}: {e}")
            continue
        dt = clock() - t0
        out.route_ms.append(dt * 1e3)
        out.loop_s += dt
        bad = path_violation(pipe, s, t, res.path)
        if bad:
            out.failed += 1
            out.violations.append(bad)
        routes.append(res)


def _move_nodes(topo, wl: Workload, rng: random.Random) -> None:
    for v in rng.sample(topo.ids, wl.movers):
        ang = rng.uniform(0.0, 2.0 * math.pi)
        r = rng.uniform(0.0, MAX_MOVE)
        p = topo.points[v]
        topo.move_node(v, Point(p.x + r * math.cos(ang), p.y + r * math.sin(ang)))


def _timed_setup(spec: ScenarioSpec, out: PassResult):
    t0 = time.perf_counter()
    topo = generate_scenario(spec)
    out.setup_s.append(time.perf_counter() - t0)
    return topo


def run_pass(wl: Workload, seed: int, tracer: Tracer | None = None) -> PassResult:
    """Generate, build, run the workload's operations and report; time each step.

    run_s is the sum of the timed steps; output checks are not timed. Set-up
    is timed four times, spread over the pass: before the build, after it,
    after the operations and after the report.
    """
    clock = time.perf_counter
    out = PassResult(seed)
    spec = scenario_spec(wl, seed)
    gc.collect()
    topo = _timed_setup(spec, out)
    pipe = Pipeline(topo, PipelineConfig(backend=wl.backend, strict=False))

    _request(tracer, "build")
    out.attempted += 1
    t0 = clock()
    try:
        pipe.build_abstraction()
    except AssumptionViolationError as e:
        out.inadmissible = f"{type(e).__name__}: {e}"
        return out
    except HullrouteError as e:
        out.failed += 1
        out.errors.append(f"build: {type(e).__name__}: {e}")
        return out
    out.build_s = run = clock() - t0
    sim = {
        "protocol_rounds": pipe.protocol_rounds,
        "abstraction_messages": pipe.engine.total_messages,
        "abstraction_bytes": pipe.engine.total_bytes,
        "digests": [pipe.abstraction_digest()],
    }
    out.violations += hull_violations(pipe)
    _timed_setup(spec, out)
    bounds_failed = 0

    rng = random.Random(seed)
    routes: list = []
    for e in range(wl.epochs):
        _move_nodes(topo, wl, rng)
        _request(tracer, f"recompute:{e}")
        out.attempted += 1
        t0 = clock()
        try:
            rec = pipe.periodic_recompute(RECOMPUTE_INTERVAL)
        except HullrouteError as err:
            out.failed += 1
            out.errors.append(f"recompute {e}: {type(err).__name__}: {err}")
            return out
        dt = clock() - t0
        out.recompute_s.append(dt)
        run += dt
        bounds_failed += not rec["ok"]
        sim["digests"].append(rec["abstraction_digest"])
        out.violations += hull_violations(pipe)
        _route_batch(pipe, wl, rng, out, routes, tracer, e * wl.queries)
    if not wl.epochs:
        _route_batch(pipe, wl, rng, out, routes, tracer, 0)
    run += out.loop_s
    _timed_setup(spec, out)

    _request(tracer, "report")
    t0 = clock()
    if routes:
        summary = routing_mod.measure_competitiveness(pipe.topo, routes)
    else:
        summary = {"per_case": {}, "max_ratio": 0.0, "count": 0}
    dt = clock() - t0
    out.loop_s += dt
    rep = pipe.report(routes, summary)
    run += clock() - t0
    out.run_s = run
    _timed_setup(spec, out)

    for res in routes:
        bad = ratio_violation(res, wl.backend)
        if bad:
            out.failed += 1
            out.violations.append(bad)
    out.ratios = [r.competitive_ratio for r in routes]
    sim["longrange_per_node_max"] = rep.bounds["longrange_per_node"]["measured_max"]
    sim["bounds_failed"] = bounds_failed + _failed_bounds(rep.bounds)
    sim["routes"] = _digest([[r.path[0], r.path[-1], r.case_taken, r.path] for r in routes])
    sim["ratios"] = _digest(out.ratios)
    out.sim = sim
    return out


# ---------------------------------------------------------------------------
# aggregation over passes


def simulated_metrics(passes: list[PassResult]) -> dict[str, float]:
    """Means over the instances; the ratio stats pool every route."""
    built = [p for p in passes if p.sim]
    out: dict[str, float] = {}
    if built:
        for key in ("protocol_rounds", "abstraction_messages", "abstraction_bytes", "longrange_per_node_max"):
            out[key] = statistics.fmean(p.sim[key] for p in built)
        out["bounds_failed"] = sum(p.sim["bounds_failed"] for p in built)
    ratios = [r for p in passes for r in p.ratios]
    if ratios:
        out["route_ratio_mean"] = statistics.fmean(ratios)
        out["route_ratio_max"] = max(ratios)
    return out


def end_to_end(passes: list[PassResult]) -> tuple[dict[str, float], dict[str, str]]:
    """End-to-end metrics of an untraced run, with notes on their samples."""
    median = statistics.median
    m: dict[str, float] = {}
    notes: dict[str, str] = {}
    # the fastest set-up, not the median: other tenants of a shared host
    # slow every step by up to 2x for tens of seconds at a time, and only a
    # short step repeated across the whole run reliably meets a quiet moment
    setups = [x for p in passes for x in p.setup_s]
    m["setup_s"] = min(setups)
    notes["setup_s"] = f"fastest of {len(setups)} set-ups spread over the run"
    built = [p.build_s for p in passes if not math.isnan(p.build_s)]
    if built:
        m["build_s"] = median(built)
        notes["build_s"] = f"median of {len(built)} passes"
    complete = [p for p in passes if not math.isnan(p.run_s)]
    if complete:
        m["run_s"] = median(p.run_s for p in complete)
        notes["run_s"] = f"median of {len(complete)} passes"
    recomputes = [x for p in passes for x in p.recompute_s]
    if recomputes:
        m["recompute_s"] = median(recomputes)
        notes["recompute_s"] = f"median of {len(recomputes)} epochs"
    latencies = [x for p in passes for x in p.route_ms]
    if latencies:
        m["query_ms_p50"] = percentile(latencies, 0.5)[0]
        notes["query_ms_p50"] = f"n={len(latencies)}"
        tail = tail_percentile(latencies, 0.95)
        if tail:
            m["query_ms_p95"] = tail[0]
            notes["query_ms_p95"] = f"n={len(latencies)}, {tail[1]} beyond"
        loop = sum(p.loop_s for p in complete)
        if loop > 0:
            m["queries_per_s"] = sum(len(p.route_ms) for p in complete) / loop
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    m.update(simulated_metrics(passes))
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    m["ops_failed_ratio"] = failed / attempted
    notes["ops_failed_ratio"] = f"{failed} of {attempted} builds, recomputes and queries"
    return m, notes


def fingerprint(passes: list[PassResult]) -> str:
    """Digest of everything deterministic: simulated results of every pass."""
    return _digest([[p.seed, p.sim, p.errors] for p in passes])
