"""Metric names, units, the percentile rule and the per-layer table.

End-to-end metrics are what a user of the simulator sees: host seconds and
memory, and the simulated cost and route quality the paper bounds. Host
metrics are wall-clock; simulated metrics are deterministic for a seed.
Per-layer metrics come from the traced run, and each one names the
end-to-end metric and workload it should move.

BENCHMARK.json gates only the end-to-end metrics that every listed workload
reports and that hold steady from run to run: set-up time, peak memory and
the simulated costs. On the 2-core host shared with other tenants where the
benchmark was tuned, load from outside slows every step by up to 1.6x for
tens of seconds at a time, so a step longer than a second (build_s, run_s,
recompute_s) moved by 20-35% between runs of the same inputs; those, and the
query metrics that abstraction-2048 does not exercise, are printed and
recorded but not gated.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple, Sequence

from tracer import Tracer, layer_totals

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

# name -> unit; lower is better for all but queries_per_s
END_TO_END = {
    # host: wall-clock seconds and memory of this process
    "setup_s": "s",
    "build_s": "s",
    "run_s": "s",
    "recompute_s": "s",
    "query_ms_p50": "ms",
    "query_ms_p95": "ms",
    "queries_per_s": "1/s",
    "peak_rss_mb": "MB",
    # simulated: deterministic for a seed
    "protocol_rounds": "rounds",
    "abstraction_messages": "msgs",
    "abstraction_bytes": "bytes",
    "longrange_per_node_max": "msgs",
    "route_ratio_mean": "ratio",
    "route_ratio_max": "ratio",
    "bounds_failed": "count",
    # check
    "ops_failed_ratio": "ratio",
}

# the least number of samples that must lie beyond a reported tail percentile
MIN_TAIL = 10


def percentile(samples: Sequence[float], q: float) -> tuple[float, int]:
    """Nearest-rank q-quantile and the number of samples above its rank."""
    xs = sorted(samples)
    k = max(1, math.ceil(q * len(xs)))
    return xs[k - 1], len(xs) - k


def tail_percentile(samples: Sequence[float], q: float) -> tuple[float, int] | None:
    """The q-quantile, or None when fewer than MIN_TAIL samples lie beyond it."""
    if not samples:
        return None
    value, beyond = percentile(samples, q)
    return (value, beyond) if beyond >= MIN_TAIL else None


class LayerMetric(NamedTuple):
    name: str
    better: str
    moves: str  # end-to-end metric and workload this metric should move


LAYER_METRICS = [
    LayerMetric("ldel.build_ldel2.s", "lower", "build_s on abstraction-2048"),
    LayerMetric("simengine.run_phase.calls", "lower", "build_s on abstraction-2048 and manyholes-6x6"),
    LayerMetric("simengine.run_phase.self_s", "lower", "build_s on abstraction-2048 and manyholes-6x6"),
    LayerMetric("simengine.handler_calls", "lower", "build_s on abstraction-2048 and manyholes-6x6"),
    LayerMetric("simengine.handler_active_ratio", "higher", "build_s on abstraction-2048 and manyholes-6x6"),
    LayerMetric("simengine.step_round.calls", "lower", "build_s on abstraction-2048 and manyholes-6x6"),
    LayerMetric("simengine.send.calls", "lower", "build_s on abstraction-2048 (abstraction_bytes must not move)"),
    LayerMetric("simengine.send.self_s", "lower", "build_s on abstraction-2048 (abstraction_bytes must not move)"),
    LayerMetric("holes.classify_rings.s", "lower", "build_s on manyholes-6x6"),
    LayerMetric("holes.classify_rings.rounds", "lower", "protocol_rounds on manyholes-6x6"),
    LayerMetric("holes.build_hull_abstraction.calls", "lower", "protocol_rounds on manyholes-6x6"),
    LayerMetric("holes.build_hull_abstraction.s", "lower", "build_s on manyholes-6x6"),
    LayerMetric("holes.build_hull_abstraction.rounds", "lower", "protocol_rounds on manyholes-6x6"),
    LayerMetric("overlay.pointer_jumping.s", "lower", "build_s on abstraction-2048"),
    LayerMetric("overlay.pointer_jumping.rounds", "lower", "protocol_rounds on abstraction-2048"),
    LayerMetric("overlay.rank_ring.s", "lower", "build_s on abstraction-2048"),
    LayerMetric("overlay.ring_protocol.s", "lower", "build_s on abstraction-2048"),
    LayerMetric("overlay.ring_protocol.rounds", "lower", "protocol_rounds on abstraction-2048"),
    LayerMetric("overlay.hypercube_sort.s", "lower", "build_s on abstraction-2048"),
    LayerMetric("overlay.parallel_convex_hull.s", "lower", "build_s on abstraction-2048"),
    LayerMetric("overlay.dominating_set.calls", "lower", "build_s on abstraction-2048"),
    LayerMetric("overlay.dominating_set.s", "lower", "build_s on abstraction-2048"),
    LayerMetric("overlay.distribute_hulls.s", "lower", "build_s on abstraction-2048"),
    LayerMetric("overlay.distribute_hulls.rounds", "lower", "protocol_rounds on abstraction-2048"),
    LayerMetric("overlay.distribute_hulls.messages", "lower", "longrange_per_node_max on manyholes-6x6"),
    LayerMetric("overlay.distribute_hulls.longrange_max", "lower", "longrange_per_node_max and bounds_failed on manyholes-6x6"),
    LayerMetric("overlay.build_broadcast_tree.rounds", "lower", "protocol_rounds on every workload"),
    LayerMetric("routing.Router.s", "lower", "build_s on manyholes-6x6; little change on queries-512"),
    LayerMetric("routing.build_visibility_graph.s", "lower", "build_s on manyholes-6x6; little change on queries-512"),
    LayerMetric("routing.build_overlay_delaunay.s", "lower", "build_s on manyholes-6x6; little change on queries-512"),
    LayerMetric("routing.segment_crosses_polygon.calls", "lower", "build_s on manyholes-6x6; little change on queries-512"),
    LayerMetric("routing.locate.s", "lower", "query_ms_p50 on queries-512"),
    LayerMetric("routing.chew_route.calls", "lower", "query_ms_p50 on queries-512"),
    LayerMetric("routing.chew_route.s", "lower", "query_ms_p50 on queries-512"),
    LayerMetric("routing.chew_route.reached_ratio", "higher", "query_ms_p50 on queries-512"),
    LayerMetric("routing.overlay_shortest_path.calls", "lower", "query_ms_p95 on manyholes-6x6 and queries-512"),
    LayerMetric("routing.overlay_shortest_path.s", "lower", "query_ms_p95 on manyholes-6x6 and queries-512"),
    LayerMetric("routing.overlay_shortest_path.per_query", "lower", "query_ms_p95 on manyholes-6x6 and queries-512"),
    LayerMetric("routing.udg_oracle.s", "lower", "query_ms_p50 and queries_per_s on queries-512"),
    LayerMetric("routing.measure_competitiveness.s", "lower", "queries_per_s on queries-512"),
    LayerMetric("pipeline.bound_audit.s", "lower", "run_s on abstraction-2048"),
    LayerMetric("pipeline.report.s", "lower", "run_s on abstraction-2048"),
    LayerMetric("pipeline.periodic_recompute.s", "lower", "recompute_s on mobility-512"),
    LayerMetric("pipeline.periodic_recompute.rounds", "lower", "recompute_s on mobility-512"),
    LayerMetric("trace.overhead_build_s", "lower", "none: traced minus untraced build_s"),
    LayerMetric("trace.overhead_run_s", "lower", "none: traced minus untraced run_s"),
]

_UNIT_BY_KEY = {
    "s": "s",
    "self_s": "s",
    "overhead_build_s": "s",
    "overhead_run_s": "s",
    "calls": "count",
    "handler_calls": "count",
    "rounds": "rounds",
    "messages": "msgs",
    "longrange_max": "msgs",
    "handler_active_ratio": "ratio",
    "reached_ratio": "ratio",
    "per_query": "calls/query",
}


def layer_unit(name: str) -> str:
    return _UNIT_BY_KEY[name.rsplit(".", 1)[1]]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_values(tracer: Tracer, queries: int) -> dict[str, float]:
    """Every per-layer metric of one traced pass; 0 where a layer never ran.

    The trace overheads need the untraced pass too and are left to the caller.
    """
    totals = layer_totals(tracer.spans)
    counts = tracer.counts
    out: dict[str, float] = {}
    for m in LAYER_METRICS:
        if m.name in counts:
            out[m.name] = counts[m.name]
        else:
            span, key = m.name.rsplit(".", 1)
            out[m.name] = totals.get(span, {}).get(key, 0.0)
    chew = totals.get("routing.chew_route", {})
    out["simengine.handler_active_ratio"] = _ratio(
        counts["simengine.handler_active"], counts["simengine.handler_calls"]
    )
    out["routing.chew_route.reached_ratio"] = _ratio(chew.get("reached", 0.0), chew.get("calls", 0.0))
    out["routing.overlay_shortest_path.per_query"] = _ratio(
        totals.get("routing.overlay_shortest_path", {}).get("calls", 0.0), queries
    )
    return out
