"""Spans and counters at the public boundaries of each hullroute layer.

`instrument(tracer)` wraps public functions from outside, in the namespace
of the module that calls them (for example `hullroute.pipeline.build_ldel2`,
or `hullroute.holes.pointer_jumping` next to `hullroute.overlay.pointer_jumping`
for the call inside `ring_protocol`), and puts the originals back on exit.
Nothing under `src/` changes, and an untraced pass in the same process runs
the plain code.

Layer calls become spans: name, start, end, parent span and request id
(`build`, `query:<i>`, `recompute:<e>`). Calls too frequent for a span each
(`RoundEngine.send`, `RoundEngine.step_round`, node handlers, the geometry
predicate `segment_crosses_polygon`) are counted, and the first two are also
timed; their time is charged to the innermost open span, so self times stay
exact. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from dataclasses import asdict, dataclass, field

import hullroute.holes as holes_mod
import hullroute.overlay as overlay_mod
import hullroute.pipeline as pipeline_mod
import hullroute.routing as routing_mod
from hullroute.simengine import RoundEngine


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    request: str
    # seconds spent in timed leaf calls made directly inside this span
    leaf_s: float = 0.0
    # simulated cost seen across the call: rounds, messages, outcome flags
    attrs: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.request = ""
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1].sid if self._stack else None
        s = Span(len(self.spans), name, self.clock(), 0.0, parent, self.request)
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = self.clock()
            self._stack.pop()

    def leaf(self, name: str, seconds: float) -> None:
        """Count one timed leaf call and charge its time to the open span."""
        self.counts[f"{name}.calls"] += 1
        self.counts[f"{name}.self_s"] += seconds
        if self._stack:
            self._stack[-1].leaf_s += seconds


# ---------------------------------------------------------------------------
# self-time arithmetic


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: outermost calls and seconds, self seconds, summed attrs.

    A span's self time is its duration minus the time its child spans and
    timed leaf calls cover. `calls`, `s` and attrs count only outermost
    spans (no ancestor of the same name), so a recursive call such as
    `chew_route` is not counted twice; `self_s` sums over every span.
    """
    by_id = {s.sid: s for s in spans}
    child_s: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_s[s.parent] += s.end - s.start
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        row = out.setdefault(s.name, defaultdict(float))
        dur = s.end - s.start
        row["self_s"] += dur - child_s[s.sid] - s.leaf_s
        if _nested_in_same_name(s, by_id):
            continue
        row["calls"] += 1
        row["s"] += dur
        for k, v in s.attrs.items():
            row[k] = max(row[k], v) if k.endswith("_max") else row[k] + v
    return {name: dict(row) for name, row in out.items()}


def _nested_in_same_name(s: Span, by_id: dict[int, Span]) -> bool:
    p = s.parent
    while p is not None:
        anc = by_id[p]
        if anc.name == s.name:
            return True
        p = anc.parent
    return False


# ---------------------------------------------------------------------------
# instrumentation


def _span_wrapper(tracer: Tracer, name: str, fn, on_result=None):
    """Wrap fn in a span; engine-first calls also record rounds and messages.

    on_result(attrs, result, engine, before) may add attrs from the result;
    before is (round, messages, transcript length) at the call, or None.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        engine = args[0] if args and isinstance(args[0], RoundEngine) else None
        before = None
        if engine is not None:
            before = (engine.round_no, engine.total_messages, len(engine.transcript))
        with tracer.span(name) as s:
            out = fn(*args, **kwargs)
            if engine is not None:
                s.attrs["rounds"] = engine.round_no - before[0]
                s.attrs["messages"] = engine.total_messages - before[1]
            if on_result is not None:
                on_result(s.attrs, out, engine, before)
        return out

    return wrapper


def _leaf_wrapper(tracer: Tracer, name: str, fn):
    clock = tracer.clock

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.leaf(name, clock() - t0)

    return wrapper


def _count_wrapper(tracer: Tracer, name: str, fn):
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def _run_phase_wrapper(tracer: Tracer, fn):
    """Span around run_phase; the handler it is given is wrapped to count calls.

    A handler call is active when its inbox is non-empty or it sends.
    """
    counts = tracer.counts
    span_fn = _span_wrapper(tracer, "simengine.run_phase", fn)

    @functools.wraps(fn)
    def wrapper(self, label, handler, max_rounds):
        def counted(eng, v, inbox):
            sent = eng.total_messages
            done = handler(eng, v, inbox)
            counts["simengine.handler_calls"] += 1
            if inbox or eng.total_messages != sent:
                counts["simengine.handler_active"] += 1
            return done

        return span_fn(self, label, counted, max_rounds)

    return wrapper


def _distribution_cost(attrs, out, engine, before) -> None:
    per_node: dict[int, int] = defaultdict(int)
    for line in engine.transcript[before[2]:]:
        if line["channel"] == "longrange":
            per_node[line["src"]] += 1
    attrs["longrange_max"] = max(per_node.values(), default=0)


def _chew_outcome(attrs, out, engine, before) -> None:
    attrs["reached"] = 1.0 if isinstance(out[1], routing_mod.ReachedTarget) else 0.0


def _recompute_rounds(attrs, out, engine, before) -> None:
    attrs["rounds"] = out["rounds"]


# (owner, attribute, span name, result hook). Each owner is the module or
# class whose code makes the call, so the wrapper sits where the call is
# looked up.
SPANS = [
    (pipeline_mod.Pipeline, "build_abstraction", "pipeline.build_abstraction", None),
    (pipeline_mod.Pipeline, "bound_audit", "pipeline.bound_audit", None),
    (pipeline_mod.Pipeline, "report", "pipeline.report", None),
    (pipeline_mod.Pipeline, "periodic_recompute", "pipeline.periodic_recompute", _recompute_rounds),
    (pipeline_mod, "build_ldel2", "ldel.build_ldel2", None),
    (pipeline_mod, "classify_rings", "holes.classify_rings", None),
    (pipeline_mod, "build_hull_abstraction", "holes.build_hull_abstraction", None),
    (pipeline_mod, "build_broadcast_tree", "overlay.build_broadcast_tree", None),
    (pipeline_mod, "distribute_hulls", "overlay.distribute_hulls", _distribution_cost),
    (pipeline_mod, "Router", "routing.Router", None),
    (holes_mod, "pointer_jumping", "overlay.pointer_jumping", None),
    (holes_mod, "rank_ring", "overlay.rank_ring", None),
    (holes_mod, "ring_protocol", "overlay.ring_protocol", None),
    (holes_mod, "dominating_set", "overlay.dominating_set", None),
    (overlay_mod, "pointer_jumping", "overlay.pointer_jumping", None),
    (overlay_mod, "rank_ring", "overlay.rank_ring", None),
    (overlay_mod, "assign_hypercube_ids", "overlay.assign_hypercube_ids", None),
    (overlay_mod, "hypercube_sort", "overlay.hypercube_sort", None),
    (overlay_mod, "parallel_convex_hull", "overlay.parallel_convex_hull", None),
    (routing_mod, "build_visibility_graph", "routing.build_visibility_graph", None),
    (routing_mod, "build_overlay_delaunay", "routing.build_overlay_delaunay", None),
    (routing_mod, "chew_route", "routing.chew_route", _chew_outcome),
    (routing_mod, "overlay_shortest_path", "routing.overlay_shortest_path", None),
    (routing_mod, "_udg_shortest", "routing.udg_oracle", None),
    (routing_mod, "measure_competitiveness", "routing.measure_competitiveness", None),
    (routing_mod.Router, "route", "routing.route", None),
    (routing_mod.Router, "locate", "routing.locate", None),
]
LEAVES = [
    (RoundEngine, "send", "simengine.send"),
    (RoundEngine, "step_round", "simengine.step_round"),
]
COUNTS = [
    (routing_mod, "segment_crosses_polygon", "routing.segment_crosses_polygon.calls"),
]


@contextmanager
def _patched(owner, attr: str, value):
    # read the raw attribute so a class keeps a plain function, not a bound one
    original = vars(owner)[attr]
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, original)


@contextmanager
def instrument(tracer: Tracer):
    """Install every wrapper for the duration of the block."""
    with ExitStack() as stack:
        for owner, attr, name, hook in SPANS:
            fn = vars(owner)[attr]
            stack.enter_context(_patched(owner, attr, _span_wrapper(tracer, name, fn, hook)))
        for owner, attr, name in LEAVES:
            stack.enter_context(_patched(owner, attr, _leaf_wrapper(tracer, name, vars(owner)[attr])))
        for owner, attr, name in COUNTS:
            stack.enter_context(_patched(owner, attr, _count_wrapper(tracer, name, vars(owner)[attr])))
        run_phase = vars(RoundEngine)["run_phase"]
        stack.enter_context(_patched(RoundEngine, "run_phase", _run_phase_wrapper(tracer, run_phase)))
        yield tracer
