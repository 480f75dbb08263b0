"""End-to-end orchestration: build the abstraction, audit bounds, run queries.

The driver executes the protocol phases in their dependency order and
meters every bound the artifact promises: total abstraction rounds
against c2*log2(n)^2, pointer-jumping rounds and per-node messages per
closed ring, per-node long-range message counts, and the three-class
storage shape (hull nodes and the tree root, other boundary nodes,
everyone else).  Every bound is evaluated and recorded; nothing is
skipped silently.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import random
import time
from collections import Counter
from dataclasses import MISSING, asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Mapping

from .errors import (
    BoundViolationError,
    ConfigError,
    NodeLookupError,
    NotReadyError,
)
from .holes import (
    KIND_OUTER_BOUNDARY,
    HoleRing,
    HullAbstraction,
    build_hull_abstraction,
    classify_rings,
    detect_boundary_nodes,
    detect_outer_holes,
    form_rings,
    hole_report,
)
from .ldel import HybridTopology, PlanarGraph, build_ldel2, check_connected
from . import overlay
from .overlay import build_broadcast_tree, distribute_hulls
from .routing import BACKEND_VIS, RouteResult, Router, measure_competitiveness
from .simengine import PhaseReport, RoundEngine, tally

# localized construction: broadcast, 1-hop exchange, 2-hop exchange,
# proposal, accept
LDEL_BUILD_ROUNDS = 5
# boundary flags travel one hop so ring neighbors agree
RING_DETECT_ROUNDS = 1
# audited bounds: total abstraction rounds and recompute rounds vs
# log2(n)^2, per-node long-range messages vs log2(n)^2, hull and boundary
# storage headroom, and a flat cap for nodes off every ring
C2 = 40.0
C3 = 40.0
C_LONGRANGE = 8.0
STORAGE_FACTOR = 4.0
OTHER_STORAGE_CAP = 8

log = logging.getLogger(__name__)


def from_json_object(
    cls,
    d: Any,
    what: str,
    convert: Mapping[str, Callable[[Any], Any]] = {},
):
    """Dataclass cls built from the JSON object d, every key checked.

    Rejects anything but an object, keys that are not fields of cls, and
    values whose type differs from their field's default; fields without
    a default or defaulting to None take any value.  A JSON int is taken
    where a float is expected, and convert turns a key's JSON value into
    its field value first.
    """
    if not isinstance(d, dict):
        raise ConfigError(f"{what} must be a JSON object, not {type(d).__name__}")
    fields = cls.__dataclass_fields__
    bad = set(d) - set(fields)
    if bad:
        raise ConfigError(f"unknown {what} keys: {sorted(bad)}")
    out = {}
    try:
        for key, value in d.items():
            default = fields[key].default
            if key in convert:
                value = convert[key](value)
            elif type(default) is float and type(value) is int:
                value = float(value)
            if default not in (None, MISSING) and not isinstance(value, type(default)):
                raise ConfigError(f"{what} key {key!r} must be {type(default).__name__}, not {value!r}")
            out[key] = value
        return cls(**out)
    except (TypeError, ValueError) as exc:
        # a failed conversion, or a required field left out
        raise ConfigError(f"bad {what}: {exc}") from exc


def parse_query_pairs(pairs: Any) -> list[tuple[int, int]]:
    """A JSON list of [s, t] node id pairs, as tuples of ints."""
    try:
        return [(int(s), int(t)) for s, t in pairs]
    except (TypeError, ValueError) as exc:
        raise ValueError(f"queries must be a list of node id pairs: {exc}") from exc


@dataclass
class PipelineConfig:
    backend: str = BACKEND_VIS
    queries: list[tuple[int, int]] | None = None
    query_count: int = 0
    query_seed: int = 0
    strict: bool = True  # raise BoundViolationError when a bound fails
    transcript_path: str | None = None

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        return from_json_object(cls, d, "config", convert={"queries": parse_query_pairs})


@dataclass
class ExperimentReport:
    n: int
    backend: str
    phase_rounds: dict[str, int]
    # rounds up to wave two's end, which the broadcast tree's charge can hide
    wave_rounds: int
    protocol_rounds: int
    phases: list[dict]
    message_stats: dict
    storage: dict
    bounds: dict
    bounds_ok: bool
    holes: list[dict]
    per_case: dict
    max_ratio: float
    queries: list[dict]

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=1)

    def write(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n")


class Pipeline:
    """Holds one topology, one engine, and everything built on them."""

    def __init__(self, topo: HybridTopology, config: PipelineConfig | None = None):
        self.topo = topo
        self.config = config or PipelineConfig()
        self.engine = RoundEngine(topo)
        self.baseline_knows = {v: set(topo.knows[v]) for v in topo.ids}
        self.g: PlanarGraph | None = None
        self.rings: list[HoleRing] = []
        self.abstractions: dict[int, HullAbstraction] = {}
        # each ring's members in rank order, both waves', keyed by ring id
        self.orders: dict[int, list[int]] = {}
        # the overlay tree's root, all the pipeline keeps of the tree
        self.root: int | None = None
        self.router: Router | None = None
        self.phase_rounds: dict[str, int] = {}
        # wall-clock seconds of the latest build's phases, its Router and
        # the queries since, keyed "<phase>_s"; never part of the report
        self.seconds: dict[str, float] = {}
        self.wave_rounds = 0
        self.protocol_rounds = 0
        # each ring's own rounds, long-range messages and bytes in the
        # latest build, keyed by ring id (_record_ring_costs)
        self.ring_cost: dict[int, dict[str, int]] = {}
        # per-node long-range sends of the latest build, counted off its
        # transcript lines
        self.build_longrange: dict[int, int] = {}
        # the latest build's transcript lines, session reports and phase reports
        self._window = (slice(0, 0),) * 3
        self._knows_after_build: dict[int, set[int]] | None = None
        # the latest build's hull node ids of each non-outer ring, and its
        # storage audit once measured
        self._hulls: dict[int, list[int]] = {}
        self._storage: dict | None = None

    # -- abstraction phases --------------------------------------------------

    def build_abstraction(self) -> None:
        """Every phase in dependency order; rings run concurrently in two waves.

        Wave one is every closed ring: the election, which is all the
        "classification" rounds and leaves every node its ring rank, so
        laying each ring out in rank order takes no round, then hull,
        bays and dominating sets (build_hull_abstraction), after which
        each ring's kind is read off the orientation its leader found in
        the merged hull's ring ranks (classify_rings).  Wave two is the
        outer-hole arcs, which hang off the outer boundary's hull and
        reuse the links pointer jumping made on that ring: the same call,
        each arc laid out as its members, from its first hull end on, and
        oriented by its leader too.  The dominating sets take no round.
        The broadcast tree needs no ring and runs from the build's first
        round, so the build takes max(tree rounds, rounds up to wave
        two's end) before the hull distribution.
        """
        eng = self.engine
        start = eng.round_no
        # the build's transcript lines, session reports and phase reports begin here
        ledgers = eng.transcript, eng.session_reports, eng.phase_reports
        first = [len(entries) for entries in ledgers]
        self.phase_rounds, self.seconds = {}, {}
        began, clock = start, time.perf_counter()

        def mark(label: str) -> None:
            nonlocal began, clock
            self.phase_rounds[label] = eng.round_no - began
            now = time.perf_counter()
            self.seconds[f"{label}_s"] = now - clock
            began, clock = eng.round_no, now

        eng.charge_rounds(LDEL_BUILD_ROUNDS, "ldel2_build")
        self.g = build_ldel2(self.topo)
        mark("ldel2_build")

        eng.charge_rounds(RING_DETECT_ROUNDS, "ring_detect")
        self.rings = form_rings(self.g, detect_boundary_nodes(self.g))
        mark("ring_detect")

        members = {r.ring_id: r.members for r in self.rings}
        # through the module, where perfbench/tracer.py wraps them
        ranks = overlay.pointer_jumping(eng, members)
        mark("classification")

        self.orders = overlay.assign_hypercube_ids(ranks)
        self.abstractions, orientations = build_hull_abstraction(eng, self.rings, self.orders)
        classify_rings(self.rings, orientations)
        mark("ring_hulls")

        outer = next(r for r in self.rings if r.kind == KIND_OUTER_BOUNDARY)
        arcs = detect_outer_holes(
            self.g,
            outer,
            hull_nodes=self.abstractions[outer.ring_id].hull_nodes,
            first_id=max(r.ring_id for r in self.rings) + 1,
        )
        orders = {a.ring_id: a.members for a in arcs}
        abstractions, orientations = build_hull_abstraction(eng, arcs, orders)
        classify_rings(arcs, orientations)
        self.abstractions.update(abstractions)
        self.orders.update(orders)
        self.rings = self.rings + arcs
        mark("outer_holes")
        self._record_ring_costs(first[1])
        self.wave_rounds = eng.round_no - start

        # the tree runs beside every phase since `start`; it is charged
        # here only for the rounds it still needs, and a reused one needs none
        if self.root is None:
            self.root = build_broadcast_tree(eng, start)
        mark("broadcast_tree")

        self._hulls = {
            r.ring_id: self.abstractions[r.ring_id].hull_nodes
            for r in self.rings
            if r.kind != KIND_OUTER_BOUNDARY
        }
        distribute_hulls(eng, self.root, self._hulls, {rid: self.orders[rid][0] for rid in self._hulls})
        mark("hull_distribution")

        self.protocol_rounds = eng.round_no - start
        self._window = tuple(slice(a, len(entries)) for a, entries in zip(first, ledgers))
        by_src = tally(eng.transcript[self._window[0]], lambda t: t["src"])
        self.build_longrange = {v: c.messages_longrange for v, c in by_src.items() if c.messages_longrange}
        # snapshot before queries: routing teaches endpoints each other's
        # ids, which is not abstraction storage
        self._knows_after_build = {v: set(self.topo.knows[v]) for v in self.topo.ids}
        self._storage = None
        self.router = Router(self.g, self.rings, self.abstractions, self.root, backend=self.config.backend)
        self.seconds["router_s"] = time.perf_counter() - clock

    def _record_ring_costs(self, quiet: int) -> None:
        """Record each ring's own cost in this build; one debug line per ring.

        A ring's own cost is the sum of its session's reports, election
        through hull broadcast: the rounds until it went quiet in each
        phase, its long-range messages and the bytes of all its messages.
        This build's reports are those engine.session_reports gained past
        index `quiet`, each keyed by its ring id.  Ring ids are unique
        within a build, so one pass after wave two covers both waves.
        """
        self.ring_cost = {r.ring_id: {"rounds": 0, "longrange_messages": 0, "bytes": 0} for r in self.rings}
        for rid, rep in self.engine.session_reports[quiet:]:
            cost = self.ring_cost[rid]
            cost["rounds"] += rep.rounds
            cost["longrange_messages"] += rep.messages_longrange
            cost["bytes"] += rep.bytes_total
        for r in self.rings:
            cost = self.ring_cost[r.ring_id]
            log.debug(
                "ring %d %s: size %d, hull %d, own rounds %d, %d long-range, %d bytes",
                r.ring_id, r.kind, len(r.members), len(self.abstractions[r.ring_id].hull_nodes),
                cost["rounds"], cost["longrange_messages"], cost["bytes"],
            )

    # -- audits ----------------------------------------------------------------

    def storage_audit(self) -> dict:
        """Persisted-knowledge deltas by node class, with budgets; measured once per build.

        The "hull" class holds the hull nodes and the tree root, the nodes
        that may hold hull ids of every ring; the root need not be a hull
        node, nor on any ring.
        """
        if self._knows_after_build is None:
            raise NotReadyError("abstraction not built")
        if self._storage is not None:
            return self._storage
        hull_nodes = set().union(*self._hulls.values(), {self.root})
        ring_members = set()
        for r in self.rings:
            ring_members.update(r.members)
        boundary = ring_members - hull_nodes
        other = set(self.topo.ids) - ring_members - hull_nodes
        delta = {
            v: len(self._knows_after_build[v] - self.baseline_knows[v])
            for v in self.topo.ids
        }
        sum_hull = sum(map(len, self._hulls.values()))
        max_p = max(len(r.members) for r in self.rings)

        def cls_stats(nodes: set[int], budget: float) -> dict:
            counts = sorted(delta[v] for v in nodes)
            mx = counts[-1] if counts else 0
            return {
                "nodes": len(nodes),
                "max": mx,
                "mean": (sum(counts) / len(counts)) if counts else 0.0,
                "budget": budget,
                "ok": mx <= budget,
            }

        self._storage = {
            "hull": cls_stats(hull_nodes, STORAGE_FACTOR * sum_hull),
            "boundary": cls_stats(boundary, STORAGE_FACTOR * max_p),
            "other": cls_stats(other, float(OTHER_STORAGE_CAP)),
            "sum_hull_sizes": sum_hull,
            "max_ring_size": max_p,
        }
        return self._storage

    def bound_audit(self) -> dict:
        n = len(self.topo.points)
        log2n = math.log2(n) if n > 1 else 1.0
        budget = C2 * log2n**2
        bounds: dict[str, dict] = {
            "protocol_rounds": {
                "measured": self.protocol_rounds,
                "bound": budget,
                "c2": C2,
                "ratio": self.protocol_rounds / budget,
                "ok": self.protocol_rounds <= budget,
            }
        }

        # each ring's election: its session's rounds and its nodes' pj_* sends in this build
        eng, (lines, sessions, _) = self.engine, self._window
        jump_rounds = {r: rep.rounds for r, rep in eng.session_reports[sessions] if rep.label == "pointer_jumping"}
        jump_lines = (t for t in eng.transcript[lines] if t["tag"].startswith("pj_"))
        jump_msgs = Counter()
        for (rid, _), c in tally(jump_lines, lambda t: (t["session"], t["src"])).items():
            jump_msgs[rid] = max(jump_msgs[rid], c.messages_adhoc + c.messages_longrange)
        ring_rows = []
        sizes = {r.ring_id: len(r.members) for r in self.rings}
        for rid in sorted(jump_rounds):
            k, rounds, msg_max = sizes[rid], jump_rounds[rid], jump_msgs[rid]
            round_bound = overlay._levels(k)  # the session's cap, at which the engine aborts it
            msg_bound = 2 * round_bound
            ok = rounds <= round_bound and msg_max <= msg_bound
            ring_rows.append({"ring_id": rid, "size": k, "jump_rounds": rounds, "round_bound": round_bound,
                              "max_msgs_per_node": msg_max, "msg_bound": msg_bound, "ok": ok})
        bounds["pointer_jumping"] = {"rings": ring_rows, "ok": all(row["ok"] for row in ring_rows)}

        lr = self.build_longrange
        lr_max = max(lr.values()) if lr else 0
        lr_budget = C_LONGRANGE * log2n**2
        bounds["longrange_per_node"] = {
            "measured_max": lr_max,
            "bound": lr_budget,
            "c": C_LONGRANGE,
            "ok": lr_max <= lr_budget,
        }

        storage = self.storage_audit()
        for cls in ("hull", "boundary", "other"):
            bounds[f"storage_{cls}"] = {
                "measured_max": storage[cls]["max"],
                "bound": storage[cls]["budget"],
                "ok": storage[cls]["ok"],
            }

        # Case1 plans at a hull node, which asks the tree root: the root
        # must hold every hull id, and each hull node the root's
        hull_nodes = set().union(*self._hulls.values())
        knows, root = self._knows_after_build, self.root
        missing = Counter({root: len(hull_nodes - knows[root] - {root})})
        missing.update(v for v in hull_nodes if v != root and root not in knows[v])
        bounds["planner_refs"] = {
            "hull_nodes": len(hull_nodes),
            "measured_max": max(missing.values(), default=0),
            "bound": 0,
            "ok": not any(missing.values()),
        }
        for name, b in bounds.items():
            if not b["ok"]:
                log.warning("bound failed: %s", bound_line(name, b))
        return bounds

    # -- queries ----------------------------------------------------------------

    def query_pairs(self) -> list[tuple[int, int]]:
        cfg = self.config
        if cfg.queries is not None:
            for s, t in cfg.queries:
                if s not in self.topo.points or t not in self.topo.points:
                    raise NodeLookupError(f"query endpoint {s},{t} unknown")
            return list(cfg.queries)
        if cfg.query_count <= 0:
            return []
        rng = random.Random(cfg.query_seed)
        ids = sorted(self.topo.points)
        return [tuple(rng.sample(ids, 2)) for _ in range(cfg.query_count)]

    def query(self, s: int, t: int) -> RouteResult:
        """Route one query from s to t through the built Router (Router.route)."""
        if self.router is None:
            raise NotReadyError("abstraction not built")
        return self.router.route(self.engine, s, t)

    def run_queries(self) -> tuple[list[RouteResult], dict]:
        """Every pair of query_pairs() through query(), and their competitiveness summary.

        The queries' rounds and seconds are recorded as the "queries" phase.
        """
        if self.router is None:
            raise NotReadyError("abstraction not built")
        t, clock = self.engine.round_no, time.perf_counter()
        results = [self.query(s, tgt) for s, tgt in self.query_pairs()]
        self.phase_rounds["queries"] = self.engine.round_no - t
        self.seconds["queries_s"] = time.perf_counter() - clock
        return results, measure_competitiveness(self.topo, results)

    # -- assembly ----------------------------------------------------------------

    def report(self, results, summary) -> ExperimentReport:
        """The latest build's phases, traffic, storage and bounds, and the queries' rows."""
        eng, (lines, _, phases) = self.engine, self._window
        bounds = self.bound_audit()
        build = tally(eng.transcript[lines], into={None: PhaseReport("build")})[None]
        lr = self.build_longrange
        message_stats = {
            "total_messages": build.messages_adhoc + build.messages_longrange,
            "total_bytes": build.bytes_total,
            "abstraction_adhoc": build.messages_adhoc,
            "abstraction_longrange": build.messages_longrange,
            "longrange_per_node_max": max(lr.values()) if lr else 0,
            "longrange_per_node_mean": (sum(lr.values()) / len(lr)) if lr else 0.0,
            "max_longrange_per_node_round": build.max_longrange_per_node_round,
        }
        ok = all(v["ok"] for v in bounds.values())
        return ExperimentReport(
            n=len(self.topo.points),
            backend=self.config.backend,
            phase_rounds=dict(self.phase_rounds),
            wave_rounds=self.wave_rounds,
            protocol_rounds=self.protocol_rounds,
            phases=[asdict(p) for p in eng.phase_reports[phases]],
            message_stats=message_stats,
            storage=self.storage_audit(),
            bounds=bounds,
            bounds_ok=ok,
            holes=hole_report(self.rings, self.abstractions, self.ring_cost),
            per_case=summary["per_case"],
            max_ratio=summary["max_ratio"],
            queries=[query_row(res) for res in results],
        )

    def run(self) -> ExperimentReport:
        self.build_abstraction()
        results, summary = self.run_queries()
        rep = self.report(results, summary)
        if self.config.transcript_path:
            self.engine.write_transcript(self.config.transcript_path)
        if self.config.strict and not rep.bounds_ok:
            failing = sorted(k for k, v in rep.bounds.items() if not v["ok"])
            raise BoundViolationError(f"bounds violated: {failing}", report=rep)
        return rep

    # -- maintenance ----------------------------------------------------------------

    def abstraction_digest(self) -> str:
        """sha256 of abstraction_dict() as sorted JSON: rings, hulls, bays and dominating sets."""
        return hashlib.sha256(json.dumps(self.abstraction_dict(), sort_keys=True).encode()).hexdigest()

    def periodic_recompute(self, interval: int = 0) -> dict:
        """Re-run every abstraction phase, reusing the broadcast tree's root.

        Surfaces DisconnectedError if node movement split the radio
        graph.  A window that began with no root known has to build the
        tree, which may add no round of its own, so it fails the verdict
        (tree_reused).
        """
        if self._knows_after_build is None:
            raise NotReadyError("abstraction not built")
        if interval:
            self.engine.charge_rounds(interval, "idle")
        check_connected(self.topo.adhoc)
        reused = self.root is not None
        # a node keeps across builds its first ids, its radio neighbours,
        # which are no storage either, and the root; it forgets every other
        # id the earlier builds taught it
        root = {self.root} if reused else set()
        ties = {v: self.topo.adhoc[v] | root for v in self.topo.ids}
        overlay._forget_learned(self.engine, self.baseline_knows, ties)
        for v in self.topo.ids:
            self.baseline_knows[v] |= self.topo.adhoc[v]
        self.router = None
        self.build_abstraction()
        rounds = self.protocol_rounds
        n = len(self.topo.points)
        log2n = math.log2(n) if n > 1 else 1.0
        budget = C3 * log2n**2
        out = {
            "rounds": rounds,
            "bound": budget,
            "c3": C3,
            "ok": rounds <= budget and reused,
            "tree_reused": reused,
            "idle_rounds": interval,
            "abstraction_digest": self.abstraction_digest(),
        }
        if not out["ok"]:
            log.warning("recompute bound failed: %d rounds, bound %.1f", rounds, budget)
        if self.config.strict and not out["ok"]:
            raise BoundViolationError(f"recompute bound violated: {out}", report=out)
        return out

    def abstraction_dict(self) -> dict:
        """JSON-ready rings, hulls, bays, and dominating sets."""
        out = {"rings": [], "hulls": {}, "bays": {}, "dominating": {}}
        for r in sorted(self.rings, key=lambda r: r.ring_id):
            out["rings"].append(
                {"ring_id": r.ring_id, "kind": r.kind, "members": list(r.members)}
            )
            ab = self.abstractions[r.ring_id]
            key = str(r.ring_id)
            out["hulls"][key] = list(ab.hull_nodes)
            out["bays"][key] = [
                {"edge": list(b.edge), "members": list(b.members)} for b in ab.bay_areas
            ]
            out["dominating"][key] = [
                sorted(ab.dominating_sets[i]) for i in sorted(ab.dominating_sets)
            ]
        return out


def query_row(res: RouteResult) -> dict:
    """The report's row for one routed query."""
    return {
        "s": res.path[0],
        "t": res.path[-1],
        "case": res.case_taken,
        "path": res.path,
        "euclidean_length": res.euclidean_length,
        "udg_shortest": res.udg_shortest,
        "straight_line": res.straight_line,
        "ratio": res.competitive_ratio,
        "rounds_used": res.rounds_used,
        "longrange_msgs": res.longrange_msgs,
        "e_route": res.e_route,
        "replans": max(len(res.plans) - 1, 0),
        "planners": [planner for planner, _ in res.plans],
    }


def bound_line(name: str, row: dict) -> str:
    """bound_audit()'s row `name` on one line: the measured value, its bound and the verdict."""
    if "rings" in row:
        worst = max((r["jump_rounds"] / r["round_bound"] for r in row["rings"]), default=0.0)
        return f"{name}: {len(row['rings'])} rings, worst ratio {worst:.3f}, ok={row['ok']}"
    op = "<=" if row["ok"] else ">"
    if "measured" in row:
        ratio = row["measured"] / row["bound"]
        return f"{name}: {row['measured']} {op} {row['bound']:.1f} (ratio {ratio:.3f}), ok={row['ok']}"
    return f"{name}: {row['measured_max']} {op} {row['bound']:.1f}, ok={row['ok']}"


def run_pipeline(topo: HybridTopology, config: PipelineConfig | None = None) -> ExperimentReport:
    return Pipeline(topo, config).run()
