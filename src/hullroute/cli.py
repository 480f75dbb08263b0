"""Command line interface: gen, run, route, render.

Scenario configs and pipeline configs are single JSON files; individual
flags override fields.  `run` exits 0 only when every asserted bound
held.  HULLROUTE_LOG controls verbosity (debug, info, warning).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from pathlib import Path

from .errors import ConfigError, HullrouteError
from .geometry import Point, Polygon
from .pipeline import (
    Pipeline,
    PipelineConfig,
    bound_line,
    from_json_object,
    parse_query_pairs,
    query_row,
)
from .render import write_svg
from .routing import BACKEND_ODEL, BACKEND_VIS
from .scenario import (
    ScenarioSpec,
    fixture_topology,
    generate_scenario,
    load_topology,
    read_json,
    save_topology,
)

log = logging.getLogger("hullroute")


def _setup_logging() -> None:
    level = os.environ.get("HULLROUTE_LOG", "warning").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )


def _spec_from_json(path: str) -> ScenarioSpec:
    d = read_json(path)
    try:
        return from_json_object(
            ScenarioSpec,
            d,
            "spec",
            convert={
                "seed": int,
                "region": lambda region: tuple(float(v) for v in region),
                "obstacles": lambda polys: [
                    Polygon(tuple(Point(float(x), float(y)) for x, y in poly)) for poly in polys
                ],
            },
        )
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _load_queries(path: str) -> list[tuple[int, int]]:
    d = read_json(path)
    try:
        return parse_query_pairs(d.get("pairs") if isinstance(d, dict) else d)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _pipeline_config(args) -> PipelineConfig:
    base = {}
    if getattr(args, "config", None):
        base = read_json(args.config)
    cfg = PipelineConfig.from_dict(base)
    if getattr(args, "backend", None):
        cfg.backend = args.backend
    if getattr(args, "queries", None):
        cfg.queries = _load_queries(args.queries)
    if getattr(args, "sample", None):
        cfg.query_count = args.sample
    if getattr(args, "query_seed", None) is not None:
        cfg.query_seed = args.query_seed
    if getattr(args, "transcript", None):
        cfg.transcript_path = args.transcript
    cfg.strict = False  # the report is always written; exit code carries the verdict
    return cfg


def cmd_gen(args) -> int:
    if args.fixture:
        topo = fixture_topology(args.fixture)
    else:
        spec = _spec_from_json(args.spec)
        if args.seed is not None:
            spec.seed = args.seed
        topo = generate_scenario(spec)
    save_topology(topo, args.out)
    edges = sum(len(v) for v in topo.adhoc.values()) // 2
    print(f"wrote {args.out}: {len(topo.points)} nodes, {edges} radio edges")
    return 0


def cmd_run(args) -> int:
    t0 = time.perf_counter()
    topo = load_topology(args.topo)
    udg_s = time.perf_counter() - t0
    pipe = Pipeline(topo, _pipeline_config(args))
    rep = pipe.run()
    if args.report:
        rep.write(args.report)
    if args.timings:
        timings = {"udg_s": udg_s, **pipe.seconds}
        Path(args.timings).write_text(json.dumps(timings, indent=1) + "\n")
    if args.abstraction:
        Path(args.abstraction).write_text(
            json.dumps(pipe.abstraction_dict(), sort_keys=True, indent=1) + "\n"
        )
    for name in sorted(rep.bounds):
        print(bound_line(name, rep.bounds[name]))
    print(
        f"n={rep.n} protocol_rounds={rep.protocol_rounds} wave_rounds={rep.wave_rounds} "
        f"queries={len(rep.queries)} max_ratio={rep.max_ratio:.3f} "
        f"bounds_ok={rep.bounds_ok}"
    )
    return 0 if rep.bounds_ok else 1


def cmd_route(args) -> int:
    pipe = Pipeline(load_topology(args.topo), _pipeline_config(args))
    pipe.build_abstraction()
    print(json.dumps(query_row(pipe.query(args.src, args.dst)), sort_keys=True))
    return 0


def cmd_render(args) -> int:
    topo = load_topology(args.topo)
    abstraction = read_json(args.abstraction) if args.abstraction else None
    rep = read_json(args.routes) if args.routes else []
    try:
        rows = rep["queries"] if isinstance(rep, dict) else rep
        routes = [row["path"] for row in rows][: args.max_routes]
        write_svg(args.out, topo, abstraction, routes)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        given = ", ".join(p for p in (args.abstraction, args.routes) if p)
        raise ConfigError(f"{given}: not the shape render reads: {exc!r}") from exc
    print(f"wrote {args.out}: {len(routes)} routes")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hullroute")
    sub = p.add_subparsers(dest="verb", required=True)

    g = sub.add_parser("gen", help="generate a scenario topology")
    src = g.add_mutually_exclusive_group(required=True)
    src.add_argument("--spec", help="scenario spec JSON file")
    src.add_argument("--fixture", help="built-in fixture name")
    g.add_argument("--seed", type=int, default=None, help="override spec seed")
    g.add_argument("--out", required=True)
    g.set_defaults(fn=cmd_gen)

    backends = (BACKEND_VIS, BACKEND_ODEL)

    r = sub.add_parser("run", help="run the full pipeline and audit bounds")
    r.add_argument("--topo", required=True)
    r.add_argument("--config", help="pipeline config JSON file")
    r.add_argument("--queries", help="query pairs JSON file")
    r.add_argument("--sample", type=int, default=None, help="sample this many query pairs")
    r.add_argument("--query-seed", dest="query_seed", type=int, default=None)
    r.add_argument("--backend", choices=backends, default=None)
    r.add_argument("--report", help="write the experiment report here")
    r.add_argument("--abstraction", help="write rings/hulls/bays JSON here")
    r.add_argument("--transcript", help="write the message transcript here")
    r.add_argument("--timings", help="write wall-clock seconds per layer here, apart from the report")
    r.set_defaults(fn=cmd_run)

    q = sub.add_parser("route", help="route one query")
    q.add_argument("--topo", required=True)
    q.add_argument("--src", type=int, required=True)
    q.add_argument("--dst", type=int, required=True)
    q.add_argument("--backend", choices=backends, default=None)
    q.add_argument("--config", help="pipeline config JSON file")
    q.set_defaults(fn=cmd_route)

    d = sub.add_parser("render", help="draw the scene as SVG")
    d.add_argument("--topo", required=True)
    d.add_argument("--abstraction", help="abstraction JSON from `run`")
    d.add_argument("--routes", help="report JSON from `run`; paths are drawn")
    d.add_argument("--max-routes", dest="max_routes", type=int, default=10)
    d.add_argument("--out", required=True)
    d.set_defaults(fn=cmd_render)

    return p


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except HullrouteError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
