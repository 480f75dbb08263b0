"""Orchestration, bound auditing, recompute, rendering, and the CLI."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import math
import random
import re
from collections import Counter, defaultdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hullroute.cli import main as cli_main
import hullroute.overlay as overlay_mod
import hullroute.pipeline as pipeline_mod
from hullroute.errors import (
    AssumptionViolationError,
    BoundViolationError,
    ConfigError,
    DisconnectedError,
    NodeLookupError,
    NoPathError,
    NotReadyError,
)
from hullroute.geometry import Point, Polygon
from hullroute.holes import KIND_INNER, KIND_OUTER_BOUNDARY, KIND_OUTER_HOLE, hull_node_ids
from hullroute.ldel import build_udg
from hullroute.pipeline import Pipeline, PipelineConfig, run_pipeline
from hullroute.render import render_svg
from hullroute.routing import (
    BACKEND_ODEL,
    CASE1_BOUND_ODEL,
    CASE1_BOUND_VIS,
    CHEW_BOUND,
    HitHoleNode,
    Router,
    chew_route,
)
from hullroute.scenario import (
    ScenarioSpec,
    fixture_spec,
    fixture_topology,
    generate_scenario,
    load_topology,
    scaling_spec,
    shuffled_ids,
)
from hullroute.simengine import RoundEngine

from oracles import brute_hull_gather, crossing_edge_pairs, with_ids


@pytest.fixture(scope="module")
def grid_pipe():
    pipe = Pipeline(fixture_topology("grid36-hole4"), PipelineConfig(query_count=30, query_seed=3))
    report = pipe.run()
    return pipe, report


def disk_topology():
    """Dense disk: every global hull edge is shorter than the radius."""
    pts = {0: Point(0.0, 0.0)}
    i = 1
    for ring in range(1, 6):
        r = 0.5 * ring
        count = math.ceil(2 * math.pi * r / 0.45)
        for k in range(count):
            a = 2 * math.pi * k / count + 0.1 * ring
            pts[i] = Point(r * math.cos(a), r * math.sin(a))
            i += 1
    return build_udg(pts)


# ---------------------------------------------------------------------------
# run_pipeline


def test_pipeline_grid_fixture_all_bounds_hold(grid_pipe):
    pipe, rep = grid_pipe
    assert rep.bounds_ok
    assert {
        "protocol_rounds",
        "pointer_jumping",
        "longrange_per_node",
        "storage_hull",
        "storage_boundary",
        "storage_other",
        "planner_refs",
    } <= set(rep.bounds)
    for name, b in rep.bounds.items():
        assert b["ok"], name
    assert sum(h["kind"] == "InnerHole" for h in rep.holes) == 1
    order = list(rep.phase_rounds)
    assert order[:7] == [
        "ldel2_build",
        "ring_detect",
        "classification",
        "ring_hulls",
        "outer_holes",
        "broadcast_tree",
        "hull_distribution",
    ]
    assert rep.phase_rounds["ldel2_build"] == 5
    assert rep.protocol_rounds == sum(rep.phase_rounds[k] for k in order[:7])
    assert len(rep.queries) == 30
    assert sum(v["count"] for v in rep.per_case.values()) == 30


def test_pipeline_storage_classes_partition_nodes(grid_pipe):
    pipe, rep = grid_pipe
    st = rep.storage
    assert st["hull"]["nodes"] + st["boundary"]["nodes"] + st["other"]["nodes"] == rep.n
    assert st["hull"]["max"] <= st["hull"]["budget"]
    assert st["boundary"]["max"] <= st["boundary"]["budget"]
    assert st["other"]["max"] <= st["other"]["budget"]
    assert st["sum_hull_sizes"] > 0


def test_bound_audit_holds_bound_rows_only(grid_pipe):
    pipe, rep = grid_pipe
    audit = pipe.bound_audit()
    assert set(audit) == set(rep.bounds)
    assert all("ok" in b for b in audit.values())
    assert pipe.storage_audit() == rep.storage


def test_pipeline_without_holes_routes_visible_or_case1():
    rep = run_pipeline(disk_topology(), PipelineConfig(query_count=80, query_seed=2))
    assert {h["kind"] for h in rep.holes} == {"OuterBoundary"}
    assert all(h["bay_count"] == 0 for h in rep.holes)
    assert set(rep.per_case) <= {"Visible", "Case1"}
    assert rep.bounds_ok


def test_pipeline_open_lattice_has_no_inner_holes():
    spec = ScenarioSpec(seed=2, region=(0.0, 0.0, 4.95, 4.95),
                        spacing=0.55, jitter=0.05, obstacles=[], name="open100")
    rep = run_pipeline(generate_scenario(spec), PipelineConfig())
    assert rep.n == 100
    assert sum(h["kind"] == "InnerHole" for h in rep.holes) == 0


@pytest.mark.parametrize("spec", [fixture_spec("grid36-hole4"), scaling_spec(512, 1)], ids=["grid36-hole4", "scale-512-1"])
def test_pipeline_exact_lattice_builds(spec):
    # jitter 0: every lattice cell is cocircular and the outer boundary
    # runs in straight stretches longer than the radio range
    topo = generate_scenario(dataclasses.replace(spec, jitter=0.0))
    pipe = Pipeline(topo, PipelineConfig(query_count=40, query_seed=5))
    rep = pipe.run()
    assert rep.bounds_ok
    assert crossing_edge_pairs(topo.points, pipe.g.edges) == []
    for r in pipe.rings:
        assert pipe.abstractions[r.ring_id].hull_nodes == hull_node_ids(topo.points, r.members)
    assert KIND_OUTER_HOLE not in {r.kind for r in pipe.rings}
    assert sum(r.kind == KIND_INNER for r in pipe.rings) == len(spec.obstacles)


def test_pipeline_explicit_queries_and_unknown_endpoint():
    topo = fixture_topology("grid36-hole4")
    rep = run_pipeline(topo, PipelineConfig(queries=[(4, 12), (0, 31)]))
    assert [q["s"] for q in rep.queries] == [4, 0]
    assert [q["t"] for q in rep.queries] == [12, 31]
    topo2 = fixture_topology("grid36-hole4")
    with pytest.raises(NodeLookupError):
        run_pipeline(topo2, PipelineConfig(queries=[(4, 9999)]))


def test_pipeline_strict_mode_raises_with_report_attached(monkeypatch):
    topo = fixture_topology("grid36-hole4")
    monkeypatch.setattr(pipeline_mod, "C2", 0.01)
    with pytest.raises(BoundViolationError) as ei:
        run_pipeline(topo, PipelineConfig())
    assert "protocol_rounds" in str(ei.value)
    assert ei.value.report is not None
    assert ei.value.report.bounds_ok is False
    # every other bound was still evaluated
    assert ei.value.report.bounds["storage_hull"]["ok"]


def test_failed_bound_rows_read_greater_than(monkeypatch, caplog):
    # a failed row says its measure is over the bound, in the `measured`
    # and the `measured_max` shapes alike, on its line and in its warning;
    # a row that holds keeps <=
    monkeypatch.setattr(pipeline_mod, "C2", 0.01)
    monkeypatch.setattr(pipeline_mod, "C_LONGRANGE", 0.01)
    pipe = Pipeline(fixture_topology("grid36-hole4"), PipelineConfig(strict=False))
    with caplog.at_level(logging.WARNING, logger="hullroute.pipeline"):
        bounds = pipe.run().bounds
    rounds, lr = bounds["protocol_rounds"], bounds["longrange_per_node"]
    lines = {name: pipeline_mod.bound_line(name, bounds[name]) for name in bounds}
    assert lines["protocol_rounds"] == (
        f"protocol_rounds: {rounds['measured']} > {rounds['bound']:.1f} "
        f"(ratio {rounds['measured'] / rounds['bound']:.3f}), ok=False"
    )
    assert lines["longrange_per_node"] == f"longrange_per_node: {lr['measured_max']} > {lr['bound']:.1f}, ok=False"
    row = bounds["storage_hull"]
    assert lines["storage_hull"] == f"storage_hull: {row['measured_max']} <= {row['bound']:.1f}, ok=True"
    warned = [r.getMessage() for r in caplog.records if r.getMessage().startswith("bound failed: ")]
    assert warned == [f"bound failed: {lines[name]}" for name in ("protocol_rounds", "longrange_per_node")]


def test_pipeline_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="typo_key"):
        PipelineConfig.from_dict({"query_count": 10, "typo_key": 1})


def test_pipeline_determinism_reports_and_transcripts(tmp_path):
    outs = []
    for run in (1, 2):
        cfg = PipelineConfig(
            query_count=15,
            query_seed=7,
            transcript_path=str(tmp_path / f"t{run}.jsonl"),
        )
        rep = run_pipeline(fixture_topology("crescent-24"), cfg)
        rep.write(tmp_path / f"r{run}.json")
        outs.append(run)
    assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()
    assert (tmp_path / "t1.jsonl").read_bytes() == (tmp_path / "t2.jsonl").read_bytes()
    assert (tmp_path / "t1.jsonl").stat().st_size > 0


# ---------------------------------------------------------------------------
# concurrent rings: same messages and abstraction as running rings one by one


# Messages and bytes of the build without its hull-reference (`href`)
# traffic, the sha256 of the sorted (node, long-range sends) pairs of the
# same traffic, and abstraction_digest().  The three traffic figures pin
# what the ring protocols send; they are re-recorded, with the reason in
# CHANGES.md, only when a change to those protocols changes their
# messages.  The bytes alone were re-recorded when the merge messages
# stopped carrying a turn-angle sum, since a leader reads its ring's
# orientation off the merged hull's ranks.  All three were re-recorded
# when pointer jumping dropped its farewell round: a node that is done
# sends no more pj_succ/pj_pred messages; and last when the election
# began to rank the ring, which adds `o` to the pj_pred messages that
# carry `ell` and removes the `hc_assign` id deal and the level-1 `hm`
# merge messages.  The bytes alone were re-recorded when every `hullb`
# message began to introduce its ring's rank 0, the planner.  The abstraction
# digests are those of the ring-by-ring build; they changed once, in their dominating-set field
# only, when the randomized dominating sets gave way to the rank rule, and
# once more when abstraction_digest() became the sha256 of
# abstraction_dict(), which lists each ring's members besides its hull,
# bays and dominating sets; the abstraction itself did not change.
# The bytes alone were re-recorded when `hullb` messages stopped
# introducing rank 0, since no hull node asks its ring's rank 0 any more.
# The `href` traffic, entries gathered at the tree root, is checked
# against oracles.brute_hull_gather.
SERIAL_BUILD = {
    "grid36-hole4": (
        290, 20890,
        "52927e05861153e918c4b6757999f0401d488c471a23046c90bd6cd3bf19c495",
        "a7b26bf1fb93bd01d77586086e75fb9820d9b268ce6a4c1e025621cc7c86b70c",
    ),
    "crescent-24": (
        1038, 70077,
        "86bc6245515a369357005f6ed3450a47fa9befa46296cf5e9d37aff2f586d7cc",
        "29ab548323b7634d31b4f851a25c687c454eef3a19d19b0eefff3a81bfbfa89b",
    ),
    "star12-4": (
        1175, 80385,
        "151424630ee903ca3eddd0da67921355010562d846190161bb9a41dc72a1c86d",
        "3fd08477bcb17a9f374e537900974b98dda52db185b29e1eb86ef7347df63df0",
    ),
    "scale-512-1": (
        1516, 103523,
        "39a3002e3e82ee5c4635e86fcc27402031e2b5eec5bc0c7b0c81c4d4795f1796",
        "c6cd8895cfd45b0508152e2a1b340b09ca3305ea86ce85402d66885427f54482",
    ),
}


def leaders_of(pipe) -> dict[int, int]:
    """Rank 0 of each ring the build gathered, which sends the tree root its ring's entries."""
    return {rid: pipe.orders[rid][0] for rid in pipe._hulls}


# the summary of no queries, for a report of the build alone
NO_QUERIES = {"per_case": {}, "max_ratio": 0.0}


def adhoc(pipe) -> int:
    """The latest build's ad hoc messages, as its report counts them."""
    return pipe.report([], NO_QUERIES).message_stats["abstraction_adhoc"]


def _longrange_recount(transcript) -> dict[int, int]:
    counts: dict[int, int] = {}
    for line in transcript:
        if line["channel"] == "longrange":
            counts[line["src"]] = counts.get(line["src"], 0) + 1
    return counts


@pytest.mark.parametrize("name", sorted(SERIAL_BUILD))
def test_concurrent_build_matches_serial_build(name):
    topo = fixture_topology(name)
    pipe = Pipeline(topo, PipelineConfig())
    pipe.build_abstraction()
    messages, nbytes, lr_digest, digest = SERIAL_BUILD[name]
    eng = pipe.engine
    sent = [t for t in eng.transcript if t["channel"] != "meta"]
    rest = [t for t in sent if t["tag"] != "href"]
    assert (len(rest), sum(t["bytes"] for t in rest)) == (messages, nbytes)
    assert pipe.abstraction_digest() == digest
    # the engine's running tallies agree with a recount of the transcript
    assert len(sent) == eng.total_messages
    assert pipe.build_longrange == _longrange_recount(eng.transcript)
    assert adhoc(pipe) == sum(1 for t in eng.transcript if t["channel"] == "adhoc")
    pairs = json.dumps(sorted(_longrange_recount(rest).items()))
    assert hashlib.sha256(pairs.encode()).hexdigest() == lr_digest
    hrefs = Counter((t["src"], t["dst"]) for t in sent if t["tag"] == "href")
    assert hrefs == brute_hull_gather(len(topo.ids), pipe.root, pipe._hulls, leaders_of(pipe))


# sha256 of the sorted JSON of a build's per-phase reports, its per-ring
# costs and its pointer-jumping audit rows: where the build's rounds,
# messages and bytes went, phase by phase and ring by ring, beside the
# totals SERIAL_BUILD pins.  Re-recorded when the election began to rank
# the ring: the hypercube_ids phase is gone and the merge phases start
# at hull_merge_2; again when the hull distribution began to cast to
# one planner per ring and every `hullb` to introduce rank 0; and again,
# in the hull_distribution phase's row alone, when the cast became two
# heaps that each carry half the entries; and again, in that row alone,
# when the planners began to send their entries straight to the tree
# root instead of up the tree's convergecast; and again when the
# distribution became that gather alone, with no cast, and `hullb`
# messages stopped introducing rank 0: the hull_distribution row and
# the bytes of the hull_broadcast row and of each ring's row change.
TRAFFIC_BREAKDOWN = {
    "grid36-hole4": "a0ffdc0eee934ec4019999d91e69d892a674a51e59a15244dd64175ad13440f0",
    "scale-512-1": "a8392bdc374224ca3322821ca2e6bfa447eb0bef630bdfd49ecad646bc928b9c",
}


@pytest.mark.parametrize("name", sorted(TRAFFIC_BREAKDOWN))
def test_traffic_breakdown_by_phase_and_ring_matches_pinned_digest(name):
    rep = Pipeline(fixture_topology(name), PipelineConfig()).run()
    breakdown = {"phases": rep.phases, "holes": rep.holes, "pointer_jumping": rep.bounds["pointer_jumping"]}
    digest = hashlib.sha256(json.dumps(breakdown, sort_keys=True).encode()).hexdigest()
    assert digest == TRAFFIC_BREAKDOWN[name]


# sha256 of every build message as the earlier wire format carried it:
# each item with its node id, every arc minimum, every cast budget.  The
# stream was recorded from that format; the test puts the facts back from
# each message's header and must find the same stream.  It was re-recorded
# once, when the merge messages stopped carrying a turn-angle sum: the
# earlier stream with `angle` taken out of every `hm` payload; once more
# when pointer jumping dropped its farewell round, which removes
# pj_succ/pj_pred messages and moves later phases' rounds; and once more
# when the election began to rank the ring, which adds `o` to every
# pj_pred that carries `ell`, removes the id deal's `hc_assign` messages
# and the level-1 `hm` messages, and moves later phases' rounds; and once
# more when the distribution began to gather from and cast to one planner
# per ring, whose entries mark the rings it plans, and every `hullb` to
# introduce rank 0 past its points; and once more, in the cast's `href`
# lines alone, when the cast became two heaps that each carry half the
# entries (cshape-40, whose one planner is the tree root, casts nothing);
# and once more, in the `href` lines alone, when each planner began to
# send its entries straight to the tree root in the phase's first round;
# and once more when the distribution became that gather alone, whose
# entries name only the rings a node is a hull node of, and `hullb`
# messages stopped introducing rank 0 past their points (the `href` and
# `hullb` lines change; cshape-40, whose one leader is the tree root,
# gathers nothing).
WIRE_STREAM = {
    "crescent-24": "ac14f93f9c3550fc7264a61f91cc2c2690db3f267f28c503cdf1ca5b5d18b42f",
    "cshape-40": "5a4dd4ae2b384f0de9f73d0b3b026b23657e1ad8508deacd74d65719ae685d26",
    "grid36-hole4": "e3f8c43c4867da3975cc396d12c6ab3944ee86f53b8b0cfb5ada69832b84e2ba",
    "scale-512-1": "432f27338dee6acccfaab0111786fe3756bbad6c3567382e8e35243a676db388",
    "star12-4": "acdeab2b979fa0785bbe6f865e4e3b51b604069abca830eec0db8aba59046b2c",
}


@pytest.mark.parametrize("name", sorted(WIRE_STREAM))
def test_each_fact_crosses_the_wire_once(name, monkeypatch):
    # nothing a message's header says rides in its payload: an item's node
    # id is only among the sorted ids the message introduces, an arc minimum
    # is left out exactly when it is the introduced id (pj_succ) or the
    # sender (pj_pred), a pj_pred's minimum brings its hops back from the
    # sender as `o` only beside it (0 when the sender is the minimum), and
    # a cast carries no budget, since rank r > 0 is
    # reached with the lowest set bit of r.  Put back, the facts are the
    # ones the earlier format carried.  A message introduces its items'
    # ids and no more.  A gathered entry names the rings its sender leads
    # that its node is a hull node of, and the tree root hears each hull
    # node once from each leader of one of its rings, but itself.
    topo = fixture_topology(name)
    pipe = Pipeline(topo, PipelineConfig())
    sent = []
    send = RoundEngine.send

    def spy(eng, src, dst, payload=None, **kw):
        wire = json.loads(json.dumps(payload))
        sent.append((eng.round_no, src, dst, kw["tag"], eng.session, wire, tuple(kw.get("intro_ids", ()))))
        send(eng, src, dst, payload, **kw)

    monkeypatch.setattr(RoundEngine, "send", spy)
    pipe.build_abstraction()
    pts, root = topo.points, pipe.root
    leaders = leaders_of(pipe)
    gathered = Counter()
    ells = Counter()
    stream = []
    for rnd, src, dst, tag, session, d, intro in sent:
        if tag == "href":
            assert set(d) == {"refs"} and dst == root
            d["refs"] = with_ids(d["refs"], intro, 0)
            rings = {v: sorted(r for r, ids in pipe._hulls.items() if v in ids and leaders[r] == src) for v in intro}
            assert d["refs"] == [[v, pts[v].x, pts[v].y, *rings[v]] for v in intro]
            gathered.update(intro)
        elif tag in ("pj_succ", "pj_pred"):
            own = intro[0] if tag == "pj_succ" else src
            assert len(intro) == 1 and d.get("ell") != own
            assert set(d) in (set(), {"ell", "o"} if tag == "pj_pred" else {"ell"})
            ells[tag, "ell" in d] += 1
            d.setdefault("ell", own)
            if tag == "pj_pred":
                d.setdefault("o", 0)
        else:
            rank = {v: s for s, v in enumerate(pipe.orders[session])}
            assert set(d) <= ({"hull", "count"} if tag == "hm" else {"hull", "size"})
            d["hull"] = with_ids(d["hull"], intro, 2)
            assert d["hull"] == [[pts[q[2]].x, pts[q[2]].y, q[2], rank[q[2]]] for q in d["hull"]]
            if tag != "hm":
                i = (rank[dst] & -rank[dst]).bit_length() - 1
                assert rank[src] + (1 << i) == rank[dst]
                d["budget"] = i
        stream.append(json.dumps([rnd, src, dst, tag, str(session), d, list(intro)], sort_keys=True))
    # a lone leader at the tree root needs no hull distribution
    tags = {"pj_succ", "pj_pred", "hm", "hullb"} | ({"href"} if set(leaders.values()) - {root} else set())
    assert {line[3] for line in sent} == tags
    assert set(ells) == {(tag, present) for tag in ("pj_succ", "pj_pred") for present in (True, False)}
    digest = hashlib.sha256("\n".join(sorted(stream)).encode()).hexdigest()
    assert digest == WIRE_STREAM[name]
    led = {p: set().union(*(ids for r, ids in pipe._hulls.items() if leaders[r] == p)) for p in leaders.values()}
    assert gathered == Counter(v for p, ids in led.items() if p != root for v in ids)


def test_build_runs_no_ranking_pass(grid_pipe):
    # each leader learns its ring's size and orientation from the hull
    # merge, so no message or phase of their own carries them
    pipe, rep = grid_pipe
    assert not {"rk_req", "rk_rep"} & {t["tag"] for t in pipe.engine.transcript}
    assert "ring_ranking" not in {p.label for p in pipe.engine.phase_reports}
    sizes = {r.ring_id: len(r.members) for r in pipe.rings}
    rows = rep.bounds["pointer_jumping"]["rings"]
    assert rows and all(row["size"] == sizes[row["ring_id"]] for row in rows)


# sha256 of the `queries` rows of Pipeline.run() with query_count=100 and
# query_seed=11, recorded from the router that still mapped waypoint
# positions back to node ids; any change to a route, case or ratio shows.
# The crescent-24 and scale-512-1 rows were re-recorded when the bay
# dominating sets, where bay legs are anchored, became the rank rule's,
# and every row when a plan made at a hull node that plans no ring began
# to cost a long-range round trip to a planner: of the fields, only
# `rounds_used` and `longrange_msgs` moved.  Every row again when the
# tree root became the one planner, so a plan made at a ring's rank 0
# other than the root costs that round trip too: again only
# `rounds_used` and `longrange_msgs` moved.
# The pins cover the fields a row had when they were recorded; `replans`
# and `planners`, read off each route's plans, came later and are left out
# of the digest (test_query_rows_name_their_replans_and_planners).
ROUTE_ROWS = {
    ("crescent-24", "overlay-delaunay"): "8c868c3416574bf35eada37ba73f16dab6516a00c04fb027dd5cd6bc1dbfdfcf",
    ("crescent-24", "visibility"): "8c868c3416574bf35eada37ba73f16dab6516a00c04fb027dd5cd6bc1dbfdfcf",
    ("grid36-hole4", "overlay-delaunay"): "8e9091afcb632eee0925dce7986300098ee19b4cf8190df68edf6694df6f9497",
    ("grid36-hole4", "visibility"): "8e9091afcb632eee0925dce7986300098ee19b4cf8190df68edf6694df6f9497",
    ("scale-512-1", "overlay-delaunay"): "00f3dfc6bb4c2392736b3e535a51718368049c40c0176349b22085962bc4e4f3",
    ("scale-512-1", "visibility"): "c8ba8c898d38518421f511b3037ff74f9d3b733ab8bef89a5f90b36876c70d26",
    ("star12-4", "overlay-delaunay"): "34f56e8a69e60d641cf615ba539f0440970fceacaace7f5ac559b37a35aeef0f",
    ("star12-4", "visibility"): "2e0351962b29f4ef78d6b0e4cef8c1a1c6fd4a4e809d0ee4b94ce7ed3f9a1814",
}


@pytest.mark.parametrize("name,backend", sorted(ROUTE_ROWS))
def test_route_rows_match_pinned_digests(name, backend):
    topo = fixture_topology(name)
    rep = Pipeline(topo, PipelineConfig(backend=backend, query_count=100, query_seed=11)).run()
    assert all(q["replans"] == max(len(q["planners"]) - 1, 0) for q in rep.queries)
    pinned = [{k: v for k, v in q.items() if k not in ("replans", "planners")} for q in rep.queries]
    rows = json.dumps(pinned, sort_keys=True)
    assert hashlib.sha256(rows.encode()).hexdigest() == ROUTE_ROWS[(name, backend)]


@pytest.mark.parametrize("name", ["grid36-hole4", "crescent-24", "star12-4", "cshape-40", "scale-512-1", "star12-4~2"])
def test_case1_planners_know_their_waypoints(name):
    # a waypoint plan is made at a hull node, which asks the tree root, the
    # one planner, unless it is the root; the plan may name no hull node
    # whose id the root does not hold, and the hull node holds the root's id
    topo = fixture_topology(name)
    pipe = Pipeline(topo, PipelineConfig(query_count=100, query_seed=11))
    pipe.build_abstraction()
    results, _ = pipe.run_queries()
    hull_ids = set().union(*pipe._hulls.values())
    root, knows = pipe.root, pipe._knows_after_build
    assert pipe.router.root == root
    plans = [p for r in results if r.case_taken == "Case1" for p in r.plans]
    assert plans
    asked = 0
    for h, chain in plans:
        assert h in hull_ids
        assert h == root or root in knows[h], h
        assert set(chain) & hull_ids - {root} <= knows[root], chain
        asked += h != root
    assert asked


@pytest.mark.parametrize("name", ["grid36-hole4", "crescent-24", "star12-4", "cshape-40", "scale-512-1"])
def test_ring_nodes_know_their_bay_ends(name, monkeypatch):
    # the scoped hull broadcast leaves every node of every ring, arcs
    # included, the two hull nodes that close its bay and their ranks, and
    # on a closed ring the ring size; so member j of a bay of m decides
    # alone whether it joins the bay's dominating set: when j % 3 == 1,
    # or j == m - 1 and j % 3 == 0
    topo = fixture_topology(name)
    heard, sizes = defaultdict(dict), {}
    send = RoundEngine.send

    def spy(engine, src, dst, payload=None, **kw):
        if kw.get("tag") == "hullb":
            hull = with_ids(payload["hull"], kw["intro_ids"][: len(payload["hull"])], 2)
            heard[engine.session, dst].update({q[2]: q[3] for q in hull})
            sizes[engine.session, dst] = payload.get("size")
        return send(engine, src, dst, payload, **kw)

    monkeypatch.setattr(RoundEngine, "send", spy)
    pipe = Pipeline(topo, PipelineConfig())
    pipe.build_abstraction()
    knows = pipe._knows_after_build
    checked = Counter()
    for r in pipe.rings:
        order = pipe.orders[r.ring_id]
        rank, k, closed = {v: s for s, v in enumerate(order)}, len(order), r.kind != KIND_OUTER_HOLE
        ab = pipe.abstractions[r.ring_id]
        # the leader, rank 0 of a closed ring, ends the merge with the hull and k
        heard[r.ring_id, order[0]] = {h: rank[h] for h in ab.hull_nodes}
        sizes[r.ring_id, order[0]] = k if closed else None
        for i, bay in enumerate(ab.bay_areas):
            a, b = (rank[e] for e in bay.edge)
            for v in bay.members:
                assert set(bay.edge) <= knows[v], (r.ring_id, v, bay.edge)
                assert {e: heard[r.ring_id, v].get(e) for e in bay.edge} == dict(zip(bay.edge, (a, b)))
                assert sizes[r.ring_id, v] == (k if closed else None), (r.ring_id, v)
                # an arc's ranks never wrap; a closed ring's wrap past rank 0
                j, m = rank[v] - a - 1, b - a - 1
                if closed:
                    j, m = j % k, m % k
                assert (j, m) == (bay.members.index(v), len(bay.members)), (r.ring_id, v)
                joins = j % 3 == 1 or j == m - 1 and j % 3 == 0
                assert joins == (v in ab.dominating_sets[i]), (r.ring_id, v, j, m)
                checked[r.kind] += 1
    assert checked[KIND_OUTER_HOLE] > 0


def test_hull_broadcast_sends_at_most_seven_per_node_and_round_on_cshape():
    # each tree edge carries only its subtree's part of the hull, so the
    # outer ring's leader no longer sends 16 long-range hullb messages in
    # its first round
    pipe = Pipeline(fixture_topology("cshape-40"), PipelineConfig())
    pipe.build_abstraction()
    sends = Counter(
        (t["round"], t["src"])
        for t in pipe.engine.transcript
        if t["tag"] == "hullb" and t["channel"] == "longrange"
    )
    assert 0 < max(sends.values()) <= 7


@pytest.mark.parametrize("name", ["grid36-hole4", "crescent-24", "star12-4", "scale-512-1", "grid-2048-4", "star12-4~2"])
def test_build_sends_at_most_cap_long_range_per_node_and_round(name):
    # a node's long-range budget is O(log n) messages a round: counted off
    # the transcript, no node sends more than ceil(log2 n) in any round of
    # a build, the hull distribution's one-hop gather included.  cshape-40
    # is left out: its outer ring's leader still sends 7 `hullb` messages
    # in one round against a cap of 6, a known excess of the hull broadcast
    pipe = Pipeline(fixture_topology(name), PipelineConfig())
    pipe.build_abstraction()
    sends = Counter((t["round"], t["src"]) for t in pipe.engine.transcript if t["channel"] == "longrange")
    cap = math.ceil(math.log2(len(pipe.topo.ids)))
    assert 0 < max(sends.values()) <= cap
    (phase,) = [p for p in pipe.engine.phase_reports if p.label == "hull_distribution"]
    assert phase.rounds == 1 and phase.max_longrange_per_node_round <= cap


def test_relabelled_ids_keep_the_hulls_and_every_bound():
    # name~seed deals name's ids at random, and the election and the tree
    # root choose by id; with shuffled ids the root, the smallest id, is
    # often no hull node, and on crescent-24~1 it is on no ring, yet it is
    # audited in the hull class and holds every hull id; the routes, whose
    # ties break by id, stay within the gated bounds on both backends

    def hulls(p, label):
        # each ring's kind, member set and ccw hull, started at its smallest
        # id, and its bays' strips (ends and members in order), each with
        # its dominating set
        out = set()
        for r in p.rings:
            ab = p.abstractions[r.ring_id]
            ids = [label(v) for v in ab.hull_nodes]
            at = ids.index(min(ids))
            bays = frozenset(
                (tuple(map(label, bay.strip)), frozenset(map(label, ab.dominating_sets[i])))
                for i, bay in enumerate(ab.bay_areas)
            )
            out.add((r.kind, frozenset(map(label, r.members)), tuple(ids[at:] + ids[:at]), bays))
        return out

    def check_face_map(p):
        # the Router finds a blocked face's ring in one map: its keys are the
        # blocked faces, each held by the closed ring that walks it, no arc
        g, face_ring = p.g, p.router._face_ring
        assert set(face_ring) == {f for f in range(len(g.faces)) if g.is_blocked_face(f)}
        for f, ctx in face_ring.items():
            assert ctx.ring in p.rings and ctx.ring.kind != KIND_OUTER_HOLE
            assert ctx.ring.members == list(g.faces[f])

    off_rings = []
    for name, seed in [("star12-4", 2), ("grid36-hole4", 1), ("crescent-24", 1), ("scale-512-1", 1), ("cshape-40", 1)]:
        base = Pipeline(fixture_topology(name), PipelineConfig())
        base.build_abstraction()
        pipe = Pipeline(fixture_topology(f"{name}~{seed}"), PipelineConfig(query_count=100, query_seed=11))
        pipe.build_abstraction()
        check_face_map(base)
        check_face_map(pipe)
        relabel = shuffled_ids(base.topo.ids, seed)
        assert {relabel[v]: p for v, p in base.topo.points.items()} == pipe.topo.points
        bounds = pipe.bound_audit()
        assert all(row["ok"] for row in bounds.values()), (name, [k for k, row in bounds.items() if not row["ok"]])
        assert bounds["planner_refs"]["measured_max"] == 0, name
        root, hull_ids = pipe.root, set().union(*pipe._hulls.values())
        assert pipe.storage_audit()["hull"]["nodes"] == len(hull_ids | {root}), name
        if not any(root in r.members for r in pipe.rings):
            off_rings.append(name)
        assert hulls(pipe, lambda v: v) == hulls(base, relabel.__getitem__), name
        odel = Router(pipe.g, pipe.rings, pipe.abstractions, pipe.root, backend=BACKEND_ODEL)
        for router, case1 in ((pipe.router, CASE1_BOUND_VIS), (odel, CASE1_BOUND_ODEL)):
            for s, t in pipe.query_pairs():
                res = router.route(pipe.engine, s, t)
                at = (name, case1, s, t, res.case_taken)
                if res.case_taken == "Visible":
                    assert res.euclidean_length <= CHEW_BOUND * res.straight_line + 1e-9, at
                elif res.case_taken == "Case1":
                    assert res.competitive_ratio <= case1 + 1e-9, at
                elif res.case_taken == "Case5":
                    assert res.competitive_ratio <= (2 + res.e_route) * CHEW_BOUND + 1e-9, at
    assert off_rings == ["crescent-24"]


def withholding_mutant(monkeypatch, name, drop):
    """A build of `name` that withholds each send drop(engine, src, dst, payload, kw) is true for."""
    send = RoundEngine.send

    def spy(eng, src, dst, payload=None, **kw):
        if not drop(eng, src, dst, payload, kw):
            send(eng, src, dst, payload, **kw)

    monkeypatch.setattr(RoundEngine, "send", spy)
    pipe = Pipeline(fixture_topology(name), PipelineConfig())
    pipe.build_abstraction()
    return pipe


def test_planner_refs_row_fails_a_distribution_that_withholds_an_entry(monkeypatch):
    pipe = Pipeline(fixture_topology("star12-4"), PipelineConfig())
    pipe.build_abstraction()
    row = pipe.bound_audit()["planner_refs"]
    assert row["ok"] and row["measured_max"] == 0
    assert row["hull_nodes"] == len(set().union(*pipe._hulls.values())) > 2
    dropped = []

    def drop(eng, src, dst, payload, kw):
        # the first gather message that brings the root an id it does not hold yet is withheld
        if kw.get("tag") == "href" and not dropped and set(kw["intro_ids"]) - eng.topo.knows[dst]:
            dropped.extend(kw["intro_ids"])
            return True
        return False

    mutant = withholding_mutant(monkeypatch, "star12-4", drop)
    root = mutant.root
    lost = set(dropped) - mutant._knows_after_build[root] - {root}
    bounds = mutant.bound_audit()
    assert not bounds["planner_refs"]["ok"] and bounds["planner_refs"]["measured_max"] == len(lost) > 0
    assert all(row["ok"] for name, row in bounds.items() if name != "planner_refs")


def test_planner_refs_row_fails_a_tree_that_leaves_a_hull_node_without_the_root(monkeypatch):
    # a hull node asks the tree root for its plans, and a hull node that
    # leads no ring and is no neighbour of the root learns the root's id
    # from the tree alone; a tree that skips one such node fails the row
    pipe = Pipeline(fixture_topology("star12-4~2"), PipelineConfig())
    build, skipped = pipeline_mod.build_broadcast_tree, []

    def tree(engine, began):
        knew = {v: set(engine.topo.knows[v]) for v in engine.topo.ids}
        root = build(engine, began)
        leaders = {order[0] for order in pipe.orders.values()}
        hull_ids = (
            v for r in pipe.rings if r.kind != KIND_OUTER_BOUNDARY for v in pipe.abstractions[r.ring_id].hull_nodes
        )
        skipped.append(max(v for v in hull_ids if v not in leaders and root not in knew[v] | {v}))
        engine.topo.forget(skipped[0], root)
        return root

    monkeypatch.setattr(pipeline_mod, "build_broadcast_tree", tree)
    pipe.build_abstraction()
    bounds = pipe.bound_audit()
    assert skipped and not bounds["planner_refs"]["ok"] and bounds["planner_refs"]["measured_max"] == 1
    assert all(row["ok"] for name, row in bounds.items() if name != "planner_refs")


def test_each_engine_phase_logs_one_line_when_it_ends(caplog):
    pipe = Pipeline(fixture_topology("grid36-hole4"), PipelineConfig())
    with caplog.at_level(logging.DEBUG, logger="hullroute.simengine"):
        pipe.build_abstraction()
    line = re.compile(
        r"phase (\S+): (\d+) rounds, (\d+) handler calls, (\d+) active, (\d+) long-range, "
        r"(\d+) ad hoc, (\d+) bytes, peak (\d+) long-range per node and round"
    )
    ends = [r.getMessage() for r in caplog.records if r.name == "hullroute.simengine" and "begins" not in r.getMessage()]
    rows = [line.fullmatch(msg).groups() for msg in ends]
    assert rows == [
        (p.label, *map(str, (p.rounds, p.calls, p.active, p.messages_longrange, p.messages_adhoc,
                             p.bytes_total, p.max_longrange_per_node_round)))
        for p in pipe.engine.phase_reports
    ]
    assert rows[-1][0] == "hull_distribution"
    hrefs = sum(t["tag"] == "href" for t in pipe.engine.transcript)
    assert int(rows[-1][4]) + int(rows[-1][5]) == hrefs > 0


def test_each_engine_phase_logs_one_line_when_it_begins(caplog):
    pipe = Pipeline(fixture_topology("grid36-hole4"), PipelineConfig())
    with caplog.at_level(logging.DEBUG, logger="hullroute.simengine"):
        pipe.build_abstraction()
    line = re.compile(r"phase (\S+) begins at round (\d+), (\d+) sessions")
    rows = [line.fullmatch(r.getMessage()) for r in caplog.records if "begins" in r.getMessage()]
    eng = pipe.engine
    assert [m[1] for m in rows] == [p.label for p in eng.phase_reports]
    # a phase begins where the one before it ended, or after charged rounds
    start = pipeline_mod.LDEL_BUILD_ROUNDS + pipeline_mod.RING_DETECT_ROUNDS
    for m, p in zip(rows, eng.phase_reports):
        if p.label == "hull_distribution":
            start += pipe.phase_rounds["broadcast_tree"]
        assert int(m[2]) == start, p.label
        start += p.rounds
    assert start == eng.round_no
    sessions = {m[1]: int(m[3]) for m in rows}
    assert sessions["pointer_jumping"] == sum(r.kind != KIND_OUTER_HOLE for r in pipe.rings) > 1
    assert sessions["hull_distribution"] == 1


def test_hull_distribution_logs_its_gather(caplog):
    pipe = Pipeline(fixture_topology("star12-4"), PipelineConfig())
    with caplog.at_level(logging.DEBUG, logger="hullroute.overlay"):
        pipe.build_abstraction()
    line = re.compile(r"hull distribution: (\d+) leaders send (\d+) hull nodes to root (\d+)")
    (row,) = [line.fullmatch(r.getMessage()) for r in caplog.records if "distribution" in r.getMessage()]
    leaders, hull_nodes, root = map(int, row.groups())
    assert root == pipe.root
    assert leaders == len(set(leaders_of(pipe).values()) - {root}) > 1
    assert hull_nodes == len(set().union(*pipe._hulls.values())) > leaders
    # the gather is one hop, so the phase takes one round
    assert pipe.engine.phase_reports[-1].label == "hull_distribution"
    assert pipe.engine.phase_reports[-1].rounds == 1


@pytest.mark.parametrize("name", ["grid36-hole4", "scale-512-1"])
def test_holes_rows_report_each_rings_own_cost(name, caplog):
    # a ring's own cost is its sessions', election through hull broadcast;
    # every phase but the hull distribution, whose one session is no
    # ring's, runs one session per ring, so the rows add up to those
    # phases, and each row's rounds are the ones the wave's log line names
    topo = fixture_topology(name)
    pipe = Pipeline(topo, PipelineConfig())
    with caplog.at_level(logging.DEBUG, logger="hullroute.pipeline"):
        pipe.build_abstraction()
    rows = pipe.report([], NO_QUERIES).holes
    line = re.compile(r"ring (\d+) \S+: size \d+, hull \d+, own rounds (\d+), (\d+) long-range, (\d+) bytes")
    logged = [line.fullmatch(r.getMessage()) for r in caplog.records if r.getMessage().startswith("ring ")]
    assert [int(m[1]) for m in logged] == [r.ring_id for r in pipe.rings]
    assert [(row["rounds"], row["longrange_messages"], row["bytes"]) for row in rows] == [
        tuple(map(int, m.groups()[1:])) for m in logged
    ]
    ring_phases = [p for p in pipe.engine.phase_reports if p.label != "hull_distribution"]
    assert sum(row["bytes"] for row in rows) == sum(p.bytes_total for p in ring_phases)
    assert sum(row["longrange_messages"] for row in rows) == sum(p.messages_longrange for p in ring_phases)
    assert all(0 < row["rounds"] <= sum(p.rounds for p in ring_phases) for row in rows)
    # a recompute's rows count its own build only
    pipe.periodic_recompute()
    assert pipe.report([], NO_QUERIES).holes == rows


def test_query_rows_name_their_replans_and_planners(monkeypatch):
    # cshape-40's Case1 query 6 -> 28 is planned once, at hull node 0
    pipe = Pipeline(fixture_topology("cshape-40"), PipelineConfig(queries=[(6, 28), (12, 15)]))
    pipe.build_abstraction()
    results, summary = pipe.run_queries()
    rows = pipe.report(results, summary).queries
    assert [(row["case"], row["replans"], row["planners"]) for row in rows] == [
        ("Case1", 0, [0]),
        ("Visible", 0, []),
    ]
    assert rows[0]["planners"] == [planner for planner, _ in results[0].plans]
    # a waypoint leg that stops on the hole makes hull node 0 plan again
    _, first_hit = chew_route(pipe.g, 6, 28)
    leg, stops = pipe.router._leg, []

    def stop_once(cur, tgt):
        if not stops:
            stops.append(cur)
            return [cur], HitHoleNode(cur, first_hit.face)
        return leg(cur, tgt)

    monkeypatch.setattr(pipe.router, "_leg", stop_once)
    pipe.config.queries = [(6, 28)]
    results, summary = pipe.run_queries()
    (row,) = pipe.report(results, summary).queries
    assert row["path"] == rows[0]["path"]
    assert (row["replans"], row["planners"]) == (1, [0, 0])


# the phases of a build before the broadcast tree's charge; the tree runs
# beside them from the build's first round
PRE_TREE_PHASES = ("ldel2_build", "ring_detect", "classification", "ring_hulls", "outer_holes")


@pytest.mark.parametrize("name", ["grid36-hole4", "crescent-24", "star12-4", "cshape-40", "scale-512-1"])
def test_broadcast_tree_is_charged_only_past_the_waves(name):
    topo = fixture_topology(name)
    pipe = Pipeline(topo, PipelineConfig())
    pipe.build_abstraction()
    rounds = pipe.phase_rounds
    tree = math.ceil(math.log2(len(topo.ids)) ** 2)
    before = sum(rounds[p] for p in PRE_TREE_PHASES)
    rep = pipe.report([], NO_QUERIES)
    assert rep.wave_rounds == pipe.wave_rounds == before
    (charge,) = [t["tag"] for t in pipe.engine.transcript if t["tag"].startswith("charge:broadcast_tree:")]
    assert rounds["broadcast_tree"] == max(0, tree - before) == int(charge.rsplit(":", 1)[1])
    assert pipe.protocol_rounds == max(tree, before) + rounds["hull_distribution"]
    assert pipe.protocol_rounds == sum(rounds[p] for p in (*PRE_TREE_PHASES, "broadcast_tree", "hull_distribution"))
    # the tree is never cheaper than its full rounds from the build's start
    assert pipe.protocol_rounds >= tree + rounds["hull_distribution"]
    (tag,) = [t["tag"] for t in pipe.engine.transcript if t["tag"].startswith("charge:broadcast_tree:")]
    assert tag == f"charge:broadcast_tree:{rounds['broadcast_tree']}"


def test_broadcast_tree_logs_its_rounds_beside_the_waves(caplog):
    pipe = Pipeline(fixture_topology("star12-4"), PipelineConfig())
    with caplog.at_level(logging.DEBUG, logger="hullroute.overlay"):
        pipe.build_abstraction()
    line = re.compile(r"broadcast tree: (\d+) rounds, (\d+) beside the earlier phases, (\d+) charged")
    (row,) = [line.fullmatch(r.getMessage()) for r in caplog.records if "broadcast tree" in r.getMessage()]
    full, beside, charged = map(int, row.groups())
    assert full == math.ceil(math.log2(len(pipe.topo.ids)) ** 2)
    assert beside == sum(pipe.phase_rounds[p] for p in PRE_TREE_PHASES) > 0
    assert charged == pipe.phase_rounds["broadcast_tree"] > 0
    assert beside + charged == full


def _square(cx: float, cy: float, side: float = 1.5) -> Polygon:
    h = side / 2
    return Polygon(
        (Point(cx - h, cy - h), Point(cx + h, cy - h), Point(cx + h, cy + h), Point(cx - h, cy + h))
    )


def test_protocol_rounds_do_not_grow_with_hole_count():
    built = {}
    for k in (1, 4):
        centres = [(2.2, 2.2), (6.6, 2.2), (2.2, 6.6), (6.6, 6.6)][:k]
        spec = ScenarioSpec(seed=3, region=(0.0, 0.0, 8.8, 8.8), spacing=0.55,
                            obstacles=[_square(x, y) for x, y in centres], name=f"holes{k}")
        pipe = Pipeline(generate_scenario(spec), PipelineConfig())
        pipe.build_abstraction()
        assert sum(r.kind == "InnerHole" for r in pipe.rings) == k
        built[k] = pipe
    one, four = built[1], built[4]
    assert four.protocol_rounds <= one.protocol_rounds
    # the tree hides the waves, so the rounds before it must not grow either
    assert sum(four.phase_rounds[p] for p in PRE_TREE_PHASES) <= sum(
        one.phase_rounds[p] for p in PRE_TREE_PHASES
    )
    for phase in ("classification", "ring_hulls"):
        assert four.phase_rounds[phase] <= one.phase_rounds[phase], phase
    # rings of one wave keep their own jump rounds: small arcs stay small
    rows = four.bound_audit()["pointer_jumping"]["rings"]
    assert all(row["jump_rounds"] <= row["round_bound"] for row in rows)
    arc_ids = {r.ring_id for r in four.rings if r.kind == "OuterHole"}
    arcs = [four.ring_cost[rid]["rounds"] for rid in arc_ids]
    assert min(arcs) < max(arcs)


def test_wave_rounds_hold_across_the_hole_count_sweep():
    # rings run in parallel, so the waves take as many rounds with one
    # square hole on the n = 512 lattice as with a 4 x 4 grid of them
    waves = {}
    for k in range(1, 5):
        pipe = Pipeline(fixture_topology(f"grid-512-{k}"), PipelineConfig())
        pipe.build_abstraction()
        assert sum(r.kind == "InnerHole" for r in pipe.rings) >= k * k
        waves[k] = pipe.wave_rounds
    assert len(set(waves.values())) == 1, waves


@pytest.mark.parametrize("name", ["crescent-24", "scale-512-1"])
def test_outer_hole_arcs_run_on_the_outer_rings_ranks_and_jump_edges(name, monkeypatch):
    topo = fixture_topology(name)
    build, knew, merged = pipeline_mod.build_hull_abstraction, [], []
    rank_ring, sizes, orientations = overlay_mod.rank_ring, {}, {}

    def spy(engine, rings, orders):
        if any(r.kind == KIND_OUTER_HOLE for r in rings):  # wave two
            knew.append({v: set(topo.knows[v]) for v in topo.ids})
        out = build(engine, rings, orders)
        orientations.update(out[1])
        return out

    def rank_spy(engine, orders, chains, merged):
        sizes.update(merged)
        return rank_ring(engine, orders, chains, merged)

    monkeypatch.setattr(pipeline_mod, "build_hull_abstraction", spy)
    monkeypatch.setattr(overlay_mod, "rank_ring", rank_spy)
    pipe = Pipeline(topo, PipelineConfig())
    send = pipe.engine.send

    def send_spy(src, dst, payload=None, **kw):
        if kw.get("tag") == "hm":
            merged.append((bool(knew), {"count"} & set(payload)))
        send(src, dst, payload, **kw)

    monkeypatch.setattr(pipe.engine, "send", send_spy)
    pipe.build_abstraction()
    # only the closed rings merge a size, and every ring's leader reads an orientation
    assert any(totals for two, totals in merged if not two)
    assert any(two for two, _ in merged)
    assert not any(totals for two, totals in merged if two)
    for r in pipe.rings:
        if r.kind == KIND_OUTER_HOLE:
            assert r.ring_id not in sizes
        else:
            assert sizes[r.ring_id] == len(r.members)
        assert r.orientation == orientations[r.ring_id]
    labels = [p.label for p in pipe.engine.phase_reports]
    wave_two = set(labels[labels.index("hull_broadcast") + 1 :])
    assert "hull_broadcast" in wave_two
    assert "pointer_jumping" not in wave_two
    (knew,) = knew
    ring = pipe.orders[next(r.ring_id for r in pipe.rings if r.kind == "OuterBoundary")]
    rank, k = {v: s for s, v in enumerate(ring)}, len(ring)
    arcs = [r for r in pipe.rings if r.kind == KIND_OUTER_HOLE]
    assert arcs
    for arc in arcs:
        order = pipe.orders[arc.ring_id]
        assert order == arc.members
        # arc rank s sits s outer ranks past the arc's first node
        start, m = rank[arc.members[0]], len(arc.members)
        assert [rank[v] for v in order] == [(start + s) % k for s in range(m)]
        # arc ranks s and s ^ 2^j below m, so every merge and broadcast
        # send, were outer ranks 2^j apart that pointer jumping linked
        for s in range(m):
            for j in range(m.bit_length()):
                if s ^ 1 << j < m:
                    u, w = order[s], order[s ^ 1 << j]
                    assert w in knew[u], (arc.ring_id, s, j)


@pytest.mark.parametrize(
    "name", ["grid36-hole4", "cshape-40", "crescent-24", "star12-4", "scale-512-1", "grid-512-3"]
)
def test_each_rings_layout_is_its_rank_order(name):
    # the election ranks a closed ring from its minimum id on, in the
    # ring's own walk direction, and an outer-hole arc is laid out as its
    # members, from its first hull end on: neither layout holds anything
    # the ring does not
    pipe = Pipeline(fixture_topology(name), PipelineConfig())
    pipe.build_abstraction()
    assert set(pipe.orders) == {r.ring_id for r in pipe.rings}
    for r in pipe.rings:
        if r.kind == KIND_OUTER_HOLE:
            want = r.members
        else:
            at = r.members.index(min(r.members))
            want = r.members[at:] + r.members[:at]
        assert pipe.orders[r.ring_id] == want, r.ring_id


# ---------------------------------------------------------------------------
# periodic recompute


def test_recompute_without_movement_is_identical():
    pipe = Pipeline(fixture_topology("grid36-hole4"), PipelineConfig())
    pipe.run()
    d0 = pipe.abstraction_digest()
    out = pipe.periodic_recompute(interval=50)
    assert out["ok"]
    assert out["tree_reused"]
    assert out["idle_rounds"] == 50
    assert out["abstraction_digest"] == d0
    assert out["rounds"] <= out["bound"]
    # a reused tree takes no round of this build
    assert pipe.phase_rounds["broadcast_tree"] == 0
    assert pipe.protocol_rounds == sum(pipe.phase_rounds.values())


def test_audit_window_is_the_latest_build():
    pipe = Pipeline(fixture_topology("grid36-hole4"), PipelineConfig(query_count=10, query_seed=1))
    rep = pipe.run()
    first = dict(pipe.build_longrange)
    out = pipe.periodic_recompute()
    assert out["abstraction_digest"] == pipe.abstraction_digest()
    # an unmoved network rebuilds with the very same messages
    assert pipe.build_longrange == first
    again = pipe.report([], NO_QUERIES)
    for key in ("abstraction_adhoc", "abstraction_longrange", "longrange_per_node_max"):
        assert again.message_stats[key] == rep.message_stats[key], key
    assert again.bounds["longrange_per_node"] == rep.bounds["longrange_per_node"]
    # the report counts the latest build alone: not the first, nor the queries
    build = rep.message_stats["abstraction_adhoc"] + rep.message_stats["abstraction_longrange"]
    assert again.message_stats["total_messages"] == build < pipe.engine.total_messages
    assert rep.message_stats["total_messages"] == build
    assert rep.message_stats["total_bytes"] == again.message_stats["total_bytes"]
    labels = [p["label"] for p in again.phases]
    assert labels == [p["label"] for p in rep.phases] and "query" not in labels
    assert len(pipe.engine.phase_reports) == 2 * len(labels) + 10


def test_a_build_keeps_no_earlier_window_timings():
    # the queries' rounds and seconds belong to the window they ran in
    pipe = Pipeline(fixture_topology("grid36-hole4"), PipelineConfig(query_count=3, query_seed=1))
    pipe.run()
    assert pipe.phase_rounds["queries"] > 0 and "queries_s" in pipe.seconds
    pipe.periodic_recompute()
    assert "queries" not in pipe.phase_rounds and "queries_s" not in pipe.seconds
    assert pipe.protocol_rounds == sum(pipe.phase_rounds.values())
    assert set(pipe.seconds) == {f"{label}_s" for label in pipe.phase_rounds} | {"router_s"}


@pytest.mark.parametrize("name", ["grid36-hole4", "star12-4"])
def test_query_ids_stay_out_of_the_next_builds_storage_audit(name):
    # a query teaches its source the target's id and its target the
    # source's; a recompute after queries audits only what its build taught
    pipe = Pipeline(fixture_topology(name), PipelineConfig(query_count=200, query_seed=5))
    pipe.build_abstraction()
    knows, storage = pipe._knows_after_build, pipe.storage_audit()
    assert pipe.run_queries()[0]
    pipe.periodic_recompute()
    assert pipe._knows_after_build == knows
    assert pipe.storage_audit() == storage
    assert all(b["ok"] for b in pipe.bound_audit().values())


def _strangers(pipe) -> tuple[int, int]:
    """The first pair of nodes, by id, neither of which knows the other."""
    knows, ids = pipe.topo.knows, pipe.topo.ids
    return next((s, t) for s in ids for t in ids if s != t and t not in knows[s] and s not in knows[t])


def test_query_leaves_both_ends_knowing_what_they_knew(monkeypatch):
    # the source holds the target's id while the query's traffic runs and
    # delivery teaches the target the source's; both ends forget them
    # afterwards, also when delivery raises
    pipe = Pipeline(fixture_topology("grid36-hole4"), PipelineConfig())
    pipe.build_abstraction()
    knows = pipe.topo.knows
    s, t = _strangers(pipe)
    before = {v: set(knows[v]) for v in (s, t)}
    transmit, held = pipe.router._transmit, []

    def spy(engine, a, b, *rest):
        out = transmit(engine, a, b, *rest)
        held.append((b in knows[a], a in knows[b]))
        return out

    monkeypatch.setattr(pipe.router, "_transmit", spy)
    res = pipe.query(s, t)
    assert (res.path[0], res.path[-1], held) == (s, t, [(True, True)])
    assert {v: set(knows[v]) for v in (s, t)} == before

    def fail(engine, a, b, *rest):
        held.append((b in knows[a], a in knows[b]))
        raise NoPathError("no walk")

    monkeypatch.setattr(pipe.router, "_transmit", fail)
    with pytest.raises(NoPathError):
        pipe.query(s, t)
    assert held[-1] == (True, False)
    assert {v: set(knows[v]) for v in (s, t)} == before


@pytest.mark.parametrize("s,t", [(4, 9999), (9999, 4)])
def test_query_rejects_an_unknown_endpoint_before_anything_is_learned(s, t):
    pipe = Pipeline(fixture_topology("grid36-hole4"), PipelineConfig())
    pipe.build_abstraction()
    knows = {v: set(k) for v, k in pipe.topo.knows.items()}
    rounds, sent = pipe.engine.round_no, len(pipe.engine.transcript)
    with pytest.raises(NodeLookupError):
        pipe.query(s, t)
    assert pipe.topo.knows == knows
    assert (pipe.engine.round_no, len(pipe.engine.transcript)) == (rounds, sent)


def test_recompute_after_small_move_rebuilds_cleanly():
    pipe = Pipeline(fixture_topology("grid36-hole4"), PipelineConfig())
    pipe.run()
    root = pipe.root
    v = pipe.topo.ids[3]
    p = pipe.topo.points[v]
    pipe.topo.move_node(v, Point(p.x + 0.05, p.y))
    out = pipe.periodic_recompute()
    assert out["ok"] and out["tree_reused"]
    assert pipe.root == root
    res = pipe.query(4, 12)
    assert res.path[0] == 4 and res.path[-1] == 12


@settings(max_examples=9)
@given(st.sampled_from(["grid36-hole4", "star12-4", "crescent-24"]), st.randoms(use_true_random=False))
def test_recompute_after_moves_equals_a_fresh_build(name, rng):
    # moves may take the network outside the model (touching hulls): then
    # the recompute refuses it as a fresh build does; otherwise it builds
    # the same abstraction at the same cost
    pipe = Pipeline(fixture_topology(name), PipelineConfig())
    pipe.build_abstraction()
    for v in rng.sample(pipe.topo.ids, 4):
        p, r, a = pipe.topo.points[v], rng.uniform(0.0, 0.05), rng.uniform(0.0, 2 * math.pi)
        pipe.topo.move_node(v, Point(p.x + r * math.cos(a), p.y + r * math.sin(a)))
    fresh = Pipeline(build_udg(dict(pipe.topo.points)), PipelineConfig())
    try:
        fresh.build_abstraction()
    except AssumptionViolationError:
        with pytest.raises(AssumptionViolationError):
            pipe.periodic_recompute()
        return
    out = pipe.periodic_recompute()
    assert out["abstraction_digest"] == fresh.abstraction_digest()
    assert pipe.build_longrange == fresh.build_longrange
    assert adhoc(pipe) == adhoc(fresh)
    assert pipe.ring_cost == fresh.ring_cost


@pytest.mark.parametrize("seed", [2, 3])
def test_recompute_after_moves_stores_no_more_than_a_fresh_build(seed):
    # a rebuild forgets the ids the earlier builds taught, and a node's new
    # radio neighbours are no storage; a fresh build on the moved network
    # bounds every class. Moves as in perfbench's mobility workload
    pipe = Pipeline(generate_scenario(scaling_spec(512, seed)), PipelineConfig())
    pipe.build_abstraction()
    rng = random.Random(seed)
    for _ in range(2):
        for v in rng.sample(pipe.topo.ids, 5):
            a, r, p = rng.uniform(0.0, 2 * math.pi), rng.uniform(0.0, 0.03), pipe.topo.points[v]
            pipe.topo.move_node(v, Point(p.x + r * math.cos(a), p.y + r * math.sin(a)))
        pipe.periodic_recompute()
    fresh = Pipeline(build_udg(dict(pipe.topo.points)), PipelineConfig())
    fresh.build_abstraction()
    storage, want = pipe.storage_audit(), fresh.storage_audit()
    for cls in ("hull", "boundary", "other"):
        assert storage[cls]["max"] <= want[cls]["max"], cls
    # the last recompute's window of the transcript and session reports
    # costs what the fresh build's does
    assert pipe.build_longrange == fresh.build_longrange
    assert adhoc(pipe) == adhoc(fresh)
    assert pipe.ring_cost == fresh.ring_cost


@pytest.mark.parametrize("name", ["grid36-hole4", "cshape-40"])
def test_recompute_that_rebuilds_the_tree_fails_at_no_charge(name):
    # the waves cover all of the tree's rounds here (cshape-40) or all but
    # two (grid36-hole4), so a rebuilt tree keeps the recompute within its
    # round bound, and only a root unknown when the window began tells it
    # was built inside the window
    pipe = Pipeline(fixture_topology(name), PipelineConfig())
    pipe.build_abstraction()
    charged = pipe.phase_rounds["broadcast_tree"]
    assert charged == {"grid36-hole4": 2, "cshape-40": 0}[name]
    pipe.root = None
    with pytest.raises(BoundViolationError) as ei:
        pipe.periodic_recompute()
    out = ei.value.report
    # the tree was built once in each build, at the same charge both times
    charges = [t["tag"] for t in pipe.engine.transcript if t["tag"].startswith("charge:broadcast_tree:")]
    assert pipe.root is not None and charges == [f"charge:broadcast_tree:{charged}"] * 2
    assert out["rounds"] <= out["bound"]
    assert not out["tree_reused"] and not out["ok"]


def test_recompute_surfaces_disconnection():
    pipe = Pipeline(fixture_topology("grid36-hole4"), PipelineConfig())
    pipe.run()
    pipe.topo.move_node(pipe.topo.ids[0], Point(500.0, 500.0))
    with pytest.raises(DisconnectedError):
        pipe.periodic_recompute()


def test_recompute_requires_prior_build():
    pipe = Pipeline(fixture_topology("grid36-hole4"), PipelineConfig())
    with pytest.raises(NotReadyError):
        pipe.periodic_recompute()


# ---------------------------------------------------------------------------
# rendering


def test_render_layers_and_route_count(grid_pipe):
    pipe, rep = grid_pipe
    routes = [rep.queries[0]["path"]]
    svg = render_svg(pipe.topo, pipe.abstraction_dict(), routes, g=pipe.g)
    for layer in ("udg", "ldel", "bays", "rings", "hulls", "nodes", "routes"):
        assert f'<g id="{layer}"' in svg
    assert svg.count('class="route"') == 1
    bare = render_svg(pipe.topo, pipe.abstraction_dict(), [], g=pipe.g)
    assert bare.count('class="route"') == 0


def test_render_is_deterministic(grid_pipe):
    pipe, rep = grid_pipe
    routes = [q["path"] for q in rep.queries[:3]]
    a = render_svg(pipe.topo, pipe.abstraction_dict(), routes, g=pipe.g)
    b = render_svg(pipe.topo, pipe.abstraction_dict(), routes, g=pipe.g)
    assert a == b
    assert a.startswith('<?xml version="1.0"')


# ---------------------------------------------------------------------------
# command line


def test_cli_full_workflow(tmp_path, capsys):
    topo_p = tmp_path / "topo.json"
    report_p = tmp_path / "report.json"
    abs_p = tmp_path / "abs.json"
    svg_p = tmp_path / "scene.svg"

    assert cli_main(["gen", "--fixture", "grid36-hole4", "--out", str(topo_p)]) == 0
    assert cli_main([
        "run", "--topo", str(topo_p), "--sample", "12", "--query-seed", "4",
        "--report", str(report_p), "--abstraction", str(abs_p),
    ]) == 0
    out = capsys.readouterr().out
    assert "bounds_ok=True" in out
    assert "protocol_rounds" in out
    rep = json.loads(report_p.read_text())
    assert f" wave_rounds={rep['wave_rounds']} " in out
    assert rep["bounds_ok"] is True
    assert len(rep["queries"]) == 12

    assert cli_main(["route", "--topo", str(topo_p), "--src", "4", "--dst", "12"]) == 0
    row = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert row["path"][0] == 4 and row["path"][-1] == 12

    assert cli_main([
        "render", "--topo", str(topo_p), "--abstraction", str(abs_p),
        "--routes", str(report_p), "--max-routes", "5", "--out", str(svg_p),
    ]) == 0
    svg = svg_p.read_text()
    assert svg.count('class="route"') == 5


def test_cli_route_prints_the_row_run_reports_for_the_pair(tmp_path, capsys):
    topo_p, queries_p, report_p = tmp_path / "topo.json", tmp_path / "q.json", tmp_path / "report.json"
    assert cli_main(["gen", "--fixture", "grid36-hole4", "--out", str(topo_p)]) == 0
    queries_p.write_text(json.dumps([[4, 12]]))
    assert cli_main(["run", "--topo", str(topo_p), "--queries", str(queries_p), "--report", str(report_p)]) == 0
    capsys.readouterr()
    assert cli_main(["route", "--topo", str(topo_p), "--src", "4", "--dst", "12"]) == 0
    [row] = json.loads(report_p.read_text())["queries"]
    assert json.loads(capsys.readouterr().out) == row


def test_cli_timings_stay_out_of_the_report(tmp_path):
    topo_p = tmp_path / "topo.json"
    assert cli_main(["gen", "--fixture", "grid36-hole4", "--out", str(topo_p)]) == 0
    run = ["run", "--topo", str(topo_p), "--sample", "6", "--query-seed", "2"]
    assert cli_main([*run, "--report", str(tmp_path / "plain.json")]) == 0
    assert cli_main([
        *run, "--report", str(tmp_path / "timed.json"), "--timings", str(tmp_path / "t.json"),
    ]) == 0
    report = (tmp_path / "timed.json").read_bytes()
    assert report == (tmp_path / "plain.json").read_bytes()
    timings = json.loads((tmp_path / "t.json").read_text())
    phases = json.loads(report)["phase_rounds"]
    assert set(timings) == {"udg_s", "router_s"} | {f"{p}_s" for p in phases}
    assert all(isinstance(s, float) and s >= 0.0 for s in timings.values())
    assert not any(json.dumps(key).encode() in report for key in timings)


def test_cli_gen_from_spec_file(tmp_path):
    spec_p = tmp_path / "spec.json"
    spec_p.write_text(json.dumps({
        "seed": 3,
        "region": [0, 0, 2.1, 2.1],
        "spacing": 0.7,
        "jitter": 1e-6,
        "obstacles": [],
        "name": "mini",
    }))
    out_p = tmp_path / "mini.json"
    assert cli_main(["gen", "--spec", str(spec_p), "--out", str(out_p)]) == 0
    data = json.loads(out_p.read_text())
    assert len(data["nodes"]) == 16


def test_cli_run_exit_code_reflects_bounds(tmp_path, monkeypatch):
    topo_p = tmp_path / "topo.json"
    cli_main(["gen", "--fixture", "grid36-hole4", "--out", str(topo_p)])
    monkeypatch.setattr(pipeline_mod, "C2", 0.01)
    report_p = tmp_path / "failing.json"
    code = cli_main(["run", "--topo", str(topo_p), "--report", str(report_p)])
    assert code == 1
    rep = json.loads(report_p.read_text())
    assert rep["bounds_ok"] is False
    assert rep["bounds"]["protocol_rounds"]["ok"] is False


def test_cli_unknown_node_is_reported_as_error(tmp_path, capsys):
    topo_p = tmp_path / "topo.json"
    cli_main(["gen", "--fixture", "grid36-hole4", "--out", str(topo_p)])
    code = cli_main(["route", "--topo", str(topo_p), "--src", "4", "--dst", "9999"])
    assert code == 2
    assert "NodeLookupError" in capsys.readouterr().err


def test_cli_unknown_source_is_reported_as_error(tmp_path, capsys):
    topo_p = tmp_path / "topo.json"
    cli_main(["gen", "--fixture", "grid36-hole4", "--out", str(topo_p)])
    code = cli_main(["route", "--topo", str(topo_p), "--src", "9999", "--dst", "4"])
    assert code == 2
    assert "error: NodeLookupError" in capsys.readouterr().err


def test_cli_bad_input_files_are_reported_as_errors(tmp_path, capsys):
    topo_p = tmp_path / "topo.json"
    cli_main(["gen", "--fixture", "grid36-hole4", "--out", str(topo_p)])
    cfg_p = tmp_path / "cfg.json"
    cfg_p.write_text(json.dumps({"c2": 1}))  # an audit constant, no longer a setting
    assert cli_main(["run", "--topo", str(topo_p), "--config", str(cfg_p)]) == 2
    assert "ConfigError" in capsys.readouterr().err
    cfg_p.write_text(json.dumps({"query_count": "5"}))
    assert cli_main(["run", "--topo", str(topo_p), "--config", str(cfg_p)]) == 2
    assert "query_count" in capsys.readouterr().err
    spec_p = tmp_path / "spec.json"
    spec_p.write_text(json.dumps({"spacing": 0.7}))
    assert cli_main(["gen", "--spec", str(spec_p), "--out", str(tmp_path / "x.json")]) == 2
    err = capsys.readouterr().err
    assert "ConfigError" in err and "seed" in err
    # a misspelt key is named, not ignored; JSON ints stand for floats
    spec_p.write_text(json.dumps({"seed": 1, "jiter": 0.3, "spacing": 1}))
    assert cli_main(["gen", "--spec", str(spec_p), "--out", str(tmp_path / "x.json")]) == 2
    err = capsys.readouterr().err
    assert "ConfigError" in err and "jiter" in err
    # the spec example in the README parses as it stands
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    example = readme.split("A scenario spec file")[1].split("```json")[1].split("```")[0]
    spec_p.write_text(example)
    assert cli_main(["gen", "--spec", str(spec_p), "--out", str(tmp_path / "x.json")]) == 0
    q_p = tmp_path / "q.json"
    q_p.write_text(json.dumps({"pairs": [[4, "x"]]}))
    assert cli_main(["run", "--topo", str(topo_p), "--queries", str(q_p)]) == 2
    err = capsys.readouterr().err
    assert "ConfigError" in err and str(q_p) in err and "node id pairs" in err
    cfg_p.write_text(json.dumps({"queries": [[4, 5, 6]]}))
    assert cli_main(["run", "--topo", str(topo_p), "--config", str(cfg_p)]) == 2
    err = capsys.readouterr().err
    assert "ConfigError" in err and "node id pairs" in err
    # a topology file that is not JSON, misses a coordinate, sets another
    # radio range, or is not there; exit 1 is kept for a failed bound
    nodes = json.loads(topo_p.read_text())["nodes"]
    bad_p = tmp_path / "bad_topo.json"
    for text, word in [
        ("{nodes", "Expecting"),
        (json.dumps({"nodes": [{"id": 0, "x": 0.0}]}), "'y'"),
        (json.dumps({"nodes": nodes, "radius": 2.0}), "radio range"),
    ]:
        bad_p.write_text(text)
        assert cli_main(["run", "--topo", str(bad_p)]) == 2
        err = capsys.readouterr().err
        assert "ConfigError" in err and word in err
    assert cli_main(["run", "--topo", str(tmp_path / "missing.json")]) == 2
    err = capsys.readouterr().err
    assert "ConfigError" in err and "No such file" in err


def test_cli_render_bad_input_files_are_reported_as_errors(tmp_path, capsys):
    topo_p = tmp_path / "topo.json"
    cli_main(["gen", "--fixture", "grid36-hole4", "--out", str(topo_p)])
    bad_p = tmp_path / "bad.json"
    bad_p.write_text("{bad")
    for flag in ("--abstraction", "--routes"):
        for path, word in [(bad_p, "Expecting"), (tmp_path / "missing.json", "No such file")]:
            code = cli_main(
                ["render", "--topo", str(topo_p), flag, str(path), "--out", str(tmp_path / "x.svg")]
            )
            assert code == 2
            err = capsys.readouterr().err
            assert "ConfigError" in err and word in err and str(path) in err
    # JSON of the wrong shape: no "queries" rows, and a list for the abstraction
    for flag, text, word in [("--routes", "{}", "'queries'"), ("--abstraction", "[1, 2]", "get")]:
        bad_p.write_text(text)
        code = cli_main(["render", "--topo", str(topo_p), flag, str(bad_p), "--out", str(tmp_path / "x.svg")])
        assert code == 2
        err = capsys.readouterr().err
        assert "ConfigError" in err and word in err and str(bad_p) in err


def test_duplicate_node_ids_in_a_topology_file_are_an_error(tmp_path, capsys):
    topo_p = tmp_path / "topo.json"
    cli_main(["gen", "--fixture", "grid36-hole4", "--out", str(topo_p)])
    data = json.loads(topo_p.read_text())
    data["nodes"][1]["id"] = data["nodes"][0]["id"]
    topo_p.write_text(json.dumps(data))
    with pytest.raises(ConfigError, match=f"duplicate node id {data['nodes'][0]['id']}"):
        load_topology(topo_p)
    assert cli_main(["run", "--topo", str(topo_p)]) == 2
    assert "duplicate node id" in capsys.readouterr().err
