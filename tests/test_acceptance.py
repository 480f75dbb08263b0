"""Acceptance gate: eleven measured criteria, one printed line each.

Each test computes its verdict, prints a single PASS/FAIL line on the
real stdout (visible under pytest capture), and then asserts.  Heavy
artifacts (pipelines per fixture, two scaling runs) are built once per
module and shared.
"""

from __future__ import annotations

import itertools
import math
import random
import sys
import time

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as cs_dijkstra

from hullroute.geometry import Point, dist
from hullroute.holes import KIND_INNER, KIND_OUTER_BOUNDARY, hull_node_ids
from hullroute.ldel import build_ldel2, build_udg
from hullroute.pipeline import Pipeline, PipelineConfig
from hullroute.routing import (
    BACKEND_ODEL,
    BACKEND_VIS,
    ReachedTarget,
    Router,
    chew_route,
)
from hullroute.scenario import (
    ScenarioSpec,
    fixture_topology,
    generate_scenario,
    holes_grid_spec,
    scaling_spec,
)

FIXTURES = ("grid36-hole4", "star12-4", "crescent-24", "cshape-40")

_CAPMAN = None


@pytest.fixture(scope="module", autouse=True)
def _capture_manager(request):
    global _CAPMAN
    _CAPMAN = request.config.pluginmanager.getplugin("capturemanager")
    yield


def emit(line: str) -> None:
    """Print one verdict line on the real terminal, bypassing capture."""
    if _CAPMAN is not None:
        with _CAPMAN.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)


def verdict(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def open_lattice_spec(side: int, seed: int) -> ScenarioSpec:
    extent = (side - 1) * 0.55
    return ScenarioSpec(
        seed=seed,
        region=(0.0, 0.0, extent, extent),
        spacing=0.55,
        jitter=0.05,
        obstacles=[],
        name=f"open{side * side}",
    )


def build_pipe(topo, backend=BACKEND_VIS) -> Pipeline:
    pipe = Pipeline(topo, PipelineConfig(backend=backend, strict=False))
    pipe.build_abstraction()
    return pipe


@pytest.fixture(scope="module")
def stacks():
    out = {name: build_pipe(fixture_topology(name)) for name in FIXTURES}
    out["open100"] = build_pipe(generate_scenario(open_lattice_spec(10, seed=2)))
    out["scale512"] = build_pipe(generate_scenario(scaling_spec(512)))
    return out


@pytest.fixture(scope="module")
def scale2048():
    return build_pipe(generate_scenario(scaling_spec(2048)))


@pytest.fixture(scope="module")
def holes2048():
    # hole count grows with n: 36 square holes, 52 rings at n=1743
    return build_pipe(generate_scenario(holes_grid_spec(2048)))


def graph_csr(ids, pts, edge_iter):
    index = {v: i for i, v in enumerate(ids)}
    rows, cols, vals = [], [], []
    for u, v in edge_iter:
        w = dist(pts[u], pts[v])
        rows += [index[u], index[v]]
        cols += [index[v], index[u]]
        vals += [w, w]
    m = csr_matrix((vals, (rows, cols)), shape=(len(ids), len(ids)))
    return m, index


def sweep_routes(pipe: Pipeline, backend: str, sample_cap: int, seed: int):
    """Route many node pairs through an existing abstraction."""
    router = (
        pipe.router
        if backend == pipe.config.backend
        else Router(pipe.g, pipe.rings, pipe.abstractions, pipe.root, backend=backend)
    )
    ids = sorted(pipe.topo.points)
    pairs = list(itertools.combinations(ids, 2))
    if len(pairs) > sample_cap:
        pairs = random.Random(seed).sample(pairs, sample_cap)
    results = []
    for s, t in pairs:
        results.append(router.route(pipe.engine, s, t))
    return results


def test_01_spanner_bound():
    t0 = time.time()
    specs = [scaling_spec(k * k, seed=4 + k) for k in range(13, 44, 2)]
    specs += [open_lattice_spec(10, seed=2), open_lattice_spec(12, seed=5),
              open_lattice_spec(14, seed=3), open_lattice_spec(20, seed=4)]
    assert len(specs) == 20
    worst = 0.0
    checked = 0
    violations = 0
    for i, spec in enumerate(specs):
        topo = generate_scenario(spec)
        n = len(topo.points)
        assert 100 <= n <= 2000, (spec.name, n)
        g = build_ldel2(topo)
        ids = topo.ids
        udg_edges = [(u, v) for u in ids for v in topo.adhoc[u] if u < v]
        m_udg, index = graph_csr(ids, topo.points, udg_edges)
        m_ldel, _ = graph_csr(ids, topo.points, sorted(g.edges))
        rng = random.Random(100 + i)
        pairs = [tuple(rng.sample(ids, 2)) for _ in range(100)]
        sources = sorted({s for s, _ in pairs})
        src_row = {s: k for k, s in enumerate(sources)}
        d_udg = cs_dijkstra(m_udg, directed=False, indices=[index[s] for s in sources])
        d_ldel = cs_dijkstra(m_ldel, directed=False, indices=[index[s] for s in sources])
        for s, t in pairs:
            du = d_udg[src_row[s], index[t]]
            dl = d_ldel[src_row[s], index[t]]
            assert np.isfinite(du) and np.isfinite(dl)
            checked += 1
            worst = max(worst, dl / du)
            if dl > 1.998 * du + 1e-9:
                violations += 1
    elapsed = time.time() - t0
    ok = violations == 0 and elapsed < 120.0
    emit(
        f"CRITERION 1 spanner<=1.998x: {verdict(ok)} — 20 scenarios, {checked} pairs, "
        f"worst ratio {worst:.4f}, {violations} violations, {elapsed:.1f}s"
    )
    assert ok, (worst, violations, elapsed)


def test_02_chew_bound(stacks):
    reached = 0
    worst = 0.0
    violations = 0
    for name in FIXTURES:
        pipe = stacks[name]
        topo, g = pipe.topo, pipe.g
        ids = sorted(topo.points)
        pairs = list(itertools.combinations(ids, 2))
        if len(pairs) > 900:
            pairs = random.Random(1).sample(pairs, 900)
        for s, t in pairs:
            path, out = chew_route(g, s, t)
            if not isinstance(out, ReachedTarget):
                continue
            reached += 1
            length = sum(dist(g.points[a], g.points[b]) for a, b in zip(path, path[1:]))
            bound = 5.9 * dist(topo.points[s], topo.points[t])
            worst = max(worst, length / bound * 5.9 if bound else 0.0)
            if length > bound + 1e-9:
                violations += 1
    ok = reached >= 500 and violations == 0
    emit(
        f"CRITERION 2 chew<=5.9||st||: {verdict(ok)} — {reached} visible pairs, "
        f"worst stretch {worst:.4f}, {violations} violations"
    )
    assert ok, (reached, violations)


def test_03_case1_competitiveness(stacks):
    stats = {}
    ok = True
    for backend, bound in ((BACKEND_VIS, 17.7), (BACKEND_ODEL, 35.37)):
        count = 0
        worst = 0.0
        violations = 0
        for name in FIXTURES:
            for res in sweep_routes(stacks[name], backend, sample_cap=900, seed=2):
                if res.case_taken != "Case1":
                    continue
                count += 1
                worst = max(worst, res.competitive_ratio)
                if res.competitive_ratio > bound + 1e-9:
                    violations += 1
        stats[backend] = (count, worst, violations)
        ok = ok and count >= 500 and violations == 0
    vis, odel = stats[BACKEND_VIS], stats[BACKEND_ODEL]
    emit(
        f"CRITERION 3 case1 ratios: {verdict(ok)} — visibility {vis[0]} pairs "
        f"worst {vis[1]:.3f}<=17.7 ({vis[2]} viol); overlay {odel[0]} pairs "
        f"worst {odel[1]:.3f}<=35.37 ({odel[2]} viol)"
    )
    assert ok, stats


def test_04_bay_routing(stacks):
    checked = 0
    violations = 0
    worst_slack = 0.0
    for name in ("crescent-24", "star12-4"):
        pipe = stacks[name]
        router = pipe.router
        pockets = {}
        for v in sorted(pipe.topo.points):
            loc = router.locate(v)
            if loc is not None and loc[1] is not None:
                pockets.setdefault((loc[0].ring.ring_id, loc[1]), []).append(v)
        for members in pockets.values():
            for s, t in itertools.combinations(members, 2):
                res = router.route(pipe.engine, s, t)
                assert res.case_taken == "Case5", (name, s, t, res.case_taken)
                bound = (2 + res.e_route) * 5.9
                checked += 1
                worst_slack = max(worst_slack, res.competitive_ratio / bound)
                if res.competitive_ratio > bound + 1e-9:
                    violations += 1
    ok = checked > 0 and violations == 0
    emit(
        f"CRITERION 4 bay<=(2+|E|)*5.9: {verdict(ok)} — {checked} same-bay pairs, "
        f"worst bound usage {worst_slack:.3f}, {violations} violations"
    )
    assert ok, (checked, violations)


def test_05_hull_exactness(stacks, scale2048):
    rings_checked = 0
    mismatches = 0
    for pipe in list(stacks.values()) + [scale2048]:
        for r in pipe.rings:
            got = pipe.abstractions[r.ring_id].hull_nodes
            want = hull_node_ids(pipe.topo.points, r.members)
            rings_checked += 1
            if list(got) != list(want):
                mismatches += 1
    ok = mismatches == 0 and rings_checked > 0
    emit(
        f"CRITERION 5 hull exactness: {verdict(ok)} — {rings_checked} rings across "
        f"7 scenarios, {mismatches} mismatches (exact list equality)"
    )
    assert ok, (rings_checked, mismatches)


def test_06_hole_classification(stacks, scale2048):
    checked = 0
    bad = 0
    for pipe in list(stacks.values()) + [scale2048]:
        for r in pipe.rings:
            if r.kind == "OuterHole":
                continue  # arcs are found by hull-edge length, not by hull rank order
            target = 360.0 if r.kind == KIND_OUTER_BOUNDARY else -360.0
            pts = [pipe.topo.points[v] for v in r.members]
            area2 = sum(
                pts[i].x * pts[(i + 1) % len(pts)].y - pts[(i + 1) % len(pts)].x * pts[i].y
                for i in range(len(pts))
            )
            # faces are walked with the region on the left: the outer
            # boundary is clockwise (negative area, hull ranks descending,
            # +360), holes are counterclockwise (positive area, ranks
            # ascending, -360)
            oracle_kind = KIND_OUTER_BOUNDARY if area2 < 0 else KIND_INNER
            checked += 1
            if r.orientation_sum != target:
                bad += 1
            elif r.kind != oracle_kind:
                bad += 1
    ok = bad == 0 and checked > 0
    emit(
        f"CRITERION 6 ring orientation from hull rank order: {verdict(ok)} — {checked} classified rings, "
        f"orientation_sum exactly +/-360 and kind matches the shoelace oracle: {bad == 0}"
    )
    assert ok, (checked, bad)


def test_07_round_bounds(stacks, scale2048, holes2048):
    r512 = stacks["scale512"]
    r2048 = scale2048
    ratio = r2048.protocol_rounds / r512.protocol_rounds
    jump_ok = True
    worst_jump = 0.0
    for pipe in list(stacks.values()) + [scale2048, holes2048]:
        audit = pipe.bound_audit()
        for row in audit["pointer_jumping"]["rings"]:
            worst_jump = max(worst_jump, row["jump_rounds"] / row["round_bound"])
            if row["jump_rounds"] > row["round_bound"]:
                jump_ok = False
    ok = ratio <= 2.2 and jump_ok
    emit(
        f"CRITERION 7 round scaling: {verdict(ok)} — rounds {r512.protocol_rounds}@512 -> "
        f"{r2048.protocol_rounds}@2048, ratio {ratio:.3f}<=2.2; jump rounds worst "
        f"{worst_jump:.3f} of ceil(log2 k)"
    )
    assert ok, (ratio, jump_ok)


def test_08_message_work(stacks, scale2048, holes2048):
    c = 8.0
    msg_ok = True
    lr_ok = True
    worst_msg = 0.0
    worst_lr = 0.0
    for pipe in list(stacks.values()) + [scale2048, holes2048]:
        audit = pipe.bound_audit()
        for row in audit["pointer_jumping"]["rings"]:
            worst_msg = max(worst_msg, row["max_msgs_per_node"] / row["msg_bound"])
            if row["max_msgs_per_node"] > row["msg_bound"]:
                msg_ok = False
        lr = audit["longrange_per_node"]
        worst_lr = max(worst_lr, lr["measured_max"] / lr["bound"])
        if not lr["ok"]:
            lr_ok = False
    ok = msg_ok and lr_ok
    emit(
        f"CRITERION 8 message work: {verdict(ok)} — pointer-jump msgs/node worst "
        f"{worst_msg:.3f} of 2*ceil(log2 k); long-range msgs/node worst "
        f"{worst_lr:.3f} of c*log2(n)^2 with c={c}"
    )
    assert ok, (worst_msg, worst_lr)


def test_09_storage_audit(stacks, scale2048, holes2048):
    ok = True
    worst_hull = 0.0
    for pipe in list(stacks.values()) + [scale2048, holes2048]:
        st = pipe.storage_audit()
        if st["sum_hull_sizes"]:
            worst_hull = max(worst_hull, st["hull"]["max"] / (4 * st["sum_hull_sizes"]))
        for cls in ("hull", "boundary", "other"):
            if not st[cls]["ok"]:
                ok = False
    emit(
        f"CRITERION 9 storage shape: {verdict(ok)} — hull nodes worst "
        f"{worst_hull:.3f} of 4*sum(hull sizes); boundary within 4*max ring size; "
        f"others within flat cap"
    )
    assert ok


def test_10_dominating_sets(stacks):
    # the sets the build made, one per bay: each must dominate its bay
    # within the 3*ceil(m/3) budget; the rank rule makes it exactly ceil(m/3)
    checked_bays = 0
    valid = True
    minimum = True
    for pipe in stacks.values():
        for r in pipe.rings:
            ab = pipe.abstractions[r.ring_id]
            assert sorted(ab.dominating_sets) == list(range(len(ab.bay_areas)))
            for i, bay in enumerate(ab.bay_areas):
                ds = ab.dominating_sets[i]
                if not ds <= set(bay.members):
                    valid = False
                for j in range(len(bay.members)):
                    if not set(bay.members[max(0, j - 1) : j + 2]) & ds:
                        valid = False
                if len(ds) != math.ceil(len(bay.members) / 3):
                    minimum = False
                checked_bays += 1
    ok = valid and minimum and checked_bays > 0
    emit(
        f"CRITERION 10 dominating sets: {verdict(ok)} — {checked_bays} built bays; "
        f"all dominations valid={valid}; all of size ceil(m/3), under the 3*ceil(m/3) budget={minimum}"
    )
    assert ok, (checked_bays, valid, minimum)


def test_11_determinism(tmp_path):
    digests = []
    for run in (1, 2):
        topo = fixture_topology("crescent-24")
        cfg = PipelineConfig(
            query_count=25,
            query_seed=11,
            transcript_path=str(tmp_path / f"transcript{run}.jsonl"),
        )
        rep = Pipeline(topo, cfg).run()
        rep.write(tmp_path / f"report{run}.json")
    rep_same = (
        (tmp_path / "report1.json").read_bytes() == (tmp_path / "report2.json").read_bytes()
    )
    tr_same = (
        (tmp_path / "transcript1.jsonl").read_bytes()
        == (tmp_path / "transcript2.jsonl").read_bytes()
    )
    ok = rep_same and tr_same
    emit(
        f"CRITERION 11 determinism: {verdict(ok)} — identical seed twice: report "
        f"byte-identical={rep_same}, transcript byte-identical={tr_same}"
    )
    assert ok
