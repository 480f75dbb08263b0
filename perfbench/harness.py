"""The benchmark run behind run.py: workloads, checks, output and result file.

Imported only after run.py has put the program's `src/` on the path.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
from pathlib import Path
from typing import NamedTuple

# imports, and scipy's lazy ones, happen before any timing
import numpy
import scipy
import scipy.sparse.csgraph  # noqa: F401  (measure_competitiveness imports it on first use)
import scipy.spatial  # noqa: F401

import metrics
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"


def parse_args(argv) -> argparse.Namespace:
    ap = argparse.ArgumentParser(prog="perfbench/run.py", description="Layered benchmark for hullroute.")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def git_state() -> tuple[str, bool | None]:
    if not (ROOT / ".git").exists():
        return "unknown", None
    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return "unknown", None
    return sha, bool(status.strip())


def source_digest() -> str:
    """Digest of the program's and the benchmark's sources."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hullroute").glob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def check_fingerprint(key: str, value: str) -> str | None:
    """Compare with an earlier run of the same sources, workload, seed and size."""
    path = RESULTS / "fingerprints" / f"{key}.txt"
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(value)
        return None
    if path.read_text() != value:
        return "determinism: simulated results differ from an earlier run of the same sources and seed"
    return None


class Outcome(NamedTuple):
    passes: list  # untraced passes, one per admissible instance
    skipped: list[str]
    values: dict[str, float]
    units: dict[str, str]
    notes: dict[str, str]
    problems: list[str]
    extra: dict  # more for the result file


def untraced(wl, args) -> Outcome:
    passes, skipped = workloads.run_instances(wl, args.seed, args.seconds, lambda s: workloads.run_pass(wl, s))
    if not passes:
        return Outcome(passes, skipped, {}, {}, {}, [], {})
    values, notes = workloads.end_to_end(passes)
    units = {name: metrics.END_TO_END[name] for name in values}
    print(f"# {wl.name} seed={args.seed}: {len(passes)} instances, untraced")
    for name in metrics.END_TO_END:
        if name in values:
            note = f"  ({notes[name]})" if name in notes else ""
            print(f"{name:<24} {values[name]:>16.6f} {units[name]}{note}")
    unexercised = [n for n in metrics.END_TO_END if n not in values]
    if unexercised:
        print(f"# not exercised: {', '.join(unexercised)}")
    return Outcome(passes, skipped, values, units, notes, [], {})


def traced(wl, args) -> Outcome:
    """Each instance untraced, then traced; per-layer metrics are per-pass means."""
    traced_passes, rows, spans = [], [], []

    def pair(seed):
        plain = workloads.run_pass(wl, seed)
        if plain.inadmissible:
            return plain
        tr = tracer.Tracer()
        with tracer.instrument(tr):
            p = workloads.run_pass(wl, seed, tr)
        traced_passes.append(p)
        rows.append(metrics.per_layer_values(tr, len(p.route_ms)))
        spans.append({"seed": seed, "spans": [x.to_dict() for x in tr.spans], "counts": dict(tr.counts)})
        return plain

    passes, skipped = workloads.run_instances(wl, args.seed, args.seconds, pair)
    if not passes:
        return Outcome(passes, skipped, {}, {}, {}, [], {})
    problems = []
    if workloads.fingerprint(passes) != workloads.fingerprint(traced_passes):
        problems.append("determinism: traced results differ from untraced results")
    values = {m.name: statistics.fmean(row[m.name] for row in rows) for m in metrics.LAYER_METRICS}
    for attr in ("build_s", "run_s"):
        values[f"trace.overhead_{attr}"] = statistics.median(
            getattr(p, attr) for p in traced_passes
        ) - statistics.median(getattr(p, attr) for p in passes)
    units = {name: metrics.layer_unit(name) for name in values}
    moves = {m.name: m.moves for m in metrics.LAYER_METRICS}
    print(f"# {wl.name} seed={args.seed}: {len(passes)} instances, untraced then traced; per pass")
    for name, value in values.items():
        print(f"{name:<42} {value:>16.6f} {units[name]:<12} -> {moves[name]}")
    return Outcome(passes, skipped, values, units, {}, problems, {"spans": spans})


def main(argv) -> int:
    args = parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in listed["per_layer" if args.trace else "end_to_end"]]
    out = traced(wl, args) if args.trace else untraced(wl, args)
    for line in out.skipped:
        print(f"# skipped inadmissible {line}")
    if not out.passes:
        print(f"# CHECK FAILED: {len(out.skipped)} inadmissible instances in a row; nothing to measure")
        return 1

    problems = list(out.problems)
    fp = workloads.fingerprint(out.passes)
    key = hashlib.sha256(f"{source_digest()}:{wl.name}:{args.seed}:{args.seconds}".encode()).hexdigest()
    bad = check_fingerprint(key[:32], fp)
    if bad:
        problems.append(bad)
    for p in out.passes:
        problems += p.violations
    missing = [n for n in wanted if n not in out.values]
    if missing:
        problems.append(f"metrics not measured: {missing}")
    for p in out.passes:
        for err in p.errors:
            print(f"# failed operation: {err}")
    for msg in problems:
        print(f"# CHECK FAILED: {msg}")

    sha, dirty = git_state()
    result = {
        "provenance": {
            "git_sha": sha,
            "git_dirty": dirty,
            "source_digest": source_digest(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": os.cpu_count(),
            "workload": wl.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "instance_seeds": [p.seed for p in out.passes],
            "skipped_inadmissible": out.skipped,
            "queries_per_pass": wl.queries * max(1, wl.epochs),
            "queries_total": sum(len(p.route_ms) for p in out.passes),
            "recompute_epochs_per_pass": wl.epochs,
            "why": wl.why,
            "loads": wl.loads,
            "bypasses": wl.bypasses,
        },
        "metrics": {n: {"value": v, "unit": out.units[n]} for n, v in out.values.items()},
        "notes": out.notes,
        "fingerprint": fp,
        "problems": problems,
        "passes": [{k: v for k, v in vars(p).items() if k not in ("route_ms", "ratios")} for p in out.passes],
        **out.extra,
    }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True, default=str) + "\n"
    )

    print(json.dumps({
        "correct": not problems,
        "attempted": sum(p.attempted for p in out.passes),
        "failed": sum(p.failed for p in out.passes),
        "metrics": {n: {"value": out.values[n], "unit": out.units[n]} for n in wanted if n in out.values},
    }))
    return 0 if not problems else 1
