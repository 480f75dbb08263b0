"""Route every ordered pair of the fixtures on both backends; one JSON line each.

Run by hand, from the repository root:

    PYTHONPATH=src python tests/allpairs.py [fixture ...]

The default is all four fixtures; crescent-24 and star12-4 take a few
minutes per backend. Each line holds the pairs routed, the failures
(queries that raised a HullrouteError), every case's count and worst
competitive ratio, the share of walks that visit a node twice, and a
sha256 over the (s, t, case, path) of every routed pair in order, so two
revisions route the same iff their digests agree. It exits with status 1
when any pair failed, 0 otherwise, so it can serve as a check.
"""

from __future__ import annotations

import hashlib
import json
import sys

from hullroute import overlay
from hullroute.errors import HullrouteError
from hullroute.pipeline import Pipeline, PipelineConfig
from hullroute.routing import BACKEND_ODEL, BACKEND_VIS
from hullroute.scenario import fixture_topology

FIXTURES = ("grid36-hole4", "cshape-40", "crescent-24", "star12-4")


def sweep(name: str, backend: str) -> dict:
    pipe = Pipeline(fixture_topology(name), PipelineConfig(backend=backend))
    pipe.build_abstraction()
    topo, eng = pipe.topo, pipe.engine
    digest = hashlib.sha256()
    cases: dict[str, dict] = {}
    routed = failures = revisits = 0
    for s in topo.ids:
        for t in topo.ids:
            if s == t:
                continue
            # as in Pipeline.run_queries: the source learns the target's id,
            # and both ends forget what the query taught them
            before = {v: set(topo.knows[v]) for v in (s, t)}
            topo.learn(s, t)
            try:
                res = pipe.router.route(eng, s, t)
            except HullrouteError:
                failures += 1
                continue
            finally:
                overlay._forget_learned(eng, before, {})
                eng.transcript.clear()
            routed += 1
            revisits += len(set(res.path)) < len(res.path)
            slot = cases.setdefault(res.case_taken, {"count": 0, "worst_ratio": 0.0})
            slot["count"] += 1
            slot["worst_ratio"] = max(slot["worst_ratio"], res.competitive_ratio)
            digest.update(json.dumps([s, t, res.case_taken, res.path]).encode())
    return {
        "fixture": name,
        "backend": backend,
        "pairs": routed,
        "failures": failures,
        "cases": {k: cases[k] for k in sorted(cases)},
        "revisit_share": revisits / routed if routed else 0.0,
        "sha256": digest.hexdigest(),
    }


def main(argv: list[str]) -> int:
    failures = 0
    for name in argv or FIXTURES:
        for backend in (BACKEND_VIS, BACKEND_ODEL):
            row = sweep(name, backend)
            failures += row["failures"]
            print(json.dumps(row, sort_keys=True), flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
