"""Deterministic SVG rendering of topologies, holes, hulls, and routes.

Output is a pure function of its inputs: layers are emitted in a fixed
order, elements inside each layer are sorted, and coordinates use a
fixed decimal format, so identical inputs give byte-identical files.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping, Sequence

from .ldel import HybridTopology, build_ldel2

SCALE = 120.0
MARGIN = 0.6
NODE_R = 2.4

RING_COLORS = {
    "InnerHole": "#c0392b",
    "OuterHole": "#d68910",
    "OuterBoundary": "#2e86c1",
}
ROUTE_COLORS = ("#8e44ad", "#148f77", "#b03a2e", "#1f618d", "#9c640c")


def _fmt(x: float) -> str:
    s = f"{x:.3f}"
    return "0.000" if s == "-0.000" else s


class _Canvas:
    def __init__(self, topo: HybridTopology):
        xs = [p.x for p in topo.points.values()]
        ys = [p.y for p in topo.points.values()]
        self.x0 = min(xs) - MARGIN
        self.y1 = max(ys) + MARGIN
        self.w = (max(xs) - min(xs) + 2 * MARGIN) * SCALE
        self.h = (max(ys) - min(ys) + 2 * MARGIN) * SCALE

    def at(self, p) -> tuple[str, str]:
        return _fmt((p.x - self.x0) * SCALE), _fmt((self.y1 - p.y) * SCALE)


def _line(cv, a, b, extra="") -> str:
    x1, y1 = cv.at(a)
    x2, y2 = cv.at(b)
    return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}"{extra}/>'


def _points_attr(cv, pts) -> str:
    return " ".join(",".join(cv.at(p)) for p in pts)


def _norm_keyed(d: Mapping | None) -> dict[int, object]:
    if not d:
        return {}
    return {int(k): v for k, v in d.items()}


def render_svg(
    topo: HybridTopology,
    abstraction: Mapping | None = None,
    routes: Sequence[Sequence[int]] = (),
    g=None,
) -> str:
    """Layered scene: radio edges, planar edges, bays, rings, hulls, routes."""
    if g is None:
        g = build_ldel2(topo)
    cv = _Canvas(topo)
    pts = topo.points
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_fmt(cv.w)} {_fmt(cv.h)}">',
        f'<rect width="{_fmt(cv.w)}" height="{_fmt(cv.h)}" fill="#ffffff"/>',
    ]

    out.append('<g id="udg" stroke="#e3e3e3" stroke-width="1">')
    udg_edges = sorted(
        (v, w) for v in topo.ids for w in topo.adhoc[v] if v < w
    )
    for v, w in udg_edges:
        out.append(_line(cv, pts[v], pts[w]))
    out.append("</g>")

    out.append('<g id="ldel" stroke="#9f9f9f" stroke-width="1.4">')
    for v, w in sorted(g.edges):
        out.append(_line(cv, pts[v], pts[w]))
    out.append("</g>")

    rings = list(abstraction.get("rings", [])) if abstraction else []
    hulls = _norm_keyed(abstraction.get("hulls")) if abstraction else {}
    bays = _norm_keyed(abstraction.get("bays")) if abstraction else {}

    out.append('<g id="bays" fill="#fdebd0" stroke="none" opacity="0.75">')
    for rid in sorted(bays):
        for bay in bays[rid]:
            a, b = bay["edge"]
            cyc = [pts[a]] + [pts[m] for m in bay["members"]] + [pts[b]]
            out.append(f'<polygon points="{_points_attr(cv, cyc)}"/>')
    out.append("</g>")

    out.append('<g id="rings" fill="none" stroke-width="2.2">')
    for ring in rings:
        color = RING_COLORS.get(ring["kind"], "#555555")
        cyc = [pts[m] for m in ring["members"]]
        tag = "polyline" if ring["kind"] == "OuterHole" else "polygon"
        out.append(
            f'<{tag} points="{_points_attr(cv, cyc)}" stroke="{color}"/>'
        )
    out.append("</g>")

    out.append(
        '<g id="hulls" fill="none" stroke="#1d8348" stroke-width="1.6" '
        'stroke-dasharray="6,4">'
    )
    for rid in sorted(hulls):
        cyc = [pts[m] for m in hulls[rid]]
        if len(cyc) >= 3:
            out.append(f'<polygon points="{_points_attr(cv, cyc)}"/>')
    out.append("</g>")

    out.append('<g id="nodes" fill="#34495e" stroke="none">')
    for v in topo.ids:
        x, y = cv.at(pts[v])
        out.append(f'<circle cx="{x}" cy="{y}" r="{_fmt(NODE_R)}"/>')
    out.append("</g>")

    out.append('<g id="routes" fill="none" stroke-width="3">')
    for i, path in enumerate(routes):
        color = ROUTE_COLORS[i % len(ROUTE_COLORS)]
        cyc = [pts[v] for v in path]
        out.append(
            f'<polyline class="route" points="{_points_attr(cv, cyc)}" '
            f'stroke="{color}" opacity="0.85"/>'
        )
    out.append("</g>")

    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_svg(
    path: str | Path,
    topo: HybridTopology,
    abstraction: Mapping | None = None,
    routes: Sequence[Sequence[int]] = (),
) -> None:
    Path(path).write_text(render_svg(topo, abstraction, routes))
