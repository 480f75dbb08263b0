"""Boundary rings: detection, orientation, outer holes, hulls, and bays.

A planarized graph ends up with two kinds of interesting faces: bounded
faces of four or more corners (the network grew around an obstacle) and
the outer face, the faces PlanarGraph.is_blocked_face accepts.  Both
become rings here.  Classification tells them apart by the direction
the ring is walked, which its leader, an arc's too, reads off the ring
ranks of its hull (overlay.rank_ring), so the result is exact and
something the nodes themselves know.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import AssumptionViolationError, EmbeddingCorruptionError
from .geometry import (
    Point,
    bounding_box,
    convex_hull_oracle,
    dist,
    polygon_perimeter,
    polygon_signed_area,
    _on_segment,
)
from .ldel import UNIT_RANGE, NodeId, PlanarGraph
from .overlay import (
    dominating_set,
    pointer_jumping,  # not called here: bound for perfbench/tracer.py, which wraps it here
    rank_ring,  # likewise
    ring_protocol,
)
from .simengine import RoundEngine

KIND_INNER = "InnerHole"
KIND_OUTER_BOUNDARY = "OuterBoundary"
KIND_OUTER_HOLE = "OuterHole"


@dataclass
class HoleRing:
    """One boundary cycle, in the orientation the embedding walks it."""

    ring_id: int
    members: list[NodeId]
    kind: str | None = None
    orientation_sum: float = 0.0
    perimeter_length: float = 0.0
    enclosed_area: float = 0.0
    bounding_box_circumference: float = 0.0


@dataclass
class Bay:
    """Ring nodes strictly between two adjacent hull nodes."""

    edge: tuple[NodeId, NodeId]
    members: list[NodeId]

    @property
    def strip(self) -> list[NodeId]:
        """Hull end, members, hull end: the bay's side of the ring, in ring order."""
        return [self.edge[0], *self.members, self.edge[1]]


@dataclass
class HullAbstraction:
    ring_id: int
    hull_nodes: list[NodeId]  # counterclockwise
    bay_areas: list[Bay]
    dominating_sets: dict[int, set[NodeId]]


def detect_boundary_nodes(g: PlanarGraph) -> set[NodeId]:
    """Nodes on a blocked face, a hole or the outer face (PlanarGraph.is_blocked_face)."""
    out: set[NodeId] = set()
    for fi, face in enumerate(g.faces):
        if g.is_blocked_face(fi):
            out.update(face)
    return out


def _measured_ring(rid: int, members: list[NodeId], points: dict[NodeId, Point]) -> HoleRing:
    pts = [points[v] for v in members]
    x0, y0, x1, y1 = bounding_box(pts)
    return HoleRing(
        ring_id=rid,
        members=list(members),
        perimeter_length=polygon_perimeter(pts),
        enclosed_area=abs(polygon_signed_area(pts)),
        bounding_box_circumference=2.0 * ((x1 - x0) + (y1 - y0)),
    )


def form_rings(g: PlanarGraph, boundary: set[NodeId]) -> list[HoleRing]:
    """One ring per blocked face (PlanarGraph.is_blocked_face): each hole and the outer face.

    Face walks come from the rotation system, which is the centralized
    equivalent of every node sorting its boundary neighbors by angle.
    The successor chain is re-verified edge by edge.
    """
    rings: list[HoleRing] = []
    for fi, face in enumerate(g.faces):
        if not g.is_blocked_face(fi):
            continue
        members = list(face)
        if len(set(members)) != len(members):
            raise AssumptionViolationError(
                f"face {fi} revisits a node; boundary cycles must be simple"
            )
        for i, u in enumerate(members):
            w = members[(i + 1) % len(members)]
            if not g.has_edge(u, w):
                raise EmbeddingCorruptionError(
                    f"ring successor {u}->{w} is not an edge of the graph"
                )
        rings.append(_measured_ring(len(rings), members, g.points))
    covered = set()
    for r in rings:
        covered.update(r.members)
    if covered != boundary:
        raise EmbeddingCorruptionError(
            "boundary nodes and ring membership disagree: "
            f"{sorted(boundary ^ covered)}"
        )
    return rings


def classify_rings(rings: Sequence[HoleRing], orientations: Mapping[int, int]) -> None:
    """Each ring's turn, and a kind where it has none, off its leader's orientation; takes no round.

    Every ring's leader, an arc's too, read its hull's ring ranks in ccw
    (+1) or cw (-1) order (overlay.rank_ring); orientations holds them
    by ring_id.  A ccw walk turns exactly -360 degrees, a cw walk +360,
    and a closed ring, which has no kind yet, is a hole or the outer boundary.
    """
    for r in rings:
        r.orientation_sum = -360.0 * orientations[r.ring_id]
        r.kind = r.kind or (KIND_OUTER_BOUNDARY if r.orientation_sum > 0 else KIND_INNER)


def hull_node_ids(points: dict[NodeId, Point], members: list[NodeId]) -> list[NodeId]:
    """Centralized hull of the member positions, as ccw node ids."""
    at = {points[v]: v for v in members}
    if len(at) != len(members):
        raise AssumptionViolationError("coincident ring nodes")
    return [at[p] for p in convex_hull_oracle([points[v] for v in members])]


def compute_bays(ring: HoleRing, hull_nodes: list[NodeId]) -> list[Bay]:
    """One bay per adjacent hull pair with ring nodes strictly between.

    Hull vertices of a simple closed curve appear along the curve in
    hull order, so consecutive ring positions of hull nodes are exactly
    the hull edges.
    """
    k = len(ring.members)
    pos = {v: i for i, v in enumerate(ring.members)}
    missing = [h for h in hull_nodes if h not in pos]
    if missing:
        raise AssumptionViolationError(f"hull nodes {missing} not on ring")
    idxs = sorted(pos[h] for h in hull_nodes)
    bays: list[Bay] = []
    for a_i, b_i in zip(idxs, idxs[1:] + [idxs[0] + k]):
        between = [ring.members[j % k] for j in range(a_i + 1, b_i)]
        if between:
            bays.append(Bay((ring.members[a_i], ring.members[b_i % k]), between))
    return bays


def detect_outer_holes(
    g: PlanarGraph,
    outer: HoleRing,
    hull_nodes: list[NodeId] | None = None,
    first_id: int = 0,
) -> list[HoleRing]:
    """The outer boundary's bays under hull edges longer than UNIT_RANGE, as rings.

    The hull edge itself is a virtual closing edge: the resulting ring
    is the bay's strip plus that chord, so perimeter and area are the
    closed polygon's.  Ring edges are radio links, so a long hull edge
    always has ring nodes between its ends and no arc is lost.
    hull_nodes is the ring's distributed hull; without it the
    centralized oracle's hull stands in.  classify_rings sets each
    arc's orientation_sum, read by its leader off the arc's hull.
    """
    if outer.kind != KIND_OUTER_BOUNDARY:
        raise AssumptionViolationError("outer holes hang off the outer boundary")
    if hull_nodes is None:
        hull_nodes = hull_node_ids(g.points, outer.members)
    out: list[HoleRing] = []
    for bay in compute_bays(outer, hull_nodes):
        a, b = (g.points[v] for v in bay.edge)
        if dist(a, b) <= UNIT_RANGE or all(_on_segment(g.points[v], a, b) for v in bay.members):
            continue  # a short chord, or a straight stretch of boundary that encloses nothing
        ring = _measured_ring(first_id + len(out), bay.strip, g.points)
        ring.kind = KIND_OUTER_HOLE
        out.append(ring)
    return out


def build_hull_abstraction(
    engine: RoundEngine,
    rings: Sequence[HoleRing],
    orders: Mapping[int, list[NodeId]],
) -> tuple[dict[int, HullAbstraction], dict[int, int]]:
    """Distributed hull, bays, and one dominating set per bay, per ring.

    orders holds each ring's members in rank order, keyed by ring_id: a
    closed ring's from its election, an outer-hole arc's as its members.
    A ring of kind KIND_OUTER_HOLE is an arc; every other ring is closed.
    The rings run concurrently (ring_protocol); a closed ring's leader
    checks the ring's size, and every ring's leader reads its
    orientation, which classify_rings takes.
    Each bay's dominating set then takes no round: its members decide
    from the ring ranks the broadcast left them (dominating_set).
    Returns the abstractions and every ring's orientation, keyed by
    ring_id.
    """
    arcs = {r.ring_id for r in rings if r.kind == KIND_OUTER_HOLE}
    hulls, orientations = ring_protocol(engine, orders, arcs)
    bays = {r.ring_id: compute_bays(r, hulls[r.ring_id]) for r in rings}
    paths = {(rid, i): bay.members for rid, bs in bays.items() for i, bay in enumerate(bs)}
    sets = dominating_set(paths)
    abstractions = {
        rid: HullAbstraction(rid, hulls[rid], bs, {i: sets[(rid, i)] for i in range(len(bs))})
        for rid, bs in bays.items()
    }
    return abstractions, orientations


def hole_report(
    rings: list[HoleRing],
    abstractions: dict[int, HullAbstraction],
    cost: Mapping[int, dict[str, int]],
) -> list[dict]:
    """Per-ring summary; JSON-ready.

    cost holds each ring's own "rounds", "longrange_messages" and
    "bytes", keyed by ring id (Pipeline.ring_cost).
    """
    out = []
    for r in rings:
        ha = abstractions[r.ring_id]
        out.append(
            {
                "kind": r.kind,
                "size": len(r.members),
                "perimeter": r.perimeter_length,
                "area": r.enclosed_area,
                "bbox_circumference": r.bounding_box_circumference,
                "hull_size": len(ha.hull_nodes),
                "bay_count": len(ha.bay_areas),
                **cost[r.ring_id],
            }
        )
    return out
