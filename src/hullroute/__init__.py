"""Hole-aware routing on hybrid ad hoc networks.

Planarize a unit disk graph into LDel2, detect and classify radio
holes, abstract each hole to its convex hull with distributed
protocols, and answer routing queries with provable detour bounds.
"""

import logging as _logging

from .errors import (
    AssumptionViolationError,
    BoundViolationError,
    ConfigError,
    DegenerateInputError,
    DisconnectedError,
    DispatchError,
    EmbeddingCorruptionError,
    GenerationError,
    GeometryInconsistencyError,
    HullrouteError,
    IllegalIntroductionError,
    IllegalSendError,
    NoPathError,
    NodeLookupError,
    NotReadyError,
    SimulationAbortError,
)
from .geometry import Point, Polygon
from .holes import (
    Bay,
    HoleRing,
    HullAbstraction,
    build_hull_abstraction,
    classify_rings,
    detect_boundary_nodes,
    detect_outer_holes,
    form_rings,
)
from .ldel import HybridTopology, PlanarGraph, build_ldel2, build_udg
from .pipeline import (
    ExperimentReport,
    Pipeline,
    PipelineConfig,
    run_pipeline,
)
from .render import render_svg, write_svg
from .routing import (
    BACKEND_ODEL,
    BACKEND_VIS,
    RouteResult,
    Router,
    WaypointGraph,
    build_overlay_delaunay,
    build_visibility_graph,
    chew_route,
    measure_competitiveness,
    overlay_shortest_path,
)
from .scenario import (
    ScenarioSpec,
    fixture_topology,
    generate_scenario,
    holes_grid_spec,
    load_topology,
    save_topology,
    scaling_spec,
)
from .simengine import Channel, Message, RoundEngine

__version__ = "0.1.0"

# the library logs; only an application (such as the CLI) prints the logs
_logging.getLogger(__name__).addHandler(_logging.NullHandler())

__all__ = [name for name in dir() if not name.startswith("_")]
