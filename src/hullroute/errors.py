"""Exception types raised across the package."""


class HullrouteError(Exception):
    """Base class for all package errors."""


class DegenerateInputError(HullrouteError):
    """Geometric predicate received input it cannot decide (collinear, coincident)."""


class DisconnectedError(HullrouteError):
    """The unit disk graph over the given nodes is not connected."""


class NodeLookupError(HullrouteError):
    """A node id or position does not exist in the structure queried."""


class IllegalSendError(HullrouteError):
    """A node tried to message a peer it does not know on the channel used."""


class IllegalIntroductionError(HullrouteError):
    """An introducer does not know both nodes it tried to introduce."""


class SimulationAbortError(HullrouteError):
    """A node handler raised; carries node id and round for diagnosis."""

    def __init__(self, node: int, round_no: int, cause: BaseException):
        super().__init__(f"handler of node {node} failed in round {round_no}: {cause!r}")
        self.node = node
        self.round_no = round_no
        self.cause = cause


class GeometryInconsistencyError(HullrouteError):
    """A computed quantity violates a geometric identity it must satisfy."""


class EmbeddingCorruptionError(HullrouteError):
    """Ring successor/predecessor chains are not mutually consistent."""


class AssumptionViolationError(HullrouteError):
    """Input violates a standing assumption (e.g. intersecting hole hulls)."""


class DispatchError(HullrouteError):
    """A routing query could not be mapped to a supported case."""


class NotReadyError(HullrouteError):
    """A query arrived while the abstraction is absent or being rebuilt."""


class NoPathError(HullrouteError):
    """No route exists between the requested endpoints."""


class ConfigError(HullrouteError):
    """A config, spec or query file names an unknown key or holds a bad value."""


class GenerationError(HullrouteError):
    """Scenario generation failed after exhausting its retry budget."""


class BoundViolationError(HullrouteError):
    """A measured quantity exceeded its asserted bound; carries the report."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report
