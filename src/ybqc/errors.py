"""Exception hierarchy.

Two families: configuration/input problems (CLI exit code 2) and
physics/numerics problems raised while a pipeline runs (exit code 3).
"""


class ConfigError(Exception):
    """Invalid parameters, scenario files, or missing inputs."""


class ScenarioError(ConfigError):
    """Scenario file failed schema or unit validation."""


class PhysicsError(Exception):
    """A physically meaningful operation could not be carried out."""


class DegenerateManifoldError(PhysicsError):
    """Requested quantity is ill-conditioned on a degenerate manifold."""


class PlanningError(PhysicsError):
    """No gradient configuration satisfies the requested constraints."""


class GeometryError(PhysicsError):
    """Unsupported site geometry (e.g. non-adjacent CNOT pair)."""


class ProtocolOrderError(PhysicsError):
    """Register state does not match the protocol's required stage."""


class IntegratorError(PhysicsError):
    """Evolution step failed its unitarity / norm-accounting check."""
