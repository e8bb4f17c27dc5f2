"""Two-level flocking co-simulation.

Birds flock at the individual level; clusters of nearby, aligned birds
are detected and reified as flock agents at the collective level; flock
displacements flow back down as per-bird movement commands. A small
coordination kernel keeps the two models causally consistent and logs
every exchange for auditing.
"""

from .coupling import ClusterParams, Clusters, detect_clusters, emergence_transform, reify
from .experiment import ConfigError
from .geometry import TorusWorld
from .kernel import CouplingArtifact, DeadlockError, EventLog, MultiModel, ProtocolError, run
from .macro import Flocks, MacroState, displacements, macro_step, sync_registry
from .micro import CouplingError, MicroState, SteeringParams, init_random, micro_step

__all__ = [
    "ClusterParams",
    "Clusters",
    "ConfigError",
    "CouplingArtifact",
    "CouplingError",
    "DeadlockError",
    "EventLog",
    "Flocks",
    "MacroState",
    "MicroState",
    "MultiModel",
    "ProtocolError",
    "SteeringParams",
    "TorusWorld",
    "detect_clusters",
    "displacements",
    "emergence_transform",
    "init_random",
    "macro_step",
    "micro_step",
    "reify",
    "run",
    "sync_registry",
]

__version__ = "0.1.0"
