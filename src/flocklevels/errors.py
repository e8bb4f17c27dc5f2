"""Exception types shared across the simulation engine."""

from __future__ import annotations

__all__ = ["ProtocolError", "DeadlockError", "CouplingError", "ConfigError"]


class ProtocolError(RuntimeError):
    """A coordination-protocol violation (e.g. non-monotone write).

    Protocol violations abort the run loudly; the kernel never self-heals.
    """


class DeadlockError(RuntimeError):
    """A read beyond its producer's clock, so no agent can make progress."""


class CouplingError(ValueError):
    """Inconsistent data crossing levels (unknown ids, overlapping members)."""


class ConfigError(ValueError):
    """Invalid experiment configuration, detected before any run starts."""
