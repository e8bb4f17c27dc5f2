"""Interface artifacts wrapping the two models for their agents.

Both implement the kernel's three-method contract. The micro interface
takes a `Commands` table and observes its population; the macro
interface takes a `Flocks` table, records its flock statistics, and
observes the `Displacements` table of its last step.
"""

from __future__ import annotations

from .geometry import TorusWorld
from .macro import (
    NO_FLOCKS,
    Displacements,
    Flocks,
    MacroState,
    displacements,
    flock_stats,
    macro_step,
    sync_registry,
)
from .micro import Commands, MicroState, SteeringParams, micro_step, observe

__all__ = ["MicroModelInterface", "MacroModelInterface"]


class MicroModelInterface:
    """Owns a bird population; one model step per step_model call."""

    def __init__(self, initial: MicroState, params: SteeringParams) -> None:
        self.params = params
        self.state = initial
        self._pending: Commands | None = None

    def update_model(self, data: Commands | None) -> None:
        self._pending = data

    def step_model(self) -> None:
        self.state = micro_step(self.state, self._pending, self.params)
        self._pending = None

    def observe_model(self) -> MicroState:
        return observe(self.state)


class MacroModelInterface:
    """Owns the flock registry; stats holds flock_stats of each update."""

    def __init__(self, world: TorusWorld, params: SteeringParams) -> None:
        self.params = params
        self.state = MacroState(**vars(NO_FLOCKS), ids=(), next_id=0, world=world)
        self._before = self.state
        self.stats: list[tuple[int, float, float]] = []

    def update_model(self, data: Flocks) -> None:
        self.stats.append(flock_stats(data))
        self.state = sync_registry(self.state, data)

    def step_model(self) -> None:
        self._before = self.state
        self.state = macro_step(self.state, self.params)

    def observe_model(self) -> Displacements:
        return displacements(self._before, self.state)
