"""Interface adapters wrapping the two models for their agents."""

from __future__ import annotations

from .geometry import TorusWorld
from .macro import (
    DisplacementList,
    MacroState,
    displacements,
    macro_step,
    sync_registry,
)
from .micro import CommandSet, MicroState, SteeringParams, micro_step, observe

__all__ = ["MicroModelInterface", "MacroModelInterface"]


class MicroModelInterface:
    """Owns a bird population; one model step per step_model call."""

    def __init__(self, initial: MicroState, params: SteeringParams) -> None:
        self.params = params
        self.state = initial
        self._pending: CommandSet | None = None

    def update_model(self, data: CommandSet | None) -> None:
        self._pending = data

    def step_model(self) -> None:
        self.state = micro_step(self.state, self._pending, self.params)
        self._pending = None

    def observe_model(self) -> MicroState:
        return observe(self.state)


class MacroModelInterface:
    """Owns the flock registry; supports adding and removing flocks."""

    def __init__(self, world: TorusWorld, params: SteeringParams) -> None:
        self.params = params
        self.state = MacroState(flocks=(), next_id=0, macro_tick=0, world=world)

    def update_model(self, data: list) -> None:
        self.state = sync_registry(self.state, data)

    def step_model(self) -> None:
        self.state = macro_step(self.state, self.params)

    def observe_model(self) -> MacroState:
        return self.state

    def displacements(
        self, before: MacroState, after: MacroState
    ) -> DisplacementList:
        return displacements(before, after)
