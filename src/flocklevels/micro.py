"""The individual-level flocking model: boids on a torus.

Each bird carries an id, a position and a heading and steers by the
classic separation / alignment / cohesion rules with bounded turns.
Birds can additionally be driven by external movement commands (a rigid
displacement plus an imposed heading), which bypass the boids rules for
that tick.

The population is one set of read-only arrays, one per column, in
ascending id. The update is synchronous (double-buffered): every bird's
new state is computed from the pre-step state into new arrays, so
storage order never affects the outcome and a published state never
changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import CouplingError
from .geometry import (
    TorusWorld,
    mate_sums,
    normalize_heading,
    steer,
    torus_neighbours,
    wrap_array,
)

__all__ = [
    "Bird",
    "SteeringParams",
    "MicroState",
    "init_random",
    "micro_step",
    "observe",
]

# A movement command: rigid displacement vector plus imposed heading.
Command = tuple[tuple[float, float], float]
# Per-tick map bird id -> command.
CommandSet = dict[int, Command]


@dataclass(frozen=True)
class Bird:
    id: int
    pos: tuple[float, float]
    heading: float


@dataclass(frozen=True)
class SteeringParams:
    """The bounded-turn boids rule; birds and flocks take the same fields."""

    vision: float = 10.0
    min_separation: float = 1.0
    max_align_turn: float = 5.0
    max_cohere_turn: float = 3.0
    max_separate_turn: float = 1.5
    speed: float = 1.0

    def __post_init__(self) -> None:
        for name in (
            "vision",
            "min_separation",
            "max_align_turn",
            "max_cohere_turn",
            "max_separate_turn",
            "speed",
        ):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be non-negative")
        if not math.isfinite(self.speed):
            raise ValueError("speed must be finite")
        if self.vision < self.min_separation:
            raise ValueError("vision must be >= min_separation")


@dataclass(frozen=True, eq=False)
class MicroState:
    """The population at one tick, one read-only array per column.

    ids are int64, x, y and heading float64, all in ascending id. The
    state is also the snapshot the micro agent publishes, and the event
    log keeps it by reference, so its arrays are never written.
    """

    ids: np.ndarray
    x: np.ndarray
    y: np.ndarray
    heading: np.ndarray
    tick: int
    world: TorusWorld

    def __post_init__(self) -> None:
        ids = np.asarray(self.ids, dtype=np.int64)
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        if (ids[1:] == ids[:-1]).any():
            raise ValueError("duplicate bird ids")
        columns = {"ids": ids}
        for name in ("x", "y", "heading"):
            col = np.asarray(getattr(self, name), dtype=np.float64)
            if col.shape != order.shape:
                raise ValueError(f"{name} has {col.size} values for {ids.size} ids")
            col = col[order]
            if not np.isfinite(col).all():
                k = np.flatnonzero(~np.isfinite(col))[0]
                raise ValueError(
                    f"{name} must be finite, got {col[k].item()!r} for bird {ids[k]}"
                )
            columns[name] = col
        # indexing by order copied every column, so none is shared
        for name, col in columns.items():
            col.flags.writeable = False
            object.__setattr__(self, name, col)

    def __len__(self) -> int:
        return self.ids.size

    @property
    def birds(self) -> tuple[Bird, ...]:
        """The population as Bird records, built on each access."""
        pos = zip(self.x.tolist(), self.y.tolist())
        return tuple(map(Bird, self.ids.tolist(), pos, self.heading.tolist()))

    def rows_of(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The row of each of the given ids, and those of them not present."""
        rows = np.searchsorted(self.ids, ids)
        known = rows < self.ids.size
        known[known] = self.ids[rows[known]] == ids[known]
        return rows, ids[~known]


def init_random(n: int, world: TorusWorld, rng: np.random.Generator) -> MicroState:
    """n birds with ids 0..n-1, uniform positions and headings."""
    if n < 0:
        raise ValueError("n must be >= 0")
    xs = rng.uniform(0.0, world.width, n)
    ys = rng.uniform(0.0, world.height, n)
    hs = rng.uniform(0.0, 360.0, n)
    return MicroState(np.arange(n), xs, ys, hs, tick=0, world=world)


def _step_all_autonomous(
    x: np.ndarray, y: np.ndarray, h: np.ndarray, p: SteeringParams, w: TorusWorld
) -> np.ndarray:
    """Boids headings for the whole population (pre-move), mates by distance."""
    i, j, dx, dy, dist = torus_neighbours(x, y, p.vision, w)
    hr = np.radians(h)
    sums = mate_sums(i, j, dist, dx, dy, np.cos(hr), np.sin(hr), x.shape[0])
    return steer(h, x, y, w, p, *sums)


def micro_step(
    s: MicroState, cmds: CommandSet | None, p: SteeringParams
) -> MicroState:
    """Advance the whole population by one tick.

    Commanded birds move rigidly per their command; every other bird runs
    the boids rules against the pre-step state.
    """
    if cmds:
        rows, unknown = s.rows_of(np.fromiter(cmds, np.int64, len(cmds)))
        if unknown.size:
            raise CouplingError(
                f"commands for unknown bird ids: {sorted(unknown.tolist())}"
            )
    if len(s) == 0:
        return replace(s, tick=s.tick + 1)

    x, y = s.x, s.y
    new_h = _step_all_autonomous(x, y, s.heading, p, s.world)
    hr = np.radians(new_h)
    new_x = x + p.speed * np.cos(hr)
    new_y = y + p.speed * np.sin(hr)

    if cmds:
        for i, ((vx, vy), ch) in zip(rows.tolist(), cmds.values()):
            new_x[i] = x[i] + vx
            new_y[i] = y[i] + vy
            new_h[i] = normalize_heading(ch)

    new_x = wrap_array(new_x, s.world.width)
    new_y = wrap_array(new_y, s.world.height)
    return MicroState(s.ids, new_x, new_y, new_h, tick=s.tick + 1, world=s.world)


def observe(s: MicroState) -> MicroState:
    """The published snapshot: the state itself, which is read-only."""
    return s
