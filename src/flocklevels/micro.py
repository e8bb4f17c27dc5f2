"""The individual-level flocking model: boids on a torus.

Each bird carries an id, a position and a heading and steers by the
classic separation / alignment / cohesion rules with bounded turns.
Birds can additionally be driven by external movement commands (a rigid
displacement plus an imposed heading), which bypass the boids rules for
that tick. The commands of one tick are one `Commands` table, applied by
indexing the commanded rows.

The population is one set of read-only arrays, one per column, in
ascending id. The update is synchronous (double-buffered): every bird's
new state is computed from the pre-step state into new arrays, so
storage order never affects the outcome and a published state never
changes.

Steering runs only for the uncommanded birds, each against the whole
pre-step population: the neighbour search, the mate sums and the turn
skip the commanded rows, whose headings the commands overwrite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CouplingError
from .geometry import (
    LENGTH_BOUND,
    TorusWorld,
    mate_sums,
    steer,
    torus_neighbours,
    wrap_array,
)

__all__ = [
    "Bird",
    "Commands",
    "SteeringParams",
    "MicroState",
    "init_random",
    "micro_step",
    "observe",
]


def freeze_column(table, name: str, dtype, size: int | None = None) -> np.ndarray:
    """Set a frozen dataclass's field to a read-only 1-D array of dtype (of
    the given size), copied unless it is read-only already, and return it."""
    col = np.asarray(getattr(table, name), dtype=dtype)
    if col.ndim != 1 or (size is not None and col.size != size):
        raise ValueError(f"{name} has shape {col.shape}, want ({size},)")
    if col.flags.writeable:
        col = col.copy()
        col.flags.writeable = False
    object.__setattr__(table, name, col)
    return col


class Columns:
    """Base of the read-only column tables that cross between the levels:
    frozen dataclasses of 1-D columns of fixed dtypes, equal when of one
    type and every column holds the same bits, so the audit can compare
    payloads by value. Bytes compare ten times faster than np.array_equal
    and differ from it only on -0.0 against 0.0 (and NaN), which a
    deterministic transformer never produces differently."""

    __hash__ = None

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        theirs = vars(other)
        return all(v.tobytes() == theirs[k].tobytes() for k, v in vars(self).items())

    def derive(self, cls=None, **columns):
        """A table of type cls (this one's by default) with this table's
        columns, the given ones put in or added and made read-only.

        Nothing is checked: the given columns must be arrays of the right
        dtype, derived from checked tables so that every invariant that
        involves them still holds (a permutation or a slice of rows), or
        checked by the caller."""
        table = object.__new__(cls or type(self))
        for col in columns.values():
            col.flags.writeable = False
        for name, col in {**vars(self), **columns}.items():
            object.__setattr__(table, name, col)
        return table


@dataclass(frozen=True, eq=False)
class Commands(Columns):
    """Movement commands of one tick: per commanded bird, in strictly
    ascending id, a displacement (vx, vy) and an imposed heading."""

    ids: np.ndarray
    vx: np.ndarray
    vy: np.ndarray
    heading: np.ndarray

    def __post_init__(self) -> None:
        ids = freeze_column(self, "ids", np.int64)
        for name in ("vx", "vy", "heading"):
            freeze_column(self, name, np.float64, ids.size)
        if (ids[1:] <= ids[:-1]).any():
            raise CouplingError("commanded bird ids must be strictly ascending")

    def __len__(self) -> int:
        return self.ids.size


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
        # the bound keeps every move and search finite (geometry)
        for name in ("speed", "vision"):
            value = getattr(self, name)
            if value > LENGTH_BOUND:
                raise ValueError(f"{name} must be at most {LENGTH_BOUND!r}, got {value!r}")
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


def _steer_free(
    x: np.ndarray,
    y: np.ndarray,
    h: np.ndarray,
    free: np.ndarray | None,
    p: SteeringParams,
    w: TorusWorld,
) -> np.ndarray:
    """Boids headings (pre-move) of the free rows, all rows when None, with
    mates by distance among the whole population; other rows keep theirs."""
    if free is not None and free.size == 0:
        # every bird commanded, as in about a third of the M1 and M2 steps
        # at 100 birds: skip the fixed cost of searching no rows
        return h.copy()
    i, j, dx, dy, dist = torus_neighbours(x, y, p.vision, w, free)
    hr = np.radians(h)
    sums = mate_sums(i, j, dist, dx, dy, np.cos(hr), np.sin(hr), x.shape[0])
    return steer(h, x, y, w, p, *sums)


def micro_step(s: MicroState, cmds: Commands | None, p: SteeringParams) -> MicroState:
    """Advance the whole population by one tick.

    Commanded birds move rigidly per their command; every other bird runs
    the boids rules against the whole pre-step state, commanded birds
    included as mates. Only the uncommanded birds are searched and turned.
    """
    free = None
    if cmds:
        rows, unknown = s.rows_of(cmds.ids)
        if unknown.size:
            raise CouplingError(
                f"commands for unknown bird ids: {sorted(unknown.tolist())}"
            )
        is_free = np.ones(len(s), dtype=bool)
        is_free[rows] = False
        free = np.flatnonzero(is_free)

    x, y = s.x, s.y
    new_h = _steer_free(x, y, s.heading, free, p, s.world)
    hr = np.radians(new_h)
    new_x = x + p.speed * np.cos(hr)
    new_y = y + p.speed * np.sin(hr)

    if cmds:
        new_x[rows] = x[rows] + cmds.vx
        new_y[rows] = y[rows] + cmds.vy
        new_h[rows] = wrap_array(cmds.heading, 360.0)

    new_x = wrap_array(new_x, s.world.width)
    new_y = wrap_array(new_y, s.world.height)
    return MicroState(s.ids, new_x, new_y, new_h, tick=s.tick + 1, world=s.world)


def observe(s: MicroState) -> MicroState:
    """The published snapshot: the state itself, which is read-only."""
    return s
