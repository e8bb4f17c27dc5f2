"""The individual-level flocking model: boids on a torus.

Each bird carries an id, a position and a heading and steers by the
classic separation / alignment / cohesion rules with bounded turns.
Birds can additionally be driven by external movement commands (a rigid
displacement plus an imposed heading), which bypass the boids rules for
that tick. The commands of one tick are one `Commands` table, applied by
indexing the commanded rows.

The population is one `MicroState` table of read-only columns in
ascending id. The update is synchronous (double-buffered): every bird's
new x, y and heading are computed from the pre-step state into new
arrays, and the ids array is shared, so storage order never affects the
outcome and a published state never changes.

Every table that crosses the levels is a `Columns` table, with value
equality, `derive`, and `stack` and `split`, which join tables of one
type part after part and part them again.

Steering runs only for the uncommanded birds, each against the whole
pre-step population: the neighbour search, the mate sums and the turn
skip the commanded rows, whose headings the commands overwrite.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import accumulate

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
    frozen dataclasses of 1-D columns of fixed dtypes and other fields (a
    tick), equal when of one type with equal fields and columns of the
    same bits, so the audit can compare payloads by value. Bytes compare
    ten times faster than np.array_equal and differ from it only on -0.0
    against 0.0 (and NaN), which a deterministic transformer never
    produces differently.

    `check` is the one check of a column, run on every field annotated
    np.ndarray when a table is built. INTS names the int64 columns, the
    others are float64 and finite; a column in MEMBERS holds one value
    per value of MEMBERS[0], any other one value per row, as the first
    column does. KEY names the strictly ascending column, LABEL the
    member column that holds each member's row."""

    __hash__ = None
    INTS = ()
    MEMBERS = ()
    KEY = None
    LABEL = None

    def __post_init__(self) -> None:
        self.check(*(f.name for f in fields(self) if f.type in ("np.ndarray", np.ndarray)))

    def check(self, *names: str) -> None:
        """Make the named columns, in field order, read-only arrays of their
        dtype and length, and check them; a table derived from a checked
        one checks only the columns it puts in. A bad value is named by its
        bird id where the first column is ids, else by its row."""
        first = next(iter(vars(self)))
        for name in names:
            lead = self.MEMBERS[0] if name in self.MEMBERS else first
            size = None if name == lead else getattr(self, lead).size
            col = freeze_column(self, name, np.int64 if name in self.INTS else np.float64, size)
            finite = np.isfinite(col)
            if not finite.all():
                k = np.argmin(finite)
                at = f"bird {self.ids[k]}" if first == "ids" else f"row {k}"
                raise ValueError(f"{name} must be finite, got {col[k].item()!r} for {at}")
            if name == self.KEY and (col[1:] <= col[:-1]).any():
                bad = col[1:][col[1:] <= col[:-1]].tolist()
                raise CouplingError(f"{name} must be strictly ascending; these are not: {bad}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        theirs = vars(other)
        return all(
            v.tobytes() == theirs[k].tobytes() if isinstance(v, np.ndarray) else v == theirs[k]
            for k, v in vars(self).items()
        )

    def __len__(self) -> int:
        return next(iter(vars(self).values())).size

    def derive(self, cls=None, **columns):
        """A table of type cls (this one's by default) with this table's
        columns and fields, the given ones put in or added, and the given
        columns made read-only.

        Nothing is checked: the given columns must be arrays of the right
        dtype, derived from checked tables so that every invariant that
        involves them still holds (a permutation or a slice of rows), or
        checked by the caller."""
        table = object.__new__(cls or type(self))
        for col in columns.values():
            if isinstance(col, np.ndarray):
                col.setflags(write=False)
        vars(table).update(vars(self), **columns)
        return table

    @staticmethod
    def stack(tables: list) -> tuple:
        """The tables, all of one type, as one, part after part, and the
        part of each row; one table is its own stack, with part None. A
        label is offset by the rows of the parts before, and every other
        field is the first table's. A stack keeps the invariants of each
        part only (ids ascend within a part), so it is not checked."""
        first = tables[0]
        if len(tables) == 1:
            return first, None
        sizes = [len(t) for t in tables]
        columns = {}
        for name, col in vars(first).items():
            if isinstance(col, np.ndarray):
                cols = [getattr(t, name) for t in tables]
                if name == first.LABEL:
                    cols = [c + start for c, start in zip(cols, accumulate(sizes, initial=0))]
                columns[name] = np.concatenate(cols)
        return first.derive(**columns), np.repeat(np.arange(len(tables)), sizes)

    def split(self, part: np.ndarray | None, parts: int) -> list:
        """The inverse of stack: the tables of parts 0 to parts - 1, given
        the part of each row, ascending, or None for one part. A member
        lies in its row's part, and the members of each part are a run."""
        if part is None:
            return [self]
        cuts = np.arange(parts + 1)
        rows = members = np.searchsorted(part, cuts)
        columns = {n: c for n, c in vars(self).items() if isinstance(c, np.ndarray)}
        if self.LABEL is not None:
            label = columns[self.LABEL]
            members = np.searchsorted(part[label], cuts)
            columns[self.LABEL] = label - rows[part[label]]
        rows, members, out = rows.tolist(), members.tolist(), []
        for k in range(parts):
            row, member = slice(rows[k], rows[k + 1]), slice(members[k], members[k + 1])
            cut = {n: c[member if n in self.MEMBERS else row] for n, c in columns.items()}
            out.append(self.derive(**cut))
        return out


@dataclass(frozen=True, eq=False)
class Commands(Columns):
    """Movement commands of one tick: per commanded bird, in strictly
    ascending id (KEY, INTS), a finite displacement (vx, vy) and heading."""

    ids: np.ndarray
    vx: np.ndarray
    vy: np.ndarray
    heading: np.ndarray

    INTS = ("ids",)
    KEY = "ids"


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
        for name in vars(self):
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
class MicroState(Columns):
    """The population at one tick, one read-only array per column.

    ids are int64 (INTS), x, y and heading float64; the state sorts all
    four by id and rejects a repeated id. It is also the snapshot the
    micro agent publishes, and the event log keeps it by reference, so its
    arrays are never written; the states of one run share one ids array.
    """

    ids: np.ndarray
    x: np.ndarray
    y: np.ndarray
    heading: np.ndarray
    tick: int
    world: TorusWorld

    INTS = ("ids",)

    def __post_init__(self) -> None:
        super().__post_init__()
        order = np.argsort(self.ids, kind="stable")
        ids = self.ids[order]
        if (ids[1:] == ids[:-1]).any():
            raise ValueError("duplicate bird ids")
        columns = {n: c[order] for n, c in vars(self).items() if isinstance(c, np.ndarray)}
        for col in columns.values():
            col.flags.writeable = False
        vars(self).update(columns)

    @property
    def birds(self) -> tuple[Bird, ...]:
        """The population as Bird records, built on each access."""
        pos = zip(self.x.tolist(), self.y.tolist())
        return tuple(map(Bird, self.ids.tolist(), pos, self.heading.tolist()))


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
        rows = np.searchsorted(s.ids, cmds.ids)
        known = rows < len(s)
        known[known] = s.ids[rows[known]] == cmds.ids[known]
        if not known.all():
            raise CouplingError(f"commands for unknown bird ids: {cmds.ids[~known].tolist()}")
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
    # the ids and their order are kept, so only the new columns are checked
    state = s.derive(x=new_x, y=new_y, heading=new_h, tick=s.tick + 1)
    state.check("x", "y", "heading")
    return state


def observe(s: MicroState) -> MicroState:
    """The published snapshot: the state itself, which is read-only."""
    return s
