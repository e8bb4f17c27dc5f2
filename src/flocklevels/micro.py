"""The individual-level flocking model: boids on a torus.

Each bird carries an id, a position and a heading and steers by the
classic separation / alignment / cohesion rules with bounded turns.
Birds can additionally be driven by external movement commands (a rigid
displacement plus an imposed heading), which bypass the boids rules for
that tick. The commands of one tick are one `Commands` table, applied by
indexing the commanded rows.

The population is one `MicroState` table of read-only columns in
strictly ascending id. The update is synchronous (double-buffered):
every bird's new x, y and heading are computed from the pre-step state
into new arrays, and the ids array is shared, so storage order never
affects the outcome and a published state never changes.

Every table that crosses the levels, and each model's state, is a
`Columns` table, with one column check, value equality, `derive`, and
`stack` and `split`, which join tables of one type part after part and
part them again, fields and all.

The step is `geometry.boids_step`, the flocks' own, with each bird a
disc of radius 0. It turns only the uncommanded birds, each against the
whole pre-step population: the neighbour search, the mate sums and the
turn skip the commanded rows, whose moves and headings the commands
overwrite.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import accumulate

import numpy as np

from .geometry import LENGTH_BOUND, TorusWorld, boids_step, wrap_array

__all__ = [
    "Bird",
    "Commands",
    "CouplingError",
    "SteeringParams",
    "MicroState",
    "init_random",
    "micro_step",
    "observe",
]


class CouplingError(ValueError):
    """Inconsistent data crossing levels (unknown ids, overlapping members)."""


class Columns:
    """Base of the read-only column tables that cross between the levels
    or hold a model's state: frozen dataclasses of 1-D columns of fixed
    dtypes and other fields (a tick, a world), equal when of one type with
    equal fields and columns of the same bits, so the audit can compare
    payloads by value. Bytes compare ten times faster than np.array_equal
    and differ from it only on -0.0 against 0.0 (and NaN), which a
    deterministic transformer never produces differently.

    `check` is the one check of a column, run on every field annotated
    np.ndarray when a table is built. INTS names the int64 columns, the
    others are float64 and finite; a column in MEMBERS holds one value
    per value of MEMBERS[0], any other one value per row, as the first
    column does. KEYS, which every table kind declares, names its
    strictly ascending columns, LABEL the member column that holds each
    member's row. No field that is not a column holds a tuple: a stack
    keeps the tuple of its parts' values there."""

    __hash__ = None
    INTS = ()
    MEMBERS = ()
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
            col = np.asarray(getattr(self, name), np.int64 if name in self.INTS else np.float64)
            if col.ndim != 1 or (size is not None and col.size != size):
                raise ValueError(f"{name} has shape {col.shape}, want ({size},)")
            if col.flags.writeable:
                col = col.copy()
                col.flags.writeable = False
            object.__setattr__(self, name, col)
            finite = np.isfinite(col)
            if not finite.all():
                k = np.argmin(finite)
                at = f"bird {self.ids[k]}" if first == "ids" else f"row {k}"
                raise ValueError(f"{name} must be finite, got {col[k].item()!r} for {at}")
            if name in self.KEYS and (col[1:] <= col[:-1]).any():
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
        """A table of type cls (this one's by default) with the fields that
        cls declares, from the given columns and fields, else from this
        table, the given columns made read-only.

        Nothing is checked: the given columns must be arrays of the right
        dtype, derived from checked tables so that every invariant that
        involves them still holds (a permutation or a slice of rows), or
        checked by the caller."""
        cls = cls or type(self)
        table = object.__new__(cls)
        for col in columns.values():
            if isinstance(col, np.ndarray):
                col.setflags(write=False)
        # a new dict: keys added to a copy of vars(self) grow its class's shared keys
        given = {**vars(self), **columns}
        for name in cls.__dataclass_fields__:
            object.__setattr__(table, name, given[name])
        return table

    @staticmethod
    def stack(tables: list) -> tuple:
        """The tables, all of one type, as one, part after part, and the
        part of each row; one table is its own stack, with part None. A
        label is offset by the rows of the parts before. Every other field
        keeps the value that all parts agree on, else holds the tuple of
        the parts' values. A stack keeps the invariants of each part only
        (ids ascend within a part), so it is not checked."""
        first = tables[0]
        if len(tables) == 1:
            return first, None
        sizes = [len(t) for t in tables]
        stacked = {}
        for name, value in vars(first).items():
            values = [getattr(t, name) for t in tables]
            if isinstance(value, np.ndarray):
                if name == first.LABEL:
                    values = [c + start for c, start in zip(values, accumulate(sizes, initial=0))]
                stacked[name] = np.concatenate(values)
            elif any(v != value for v in values):
                stacked[name] = tuple(values)
        return first.derive(**stacked), np.repeat(np.arange(len(tables)), sizes)

    def split(self, part: np.ndarray | None, parts: int) -> list:
        """The inverse of stack: the tables of parts 0 to parts - 1, given
        the part of each row, ascending, or None for one part. A member
        lies in its row's part, and the members of each part are a run; a
        tuple field gives each part its own value."""
        if part is None:
            return [self]
        cuts = np.arange(parts + 1)
        rows = members = np.searchsorted(part, cuts)
        columns = {n: c for n, c in vars(self).items() if isinstance(c, np.ndarray)}
        own = {n: v for n, v in vars(self).items() if isinstance(v, tuple)}
        if self.LABEL is not None:
            label = columns[self.LABEL]
            members = np.searchsorted(part[label], cuts)
            columns[self.LABEL] = label - rows[part[label]]
        rows, members, out = rows.tolist(), members.tolist(), []
        for k in range(parts):
            row, member = slice(rows[k], rows[k + 1]), slice(members[k], members[k + 1])
            cut = {n: c[member if n in self.MEMBERS else row] for n, c in columns.items()}
            out.append(self.derive(**cut, **{n: v[k] for n, v in own.items()}))
        return out


@dataclass(frozen=True, eq=False)
class Commands(Columns):
    """Movement commands of one tick: per commanded bird, in strictly
    ascending id (KEYS, INTS), a finite displacement (vx, vy) and heading."""

    ids: np.ndarray
    vx: np.ndarray
    vy: np.ndarray
    heading: np.ndarray

    INTS = KEYS = ("ids",)


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

    ids are int64 and strictly ascending (INTS, KEYS), x, y and heading
    float64. It is also the snapshot the micro agent publishes, and the
    event log keeps it by reference, so its arrays are never written; the
    states of one run share one ids array.
    """

    ids: np.ndarray
    x: np.ndarray
    y: np.ndarray
    heading: np.ndarray
    tick: int
    world: TorusWorld

    INTS = KEYS = ("ids",)

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

    w = s.world
    x, y, h = boids_step(s.x, s.y, s.heading, np.zeros(len(s)), w, p, free)
    if cmds:
        x[rows] = s.x[rows] + cmds.vx
        y[rows] = s.y[rows] + cmds.vy
        h[rows] = wrap_array(cmds.heading, 360.0)
    x, y = wrap_array(x, w.width), wrap_array(y, w.height)

    # the ids and their order are kept, so only the new columns are checked
    state = s.derive(x=x, y=y, heading=h, tick=s.tick + 1)
    state.check("x", "y", "heading")
    return state


def observe(s: MicroState) -> MicroState:
    """The published snapshot: the state itself, which is read-only."""
    return s
