"""The collective-level model: flocks as first-class agents.

The flocks of one snapshot are one `Flocks` table of columns, and so is
the registry (`MacroState`), in strictly ascending flock id. Flocks
steer by the same bounded-turn separation / alignment / cohesion rules
as individual birds, except that distances are size-aware: the
effective distance between two flocks is the gap between their bounding
circles, never negative.

The step is `geometry.boids_step`, the birds' own, with each flock a
disc of its radius.

The registry is kept in sync with the flocks observed at the individual
level: observed flocks are matched to registered ones by member-set
overlap (Jaccard, counted from the two label columns), matched flocks
keep their id, new ones get fresh ids, vanished ones are dropped. Fusion
and splitting are not modelled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import TorusWorld, boids_step, wrap_array, wrapped_delta
from .micro import Columns, CouplingError, SteeringParams

__all__ = [
    "Flocks",
    "Displacements",
    "NO_FLOCKS",
    "MacroState",
    "sync_registry",
    "macro_step",
    "displacements",
    "flock_stats",
]


@dataclass(frozen=True, eq=False)
class Flocks(Columns):
    """The flocks of one snapshot, one read-only column per field.

    x, y, heading and radius hold one value per flock (a row). members
    holds the id of every member bird, strictly ascending (KEYS), and label
    the row of its flock (both INTS). check adds to `Columns.check` that
    radius is >= 0 and every row has at least one member.
    """

    x: np.ndarray
    y: np.ndarray
    heading: np.ndarray
    radius: np.ndarray
    members: np.ndarray
    label: np.ndarray

    INTS = MEMBERS = ("members", "label")
    KEYS = ("members",)
    LABEL = "label"

    def check(self, *names: str) -> None:
        super().check(*names)
        if "radius" in names and (self.radius < 0).any():
            raise ValueError(f"radius must be >= 0, got {self.radius.tolist()}")
        if "label" in names:
            rows = self.x.size
            size = np.bincount(self.label, minlength=rows)  # raises on a negative label
            if size.size != rows or not size.all():
                raise ValueError(f"label must give each of {rows} rows members, got {size}")


@dataclass(frozen=True, eq=False)
class Displacements(Flocks):
    """The flocks after a step, with each flock's displacement (vx, vy)."""

    vx: np.ndarray
    vy: np.ndarray


NO_FLOCKS = Flocks((), (), (), (), (), ())


@dataclass(frozen=True, eq=False)
class MacroState(Flocks):
    """The flock registry: its flocks in strictly ascending flock id (ids,
    INTS, KEYS), next_id above every id, and the world."""

    ids: np.ndarray
    next_id: int
    world: TorusWorld

    INTS = ("members", "label", "ids")
    KEYS = ("members", "ids")

    def check(self, *names: str) -> None:
        super().check(*names)
        if "ids" in names and self.ids.size and self.next_id <= self.ids[-1]:
            raise ValueError("next_id must exceed every issued id")

    @property
    def flocks(self) -> MacroState:
        # the benchmark's trace hook counts len(state.flocks); ROADMAP item 7 drops it
        return self


def sync_registry(s: MacroState, observed: Flocks) -> MacroState:
    """Reconcile the registry with the flocks observed in one snapshot.

    Greedy maximum-overlap matching on member sets: pairs are taken in
    descending Jaccard order (ties by lowest existing flock id, then by
    the observed flock's lowest member id); zero-overlap pairs never
    match. Matched flocks keep their id and adopt the observed centroid,
    heading, radius and members; the other observed flocks get fresh
    ids in row order; the other registered flocks are removed.
    """
    f, k = len(s), len(observed)
    ids = np.full(k, -1, dtype=np.int64)
    _, a, b = np.intersect1d(
        s.members, observed.members, assume_unique=True, return_indices=True
    )
    # overlap of every (registered, observed) pair, nonzero ones only
    inter = np.bincount(s.label[a] * k + observed.label[b], minlength=f * k)
    pair = np.flatnonzero(inter)
    fo, ko = np.divmod(pair, k)
    union = (
        np.bincount(s.label, minlength=f)[fo]
        + np.bincount(observed.label, minlength=k)[ko]
        - inter[pair]
    )
    jaccard = inter[pair] / union
    # members ascend, so a row's first member is its lowest
    lowest = observed.members[np.unique(observed.label, return_index=True)[1]]
    taken: set[int] = set()
    greedy = np.lexsort((lowest[ko], s.ids[fo], -jaccard))
    for fr, kr in zip(fo[greedy].tolist(), ko[greedy].tolist()):
        if fr not in taken and ids[kr] < 0:
            taken.add(fr)
            ids[kr] = s.ids[fr]
    fresh = np.flatnonzero(ids < 0)
    ids[fresh] = s.next_id + np.arange(fresh.size)

    # rows in flock id order; each member's label follows its row. A
    # permutation of a checked table's rows, so only ids are checked.
    order = np.argsort(ids)
    ids = ids[order]
    columns = {c: getattr(observed, c)[order] for c in ("x", "y", "heading", "radius")}
    columns["label"] = np.argsort(order)[observed.label]
    next_id = s.next_id + fresh.size
    state = observed.derive(MacroState, **columns, ids=ids, next_id=next_id, world=s.world)
    state.check("ids")
    return state


def macro_step(s: MacroState, p: SteeringParams) -> MacroState:
    """One synchronous step of every flock; never creates or destroys flocks.

    Mates are the other flocks with a gap of at most vision. The nearest
    mate (smallest gap, lowest id on ties), if closer than min_separation,
    turns the flock away; otherwise it aligns with its mates' mean heading,
    then coheres toward their summed offset. It then advances by speed.
    """
    w = s.world
    x, y, h = boids_step(s.x, s.y, s.heading, s.radius, w, p)
    state = s.derive(x=wrap_array(x, w.width), y=wrap_array(y, w.height), heading=h)
    state.check("x", "y", "heading")
    return state


def displacements(before: MacroState, after: MacroState) -> Displacements:
    """The after state's flocks with their displacement since before.

    (vx, vy) is the minimal torus delta between the two centroids of a
    flock id.
    """
    if not np.array_equal(before.ids, after.ids):
        raise CouplingError("flock id sets differ between before and after states")
    w = before.world
    vx = wrapped_delta(before.x, after.x, w.width)
    vy = wrapped_delta(before.y, after.y, w.height)
    table = after.derive(Displacements, vx=vx, vy=vy)
    table.check("vx", "vy")
    return table


def flock_stats(flocks: Flocks) -> tuple[int, float, float]:
    """Flock count, mean member count and mean radius (zeros when empty)."""
    n = len(flocks)
    if n == 0:
        return 0, 0.0, 0.0
    # summed one by one, left to right, as a loop over the flocks adds them
    return n, flocks.members.size / n, sum(flocks.radius.tolist()) / n
