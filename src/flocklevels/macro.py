"""The collective-level model: flocks as first-class agents.

The flocks of one snapshot are one `Flocks` table of columns, which the
registry (`MacroState`) holds in ascending flock id. Flocks steer by the
same bounded-turn separation / alignment / cohesion rules as individual
birds, except that distances are size-aware: the effective distance
between two flocks is the gap between their bounding circles, never
negative.

The step runs over arrays. Candidate pairs come from the cell-grid
search at radius vision + 2 max(radius), widened by a relative 1e-9 since
a rounded gap can reach vision from an ulp further out; `mate_sums`, the
reduction the boids step uses, reduces the pairs whose gap is at most
vision, and `steer`, the rule the boids step also uses, turns every flock
at once. The result is bit for bit that of the per-flock rule, since
both levels take their bearings from libm: `steer` calls `math.atan2`
(numpy's own atan2 differs from it in the last bit on some inputs, how
often depending on the SIMD code numpy dispatches to), and takes the
separation bearing from the reverse delta, from the nearest mate to the
flock, since the negated forward delta rounds differently. Distances
come from `np.hypot`, which can differ from `math.hypot` in the last
bit; that moves a decision only at a tie within one ulp.

The registry is kept in sync with the flocks observed at the individual
level: observed flocks are matched to registered ones by member-set
overlap (Jaccard, counted from the two label columns), matched flocks
keep their id, new ones get fresh ids, vanished ones are dropped. Fusion
and splitting are not modelled.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import CouplingError
from .geometry import (
    TorusWorld,
    mate_sums,
    steer,
    torus_neighbours,
    wrap_array,
    wrapped_delta,
)
from .micro import Columns, SteeringParams, freeze_column

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
    holds the id of every member bird, strictly ascending (KEY), and label
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
    KEY = "members"
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
class MacroState:
    """The flock registry: its flocks in ascending flock id."""

    flocks: Flocks
    ids: np.ndarray
    next_id: int
    world: TorusWorld

    def __post_init__(self) -> None:
        ids = freeze_column(self, "ids", np.int64, len(self.flocks))
        if (ids[1:] <= ids[:-1]).any():
            raise ValueError("flock ids must be unique and ascending")
        if ids.size and self.next_id <= ids[-1]:
            raise ValueError("next_id must exceed every issued id")


def sync_registry(s: MacroState, observed: Flocks) -> MacroState:
    """Reconcile the registry with the flocks observed in one snapshot.

    Greedy maximum-overlap matching on member sets: pairs are taken in
    descending Jaccard order (ties by lowest existing flock id, then by
    the observed flock's lowest member id); zero-overlap pairs never
    match. Matched flocks keep their id and adopt the observed centroid,
    heading, radius and members; the other observed flocks get fresh
    ids in row order; the other registered flocks are removed.
    """
    old, f, k = s.flocks, len(s.flocks), len(observed)
    ids = np.full(k, -1, dtype=np.int64)
    if f and k:
        _, a, b = np.intersect1d(
            old.members, observed.members, assume_unique=True, return_indices=True
        )
        # overlap of every (registered, observed) pair, nonzero ones only
        inter = np.bincount(old.label[a] * k + observed.label[b], minlength=f * k)
        pair = np.flatnonzero(inter)
        fo, ko = np.divmod(pair, k)
        union = (
            np.bincount(old.label, minlength=f)[fo]
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

    flocks = observed
    if (ids[1:] < ids[:-1]).any():
        # rows in flock id order; each member's label follows its row. A
        # permutation of a checked table's rows, so nothing is re-checked.
        order = np.argsort(ids)
        ids = ids[order]
        columns = {c: getattr(observed, c)[order] for c in ("x", "y", "heading", "radius")}
        flocks = observed.derive(**columns, label=np.argsort(order)[observed.label])
    return MacroState(flocks, ids, s.next_id + fresh.size, s.world)


def macro_step(s: MacroState, p: SteeringParams) -> MacroState:
    """One synchronous step of every flock; never creates or destroys flocks.

    Mates are the other flocks with a gap of at most vision. The nearest
    mate (smallest gap, lowest id on ties), if closer than min_separation,
    turns the flock away; otherwise it aligns with its mates' mean heading,
    then coheres toward their summed offset. It then advances by speed.
    """
    fl, w = s.flocks, s.world
    x, y, h, r = fl.x, fl.y, fl.heading, fl.radius

    reach = (p.vision + 2.0 * r.max(initial=0.0)) * (1.0 + 1e-9)
    i, j, dx, dy, dist = torus_neighbours(x, y, reach, w)
    gap = np.maximum(dist - r[i] - r[j], 0.0)
    keep = np.flatnonzero(gap <= p.vision)
    hr = np.radians(h)
    sums = mate_sums(
        i[keep], j[keep], gap[keep], dx[keep], dy[keep], np.cos(hr), np.sin(hr), len(fl)
    )
    h = steer(h, x, y, w, p, *sums)
    hr = np.radians(h)
    x = wrap_array(x + p.speed * np.cos(hr), w.width)
    y = wrap_array(y + p.speed * np.sin(hr), w.height)
    flocks = fl.derive(x=x, y=y, heading=h)
    flocks.check("x", "y", "heading")
    return replace(s, flocks=flocks)


def displacements(before: MacroState, after: MacroState) -> Displacements:
    """The after state's flocks with their displacement since before.

    (vx, vy) is the minimal torus delta between the two centroids of a
    flock id.
    """
    if not np.array_equal(before.ids, after.ids):
        raise CouplingError("flock id sets differ between before and after states")
    a, b, w = before.flocks, after.flocks, before.world
    vx = wrapped_delta(a.x, b.x, w.width)
    vy = wrapped_delta(a.y, b.y, w.height)
    table = b.derive(Displacements, vx=vx, vy=vy)
    table.check("vx", "vy")
    return table


def flock_stats(flocks: Flocks) -> tuple[int, float, float]:
    """Flock count, mean member count and mean radius (zeros when empty)."""
    n = len(flocks)
    if n == 0:
        return 0, 0.0, 0.0
    # summed one by one, left to right, as a loop over the flocks adds them
    return n, flocks.members.size / n, sum(flocks.radius.tolist()) / n
