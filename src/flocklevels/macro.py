"""The collective-level model: flocks as first-class agents.

A flock carries a centroid, a heading, a radius and the set of member
bird ids. Flocks steer by the same bounded-turn separation / alignment /
cohesion rules as individual birds, except that distances are size-aware:
the effective distance between two flocks is the gap between their
bounding circles, never negative.

The step runs over arrays. Candidate pairs come from the cell-grid
search at radius vision + 2 max(radius), widened by a relative 1e-9 since
a rounded gap can reach vision from an ulp further out; `mate_sums`, the
reduction the boids step uses, reduces the pairs whose gap is at most
vision, and `steer`, the rule the boids step also uses, turns every flock
at once. The result is bit for bit that of the per-flock rule, since
both levels take their bearings from libm: `steer` calls `math.atan2`
(numpy's own atan2 differs from it in the last bit on some inputs, how
often depending on the SIMD code numpy dispatches to), and takes the
separation bearing from the reverse delta, torus_delta(nearest, flock),
since the negated forward delta rounds differently. Distances come from
`np.hypot`, which can differ from `math.hypot` in the last bit; that
moves a decision only at a tie within one ulp.

The registry is kept in sync with the cluster observations coming up
from the individual level: observed clusters are matched to registered
flocks by member-set overlap (Jaccard), matched flocks keep their id,
new clusters become new flocks, vanished flocks are dropped. Fusion and
splitting are not modelled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import CouplingError
from .geometry import (
    TorusWorld,
    mate_sums,
    steer,
    torus_delta,
    torus_neighbours,
    wrap_array,
)
from .micro import SteeringParams

__all__ = [
    "Flock",
    "MacroState",
    "DisplacementList",
    "sync_registry",
    "macro_step",
    "displacements",
    "flock_stats",
]


@dataclass(frozen=True)
class Flock:
    flock_id: int
    centroid: tuple[float, float]
    heading: float
    radius: float
    members: frozenset[int]

    def __post_init__(self) -> None:
        for name, values in (
            ("centroid", self.centroid),
            ("heading", (self.heading,)),
            ("radius", (self.radius,)),
        ):
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.radius < 0:
            raise ValueError("radius must be >= 0")
        if not self.members:
            raise ValueError("a registered flock must have members")


@dataclass(frozen=True)
class MacroState:
    flocks: tuple[Flock, ...]
    next_id: int
    macro_tick: int
    world: TorusWorld

    def __post_init__(self) -> None:
        flocks = tuple(sorted(self.flocks, key=lambda f: f.flock_id))
        ids = [f.flock_id for f in flocks]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate flock ids")
        if ids and self.next_id <= max(ids):
            raise ValueError("next_id must exceed every issued id")
        object.__setattr__(self, "flocks", flocks)


# Per live flock: (flock_id, members, displacement vector, heading).
DisplacementList = list[tuple[int, frozenset[int], tuple[float, float], float]]


def _jaccard(a: frozenset[int], b: frozenset[int]) -> float:
    inter = len(a & b)
    if inter == 0:
        return 0.0
    return inter / len(a | b)


def sync_registry(s: MacroState, observations: list) -> MacroState:
    """Reconcile the registry with one batch of cluster observations.

    Greedy maximum-overlap matching on member sets: pairs are taken in
    descending Jaccard order (ties by lowest existing flock id, then by
    the observation's lowest member id); zero-overlap pairs never match.
    Matched flocks keep their id and adopt the observed centroid, heading,
    radius and members; leftover observations become new flocks; leftover
    registered flocks are removed.
    """
    seen: set[int] = set()
    for obs in observations:
        dup = seen & set(obs.members)
        if dup:
            raise CouplingError(f"bird ids in multiple observations: {sorted(dup)}")
        seen |= set(obs.members)

    candidates = []
    for f in s.flocks:
        for k, obs in enumerate(observations):
            j = _jaccard(f.members, frozenset(obs.members))
            if j > 0.0:
                candidates.append((j, f.flock_id, min(obs.members), k, f))
    candidates.sort(key=lambda c: (-c[0], c[1], c[2]))

    matched_flocks: set[int] = set()
    matched_obs: set[int] = set()
    updated: list[Flock] = []
    for _, fid, _, k, f in candidates:
        if fid in matched_flocks or k in matched_obs:
            continue
        matched_flocks.add(fid)
        matched_obs.add(k)
        obs = observations[k]
        updated.append(
            Flock(fid, obs.centroid, obs.heading, obs.radius, frozenset(obs.members))
        )

    next_id = s.next_id
    for k, obs in enumerate(observations):
        if k in matched_obs:
            continue
        updated.append(
            Flock(
                next_id, obs.centroid, obs.heading, obs.radius, frozenset(obs.members)
            )
        )
        next_id += 1

    return MacroState(
        flocks=tuple(updated), next_id=next_id, macro_tick=s.macro_tick, world=s.world
    )


def macro_step(s: MacroState, p: SteeringParams) -> MacroState:
    """One synchronous step of every flock; never creates or destroys flocks.

    Mates are the other flocks with a gap of at most vision. The nearest
    mate (smallest gap, lowest id on ties), if closer than min_separation,
    turns the flock away; otherwise it aligns with its mates' mean heading,
    then coheres toward their summed offset. It then advances by speed.
    """
    flocks = s.flocks
    w = s.world
    n = len(flocks)
    x, y, h, r = np.array(
        [(*f.centroid, f.heading, f.radius) for f in flocks]
    ).reshape(n, 4).T

    reach = (p.vision + 2.0 * r.max(initial=0.0)) * (1.0 + 1e-9)
    i, j, dx, dy, dist = torus_neighbours(x, y, reach, w)
    gap = np.maximum(dist - r[i] - r[j], 0.0)
    keep = np.flatnonzero(gap <= p.vision)
    hr = np.radians(h)
    sums = mate_sums(
        i[keep], j[keep], gap[keep], dx[keep], dy[keep], np.cos(hr), np.sin(hr), n
    )
    h = steer(h, x, y, w, p, *sums)
    hr = np.radians(h)
    x = wrap_array(x + p.speed * np.cos(hr), w.width)
    y = wrap_array(y + p.speed * np.sin(hr), w.height)
    new_flocks = tuple(
        Flock(f.flock_id, c, heading, f.radius, f.members)
        for f, c, heading in zip(flocks, zip(x.tolist(), y.tolist()), h.tolist())
    )
    return replace(s, flocks=new_flocks, macro_tick=s.macro_tick + 1)


def displacements(before: MacroState, after: MacroState) -> DisplacementList:
    """Per-flock displacement between two registry snapshots.

    v is the minimal torus delta between the centroids; heading and
    members are taken from the after state.
    """
    before_by_id = {f.flock_id: f for f in before.flocks}
    after_ids = {f.flock_id for f in after.flocks}
    if set(before_by_id) != after_ids:
        raise CouplingError("flock id sets differ between before and after states")
    out: DisplacementList = []
    for f in after.flocks:
        v = torus_delta(before_by_id[f.flock_id].centroid, f.centroid, before.world)
        out.append((f.flock_id, f.members, v, f.heading))
    return out


def flock_stats(flocks: list) -> tuple[int, float, float]:
    """Flock count, mean member count and mean radius (zeros when empty)."""
    n = len(flocks)
    if n == 0:
        return 0, 0.0, 0.0
    mean_size = sum(len(f.members) for f in flocks) / n
    mean_radius = sum(f.radius for f in flocks) / n
    return n, mean_size, mean_radius
