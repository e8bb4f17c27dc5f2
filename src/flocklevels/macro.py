"""The collective-level model: flocks as first-class agents.

A flock carries a centroid, a heading, a radius and the set of member
bird ids. Flocks steer by the same bounded-turn separation / alignment /
cohesion rules as individual birds, except that distances are size-aware:
the effective distance between two flocks is the gap between their
bounding circles, never negative.

The registry is kept in sync with the cluster observations coming up
from the individual level: observed clusters are matched to registered
flocks by member-set overlap (Jaccard), matched flocks keep their id,
new clusters become new flocks, vanished flocks are dropped. Fusion and
splitting are not modelled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import CouplingError
from .geometry import (
    ZERO_RESULTANT_EPS,
    TorusWorld,
    UndefinedMeanError,
    circular_mean,
    heading_unit,
    normalize_heading,
    torus_delta,
    torus_distance,
    turn_towards,
    wrap,
)
from .micro import MicroParams

__all__ = [
    "Flock",
    "MacroParams",
    "MacroState",
    "DisplacementList",
    "sync_registry",
    "macro_step",
    "displacements",
]


@dataclass(frozen=True)
class Flock:
    flock_id: int
    centroid: tuple[float, float]
    heading: float
    radius: float
    members: frozenset[int]

    def __post_init__(self) -> None:
        if self.radius < 0:
            raise ValueError("radius must be >= 0")
        if not self.members:
            raise ValueError("a registered flock must have members")


@dataclass(frozen=True)
class MacroParams:
    vision: float = 10.0
    min_separation: float = 1.0
    max_align_turn: float = 5.0
    max_cohere_turn: float = 3.0
    max_separate_turn: float = 1.5
    speed: float = 1.0

    # the flock-level rule takes the same parameters as the per-bird rule
    __post_init__ = MicroParams.__post_init__


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


def _effective_distance(a: Flock, b: Flock, w: TorusWorld) -> float:
    return max(0.0, torus_distance(a.centroid, b.centroid, w) - a.radius - b.radius)


def _steer_flock(f: Flock, others: list[Flock], p: MacroParams, w: TorusWorld) -> float:
    mates = [o for o in others if _effective_distance(f, o, w) <= p.vision]
    heading = f.heading
    if not mates:
        return heading
    nearest = min(mates, key=lambda o: (_effective_distance(f, o, w), o.flock_id))
    if _effective_distance(f, nearest, w) < p.min_separation:
        dx, dy = torus_delta(nearest.centroid, f.centroid, w)
        away = normalize_heading(math.degrees(math.atan2(dy, dx)))
        return turn_towards(heading, away, p.max_separate_turn)
    try:
        mean_h = circular_mean([o.heading for o in mates])
        heading = turn_towards(heading, mean_h, p.max_align_turn)
    except UndefinedMeanError:
        pass
    cx = 0.0
    cy = 0.0
    for o in mates:
        dx, dy = torus_delta(f.centroid, o.centroid, w)
        cx += dx
        cy += dy
    if math.hypot(cx, cy) >= ZERO_RESULTANT_EPS:
        target = normalize_heading(math.degrees(math.atan2(cy, cx)))
        heading = turn_towards(heading, target, p.max_cohere_turn)
    return heading


def macro_step(s: MacroState, p: MacroParams) -> MacroState:
    """One synchronous step of every flock; never creates or destroys flocks."""
    new_flocks = []
    for f in s.flocks:
        others = [o for o in s.flocks if o.flock_id != f.flock_id]
        heading = _steer_flock(f, others, p, s.world)
        ux, uy = heading_unit(heading)
        centroid = wrap(
            (f.centroid[0] + p.speed * ux, f.centroid[1] + p.speed * uy), s.world
        )
        new_flocks.append(replace(f, centroid=centroid, heading=heading))
    return replace(s, flocks=tuple(new_flocks), macro_tick=s.macro_tick + 1)


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
