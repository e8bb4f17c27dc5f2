"""The individual-level flocking model: boids on a torus.

Each bird carries an id, a position and a heading and steers by the
classic separation / alignment / cohesion rules with bounded turns.
Birds can additionally be driven by external movement commands (a rigid
displacement plus an imposed heading), which bypass the boids rules for
that tick.

The population update is synchronous (double-buffered): every bird's new
state is computed from the pre-step state, so storage order never affects
the outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import CouplingError
from .geometry import (
    ZERO_RESULTANT_EPS,
    TorusWorld,
    mate_sums,
    normalize_heading,
    torus_neighbours,
)

__all__ = [
    "Bird",
    "MicroParams",
    "MicroState",
    "init_random",
    "micro_step",
    "observe",
]

# A movement command: rigid displacement vector plus imposed heading.
Command = tuple[tuple[float, float], float]
# Per-tick map bird id -> command.
CommandSet = dict[int, Command]
# Snapshot of the population: (id, position, heading), ascending id.
MicroObservation = list[tuple[int, tuple[float, float], float]]


@dataclass(frozen=True)
class Bird:
    id: int
    pos: tuple[float, float]
    heading: float


@dataclass(frozen=True)
class MicroParams:
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
        if self.vision < self.min_separation:
            raise ValueError("vision must be >= min_separation")


@dataclass(frozen=True)
class MicroState:
    birds: tuple[Bird, ...]
    tick: int
    world: TorusWorld

    def __post_init__(self) -> None:
        # canonical storage order: ascending id; also enforces uniqueness
        birds = tuple(sorted(self.birds, key=lambda b: b.id))
        ids = [b.id for b in birds]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate bird ids")
        object.__setattr__(self, "birds", birds)


def init_random(n: int, world: TorusWorld, rng: np.random.Generator) -> MicroState:
    """n birds with ids 0..n-1, uniform positions and headings."""
    if n < 0:
        raise ValueError("n must be >= 0")
    xs = rng.uniform(0.0, world.width, n)
    ys = rng.uniform(0.0, world.height, n)
    hs = rng.uniform(0.0, 360.0, n)
    birds = tuple(
        Bird(i, (float(xs[i]), float(ys[i])), float(hs[i])) for i in range(n)
    )
    return MicroState(birds=birds, tick=0, world=world)


def _wrap_array(a: np.ndarray, extent: float) -> np.ndarray:
    r = a % extent
    return np.where(r >= extent, 0.0, r)


def _norm_heading_array(h: np.ndarray) -> np.ndarray:
    r = h % 360.0
    return np.where(r >= 360.0, 0.0, r)


def _turn_array(cur: np.ndarray, tgt: np.ndarray, max_turn: float) -> np.ndarray:
    d = (tgt - cur + 180.0) % 360.0 - 180.0
    d = np.where(d == -180.0, 180.0, d)
    out = np.where(np.abs(d) <= max_turn, tgt, cur + np.sign(d) * max_turn)
    return _norm_heading_array(out)


def _step_all_autonomous(
    x: np.ndarray, y: np.ndarray, h: np.ndarray, p: MicroParams, w: TorusWorld
) -> np.ndarray:
    """Vectorized boids headings for the whole population (pre-move).

    Per-bird sums run over the mates in ascending id order, as in
    circular_mean and in the per-bird rule the tests check against.
    """
    n = x.shape[0]
    i, j, dx, dy, dist = torus_neighbours(x, y, p.vision, w)
    hr = np.radians(h)
    count, rows, nearest, nearest_dist, sx, sy, cx, cy = mate_sums(
        i, j, dist, dx, dy, np.cos(hr), np.sin(hr), n
    )
    has_mates = count > 0
    sep = nearest_dist < p.min_separation

    # separation: turn toward the bearing away from the nearest mate;
    # + 0.0 turns -0.0 into 0.0, so a coincident mate gives bearing 0 as
    # math.atan2 of the reverse delta does
    away = np.zeros(n)
    away[rows] = np.degrees(np.arctan2(-dy[nearest] + 0.0, -dx[nearest] + 0.0))
    h_sep = _turn_array(h, _norm_heading_array(away), p.max_separate_turn)

    align_ok = np.hypot(sx, sy) >= ZERO_RESULTANT_EPS * np.maximum(count, 1.0)
    align_tgt = _norm_heading_array(np.degrees(np.arctan2(sy, sx)))

    coh_ok = np.hypot(cx, cy) >= ZERO_RESULTANT_EPS
    coh_tgt = _norm_heading_array(np.degrees(np.arctan2(cy, cx)))

    free = has_mates & ~sep
    h_a = np.where(free & align_ok, _turn_array(h, align_tgt, p.max_align_turn), h)
    h_c = np.where(
        free & coh_ok, _turn_array(h_a, coh_tgt, p.max_cohere_turn), h_a
    )
    return np.where(sep, h_sep, h_c)


def micro_step(
    s: MicroState, cmds: CommandSet | None, p: MicroParams
) -> MicroState:
    """Advance the whole population by one tick.

    Commanded birds move rigidly per their command; every other bird runs
    the boids rules against the pre-step state.
    """
    n = len(s.birds)
    ids = [b.id for b in s.birds]
    if cmds:
        unknown = set(cmds) - set(ids)
        if unknown:
            raise CouplingError(f"commands for unknown bird ids: {sorted(unknown)}")
    if n == 0:
        return replace(s, tick=s.tick + 1)

    x = np.array([b.pos[0] for b in s.birds])
    y = np.array([b.pos[1] for b in s.birds])
    h = np.array([b.heading for b in s.birds])

    new_h = _step_all_autonomous(x, y, h, p, s.world)
    hr = np.radians(new_h)
    new_x = x + p.speed * np.cos(hr)
    new_y = y + p.speed * np.sin(hr)

    if cmds:
        index = {bid: i for i, bid in enumerate(ids)}
        for bid, ((vx, vy), ch) in cmds.items():
            i = index[bid]
            new_x[i] = x[i] + vx
            new_y[i] = y[i] + vy
            new_h[i] = normalize_heading(ch)

    new_x = _wrap_array(new_x, s.world.width)
    new_y = _wrap_array(new_y, s.world.height)
    birds = tuple(
        Bird(ids[i], (float(new_x[i]), float(new_y[i])), float(new_h[i]))
        for i in range(n)
    )
    return MicroState(birds=birds, tick=s.tick + 1, world=s.world)


def observe(s: MicroState) -> MicroObservation:
    """Ordered read-only snapshot: (id, position, heading) per bird."""
    return [(b.id, b.pos, b.heading) for b in s.birds]
