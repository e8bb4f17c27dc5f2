"""Toroidal 2-D world arithmetic, circular (angular) statistics, a
cell-grid search for all pairs of points within a radius, the per-point
sums over those pairs and the bounded-turn steering rule that birds and
flocks share.

The search comes in two forms on one candidate step (grid, gather and a
prefilter on the unsigned wrapped gaps): `torus_neighbours` returns the
pairs sorted, with their deltas and distances, for the steering rules;
`torus_links` returns only the pairs, unsorted, for cluster detection,
and skips the exact delta wherever the squared gap already decides.

All angles are degrees in the mathematical convention: 0 deg points along
+x, positive angles turn counterclockwise, headings live in [0, 360).
Positions live in the half-open box [0, width) x [0, height); opposite
edges of the box are identified (the world is a torus).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TorusWorld",
    "UndefinedMeanError",
    "wrap_scalar",
    "wrap_array",
    "normalize_heading",
    "heading_of_resultant",
    "torus_neighbours",
    "torus_links",
    "mate_sums",
    "steer",
]

# Resultant vectors shorter than this are treated as zero (undefined mean).
ZERO_RESULTANT_EPS = 1e-9


class UndefinedMeanError(ValueError):
    """Raised when a circular mean is requested for a zero-resultant set."""


@dataclass(frozen=True)
class TorusWorld:
    width: float
    height: float

    def __post_init__(self) -> None:
        for name in ("width", "height"):
            extent = getattr(self, name)
            if not (extent > 0 and math.isfinite(extent)):
                raise ValueError(f"{name} must be positive and finite, got {extent!r}")


def wrap_scalar(x: float, extent: float) -> float:
    """Reduce one coordinate into [0, extent)."""
    if not math.isfinite(x):
        raise ValueError(f"non-finite coordinate: {x!r}")
    r = x % extent
    # float modulo can land exactly on the extent for tiny negative inputs
    return 0.0 if r >= extent else r


def wrap_array(a: np.ndarray, extent: float) -> np.ndarray:
    """Reduce every finite value into [0, extent), as wrap_scalar does
    one. A non-finite value, which wrap_scalar rejects, gives NaN."""
    r = a % extent
    return np.where(r >= extent, 0.0, r)


def normalize_heading(deg: float) -> float:
    """Reduce an angle to [0, 360)."""
    h = deg % 360.0
    return 0.0 if h >= 360.0 else h


def heading_of_resultant(sx: float, sy: float, n: int) -> float:
    """Heading of the resultant (sx, sy) of n heading unit vectors.

    Raises UndefinedMeanError when the resultant is (numerically) zero.
    """
    if math.hypot(sx, sy) < ZERO_RESULTANT_EPS * n:
        raise UndefinedMeanError("zero resultant, mean undefined")
    return normalize_heading(math.degrees(math.atan2(sy, sx)))


def _candidates(
    x: np.ndarray,
    y: np.ndarray,
    r: float,
    world: TorusWorld,
    rows: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Candidate pairs for a search at radius r, from a periodic grid.

    Returns (i, j, g2, reach): every pair of a query point i (rows, or
    every point) and a point j of its own or an adjacent cell, i == j
    included; the squared unsigned wrapped gap of each pair; and the
    rounding slack over r. Every pair within torus distance r (closed)
    has g2 <= reach * reach.

    The cells are at least reach wide, so a point is only compared with
    the points of its own and the 8 adjacent cells. Memory is O(n +
    candidate pairs).
    """
    n = x.shape[0]
    width, height = world.width, world.height
    # Slack for rounding: a point near a cell edge may get either cell
    # index, and the unsigned gap may differ from the exact delta by a
    # few ulps of the extent.
    reach = r * (1.0 + 1e-9) + 1e-12 * max(width, height)
    # cells at least reach wide; the second bound caps the grid at about
    # n cells, also for r = 0
    cell = max(reach, math.sqrt(width * height / max(n, 1)))
    nx = max(1, int(width // cell))
    ny = max(1, int(height // cell))
    xw, yw = x % width, y % height
    # % nx: a coordinate just below the extent may round up to index nx
    cx = (xw * (nx / width)).astype(np.int64) % nx
    cy = (yw * (ny / height)).astype(np.int64) % ny

    # points grouped by cell
    cid = cx * ny + cy
    order = np.argsort(cid)
    counts = np.bincount(cid, minlength=nx * ny)
    starts = np.cumsum(counts) - counts

    # each adjacent cell once, also on axes with fewer than 3 cells
    ox = np.array(sorted({-1 % nx, 0, 1 % nx}))
    oy = np.array(sorted({-1 % ny, 0, 1 % ny}))
    qx, qy, q = (cx, cy, np.arange(n)) if rows is None else (cx[rows], cy[rows], rows)
    near = (
        ((qx[:, None, None] + ox[None, :, None]) % nx) * ny
        + (qy[:, None, None] + oy[None, None, :]) % ny
    ).reshape(-1)
    per_cell = counts[near]
    i = np.repeat(q.repeat(ox.size * oy.size), per_cell)
    first = np.repeat(starts[near] - (np.cumsum(per_cell) - per_cell), per_cell)
    j = order[first + np.arange(i.size)]

    gx = np.abs(xw[j] - xw[i])
    gx = np.minimum(gx, width - gx)
    gy = np.abs(yw[j] - yw[i])
    gy = np.minimum(gy, height - gy)
    return i, j, gx * gx + gy * gy, reach


def _exact(x, y, i, j, world: TorusWorld):
    """The wrapped delta (dx, dy) from point i to point j, and its length."""
    width, height = world.width, world.height
    dx = (x[j] - x[i] + width / 2.0) % width - width / 2.0
    dy = (y[j] - y[i] + height / 2.0) % height - height / 2.0
    return dx, dy, np.hypot(dx, dy)


def torus_neighbours(
    x: np.ndarray,
    y: np.ndarray,
    r: float,
    world: TorusWorld,
    rows: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every ordered pair of points within torus distance r (closed).

    Returns (i, j, dx, dy, dist): the index pairs with i != j, sorted by
    (i, j); the delta (b - a + extent / 2) % extent - extent / 2 from point
    i to point j per axis; and np.hypot(dx, dy). A pair is kept iff dist <= r.

    rows, when given, are the ascending indices of the query points: only
    the pairs whose i is in rows are returned, while j still ranges over
    every point. They are the same pairs, with the same bits, as those of
    the full search whose i is in rows.
    """
    i, j, g2, reach = _candidates(x, y, r, world, rows)
    # the unsigned gaps give a superset of the exact test
    pre = np.flatnonzero((g2 <= reach * reach) & (i != j))
    i, j = i[pre], j[pre]
    dx, dy, dist = _exact(x, y, i, j, world)
    keep = np.flatnonzero(dist <= r)
    # each candidate pair occurs once, so the (i, j) keys are unique
    keep = keep[np.argsort(i[keep] * x.shape[0] + j[keep])]
    return i[keep], j[keep], dx[keep], dy[keep], dist[keep]


# Below this a square may have lost bits to underflow (tiny / eps).
_SQUARE_FLOOR = np.finfo(float).tiny / np.finfo(float).eps


def torus_links(
    x: np.ndarray, y: np.ndarray, r: float, world: TorusWorld
) -> tuple[np.ndarray, np.ndarray]:
    """The (i, j) pairs of torus_neighbours(x, y, r, world), unsorted.

    A two-sided test on the squared unsigned gap: a pair within the inner
    bound, r less the slack that torus_neighbours adds for rounding, is
    within r by the exact test too, and is kept without computing its
    delta; a pair beyond reach is dropped. Only the pairs in between get
    the exact delta and np.hypot. Where a square overflows or may have
    lost bits to underflow, every candidate gets the exact test.
    """
    i, j, g2, reach = _candidates(x, y, r, world, None)
    inner = r * (1.0 - 1e-9) - 1e-12 * max(world.width, world.height)
    inner2, reach2 = inner * inner, reach * reach
    if inner > 0.0 and inner2 >= _SQUARE_FLOOR and reach2 < math.inf:
        sure = g2 <= inner2
        links = np.flatnonzero(sure & (i != j))
        test = np.flatnonzero(~sure & (g2 <= reach2))
    else:
        links = np.empty(0, np.int64)
        test = np.flatnonzero((g2 <= reach2) & (i != j))
    ti, tj = i[test], j[test]
    ok = _exact(x, y, ti, tj, world)[2] <= r
    return (
        np.concatenate((i[links], ti[ok])),
        np.concatenate((j[links], tj[ok])),
    )


def mate_sums(i, j, d, dx, dy, ux, uy, n: int) -> tuple[np.ndarray, ...]:
    """Per-point reduction over mate pairs (i, j) sorted by (i, j).

    d ranks the mates, (dx, dy) is the delta from i to j and (ux, uy) the
    heading unit of every point. Returns (count, nearest, nearest_d, sx,
    sy, cx, cy): mates per point; the index of its nearest mate (smallest
    d, lowest j on ties; -1 without mates); the smallest d (inf without
    mates); the sums of the mates' ux and uy; and of dx and dy. Sums run
    over the mates in ascending j, as a per-point loop would add them.
    """
    count = np.bincount(i, minlength=n)
    rows = np.flatnonzero(count)
    row_start = (np.cumsum(count) - count)[rows]
    nearest_d = np.full(n, np.inf)
    nearest_d[rows] = np.minimum.reduceat(d, row_start)
    at_min = np.where(d == nearest_d[i], np.arange(i.size), i.size)
    nearest = np.full(n, -1)
    nearest[rows] = j[np.minimum.reduceat(at_min, row_start)]
    sx = np.bincount(i, weights=ux[j], minlength=n)
    sy = np.bincount(i, weights=uy[j], minlength=n)
    cx = np.bincount(i, weights=dx, minlength=n)
    cy = np.bincount(i, weights=dy, minlength=n)
    return count, nearest, nearest_d, sx, sy, cx, cy


def _bearing(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Heading of each vector (dx, dy), its atan2 taken with libm."""
    a = np.fromiter(map(math.atan2, dy.tolist(), dx.tolist()), float, dx.size)
    return wrap_array(np.degrees(a), 360.0)


def _turn(cur: np.ndarray, tgt: np.ndarray, max_turn: float) -> np.ndarray:
    """Each heading turned toward its target by at most max_turn: the
    target itself when within reach, else max_turn the shorter way
    (counterclockwise on a 180 tie)."""
    d = (tgt - cur + 180.0) % 360.0 - 180.0
    d[d == -180.0] = 180.0
    out = np.where(np.abs(d) <= max_turn, tgt, cur + np.copysign(max_turn, d))
    return wrap_array(out, 360.0)


def steer(h, x, y, world: TorusWorld, p, count, nearest, nearest_d, sx, sy, cx, cy):
    """New heading of every point under the bounded-turn boids rule.

    h, x and y are the points' headings and positions, p the turn bounds
    (SteeringParams) and the rest the per-point reduction of mate_sums,
    by point distance for birds and by gap for flocks. A point whose
    nearest mate is closer than min_separation turns away from it, along
    the delta from the mate to the point; any other point with mates
    aligns with its mates' mean heading, unless their resultant is zero,
    then coheres toward their summed offset, unless it is zero. A point
    without mates keeps its heading. Each bearing is taken with libm's
    atan2, only for the points that turn.
    """
    out = h.copy()
    sep = nearest_d < p.min_separation
    rows = np.flatnonzero(sep)
    if rows.size:
        mate, width, height = nearest[rows], world.width, world.height
        dx = (x[rows] - x[mate] + width / 2.0) % width - width / 2.0
        dy = (y[rows] - y[mate] + height / 2.0) % height - height / 2.0
        out[rows] = _turn(h[rows], _bearing(dx, dy), p.max_separate_turn)
    free = (count > 0) & ~sep
    rows = np.flatnonzero(free & (np.hypot(sx, sy) >= ZERO_RESULTANT_EPS * count))
    if rows.size:
        out[rows] = _turn(out[rows], _bearing(sx[rows], sy[rows]), p.max_align_turn)
    rows = np.flatnonzero(free & (np.hypot(cx, cy) >= ZERO_RESULTANT_EPS))
    if rows.size:
        out[rows] = _turn(out[rows], _bearing(cx[rows], cy[rows]), p.max_cohere_turn)
    return out
