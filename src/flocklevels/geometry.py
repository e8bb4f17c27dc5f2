"""Toroidal 2-D world arithmetic, a cell-grid search for all pairs of
discs or points within a radius, and the bounded-turn boids step that
birds and flocks share.

The search comes in two forms on one candidate step (grid, gather and
the unsigned wrapped gaps of each pair): `torus_neighbours` queries the
full stencil of its rows and returns the ordered pairs of discs within
gap r, sorted, with their deltas and gaps, for the boids step;
`torus_links` visits each unordered pair of points once, on a half
stencil, and returns it unsorted when np.hypot of its gaps is within r,
a length that is the same from either end, for cluster detection. The
candidate step and `torus_links` take an optional group column, so that
several point sets of one world share one search: every group shares one
grid, cells are keyed by (group, cell), and no pair crosses groups, so
each group gets the pairs it would get alone. The grid has at most one
cell per point of the mean group, whatever the world's shape.

`boids_step` moves birds and flocks alike: a bird is a disc of radius 0,
whose gap to a mate is their distance, bit for bit, and a flock the
bounding circle of its members. The gap of two discs is the distance of
their centres less both radii, never negative. The search runs at vision
+ 2 max(radius), widened by a relative 1e-9 since a rounded gap can
reach vision from an ulp further out, and keeps the pairs whose gap is
at most vision; `mate_sums` reduces them, and `steer` turns every
queried disc at once. The result is bit for bit that of the
one-agent-at-a-time rules, since both take their bearings from libm:
`steer` calls `math.atan2` (numpy's own atan2 differs from it in the
last bit on some inputs, how often depending on the SIMD code numpy
dispatches to), and takes the separation bearing from the reverse delta,
from the nearest mate to the disc, since the negated forward delta
rounds differently. Distances come from `np.hypot`, which can differ
from `math.hypot` in the last bit; that moves a decision only at a tie
within one ulp.

Extents lie in [1 / LENGTH_BOUND, LENGTH_BOUND], and speeds and search
radii are at most LENGTH_BOUND, so that every delta, move, search reach
and square formed from them stays finite and nonzero where it must.

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
    "LENGTH_BOUND",
    "TorusWorld",
    "wrap_array",
    "wrapped_delta",
    "torus_neighbours",
    "torus_links",
    "mate_sums",
    "steer",
    "boids_step",
]

# Resultant vectors shorter than this are treated as zero (undefined mean).
ZERO_RESULTANT_EPS = 1e-9

# The smallest normal float: the search's squared reach is floored here.
TINY = np.finfo(float).tiny

# The bound on every length: extents lie in [1 / LENGTH_BOUND,
# LENGTH_BOUND], and speed, vision and d_prox are at most LENGTH_BOUND.
# The largest value formed is the squared reach of the flock search,
# (vision + 2 x radius)^2, widened twice by 1 + 1e-9: about 5.9 L^2 for
# L = LENGTH_BOUND, since a flock's radius is at most half the diagonal
# of the world, which is finite. The lower bound keeps the search reach
# and the world's area nonzero.
LENGTH_BOUND = 2.0**500


@dataclass(frozen=True)
class TorusWorld:
    width: float
    height: float

    def __post_init__(self) -> None:
        for name in ("width", "height"):
            extent = getattr(self, name)
            if not 1.0 / LENGTH_BOUND <= extent <= LENGTH_BOUND:
                raise ValueError(
                    f"{name} must be positive and at most {LENGTH_BOUND!r}, and at"
                    f" least {1.0 / LENGTH_BOUND!r}, got {extent!r}"
                )


def wrap_array(a: np.ndarray, extent: float) -> np.ndarray:
    """Reduce every finite value into [0, extent): a % extent, except that
    a value just below 0 whose remainder rounds to the extent itself gives
    0. A non-finite value gives NaN."""
    r = a % extent
    r[r >= extent] = 0.0
    return r


def wrapped_delta(a, b, extent: float):
    """The minimal signed delta from a to b on an axis of the given extent,
    (b - a + extent / 2) % extent - extent / 2, per element."""
    return (b - a + extent / 2.0) % extent - extent / 2.0


# offsets to the adjacent cells along an axis; on an axis of c cells the
# first min(c, 3) of them name distinct cells
_ADJACENT = np.array([0, 1, -1])


def _candidates(
    x: np.ndarray,
    y: np.ndarray,
    r: float,
    world: TorusWorld,
    rows: np.ndarray | None,
    group: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """Candidate pairs for a search at radius r, from a periodic grid.

    Returns (i, j, gx, gy, reach): the candidate pairs; the unsigned
    wrapped gaps of each pair along x and y (of the coordinates reduced
    into the world), the same both ways; and r widened by the rounding
    slack. Every pair within torus distance r (closed) has gx * gx + gy *
    gy <= max(reach * reach, TINY): below TINY each square rounds to a
    whole multiple of the smallest subnormal, and their sum can exceed
    reach * reach for a pair exactly r apart.

    A query of rows pairs every query point i with every point j of its
    own and the adjacent cells, i == j included. rows None is the half
    stencil over every point, which gives each unordered pair with i !=
    j once: a point meets the points after it, in sorted cell order, in
    its own cell, and every point of the adjacent cells keyed above its
    own.

    group, when given, is the ascending group number (0, 1, ...) of every
    point, for several point sets in one world. Every group shares one
    grid and cells are keyed by (group, cell), so no pair crosses groups.
    None is one group of every point.

    The cells are at least reach wide, so a point is only compared with
    the points of its own and the 8 adjacent cells. The grid has at most
    m = max(1, ceil(n / groups)) cells, one per point of the mean group,
    so memory is O(n + candidate pairs).
    """
    n = x.shape[0]
    width, height = world.width, world.height
    # Slack for rounding: a point near a cell edge may get either cell
    # index, and the unsigned gap may differ from the exact delta by a
    # few ulps of the extent.
    reach = r * (1.0 + 1e-9) + 1e-12 * max(width, height)
    groups = 1 if group is None else int(group.max(initial=0)) + 1
    m = max(1, math.ceil(n / groups))
    # cells at least reach wide and about area / m large; each axis is
    # capped so that the grid has at most m cells, also for r = 0 and in
    # a thin world
    cell = max(reach, math.sqrt(width * height / m))
    nx = min(max(1, int(width // cell)), m)
    ny = min(max(1, int(height // cell)), m // nx)
    xw, yw = x % width, y % height
    # % nx: a coordinate just below the extent may round up to index nx
    cx = (xw * (nx / width)).astype(np.int64) % nx
    cy = (yw * (ny / height)).astype(np.int64) % ny

    # each adjacent cell once, also on axes with fewer than 3 cells
    kx, ky = min(nx, 3), min(ny, 3)
    qx, qy, q = (cx, cy, np.arange(n)) if rows is None else (cx[rows], cy[rows], rows)
    ax = (qx[:, None] + _ADJACENT[:kx]) % nx
    ay = (qy[:, None] + _ADJACENT[:ky]) % ny
    near = (ax * ny)[:, :, None] + ay[:, None, :]
    cid = cx * ny + cy
    if group is not None:
        # cells keyed by (group, cell): no pair crosses groups
        cid += group * (nx * ny)
        near += (group[q] * (nx * ny))[:, None, None]

    # points grouped by cell
    order = np.argsort(cid)
    counts = np.bincount(cid, minlength=groups * nx * ny)
    starts = np.cumsum(counts) - counts

    # per query point and adjacent cell, its own cell first: the sorted
    # position to start at and the number of points from there
    near = near.reshape(q.size, kx * ky)
    first, per_cell = starts[near], counts[near]
    if rows is None:
        # each unordered pair once: a point meets the points after it in
        # its own cell, and every point of the adjacent cells keyed above
        # its own
        after = np.empty(n, dtype=np.int64)
        after[order] = np.arange(1, n + 1)
        per_cell[:, 0] -= after - first[:, 0]
        first[:, 0] = after
        per_cell[near < cid[:, None]] = 0
    first, per_cell = first.reshape(-1), per_cell.reshape(-1)
    i = np.repeat(q.repeat(kx * ky), per_cell)
    j = np.repeat(first - (np.cumsum(per_cell) - per_cell), per_cell)
    j += np.arange(i.size)
    j = order[j]
    return i, j, _unsigned_gap(xw, i, j, width), _unsigned_gap(yw, i, j, height), reach


def _unsigned_gap(c, i, j, extent):
    """min(|c[j] - c[i]|, extent - |c[j] - c[i]|) per pair."""
    # the per-pair columns are the large arrays of a search; computing in
    # place keeps their count, and so the allocator's work, down
    g = c[j]
    g -= c[i]
    np.abs(g, out=g)
    return np.minimum(g, extent - g, out=g)


def torus_neighbours(
    x: np.ndarray,
    y: np.ndarray,
    radius: np.ndarray,
    r: float,
    world: TorusWorld,
    rows: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every ordered pair of discs within gap r (closed).

    The discs have centres (x, y) and radii radius, zeros for points.
    Returns (i, j, dx, dy, gap): the index pairs with i != j, sorted by
    (i, j); the delta (b - a + extent / 2) % extent - extent / 2 from
    centre i to centre j per axis; and max(np.hypot(dx, dy) - radius[i] -
    radius[j], 0), the distance itself, bit for bit, between points. A
    pair is kept iff gap <= r.

    rows, when given, are the ascending indices of the query discs: only
    the pairs whose i is in rows are returned, while j still ranges over
    every disc. They are the same pairs, with the same bits, as those of
    the full search whose i is in rows.
    """
    # the full stencil: every ordered pair, from a query of every row;
    # a rounded gap can reach r from an ulp further out than r + 2 radii
    rows = np.arange(x.shape[0]) if rows is None else rows
    reach = (r + 2.0 * radius.max(initial=0.0)) * (1.0 + 1e-9)
    i, j, gx, gy, reach = _candidates(x, y, reach, world, rows)
    # the unsigned gaps give a superset of the exact test; squared in place
    g2 = np.square(gx, out=gx)
    g2 += np.square(gy, out=gy)
    pre = np.flatnonzero((g2 <= max(reach * reach, TINY)) & (i != j))
    i, j = i[pre], j[pre]
    dx = wrapped_delta(x[i], x[j], world.width)
    dy = wrapped_delta(y[i], y[j], world.height)
    gap = np.hypot(dx, dy)
    gap -= radius[i]
    gap -= radius[j]
    np.maximum(gap, 0.0, out=gap)
    keep = np.flatnonzero(gap <= r)
    # each candidate pair occurs once, so the (i, j) keys are unique
    keep = keep[np.argsort(i[keep] * x.shape[0] + j[keep])]
    return i[keep], j[keep], dx[keep], dy[keep], gap[keep]


def torus_links(
    x: np.ndarray,
    y: np.ndarray,
    r: float,
    world: TorusWorld,
    group: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Every unordered pair of points within torus distance r (closed),
    once and unsorted.

    Returns (i, j), with i != j. A pair is kept iff np.hypot of its
    unsigned wrapped gaps, min(|b - a|, extent - |b - a|) per axis, is
    <= r: a length that is the same from either end, and that sees gaps
    below the resolution of the closed-form delta of torus_neighbours.

    group, when given, is the ascending group number of every point: the
    pairs are then those of each group's own search, offset by the
    group's first point.
    """
    i, j, gx, gy, _ = _candidates(x, y, r, world, None, group)
    keep = np.flatnonzero(np.hypot(gx, gy) <= r)
    return i[keep], j[keep]


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
    (SteeringParams) and the rest the per-point reduction of mate_sums
    by gap. A point whose nearest mate is closer than min_separation turns
    away from it, along the delta from the mate to the point; any other
    point with mates
    aligns with its mates' mean heading, unless their resultant is zero,
    then coheres toward their summed offset, unless it is zero. A point
    without mates keeps its heading. Each bearing is taken with libm's
    atan2, only for the points that turn.
    """
    out = h.copy()
    sep = nearest_d < p.min_separation
    rows = np.flatnonzero(sep)
    if rows.size:
        mate = nearest[rows]
        dx = wrapped_delta(x[mate], x[rows], world.width)
        dy = wrapped_delta(y[mate], y[rows], world.height)
        out[rows] = _turn(h[rows], _bearing(dx, dy), p.max_separate_turn)
    free = (count > 0) & ~sep
    rows = np.flatnonzero(free & (np.hypot(sx, sy) >= ZERO_RESULTANT_EPS * count))
    if rows.size:
        out[rows] = _turn(out[rows], _bearing(sx[rows], sy[rows]), p.max_align_turn)
    rows = np.flatnonzero(free & (np.hypot(cx, cy) >= ZERO_RESULTANT_EPS))
    if rows.size:
        out[rows] = _turn(out[rows], _bearing(cx[rows], cy[rows]), p.max_cohere_turn)
    return out


def boids_step(x, y, heading, radius, world: TorusWorld, p, rows=None):
    """One synchronous step of discs under the bounded-turn boids rule.

    The discs have centres (x, y), headings and radii radius, zeros for
    birds, and p holds the rule's bounds (SteeringParams). The rows,
    ascending, or every row when None, turn by `steer` against their
    mates, the other discs within gap vision in the pre-step state; the
    other rows keep their heading. Every row then advances by speed.
    Returns the new x, y and heading as new arrays, x and y not yet
    wrapped, so that a caller overwrites rows before its one wrap.
    """
    if rows is not None and rows.size == 0:
        # no row turns, as in about a quarter of the M1 and M2 steps at
        # 100 birds, where every bird is commanded: skip the fixed cost of
        # searching no rows
        h = heading.copy()
    else:
        i, j, dx, dy, gap = torus_neighbours(x, y, radius, p.vision, world, rows)
        hr = np.radians(heading)
        sums = mate_sums(i, j, gap, dx, dy, np.cos(hr), np.sin(hr), x.shape[0])
        h = steer(heading, x, y, world, p, *sums)
    hr = np.radians(h)
    return x + p.speed * np.cos(hr), y + p.speed * np.sin(hr), h
