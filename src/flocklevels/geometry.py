"""Toroidal 2-D world arithmetic, a cell-grid search for all pairs of
discs or points within a radius, and the bounded-turn boids step that
birds and flocks share.

The search comes in two forms on one candidate step (grid, gather and
the unsigned wrapped gaps of each pair, min(|b - a|, extent - |b - a|)
per axis) and one length, np.hypot of those gaps, the same from either
end: `torus_neighbours` queries the full stencil of its rows and returns
the ordered pairs of discs within gap r, sorted, with their deltas and
gaps, for the boids step; `torus_links` visits each unordered pair of
points once, on a half stencil, and returns it unsorted when its length
is within r, for cluster detection. So a pair of points is a mate both
ways or neither, and the mates at r are the links at r. The candidate
step and `torus_links` take an optional group column, so that several
point sets of one world share one search: every group shares one grid,
cells are keyed by (group, cell), and no pair crosses groups, so each
group gets the pairs it would get alone. The grid has at most one cell
per point of the mean group, whatever the world's shape. Its cells are
at least the search reach wide, and a point meets the points of the
3 x 3 cells around its own; where the mean spacing of a group's points
is below 0.6 of the reach, they are at least half the reach wide, and a
point meets the points of the 5 x 5 cells around its own, a smaller
area.

`boids_step` moves birds and flocks alike: a bird is a disc of radius 0,
and a flock the bounding circle of its members. The gap of two discs is
the length between their centres less both radii, never negative. The
search runs at vision + 2 max(radius) and keeps the pairs whose gap is
at most vision; only those get their signed deltas, from
`wrapped_delta`. `mate_sums` reduces them, and `steer` turns every
queried disc at once. The result is bit for bit that of the
one-agent-at-a-time rules, since both take their bearings from libm:
`steer` calls `math.atan2` (numpy's own atan2 differs from it in the
last bit on some inputs, how often depending on the SIMD code numpy
dispatches to), and takes the separation bearing from the reverse delta,
from the nearest mate to the disc, since the negated forward delta
rounds differently. Lengths come from `np.hypot`, which can differ
from `math.hypot` in the last bit; that moves a decision only at a tie
within one ulp.

Extents lie in [1 / LENGTH_BOUND, LENGTH_BOUND], and speeds and search
radii are at most LENGTH_BOUND, so that every delta, move, search reach
and area formed from them stays finite and nonzero where it must.

All angles are degrees in the mathematical convention: 0 deg points along
+x, positive angles turn counterclockwise, headings live in [0, 360).
Positions live in the half-open box [0, width) x [0, height); opposite
edges of the box are identified (the world is a torus). Every state holds
its coordinates and headings there (micro.Columns.check), so a delta
b - a of two coordinates lies in (-extent, extent), and of two headings
in (-360, 360): `wrapped_delta` needs one shift of t = b - a + extent / 2
at most, and cluster detection no remainder of a heading difference.
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

# The bound on every length: extents lie in [1 / LENGTH_BOUND,
# LENGTH_BOUND], and speed, vision and d_prox are at most LENGTH_BOUND.
# The largest value formed is the world's area, at most L^2 for L =
# LENGTH_BOUND, which is finite; the largest length is the reach of the
# flock search, vision + 2 x radius widened by 1 + 1e-9, about 2.4 L,
# since a flock's radius is at most half the diagonal of the world. The
# lower bound keeps the search reach and the world's area nonzero.
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
    (b - a + extent / 2) % extent - extent / 2, per element, bit for bit.

    t % extent is taken as the floor-mod takes it, less its division:
    np.fmod(t, extent), which is exact, plus extent where that is
    negative. a and b are arrays; for a and b in [0, extent], the domain
    of every state column (micro.Columns.check), t = b - a + extent / 2
    lies in [-extent / 2, 3 extent / 2], and the delta in [-extent / 2,
    extent / 2). An infinite a or b gives NaN, as the floor-mod does.
    """
    d = b - a
    d += extent / 2.0
    np.fmod(d, extent, out=d)
    d += (d < 0.0) * extent
    d -= extent / 2.0
    return d


# offsets to the cells of a stencil along an axis, nearest first; on an
# axis of c cells the first min(c, 2 depth + 1) of them name distinct cells
_OFFSETS = np.array([0, 1, -1, 2, -2])


def _candidates(
    x: np.ndarray,
    y: np.ndarray,
    r: float,
    world: TorusWorld,
    rows: np.ndarray | None,
    group: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """Candidate pairs for a search at radius r, from a periodic grid.

    x and y lie in [0, width) and [0, height), the domain of every state
    column (micro.Columns.check). Returns (i, j, gx, gy, reach): the
    candidate pairs; the unsigned wrapped gaps of each pair along x and
    y, min(|b - a|, extent - |b - a|), the same both ways; and r widened
    by the rounding slack. Every pair whose np.hypot(gx, gy) is at most r
    is a candidate.

    A query of rows pairs every query point i with every point j of the
    cells of its stencil, its own cell included, and i == j too. rows None
    is the half stencil over every point, which gives each unordered pair
    with i != j once: a point meets the points after it, in sorted cell
    order, in its own cell, and every point of the other cells of its
    stencil keyed above its own.

    group, when given, is the ascending group number (0, 1, ...) of every
    point, for several point sets in one world. Every group shares one
    grid and cells are keyed by (group, cell), so no pair crosses groups.
    None is one group of every point.

    The stencil follows the mean spacing s = sqrt(area / m) of a group's
    points, m = max(1, ceil(n / groups)). Where s >= 0.6 reach, the
    cells are at least reach wide, and a point's stencil is its own cell
    and the 8 adjacent ones, 3 x 3. Where points are denser, the cells
    are at least reach / 2 wide, and the stencil is the 5 x 5 cells at
    most two away along each axis: the area searched, 25 max(reach / 2,
    s)^2, is then below the 9 reach^2 of the 3 x 3 stencil, the two
    meeting at s = 0.6 reach. Either way a point within reach lies in the
    stencil, and on an axis of fewer than 3 or 5 cells each cell is in
    it once. The grid has at most m cells, one per point of the mean
    group, so memory is O(n + candidate pairs).
    """
    n = x.shape[0]
    width, height = world.width, world.height
    # Slack for rounding: a point near a cell edge may get either cell
    # index, and the unsigned gap may differ from the exact one by a few
    # ulps of the extent.
    reach = r * (1.0 + 1e-9) + 1e-12 * max(width, height)
    groups = 1 if group is None else int(group.max(initial=0)) + 1
    m = max(1, math.ceil(n / groups))
    # cells at least reach (or, where points are dense, reach / 2) wide
    # and about area / m large; each axis is capped so that the grid has
    # at most m cells, also for r = 0 and in a thin world
    spacing = math.sqrt(width * height / m)
    depth = 2 if spacing < 0.6 * reach else 1
    cell = max(reach / depth, spacing)
    nx = min(max(1, int(width // cell)), m)
    ny = min(max(1, int(height // cell)), m // nx)
    # % nx: a coordinate just below the extent may round up to index nx
    cx = (x * (nx / width)).astype(np.int64) % nx
    cy = (y * (ny / height)).astype(np.int64) % ny

    # the cells at most depth away, each once, also on axes of fewer cells
    kx, ky = min(nx, 2 * depth + 1), min(ny, 2 * depth + 1)
    qx, qy, q = (cx, cy, np.arange(n)) if rows is None else (cx[rows], cy[rows], rows)
    ax = (qx[:, None] + _OFFSETS[:kx]) % nx
    ay = (qy[:, None] + _OFFSETS[:ky]) % ny
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

    # per query point and cell of its stencil, its own cell first: the
    # sorted position to start at and the number of points from there
    near = near.reshape(q.size, kx * ky)
    first, per_cell = starts[near], counts[near]
    if rows is None:
        # each unordered pair once: a point meets the points after it in
        # its own cell, and every point of the other cells of its stencil
        # keyed above its own
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
    return i, j, _unsigned_gap(x, i, j, width), _unsigned_gap(y, i, j, height), reach


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

    The discs have centres (x, y), in the world, and radii radius, zeros
    for points. Returns (i, j, dx, dy, gap): the index pairs with i != j,
    sorted by (i, j); the delta (b - a + extent / 2) % extent - extent / 2
    from centre i to centre j per axis; and max(np.hypot(gx, gy) -
    radius[i] - radius[j], 0), for the unsigned wrapped gaps gx and gy
    that torus_links decides on. A pair is kept iff gap <= r.

    The box test gx <= reach and gy <= reach, at the reach of the
    candidate step (r + 2 max(radius), widened once there), keeps every
    pair that the gap test keeps: np.hypot(gx, gy) >= max(gx, gy), and
    the rounding of r + 2 max(radius) and of the two subtractions of the
    radii stays far below the widening's relative 1e-9.

    rows, when given, are the ascending indices of the query discs: only
    the pairs whose i is in rows are returned, while j still ranges over
    every disc. They are the same pairs, with the same bits, as those of
    the full search whose i is in rows.
    """
    # the full stencil: every ordered pair, from a query of every row
    rows = np.arange(x.shape[0]) if rows is None else rows
    reach = r + 2.0 * radius.max(initial=0.0)
    i, j, gx, gy, reach = _candidates(x, y, reach, world, rows)
    box = np.flatnonzero((gx <= reach) & (gy <= reach) & (i != j))
    i, j = i[box], j[box]
    gap = np.hypot(gx[box], gy[box])
    gap -= radius[i]
    gap -= radius[j]
    np.maximum(gap, 0.0, out=gap)
    keep = np.flatnonzero(gap <= r)
    # each candidate pair occurs once, so the (i, j) keys are unique
    keep = keep[np.argsort(i[keep] * x.shape[0] + j[keep])]
    i, j = i[keep], j[keep]
    dx = wrapped_delta(x[i], x[j], world.width)
    dy = wrapped_delta(y[i], y[j], world.height)
    return i, j, dx, dy, gap[keep]


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
    below the resolution of the closed-form delta.

    group, when given, is the ascending group number of every point: the
    pairs are then those of each group's own search, offset by the
    group's first point.
    """
    i, j, gx, gy, _ = _candidates(x, y, r, world, None, group)
    # np.hypot(gx, gy) >= max(gx, gy): the box test is cheaper than the
    # hypot and decides the same pairs
    box = np.flatnonzero((gx <= r) & (gy <= r))
    keep = box[np.hypot(gx[box], gy[box]) <= r]
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
