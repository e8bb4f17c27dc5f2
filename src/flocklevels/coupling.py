"""The two level-crossing transformations.

Upward (information-reducing): detect clusters of nearby, similarly
headed birds in a population snapshot, as one `Clusters` table (the
snapshot rows in a cluster and each row's cluster), from the links of
the neighbour search alone, each pair decided once on its unsigned
distance and heading difference, and reify that table as one `Flocks`
table (per flock a centroid, mean heading and dispersion radius; per
member bird its flock's row).

Downward (information-increasing): index the `Displacements` table by
its label column to give every member one r-th of its flock's
displacement per micro tick of a macro step of r ticks (`Commands`).

Both directions are pure functions; they are installed as the
transformers of the corresponding coupling artifacts. Emergence takes a
batch of snapshots of one world, stacks them with `Columns.stack`,
detects and reifies once with the snapshot as the group of the
neighbour search, and splits the flock table by snapshot with
`Columns.split`, into the tables the snapshots get alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    LENGTH_BOUND,
    ZERO_RESULTANT_EPS,
    torus_links,
    wrap_array,
    wrapped_delta,
)
from .macro import NO_FLOCKS, Displacements, Flocks
from .micro import Columns, Commands, CouplingError, MicroState

__all__ = [
    "ClusterParams",
    "Clusters",
    "detect_clusters",
    "reify",
    "emergence_transform",
    "split_displacements",
]


@dataclass(frozen=True)
class ClusterParams:
    d_prox: float = 5.0
    theta: float = 30.0
    min_size: int = 3

    def __post_init__(self) -> None:
        if not 0 < self.d_prox <= LENGTH_BOUND:
            raise ValueError(f"d_prox must be positive and at most {LENGTH_BOUND!r}")
        if not (0.0 <= self.theta <= 180.0):
            raise ValueError("theta must be in [0, 180]")
        if self.min_size < 2:
            raise ValueError("min_size must be >= 2")


def _components(i: np.ndarray, j: np.ndarray, n: int) -> np.ndarray:
    """Label of each of n points: the smallest index in its component.

    Hook and compress (Shiloach-Vishkin): every link (i, j) whose ends
    carry two labels hooks the larger label onto the smaller, then
    pointer jumping flattens every tree, so each label is a root again.
    Labels only decrease and always name a point of the same component.
    """
    label = np.arange(n)
    while True:
        li, lj = label[i], label[j]
        cross = li != lj
        if not cross.any():
            return label
        i, j, li, lj = i[cross], j[cross], li[cross], lj[cross]
        np.minimum.at(label, np.maximum(li, lj), np.minimum(li, lj))
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up


@dataclass(frozen=True, eq=False)
class Clusters(Columns):
    """The clusters of one snapshot as two read-only int64 columns (INTS):
    rows, the strictly ascending (KEYS) snapshot rows, >= 0, that lie in a
    cluster, and cluster, the index of each row's cluster, numbered in
    order of lowest member. Its length is the number of clusters."""

    rows: np.ndarray
    cluster: np.ndarray

    INTS = ("rows", "cluster")
    KEYS = ("rows",)

    def __post_init__(self) -> None:
        super().__post_init__()
        rows, cluster = self.rows, self.cluster
        if rows.size and rows[0] < 0:
            raise CouplingError(f"rows must be >= 0, got {rows.tolist()}")
        # each index first appears after all smaller ones, so none is skipped
        if cluster.size and (
            cluster[0] != 0 or (cluster[1:] > np.maximum.accumulate(cluster)[:-1] + 1).any()
        ):
            raise ValueError(f"clusters not numbered by lowest member: {cluster.tolist()}")

    def __len__(self) -> int:
        return int(self.cluster.max()) + 1 if self.cluster.size else 0


def detect_clusters(obs, p: ClusterParams, group: np.ndarray | None = None) -> Clusters:
    """Connected components of the proximity-and-alignment graph.

    Two birds are linked iff their torus distance is <= d_prox and their
    heading difference is <= theta (both thresholds closed), each decided
    once per pair on an unsigned difference, the same from either bird:
    the distance of torus_links, and min(dh, 360 - dh) for dh = |h[j] -
    h[i]|. The headings lie in [0, 360), as every state's do (Columns.check),
    so dh < 360 is already dh % 360. Components smaller than min_size are
    dropped; the others are numbered in order of their lowest member.

    obs is one snapshot, or several stacked in rows ordered by (snapshot,
    id) with group the snapshot of each row, ascending. No link crosses
    snapshots then, so the clusters are numbered snapshot by snapshot.
    """
    h = obs.heading
    i, j = torus_links(obs.x, obs.y, p.d_prox, obs.world, group)
    turn = np.abs(h[j] - h[i])
    link = np.flatnonzero(np.minimum(turn, 360.0 - turn) <= p.theta)
    # rows are in ascending id, so a label is its component's lowest row
    label = _components(i[link], j[link], len(obs))
    kept = np.bincount(label, minlength=len(obs)) >= p.min_size
    rows = np.flatnonzero(kept[label])
    return Clusters(rows, (np.cumsum(kept) - 1)[label[rows]])


def reify(clusters: Clusters, obs) -> Flocks:
    """Promote every cluster of a snapshot to a row of one flock table.

    Centroid is the torus center of gravity of the member positions (per
    axis, the circular mean of the scaled coordinate, or the arithmetic
    mean on a zero resultant), heading the circular mean of the member
    headings (lowest-id member's heading on a zero resultant), radius the
    mean member distance to the centroid. Every sum runs over the members
    in ascending id, as a per-cluster loop adds them; cos, sin, atan2 and
    hypot are taken with `math`, since numpy's can differ in the last bit.
    A row beyond the observation raises CouplingError.
    """
    f = len(clusters)
    if not f:
        return NO_FLOCKS
    rows, cluster = clusters.rows, clusters.cluster
    if rows[-1] >= len(obs):
        raise CouplingError(f"rows not in observation: {rows[rows >= len(obs)].tolist()}")
    mx, my, mh = obs.x[rows], obs.y[rows], obs.heading[rows]
    w = obs.world
    size = np.bincount(cluster)

    # x and y scaled to a full turn and the headings in radians (h * (pi /
    # 180) is math.radians(h)), summed per cluster in bins k, f + k, 2f + k
    turns = np.concatenate(
        (
            mx * (2.0 * math.pi / w.width),
            my * (2.0 * math.pi / w.height),
            mh * (math.pi / 180.0),
        )
    ).tolist()
    bins = np.concatenate((cluster, cluster + f, cluster + 2 * f))
    cos, sin = (
        np.bincount(bins, np.fromiter(map(fn, turns), float, len(turns)), 3 * f).tolist()
        for fn in (math.cos, math.sin)
    )
    # each resultant's length and bearing; x * (180 / pi) is math.degrees(x)
    norm = np.fromiter(map(math.hypot, cos, sin), float, 3 * f)
    angle = np.fromiter(map(math.atan2, sin, cos), float, 3 * f)
    x = wrap_array(angle[:f] / (2.0 * math.pi / w.width), w.width)
    y = wrap_array(angle[f : 2 * f] / (2.0 * math.pi / w.height), w.height)
    heading = wrap_array(angle[2 * f :] * (180.0 / math.pi), 360.0)
    sizes = size.tolist()
    zx, zy, zh = (norm < ZERO_RESULTANT_EPS * np.tile(size, 3)).reshape(3, f)
    # on a zero resultant: the arithmetic mean, the lowest member's heading
    for col, coords, zero in ((x, mx, zx), (y, my, zy)):
        for k in np.flatnonzero(zero).tolist():
            col[k] = math.fsum(coords[cluster == k].tolist()) / sizes[k]
    for k in np.flatnonzero(zh).tolist():
        heading[k] = mh[np.argmax(cluster == k)]

    # the wrapped delta from the centroid to each member, grouped by cluster
    dx = wrapped_delta(x[cluster], mx, w.width)
    dy = wrapped_delta(y[cluster], my, w.height)
    order = np.argsort(cluster, kind="stable")
    dist = list(map(math.hypot, dx[order].tolist(), dy[order].tolist()))
    ends = np.cumsum(size).tolist()
    radius = [math.fsum(dist[e - m : e]) / m for m, e in zip(sizes, ends)]
    return Flocks(x, y, heading, radius, obs.ids[rows], cluster)


def emergence_transform(states: list[MicroState], p: ClusterParams) -> list[Flocks]:
    """The flock table of each snapshot of a batch, all of one world.

    The snapshots are stacked (Columns.stack) with the snapshot as the
    search group, so no link crosses snapshots, and with the rows as ids,
    so the members of the one flock table are rows; one detect_clusters
    and one reify call cover the batch, and the table is split by
    snapshot. Every table equals, bit for bit, the one its snapshot gets
    alone.
    """
    if not states:
        return []
    if any(s.world != states[0].world for s in states):
        raise ValueError("the snapshots of one emergence call must share one world")
    stack, group = MicroState.stack(states)
    rows = stack if group is None else stack.derive(ids=np.arange(len(stack)))
    # looked up as module globals, so a wrapper installed there sees each call
    flocks = reify(detect_clusters(rows, p, group), rows)
    if group is None:
        return [flocks]
    # every member of a flock lies in one snapshot, that of its flock
    part = np.empty(len(flocks), dtype=np.int64)
    part[flocks.label] = group[flocks.members]
    return flocks.derive(members=stack.ids[flocks.members]).split(part, len(states))


def split_displacements(d: Displacements, r: int) -> Commands:
    """One command table of a linear r-way decomposition: v/r per member."""
    if r < 1:
        raise ValueError("r must be >= 1")
    label = d.label
    return Commands(d.members, (d.vx / r)[label], (d.vy / r)[label], d.heading[label])
