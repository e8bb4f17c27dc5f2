"""The two level-crossing transformations.

Upward (information-reducing): detect clusters of nearby, similarly
headed birds in a population snapshot and reify them as one `Flocks`
table (per flock a centroid, mean heading and dispersion radius; per
member bird its flock's row).

Downward (information-increasing): index the `Displacements` table by
its label column to give every member one r-th of its flock's
displacement per micro tick of a macro step of r ticks (`Commands`).

Both directions are pure functions; they are installed as the
transformers of the corresponding coupling artifacts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CouplingError
from .geometry import (
    UndefinedMeanError,
    coordinate_of_resultant,
    heading_of_resultant,
    torus_neighbours,
)
from .macro import NO_FLOCKS, Displacements, Flocks
from .micro import Commands, MicroState

__all__ = [
    "ClusterParams",
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
        if not self.d_prox > 0:
            raise ValueError("d_prox must be positive")
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


def detect_clusters(obs: MicroState, p: ClusterParams) -> list[list[int]]:
    """Connected components of the proximity-and-alignment graph.

    Two birds are linked iff their torus distance is <= d_prox and their
    heading difference is <= theta (both thresholds closed). Components
    smaller than min_size are dropped. Each component is an ascending id
    list; components are ordered by their minimum member id.
    """
    ids, h = obs.ids, obs.heading
    i, j, _, _, _ = torus_neighbours(obs.x, obs.y, p.d_prox, obs.world)
    aligned = np.abs((h[j] - h[i] + 180.0) % 360.0 - 180.0) <= p.theta
    # rows are in ascending id, so a label is its component's minimum id
    label = _components(i[aligned], j[aligned], ids.size)
    size = np.bincount(label, minlength=ids.size)
    kept = np.flatnonzero(size[label] >= p.min_size)
    members = ids[kept[np.argsort(label[kept], kind="stable")]].tolist()
    return [members[a:b] for a, b in _spans(size[size >= p.min_size].tolist())]


def _spans(sizes: list[int]) -> list[tuple[int, int]]:
    """(start, end) of consecutive runs of the given sizes."""
    return [(e - m, e) for m, e in zip(sizes, itertools.accumulate(sizes))]


def reify(clusters: list[list[int]], obs: MicroState) -> Flocks:
    """Promote every cluster of one snapshot to a row of one flock table.

    Centroid is the torus center of gravity of the member positions (per
    axis, the circular mean of the scaled coordinate, or the arithmetic
    mean on a zero resultant), heading the circular mean of the member
    headings (lowest-id member's heading on a zero resultant), radius the
    mean member distance to the centroid. Every sum runs over the members
    in ascending id, as a per-cluster loop adds them; cos, sin, atan2 and
    hypot are taken with `math`, since numpy's can differ in the last bit.
    A bird in two clusters raises CouplingError.
    """
    if not clusters:
        return NO_FLOCKS
    sizes = [len(c) for c in clusters]
    if not all(sizes):
        raise ValueError("reify of empty member set")
    f = len(clusters)
    cluster = np.repeat(np.arange(f), sizes)
    flat = np.fromiter(itertools.chain.from_iterable(map(sorted, clusters)), np.int64)
    row, missing = obs.rows_of(flat)
    if missing.size:
        raise CouplingError(f"members not in observation: {missing.tolist()}")
    mx, my, mh = obs.x[row], obs.y[row], obs.heading[row]
    w = obs.world

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
    xc, yc, hc = cos[:f], cos[f : 2 * f], cos[2 * f :]
    xs, ys, hs = sin[:f], sin[f : 2 * f], sin[2 * f :]

    xl, yl, headings = mx.tolist(), my.tolist(), mh.tolist()
    spans = _spans(sizes)
    centroids = np.array(
        [
            (
                coordinate_of_resultant(xc[k], xs[k], xl[a:b], w.width),
                coordinate_of_resultant(yc[k], ys[k], yl[a:b], w.height),
            )
            for k, (a, b) in enumerate(spans)
        ]
    )
    cx, cy = centroids[cluster].T
    # the wrapped delta from the centroid to each member
    dx = (mx - cx + w.width / 2.0) % w.width - w.width / 2.0
    dy = (my - cy + w.height / 2.0) % w.height - w.height / 2.0
    dist = list(map(math.hypot, dx.tolist(), dy.tolist()))

    heading, radius = [], []
    for k, (a, b) in enumerate(spans):
        try:
            heading.append(heading_of_resultant(hc[k], hs[k], b - a))
        except UndefinedMeanError:
            heading.append(headings[a])
        radius.append(math.fsum(dist[a:b]) / (b - a))
    order = np.argsort(flat, kind="stable")
    return Flocks(*centroids.T, heading, radius, flat[order], cluster[order])


def emergence_transform(obs: MicroState, p: ClusterParams) -> Flocks:
    """Detect and reify all clusters in one population snapshot."""
    # looked up as module globals, so a wrapper installed there sees each call
    return reify(detect_clusters(obs, p), obs)


def split_displacements(d: Displacements, r: int) -> Commands:
    """One command table of a linear r-way decomposition: v/r per member."""
    if r < 1:
        raise ValueError("r must be >= 1")
    label = d.label
    return Commands(d.members, (d.vx / r)[label], (d.vy / r)[label], d.heading[label])
