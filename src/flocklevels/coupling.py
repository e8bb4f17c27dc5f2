"""The two level-crossing transformations.

Upward (information-reducing): detect clusters of nearby, similarly
headed birds in a population snapshot and reify each cluster as a flock
observation (centroid, mean heading, dispersion radius, member set).

Downward (information-increasing): turn per-flock displacements into
per-bird movement commands, one r-th of each displacement per micro tick
of a macro step of r ticks.

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
from .macro import DisplacementList
from .micro import CommandSet, MicroState

__all__ = [
    "ClusterParams",
    "FlockObservation",
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


@dataclass(frozen=True)
class FlockObservation:
    members: frozenset[int]
    centroid: tuple[float, float]
    heading: float
    radius: float


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


def reify(clusters: list[list[int]], obs: MicroState) -> list[FlockObservation]:
    """Promote every cluster of one snapshot to a flock observation.

    Centroid is the torus center of gravity of the member positions (per
    axis, the circular mean of the scaled coordinate, or the arithmetic
    mean on a zero resultant), heading the circular mean of the member
    headings (lowest-id member's heading on a zero resultant), radius the
    mean member distance to the centroid. Every sum runs over the members
    in ascending id, as a per-cluster loop adds them; cos, sin, atan2 and
    hypot are taken with `math`, since numpy's can differ in the last bit.
    """
    if not clusters:
        return []
    sizes = [len(c) for c in clusters]
    if not all(sizes):
        raise ValueError("reify of empty member set")
    f = len(clusters)
    cluster = np.repeat(np.arange(f), sizes)
    members = list(itertools.chain.from_iterable(map(sorted, clusters)))
    flat = np.array(members, dtype=np.int64)
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
    centroids = [
        (
            coordinate_of_resultant(xc[k], xs[k], xl[a:b], w.width),
            coordinate_of_resultant(yc[k], ys[k], yl[a:b], w.height),
        )
        for k, (a, b) in enumerate(spans)
    ]
    cx, cy = np.array(centroids)[cluster].T
    # torus_delta(centroid, member), elementwise
    dx = (mx - cx + w.width / 2.0) % w.width - w.width / 2.0
    dy = (my - cy + w.height / 2.0) % w.height - w.height / 2.0
    dist = list(map(math.hypot, dx.tolist(), dy.tolist()))

    flocks = []
    for k, (a, b) in enumerate(spans):
        try:
            heading = heading_of_resultant(hc[k], hs[k], b - a)
        except UndefinedMeanError:
            heading = headings[a]
        flocks.append(
            FlockObservation(
                members=frozenset(members[a:b]),
                centroid=centroids[k],
                heading=heading,
                radius=math.fsum(dist[a:b]) / (b - a),
            )
        )
    return flocks


def emergence_transform(obs: MicroState, p: ClusterParams) -> list[FlockObservation]:
    """Detect and reify all clusters in one population snapshot."""
    # looked up as module globals, so a wrapper installed there sees each call
    return reify(detect_clusters(obs, p), obs)


def split_displacements(d: DisplacementList, r: int) -> CommandSet:
    """One command set of a linear r-way decomposition: v/r per member."""
    if r < 1:
        raise ValueError("r must be >= 1")
    cmds: CommandSet = {}
    for _, members, (vx, vy), heading in d:
        for bid in members:
            if bid in cmds:
                raise CouplingError(f"bird {bid} belongs to multiple flocks")
            cmds[bid] = ((vx / r, vy / r), heading)
    return cmds
