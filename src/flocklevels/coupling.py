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

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import CouplingError
from .geometry import (
    TorusWorld,
    UndefinedMeanError,
    circular_mean,
    torus_centroid,
    torus_distance,
    torus_neighbours,
)
from .macro import DisplacementList
from .micro import CommandSet, MicroObservation

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


def detect_clusters(
    obs: MicroObservation, p: ClusterParams, w: TorusWorld
) -> list[list[int]]:
    """Connected components of the proximity-and-alignment graph.

    Two birds are linked iff their torus distance is <= d_prox and their
    heading difference is <= theta (both thresholds closed). Components
    smaller than min_size are dropped. Each component is an ascending id
    list; components are ordered by their minimum member id.
    """
    n = len(obs)
    if n == 0:
        return []
    ids = np.array([t[0] for t in obs])
    x = np.array([t[1][0] for t in obs])
    y = np.array([t[1][1] for t in obs])
    h = np.array([t[2] for t in obs])

    i, j, _, _, _ = torus_neighbours(x, y, p.d_prox, w)
    aligned = np.abs((h[j] - h[i] + 180.0) % 360.0 - 180.0) <= p.theta
    i, j = i[aligned], j[aligned]
    # the pairs are sorted by (i, j): row i holds the links of bird i
    indptr = np.concatenate(([0], np.cumsum(np.bincount(i, minlength=n))))
    adj = csr_matrix((np.ones(j.size, dtype=bool), j, indptr), shape=(n, n))

    _, labels = connected_components(adj, directed=False)
    groups: dict[int, list[int]] = {}
    for k, lab in enumerate(labels):
        groups.setdefault(int(lab), []).append(int(ids[k]))
    clusters = [sorted(g) for g in groups.values() if len(g) >= p.min_size]
    clusters.sort(key=lambda c: c[0])
    return clusters


def reify(
    members: list[int],
    obs: MicroObservation,
    w: TorusWorld,
    *,
    by_id: dict | None = None,
) -> FlockObservation:
    """Promote a cluster of birds to a flock observation.

    Centroid is the torus center of gravity of the member positions,
    heading the circular mean of the member headings (lowest-id member's
    heading on a degenerate zero resultant), radius the mean member
    distance to the centroid. `by_id` is the id index of `obs`; callers
    that reify many clusters of one snapshot pass it to build it once.
    """
    if not members:
        raise ValueError("reify of empty member set")
    if by_id is None:
        by_id = {t[0]: t for t in obs}
    missing = [m for m in members if m not in by_id]
    if missing:
        raise CouplingError(f"members not in observation: {missing}")
    ordered = sorted(members)
    positions = [by_id[m][1] for m in ordered]
    headings = [by_id[m][2] for m in ordered]
    centroid = torus_centroid(positions, w)
    try:
        heading = circular_mean(headings)
    except UndefinedMeanError:
        heading = headings[0]
    radius = math.fsum(torus_distance(centroid, q, w) for q in positions) / len(
        positions
    )
    return FlockObservation(
        members=frozenset(ordered), centroid=centroid, heading=heading, radius=radius
    )


def emergence_transform(
    obs: MicroObservation, p: ClusterParams, w: TorusWorld
) -> list[FlockObservation]:
    """Detect and reify all clusters in one population snapshot."""
    by_id = {t[0]: t for t in obs}
    return [reify(c, obs, w, by_id=by_id) for c in detect_clusters(obs, p, w)]


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
