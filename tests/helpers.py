"""Independent oracles used by the test suite.

Everything here is deliberately naive (brute force, exhaustive
enumeration, two-pass statistics) and shares no code path with the
implementations it checks.
"""

from __future__ import annotations

import itertools
import math


def brute_delta(a, b, width, height):
    """Minimal displacement a->b by trying all 9 wrap images of b."""
    best = None
    for kx in (-1, 0, 1):
        for ky in (-1, 0, 1):
            dx = b[0] + kx * width - a[0]
            dy = b[1] + ky * height - a[1]
            if best is None or math.hypot(dx, dy) < math.hypot(*best):
                best = (dx, dy)
    return best


def brute_distance(a, b, width, height):
    return math.hypot(*brute_delta(a, b, width, height))


def naive_pairs(points, r, width, height):
    """Every ordered pair (i, j), i != j, at wrapped distance <= r.

    One pair at a time in plain Python floats, with the closed-form wrap
    the simulation uses, so that ties at exactly r decide the same way.
    Returns (i, j, dx, dy) tuples sorted by (i, j).
    """
    out = []
    for i, (xi, yi) in enumerate(points):
        for j, (xj, yj) in enumerate(points):
            if i == j:
                continue
            dx = (xj - xi + width / 2.0) % width - width / 2.0
            dy = (yj - yi + height / 2.0) % height - height / 2.0
            if math.hypot(dx, dy) <= r:
                out.append((i, j, dx, dy))
    return out


class UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, a):
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def brute_clusters(obs, d_prox, theta, min_size, width, height):
    """Full adjacency matrix + union-find; returns sorted id-set clusters."""
    n = len(obs)
    uf = UnionFind(n)
    d2 = d_prox * d_prox
    for i in range(n):
        _, (xi, yi), hi = obs[i]
        for j in range(i + 1, n):
            _, (xj, yj), hj = obs[j]
            dx = abs(xi - xj)
            if dx > width - dx:
                dx = width - dx
            dy = abs(yi - yj)
            if dy > height - dy:
                dy = height - dy
            if dx * dx + dy * dy > d2:
                continue
            dh = abs(hi - hj) % 360.0
            if min(dh, 360.0 - dh) > theta:
                continue
            uf.union(i, j)
    groups = {}
    for i in range(n):
        groups.setdefault(uf.find(i), []).append(obs[i][0])
    clusters = [sorted(g) for g in groups.values() if len(g) >= min_size]
    clusters.sort(key=lambda c: c[0])
    return clusters


def jaccard(a, b):
    a, b = set(a), set(b)
    inter = len(a & b)
    return inter / len(a | b) if inter else 0.0


def best_matching(flock_members, obs_members):
    """Exhaustive injective assignment maximizing total Jaccard overlap.

    flock_members: dict flock_id -> member set; obs_members: list of
    member sets. Returns (total, dict flock_id -> obs index) for one
    optimal assignment; zero-overlap pairs are never assigned.
    """
    fids = sorted(flock_members)
    k = len(obs_members)
    best_total, best_assign = -1.0, {}
    for picks in itertools.product(range(-1, k), repeat=len(fids)):
        used = [p for p in picks if p >= 0]
        if len(used) != len(set(used)):
            continue
        total = 0.0
        assign = {}
        ok = True
        for fid, p in zip(fids, picks):
            if p < 0:
                continue
            j = jaccard(flock_members[fid], obs_members[p])
            if j == 0.0:
                ok = False
                break
            total += j
            assign[fid] = p
        if ok and total > best_total:
            best_total, best_assign = total, assign
    return best_total, best_assign


def two_pass_mean_std(values):
    """Population mean/std, the textbook two-pass way."""
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    return mean, math.sqrt(var)
