"""Independent oracles used by the test suite.

Everything here is deliberately naive (brute force, exhaustive
enumeration, two-pass statistics, one agent at a time), imports nothing
from the package and shares no code path with the implementations it
checks. numpy serves to draw the same initial birds, and gives every
length that the oracles compare with a threshold its hypot: every such
decision, of mates and of links, is taken on gap_length, the length of
the unsigned wrapped gaps, as the package's searches take it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np


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


def gap_length(a, b, width, height):
    """The distance of points a and b by their unsigned wrapped gaps,
    min(|b - a|, extent - |b - a|) per axis, with numpy's hypot, as both
    searches document; the same from either end. math.hypot can differ
    from np.hypot in the last bit, e.g. 1.0 against 1.0000000000000002
    for the gaps (0.6, 0.8000000000000002), whose correctly rounded
    length is the latter."""
    dx = abs(b[0] - a[0])
    dy = abs(b[1] - a[1])
    return float(np.hypot(min(dx, width - dx), min(dy, height - dy)))


def naive_pairs(points, r, width, height):
    """Every ordered pair (i, j), i != j, whose gap_length is <= r, one
    pair at a time in plain Python floats, with its closed-form delta.
    Returns (i, j, dx, dy) tuples sorted by (i, j)."""
    return [
        (i, j, dx, dy)
        for i, j, dx, dy, _ in naive_disc_pairs(
            points, [0.0] * len(points), r, width, height
        )
    ]


def naive_disc_pairs(points, radii, r, width, height):
    """Every ordered pair (i, j), i != j, of discs whose gap, the
    gap_length of their centres less both radii and never negative, is
    <= r, with the closed-form delta from centre i to centre j. Returns
    (i, j, dx, dy, gap) tuples sorted by (i, j)."""
    out = []
    for i, (xi, yi) in enumerate(points):
        for j, (xj, yj) in enumerate(points):
            if i == j:
                continue
            length = gap_length((xi, yi), (xj, yj), width, height)
            gap = max(length - radii[i] - radii[j], 0.0)
            if gap <= r:
                dx = (xj - xi + width / 2.0) % width - width / 2.0
                dy = (yj - yi + height / 2.0) % height - height / 2.0
                out.append((i, j, dx, dy, gap))
    return out


def naive_links(points, r, width, height):
    """Every unordered pair (i, j), i < j, whose gap_length is <= r."""
    return {
        (i, j)
        for i, j in itertools.combinations(range(len(points)), 2)
        if gap_length(points[i], points[j], width, height) <= r
    }


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
    """Full adjacency matrix + union-find; returns sorted id-set clusters.

    Each pair is decided once, by its gap_length and its unsigned heading
    difference min(dh, 360 - dh), dh = |hi - hj| % 360, both the same from
    either end. The gap length is taken with np.hypot, not compared as a
    sum of squares, which loses bits to underflow below about 1e-154.
    """
    n = len(obs)
    uf = UnionFind(n)
    for i in range(n):
        _, pi, hi = obs[i]
        for j in range(i + 1, n):
            _, pj, hj = obs[j]
            if gap_length(pi, pj, width, height) > d_prox:
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


def columns(rows):
    """(id, (x, y), heading) rows as id, x, y and heading lists, in
    ascending id, the order a population state holds."""
    rows = sorted(rows, key=lambda r: r[0])
    return (
        [r[0] for r in rows],
        [r[1][0] for r in rows],
        [r[1][1] for r in rows],
        [r[2] for r in rows],
    )


def state_key(s):
    """Everything a population state holds, as plain Python values."""
    return (s.tick, s.world, *(a.tolist() for a in (s.ids, s.x, s.y, s.heading)))


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


# -- Steering oracles ---------------------------------------------------
# The per-bird and per-flock rules, one agent at a time in plain Python
# floats. The scalar formulas they rest on (closed-form wrap, bounded
# turn, circular mean) are written out again here rather than imported,
# so a change to the package's versions shows up as a disagreement.

ZERO_RESULTANT_EPS = 1e-9


class UndefinedMeanError(ValueError):
    pass


def wrap_scalar(x, extent):
    """Reduce one coordinate into [0, extent)."""
    if not math.isfinite(x):
        raise ValueError(f"non-finite coordinate: {x!r}")
    r = x % extent
    # float modulo can land exactly on the extent for tiny negative inputs
    return 0.0 if r >= extent else r


def wrap(p, w):
    out = []
    for c, extent in ((p[0], w.width), (p[1], w.height)):
        r = c % extent
        out.append(0.0 if r >= extent else r)
    return tuple(out)


def torus_delta(a, b, w):
    """Minimal displacement from a to b by the closed-form wrap."""
    return (
        (b[0] - a[0] + w.width / 2.0) % w.width - w.width / 2.0,
        (b[1] - a[1] + w.height / 2.0) % w.height - w.height / 2.0,
    )


def torus_distance(a, b, w):
    return math.hypot(*torus_delta(a, b, w))


def _normalize_heading(deg):
    h = deg % 360.0
    return 0.0 if h >= 360.0 else h


def _heading_unit(deg):
    r = math.radians(deg)
    return (math.cos(r), math.sin(r))


def circular_mean(headings):
    sx = 0.0
    sy = 0.0
    for h in headings:
        r = math.radians(h)
        sx += math.cos(r)
        sy += math.sin(r)
    if math.hypot(sx, sy) < ZERO_RESULTANT_EPS * len(headings):
        raise UndefinedMeanError("zero resultant, mean undefined")
    return _normalize_heading(math.degrees(math.atan2(sy, sx)))


def _turn_towards(current, target, max_turn):
    d = (target - current + 180.0) % 360.0 - 180.0
    if d == -180.0:
        d = 180.0
    if abs(d) <= max_turn:
        return _normalize_heading(target)
    return _normalize_heading(current + math.copysign(max_turn, d))


def flockmates(b, s, p):
    """Other birds within vision range (closed threshold), ascending id."""
    return [
        m
        for m in s.birds
        if m.id != b.id
        and gap_length(b.pos, m.pos, s.world.width, s.world.height) <= p.vision
    ]


def step_autonomous(b, mates, p, w):
    """One boids step for a single bird against its flockmates.

    No mates: keep heading. Nearest mate too close: turn away (bounded by
    max_separate_turn). Otherwise align with the mates' mean heading then
    cohere toward their summed offset, each turn bounded. The bird then
    advances by speed along its (new) heading.
    """
    heading = b.heading
    if mates:
        nearest = min(
            mates, key=lambda m: (gap_length(b.pos, m.pos, w.width, w.height), m.id)
        )
        if gap_length(b.pos, nearest.pos, w.width, w.height) < p.min_separation:
            dx, dy = torus_delta(nearest.pos, b.pos, w)
            away = _normalize_heading(math.degrees(math.atan2(dy, dx)))
            heading = _turn_towards(heading, away, p.max_separate_turn)
        else:
            try:
                mean_h = circular_mean([m.heading for m in mates])
                heading = _turn_towards(heading, mean_h, p.max_align_turn)
            except UndefinedMeanError:
                pass
            cx = 0.0
            cy = 0.0
            for m in mates:
                dx, dy = torus_delta(b.pos, m.pos, w)
                cx += dx
                cy += dy
            if math.hypot(cx, cy) >= ZERO_RESULTANT_EPS:
                target = _normalize_heading(math.degrees(math.atan2(cy, cx)))
                heading = _turn_towards(heading, target, p.max_cohere_turn)
    ux, uy = _heading_unit(heading)
    pos = wrap((b.pos[0] + p.speed * ux, b.pos[1] + p.speed * uy), w)
    return replace(b, pos=pos, heading=heading)


def step_commanded(b, cmd, w):
    """Apply an external command: rigid translation plus imposed heading."""
    (vx, vy), heading = cmd
    pos = wrap((b.pos[0] + vx, b.pos[1] + vy), w)
    return replace(b, pos=pos, heading=_normalize_heading(heading))


def effective_distance(a, b, w):
    """Gap between two flocks' bounding circles, never negative."""
    length = gap_length(a.centroid, b.centroid, w.width, w.height)
    return max(0.0, length - a.radius - b.radius)


def steer_flock(f, others, p, w):
    """New heading of one flock, steered against every other flock."""
    mates = [o for o in others if effective_distance(f, o, w) <= p.vision]
    heading = f.heading
    if not mates:
        return heading
    nearest = min(mates, key=lambda o: (effective_distance(f, o, w), o.flock_id))
    if effective_distance(f, nearest, w) < p.min_separation:
        dx, dy = torus_delta(nearest.centroid, f.centroid, w)
        away = _normalize_heading(math.degrees(math.atan2(dy, dx)))
        return _turn_towards(heading, away, p.max_separate_turn)
    try:
        mean_h = circular_mean([o.heading for o in mates])
        heading = _turn_towards(heading, mean_h, p.max_align_turn)
    except UndefinedMeanError:
        pass
    cx = 0.0
    cy = 0.0
    for o in mates:
        dx, dy = torus_delta(f.centroid, o.centroid, w)
        cx += dx
        cy += dy
    if math.hypot(cx, cy) >= ZERO_RESULTANT_EPS:
        target = _normalize_heading(math.degrees(math.atan2(cy, cx)))
        heading = _turn_towards(heading, target, p.max_cohere_turn)
    return heading


def per_flock_step(s, p):
    """One synchronous macro step, one flock at a time against all others."""
    new_flocks = []
    for f in s.flocks:
        others = [o for o in s.flocks if o.flock_id != f.flock_id]
        heading = steer_flock(f, others, p, s.world)
        ux, uy = _heading_unit(heading)
        centroid = wrap(
            (f.centroid[0] + p.speed * ux, f.centroid[1] + p.speed * uy), s.world
        )
        new_flocks.append(replace(f, centroid=centroid, heading=heading))
    return replace(s, flocks=tuple(new_flocks), macro_tick=s.macro_tick + 1)


# -- Reification oracle -------------------------------------------------
# One cluster at a time, on the scalar formulas of the steering oracles.

def _axis_circular_mean(coords, extent):
    scale = 2.0 * math.pi / extent
    sx = 0.0
    sy = 0.0
    for c in coords:
        a = c * scale
        sx += math.cos(a)
        sy += math.sin(a)
    if math.hypot(sx, sy) < ZERO_RESULTANT_EPS * len(coords):
        return math.fsum(coords) / len(coords)
    r = (math.atan2(sy, sx) / scale) % extent
    return 0.0 if r >= extent else r


def reify_cluster(members, obs, w):
    """One cluster as (members, centroid, heading, radius), bird by bird.

    Centroid: per-axis circular mean of the scaled coordinates, the
    arithmetic mean of the axis on a zero resultant. Heading: circular
    mean, the lowest-id member's heading on a zero resultant. Radius: mean
    member distance to the centroid. Sums run in ascending member id.
    """
    by_id = {bid: (pos, h) for bid, pos, h in obs}
    ordered = sorted(members)
    positions = [by_id[m][0] for m in ordered]
    headings = [by_id[m][1] for m in ordered]
    centroid = (
        _axis_circular_mean([p[0] for p in positions], w.width),
        _axis_circular_mean([p[1] for p in positions], w.height),
    )
    try:
        heading = circular_mean(headings)
    except UndefinedMeanError:
        heading = headings[0]
    radius = math.fsum(torus_distance(centroid, p, w) for p in positions) / len(
        positions
    )
    return frozenset(ordered), centroid, heading, radius


def table_rows(flocks):
    """The rows of a flock table as (members, centroid, heading, radius),
    the form reify_cluster gives, read column by column."""
    members = [set() for _ in range(len(flocks))]
    for bid, k in zip(flocks.members.tolist(), flocks.label.tolist()):
        members[k].add(bid)
    columns = (flocks.x, flocks.y, flocks.heading, flocks.radius)
    return [
        (frozenset(m), (x, y), h, r)
        for m, x, y, h, r in zip(members, *(c.tolist() for c in columns))
    ]


def cluster_lists(clusters, state):
    """A cluster table of state as ascending id lists in cluster order,
    the form brute_clusters gives, read column by column."""
    ids = state.ids.tolist()
    lists = [[] for _ in range(len(clusters))]
    for row, k in zip(clusters.rows.tolist(), clusters.cluster.tolist()):
        lists[k].append(ids[row])
    return lists


def cluster_columns(lists, state):
    """The columns (rows, cluster) of the cluster table of id lists that
    are ordered by lowest member; an id not in state raises KeyError."""
    row = {b: k for k, b in enumerate(state.ids.tolist())}
    pairs = sorted((row[b], k) for k, members in enumerate(lists) for b in members)
    return [r for r, _ in pairs], [k for _, k in pairs]


def displacement_columns(rows):
    """The columns of a displacement table (x, y, heading, radius, members,
    label, vx, vy) of (members, (vx, vy), heading) rows, each flock at the
    origin with radius 0; a bird in two rows is listed twice."""
    rows = list(rows)
    pairs = sorted((m, k) for k, row in enumerate(rows) for m in row[0])
    zeros = [0.0] * len(rows)
    return (
        zeros,
        zeros,
        [row[2] for row in rows],
        zeros,
        [m for m, _ in pairs],
        [k for _, k in pairs],
        [row[1][0] for row in rows],
        [row[1][1] for row in rows],
    )


def commands_by_id(cmds):
    """A command table as a map bird id -> ((vx, vy), heading)."""
    columns = (cmds.ids, cmds.vx, cmds.vy, cmds.heading)
    return {b: ((vx, vy), h) for b, vx, vy, h in zip(*(c.tolist() for c in columns))}


def registry_flocks(state):
    """The flocks of a registry state as RefFlock records, by flock id."""
    return tuple(
        RefFlock(fid, centroid, heading, radius, members)
        for fid, (members, centroid, heading, radius) in zip(
            state.ids.tolist(), table_rows(state)
        )
    )


# -- Whole-run reference ------------------------------------------------
# The two-level loop in plain Python, on the oracles above: one bird, one
# cluster and one flock at a time, at the default world, boids and
# cluster parameters unless others are given.


@dataclass(frozen=True)
class World:
    width: float = 100.0
    height: float = 100.0


@dataclass(frozen=True)
class Steering:
    vision: float = 10.0
    min_separation: float = 1.0
    max_align_turn: float = 5.0
    max_cohere_turn: float = 3.0
    max_separate_turn: float = 1.5
    speed: float = 1.0


@dataclass(frozen=True)
class Cluster:
    d_prox: float = 5.0
    theta: float = 30.0
    min_size: int = 3


@dataclass(frozen=True)
class RefBird:
    id: int
    pos: tuple
    heading: float


@dataclass(frozen=True)
class Population:
    birds: tuple
    world: World


@dataclass(frozen=True)
class RefFlock:
    flock_id: int
    centroid: tuple
    heading: float
    radius: float
    members: frozenset


@dataclass(frozen=True)
class Registry:
    flocks: tuple
    world: World
    macro_tick: int = 0


# Per variant: flock steering, micro ticks per macro step and whether
# flock displacements come back down.
REFERENCE_VARIANTS = {
    "m": (Steering(), 1, False),
    "M": (Steering(), 1, True),
    "M1": (
        Steering(max_separate_turn=8.0, max_align_turn=1.0, max_cohere_turn=1.0), 1, True
    ),
    "M2": (
        Steering(max_align_turn=8.0, max_cohere_turn=8.0, max_separate_turn=0.5), 1, True
    ),
    "M3": (Steering(), 4, True),
}


def reference_observations(pop, d_prox=5.0, theta=30.0, min_size=3):
    """Every cluster of a population as (members, centroid, heading, radius)."""
    rows = [(b.id, b.pos, b.heading) for b in pop.birds]
    w = pop.world
    return [
        reify_cluster(c, rows, w)
        for c in brute_clusters(rows, d_prox, theta, min_size, w.width, w.height)
    ]


def greedy_registry(flocks, next_id, observations):
    """The registry after one batch of observations, and the next free id.

    Repeatedly matches the free (flock, observation) pair of highest
    Jaccard overlap, ties to the lowest flock id and then to the lowest
    member id; zero overlap never matches. A matched flock keeps its id
    and takes the observation; every other observation becomes a new
    flock, in order; every other flock is dropped.
    """
    free_flocks = {f.flock_id: f.members for f in flocks}
    free_obs = {k: o[0] for k, o in enumerate(observations)}
    taken = {}
    while True:
        pairs = [
            (jaccard(fm, om), -fid, -min(om), fid, k)
            for fid, fm in free_flocks.items()
            for k, om in free_obs.items()
        ]
        best = max((p for p in pairs if p[0] > 0.0), default=None)
        if best is None:
            break
        *_, fid, k = best
        taken[k] = fid
        del free_flocks[fid], free_obs[k]
    out = []
    for k, (members, centroid, heading, radius) in enumerate(observations):
        if k not in taken:
            taken[k] = next_id
            next_id += 1
        out.append(RefFlock(taken[k], centroid, heading, radius, members))
    return tuple(sorted(out, key=lambda f: f.flock_id)), next_id


def reference_stats(observations):
    """Flock count, mean member count and mean radius (zeros when empty)."""
    n = len(observations)
    if n == 0:
        return 0, 0.0, 0.0
    mean_size = sum(len(o[0]) for o in observations) / n
    return n, mean_size, sum(o[3] for o in observations) / n


def reference_run(
    variant,
    birds,
    horizon,
    seed,
    *,
    world=World(),
    micro=Steering(),
    macro=None,
    cluster=Cluster(),
):
    """One replication of a variant, driven one agent at a time.

    world, micro (the birds' steering), macro (the flocks' steering, the
    variant's own when None) and cluster are the run's parameters.
    Returns a dict: "states", the birds at every tick 0..horizon as
    (id, x, y, heading) tuples; "cycles", per macro cycle its tick, the
    registry after the sync and the registry after the step (None when
    displacements do not come back down), each as a tuple of RefFlock;
    "log", the lines of the event log export; and "stats", the flock
    statistics of every boundary 0, r, ..., horizon.
    """
    p_macro, r, immergence = REFERENCE_VARIANTS[variant]
    p_macro, p_micro, w = macro or p_macro, micro, world
    clusters = (cluster.d_prox, cluster.theta, cluster.min_size)
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, w.width, birds).tolist()
    ys = rng.uniform(0.0, w.height, birds).tolist()
    hs = rng.uniform(0.0, 360.0, birds).tolist()
    pop = Population(
        tuple(RefBird(k, (xs[k], ys[k]), hs[k]) for k in range(birds)), w
    )

    def rows(pop):
        return tuple((b.id, *b.pos, b.heading) for b in pop.birds)

    states, cycles, stats = [rows(pop)], [], []
    log = [f"0;A_m;write;e;MicroObservation;{birds}"]
    registry, next_id = Registry((), w), 0
    for t in range(0, horizon, r):
        observations = reference_observations(pop, *clusters)
        log.append(f"{t};A_M;read;e;FlockObservationList;{len(observations)}")
        stats.append(reference_stats(observations))
        flocks, next_id = greedy_registry(registry.flocks, next_id, observations)
        registry = replace(registry, flocks=flocks)
        cmds = None
        if immergence:
            stepped = per_flock_step(registry, p_macro)
            cycles.append((t, registry.flocks, stepped.flocks))
            cmds = {}
            for before, f in zip(registry.flocks, stepped.flocks):
                vx, vy = torus_delta(before.centroid, f.centroid, w)
                for bid in f.members:
                    cmds[bid] = ((vx / r, vy / r), f.heading)
            log += [
                f"{t + k};A_M;write;i;DisplacementList;{len(flocks)}"
                for k in range(1, r + 1)
            ]
            registry = stepped
        else:
            cycles.append((t, registry.flocks, None))
        for k in range(1, r + 1):
            if immergence:
                log.append(f"{t + k};A_m;read;i;CommandSet;{len(cmds)}")
            pop = Population(
                tuple(
                    step_commanded(b, cmds[b.id], w)
                    if cmds and b.id in cmds
                    else step_autonomous(b, flockmates(b, pop, p_micro), p_micro, w)
                    for b in pop.birds
                ),
                w,
            )
            states.append(rows(pop))
            if (t + k) % r == 0:
                log.append(f"{t + k};A_m;write;e;MicroObservation;{birds}")
    stats.append(reference_stats(reference_observations(pop, *clusters)))
    return {"states": states, "cycles": cycles, "log": log, "stats": stats}
