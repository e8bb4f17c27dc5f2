import math
import random

import pytest

from flocklevels.coupling import FlockObservation
from flocklevels.errors import CouplingError
from flocklevels.geometry import TorusWorld, torus_delta, torus_distance, wrap
from flocklevels.macro import (
    Flock,
    MacroParams,
    MacroState,
    displacements,
    macro_step,
    sync_registry,
)
from helpers import best_matching, jaccard

W = TorusWorld(100.0, 100.0)
P = MacroParams()


def obs(members, centroid=(50.0, 50.0), heading=0.0, radius=1.0):
    return FlockObservation(
        members=frozenset(members), centroid=centroid, heading=heading, radius=radius
    )


def state(flocks, next_id=None):
    if next_id is None:
        next_id = max((f.flock_id for f in flocks), default=-1) + 1
    return MacroState(flocks=tuple(flocks), next_id=next_id, macro_tick=0, world=W)


def flock(fid, members, centroid=(50.0, 50.0), heading=0.0, radius=1.0):
    return Flock(fid, centroid, heading, radius, frozenset(members))


class TestMacroParams:
    @pytest.mark.parametrize(
        "fields",
        [
            {"speed": -5.0},
            {"vision": -1.0, "min_separation": 0.0},
            {"max_align_turn": math.nan},
            {"vision": 0.5, "min_separation": 1.0},
        ],
    )
    def test_rejects_invalid(self, fields):
        with pytest.raises(ValueError):
            MacroParams(**fields)

    def test_accepts_zero_vision(self):
        assert MacroParams(vision=0.0, min_separation=0.0).vision == 0.0


class TestSyncRegistry:
    def test_empty_registry_adds_all(self):
        s = sync_registry(state([]), [obs({1, 2, 3}), obs({4, 5, 6})])
        assert [f.flock_id for f in s.flocks] == [0, 1]
        assert s.next_id == 2

    def test_overlap_keeps_id(self):
        s0 = state([flock(0, {1, 2, 3})])
        s1 = sync_registry(s0, [obs({2, 3, 4}, centroid=(10.0, 10.0), heading=42.0)])
        assert len(s1.flocks) == 1
        f = s1.flocks[0]
        assert f.flock_id == 0
        assert f.members == frozenset({2, 3, 4})
        assert f.centroid == (10.0, 10.0) and f.heading == 42.0

    def test_vanished_removed(self):
        s0 = state([flock(0, {1, 2, 3})])
        assert sync_registry(s0, []).flocks == ()

    def test_zero_overlap_never_matches(self):
        s0 = state([flock(0, {1, 2, 3})])
        s1 = sync_registry(s0, [obs({7, 8, 9})])
        assert [f.flock_id for f in s1.flocks] == [1]

    def test_duplicate_member_across_observations(self):
        with pytest.raises(CouplingError):
            sync_registry(state([]), [obs({1, 2}), obs({2, 3})])

    def test_removed_id_never_resurrected(self):
        s = state([flock(0, {1, 2, 3})])
        s = sync_registry(s, [])
        s = sync_registry(s, [obs({1, 2, 3})])
        assert [f.flock_id for f in s.flocks] == [1]

    def test_output_partitions_observed_ids(self):
        rng = random.Random(4)
        s = state([])
        for _ in range(30):
            pool = list(range(40))
            rng.shuffle(pool)
            sizes = [rng.randint(2, 6) for _ in range(rng.randint(0, 5))]
            groups, k = [], 0
            for sz in sizes:
                groups.append(set(pool[k : k + sz]))
                k += sz
            s = sync_registry(s, [obs(g) for g in groups])
            got = sorted(m for f in s.flocks for m in f.members)
            assert got == sorted(m for g in groups for m in g)

    def test_greedy_equals_exhaustive_on_churn_instances(self):
        # registry-evolution instances: each observation descends from at
        # most one registered flock (membership churn plus fresh birds),
        # which is what successive boundary snapshots actually produce
        rng = random.Random(11)
        fresh = 1000
        for _ in range(200):
            pool = list(range(24))
            rng.shuffle(pool)
            reg, k = {}, 0
            for fid in range(rng.randint(0, 4)):
                sz = rng.randint(2, 5)
                reg[fid] = set(pool[k : k + sz])
                k += sz
            observations = []
            for fid, members in reg.items():
                if rng.random() < 0.25:
                    continue  # this flock dissolves
                kept = {m for m in members if rng.random() < 0.7}
                joined = set()
                for _ in range(rng.randint(0, 2)):
                    joined.add(fresh)
                    fresh += 1
                if kept | joined:
                    observations.append(kept | joined)
            for _ in range(rng.randint(0, 2)):
                observations.append({fresh, fresh + 1, fresh + 2})
                fresh += 3
            rng.shuffle(observations)
            s0 = state([flock(fid, m) for fid, m in reg.items()])
            s1 = sync_registry(s0, [obs(m) for m in observations])
            greedy_total = sum(
                jaccard(reg[f.flock_id], f.members)
                for f in s1.flocks
                if f.flock_id in reg
            )
            best_total, _ = best_matching(reg, observations)
            assert greedy_total == pytest.approx(max(best_total, 0.0), abs=1e-12)


class TestMacroStep:
    def test_single_flock_straight_line(self):
        s0 = state([flock(0, {1, 2, 3}, centroid=(50.0, 50.0), heading=30.0)])
        s1 = macro_step(s0, P)
        f = s1.flocks[0]
        assert f.heading == 30.0
        assert torus_distance((50.0, 50.0), f.centroid, W) == pytest.approx(
            P.speed, abs=1e-9
        )

    def test_size_aware_interaction_range(self):
        # centroids 12 apart, radii 2 and 2: effective distance 8 <= vision
        a = flock(0, {1, 2, 3}, centroid=(40.0, 50.0), heading=0.0, radius=2.0)
        b = flock(1, {4, 5, 6}, centroid=(52.0, 50.0), heading=90.0, radius=2.0)
        s1 = macro_step(state([a, b]), P)
        # flock 0 aligns toward flock 1's heading, so it must have turned
        assert s1.flocks[0].heading != 0.0

    def test_point_flocks_beyond_vision_ignore_each_other(self):
        a = flock(0, {1, 2, 3}, centroid=(10.0, 10.0), heading=0.0, radius=0.0)
        b = flock(1, {4, 5, 6}, centroid=(50.0, 50.0), heading=90.0, radius=0.0)
        s1 = macro_step(state([a, b]), P)
        assert s1.flocks[0].heading == 0.0
        assert s1.flocks[1].heading == 90.0

    def test_flock_count_invariant(self):
        s0 = state(
            [flock(i, {3 * i, 3 * i + 1, 3 * i + 2}, centroid=(10.0 * i, 20.0)) for i in range(5)]
        )
        assert len(macro_step(s0, P).flocks) == 5

    def test_displacement_magnitude_is_speed(self):
        s0 = state(
            [
                flock(0, {1, 2}, centroid=(30.0, 30.0), heading=10.0),
                flock(1, {3, 4}, centroid=(34.0, 30.0), heading=80.0),
            ]
        )
        s1 = macro_step(s0, P)
        for f0, f1 in zip(s0.flocks, s1.flocks):
            assert torus_distance(f0.centroid, f1.centroid, W) == pytest.approx(
                P.speed, abs=1e-9
            )

    def test_storage_order_independence(self):
        flocks = [
            flock(0, {1, 2}, centroid=(30.0, 30.0), heading=10.0),
            flock(1, {3, 4}, centroid=(34.0, 30.0), heading=80.0),
            flock(2, {5, 6}, centroid=(36.0, 33.0), heading=200.0),
        ]
        a = macro_step(state(flocks), P)
        b = macro_step(state(list(reversed(flocks))), P)
        assert a == b

    def test_radius_not_evolved(self):
        s0 = state([flock(0, {1, 2}, radius=3.5)])
        assert macro_step(s0, P).flocks[0].radius == 3.5

    def test_zero_flocks_is_legal(self):
        assert macro_step(state([]), P).flocks == ()


class TestDisplacements:
    def test_stationary(self):
        s = state([flock(0, {1, 2})])
        (fid, members, v, heading), = displacements(s, s)
        assert fid == 0 and v == (0.0, 0.0)

    def test_wrap_seam(self):
        before = state([flock(0, {1, 2}, centroid=(99.0, 0.0))])
        after = state([flock(0, {1, 2}, centroid=(1.0, 0.0))])
        (_, _, v, _), = displacements(before, after)
        assert v == (2.0, 0.0)

    def test_zero_flocks(self):
        assert displacements(state([]), state([])) == []

    def test_id_mismatch(self):
        with pytest.raises(CouplingError):
            displacements(state([flock(0, {1, 2})]), state([flock(1, {1, 2})]))

    def test_roundtrip(self):
        before = state([flock(0, {1, 2}, centroid=(10.0, 10.0), heading=35.0)])
        after = macro_step(before, P)
        (_, _, v, heading), = displacements(before, after)
        moved = wrap((10.0 + v[0], 10.0 + v[1]), W)
        assert moved[0] == pytest.approx(after.flocks[0].centroid[0], abs=1e-9)
        assert moved[1] == pytest.approx(after.flocks[0].centroid[1], abs=1e-9)
        assert heading == after.flocks[0].heading
