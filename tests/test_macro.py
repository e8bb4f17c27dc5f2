import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flocklevels.experiment import VARIANTS
from flocklevels.geometry import TorusWorld
from flocklevels.macro import (
    Displacements,
    Flocks,
    MacroState,
    displacements,
    macro_step,
    sync_registry,
)
from flocklevels.micro import CouplingError, SteeringParams
from helpers import (
    RefFlock,
    Registry,
    best_matching,
    effective_distance,
    jaccard,
    per_flock_step,
    registry_flocks,
    torus_delta,
    torus_distance,
    wrap,
)

W = TorusWorld(100.0, 100.0)
P = SteeringParams()


def table(rows):
    """The flock table of (members, centroid, heading, radius) rows; a
    bird in two rows is listed twice."""
    rows = list(rows)
    pairs = sorted((m, k) for k, row in enumerate(rows) for m in row[0])
    return Flocks(
        [row[1][0] for row in rows],
        [row[1][1] for row in rows],
        [row[2] for row in rows],
        [row[3] for row in rows],
        [m for m, _ in pairs],
        [k for _, k in pairs],
    )


def obs(members, centroid=(50.0, 50.0), heading=0.0, radius=1.0):
    return (frozenset(members), centroid, heading, radius)


def state(flocks, next_id=None, world=W):
    """The registry of the given RefFlock records."""
    flocks = sorted(flocks, key=lambda f: f.flock_id)
    if next_id is None:
        next_id = max((f.flock_id for f in flocks), default=-1) + 1
    return MacroState(
        **vars(table((f.members, f.centroid, f.heading, f.radius) for f in flocks)),
        ids=[f.flock_id for f in flocks],
        next_id=next_id,
        world=world,
    )


def flock(fid, members, centroid=(50.0, 50.0), heading=0.0, radius=1.0):
    return RefFlock(fid, centroid, heading, radius, frozenset(members))


def planted(column, value):
    """A registry of two flocks whose column of flock 1 holds value, put
    in unchecked with derive."""
    s = state([flock(0, {1, 2}, centroid=(30.0, 30.0)), flock(1, {3, 4}, centroid=(34.0, 30.0))])
    bad = getattr(s, column).copy()
    bad[1] = value
    return s.derive(**{column: bad})


def sync(s, observations):
    return sync_registry(s, table(observations))


class TestFlock:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("centroid", (math.nan, 1.0)),
            ("centroid", (1.0, math.inf)),
            ("heading", math.nan),
            ("heading", -math.inf),
            ("radius", math.nan),
            ("radius", math.inf),
            ("radius", -1.0),
        ],
    )
    def test_rejects_non_finite_or_negative(self, field, value):
        fields = dict(centroid=(1.0, 2.0), heading=3.0, radius=1.0)
        fields[field] = value
        # the centroid is the x and y columns
        column = {"centroid": "^x must|^y must"}.get(field, field)
        with pytest.raises(ValueError, match=column):
            table([obs({1}, **fields)])

    def test_bird_in_two_flocks_rejected(self):
        with pytest.raises(CouplingError, match=r"\[7\]"):
            table([obs({1, 7}), obs({7, 9})])

    def test_members_out_of_order_rejected(self):
        with pytest.raises(CouplingError, match=r"\[2\]"):
            Flocks([0.0], [0.0], [0.0], [0.0], [5, 2], [0, 0])

    def test_flock_without_members_rejected(self):
        with pytest.raises(ValueError, match=r"label .* rows members, got \[1 0\]"):
            Flocks([0.0, 1.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0], [3], [0])

    @pytest.mark.parametrize(
        "cls, columns, column",
        [
            (Flocks, ([0.0, 1.0], [0.0], [0.0, 0.0], [0.0, 0.0], [3, 4], [0, 1]), "y"),
            (Flocks, ([0.0], [0.0], [0.0], [0.0], [3, 4], [0]), "label"),
            (Displacements, ([0.0], [0.0], [0.0], [0.0], [3], [0], [1.0, 2.0], [0.0]), "vx"),
        ],
    )
    def test_rejects_unequal_lengths(self, cls, columns, column):
        with pytest.raises(ValueError, match=f"^{column} has shape"):
            cls(*columns)

    def test_label_outside_the_rows_rejected(self):
        with pytest.raises(ValueError, match="label"):
            Flocks([0.0], [0.0], [0.0], [0.0], [3, 4], [0, 1])

    def test_columns_are_read_only_copies(self):
        x = np.array([1.0, 2.0])
        f = Flocks(x, [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [4, 5], [1, 0])
        assert x.flags.writeable and not f.x.flags.writeable
        x[0] = 9.0
        assert f.x.tolist() == [1.0, 2.0]

    def test_equal_by_value_of_every_column(self):
        a = table([obs({1, 2}), obs({3}, radius=2.0)])
        assert a == table([obs({1, 2}), obs({3}, radius=2.0)])
        assert a != table([obs({1, 2}), obs({3}, radius=math.nextafter(2.0, 3.0))])
        assert a != table([obs({1, 3}), obs({2}, radius=2.0)])
        d = Displacements(a.x, a.y, a.heading, a.radius, a.members, a.label, [0, 0], [0, 0])
        assert a != d and d != a


class TestMacroState:
    @pytest.mark.parametrize(
        "ids, next_id, message",
        [
            ([2, 1], 3, r"^ids must be strictly ascending; these are not: \[1\]$"),
            ([1, 1], 3, r"^ids must be strictly ascending; these are not: \[1\]$"),
            ([0, 1], 1, "next_id must exceed every issued id"),
            ([0], 1, r"^ids has shape \(1,\), want \(2,\)$"),
        ],
    )
    def test_rejects_bad_ids(self, ids, next_id, message):
        flocks = vars(table([obs({1}), obs({2})]))
        with pytest.raises(ValueError, match=message):
            MacroState(**flocks, ids=ids, next_id=next_id, world=W)


class TestMacroParams:
    @pytest.mark.parametrize(
        "fields",
        [
            {"speed": -5.0},
            {"vision": -1.0, "min_separation": 0.0},
            {"max_align_turn": math.nan},
            {"vision": 0.5, "min_separation": 1.0},
            {"speed": math.inf},
        ],
    )
    def test_rejects_invalid(self, fields):
        with pytest.raises(ValueError):
            SteeringParams(**fields)

    def test_accepts_zero_vision(self):
        assert SteeringParams(vision=0.0, min_separation=0.0).vision == 0.0


class TestSyncRegistry:
    def test_empty_registry_adds_all(self):
        s = sync(state([]), [obs({1, 2, 3}), obs({4, 5, 6})])
        assert s.ids.tolist() == [0, 1]
        assert s.next_id == 2

    def test_overlap_keeps_id(self):
        s0 = state([flock(0, {1, 2, 3})])
        s1 = sync(s0, [obs({2, 3, 4}, centroid=(10.0, 10.0), heading=42.0)])
        assert len(s1) == 1
        (f,) = registry_flocks(s1)
        assert f.flock_id == 0
        assert f.members == frozenset({2, 3, 4})
        assert f.centroid == (10.0, 10.0) and f.heading == 42.0

    def test_vanished_removed(self):
        s0 = state([flock(0, {1, 2, 3})])
        assert registry_flocks(sync(s0, [])) == ()

    def test_equal_jaccard_goes_to_the_lowest_member(self):
        # each observation shares one of its three birds with flock 0; the
        # tie goes to the one with the lowest member, not to the first row
        s1 = sync(state([flock(0, {1, 2})]), [obs({2, 4}), obs({1, 3})])
        got = {f.flock_id: f.members for f in registry_flocks(s1)}
        assert got == {0: frozenset({1, 3}), 1: frozenset({2, 4})}

    def test_zero_overlap_never_matches(self):
        s0 = state([flock(0, {1, 2, 3})])
        s1 = sync(s0, [obs({7, 8, 9})])
        assert s1.ids.tolist() == [1]

    def test_duplicate_member_across_observations(self):
        with pytest.raises(CouplingError):
            sync(state([]), [obs({1, 2}), obs({2, 3})])

    def test_removed_id_never_resurrected(self):
        s = state([flock(0, {1, 2, 3})])
        s = sync(s, [])
        s = sync(s, [obs({1, 2, 3})])
        assert s.ids.tolist() == [1]

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
            s = sync(s, [obs(g) for g in groups])
            got = sorted(m for f in registry_flocks(s) for m in f.members)
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
            s1 = sync(s0, [obs(m) for m in observations])
            greedy_total = sum(
                jaccard(reg[f.flock_id], f.members)
                for f in registry_flocks(s1)
                if f.flock_id in reg
            )
            best_total, _ = best_matching(reg, observations)
            assert greedy_total == pytest.approx(max(best_total, 0.0), abs=1e-12)


class TestMacroStep:
    def test_single_flock_straight_line(self):
        s0 = state([flock(0, {1, 2, 3}, centroid=(50.0, 50.0), heading=30.0)])
        (f,) = registry_flocks(macro_step(s0, P))
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
        assert s1.heading[0] != 0.0

    def test_point_flocks_beyond_vision_ignore_each_other(self):
        a = flock(0, {1, 2, 3}, centroid=(10.0, 10.0), heading=0.0, radius=0.0)
        b = flock(1, {4, 5, 6}, centroid=(50.0, 50.0), heading=90.0, radius=0.0)
        s1 = macro_step(state([a, b]), P)
        assert s1.heading.tolist() == [0.0, 90.0]

    def test_flock_count_invariant(self):
        s0 = state(
            [flock(i, {3 * i, 3 * i + 1, 3 * i + 2}, centroid=(10.0 * i, 20.0)) for i in range(5)]
        )
        assert len(macro_step(s0, P)) == 5

    def test_displacement_magnitude_is_speed(self):
        s0 = state(
            [
                flock(0, {1, 2}, centroid=(30.0, 30.0), heading=10.0),
                flock(1, {3, 4}, centroid=(34.0, 30.0), heading=80.0),
            ]
        )
        s1 = macro_step(s0, P)
        for f0, f1 in zip(registry_flocks(s0), registry_flocks(s1)):
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
        assert registry_flocks(a) == registry_flocks(b)

    def test_radius_not_evolved(self):
        s0 = state([flock(0, {1, 2}, radius=3.5)])
        assert macro_step(s0, P).radius.tolist() == [3.5]

    def test_zero_flocks_is_legal(self):
        assert registry_flocks(macro_step(state([]), P)) == ()

    @pytest.mark.parametrize(
        "column, value, result",
        [("x", math.inf, "x"), ("y", -math.inf, "y"), ("heading", math.nan, "x")],
    )
    def test_non_finite_result_rejected(self, column, value, result):
        # derive puts the bad column in unchecked, so macro_step's own check
        # must catch the result
        s = planted(column, value)
        with np.errstate(invalid="ignore"), pytest.raises(
            ValueError, match=f"^{result} must be finite, got nan for row 1$"
        ):
            macro_step(s, P)


class TestDisplacements:
    def test_stationary(self):
        s = state([flock(0, {1, 2})])
        d = displacements(s, s)
        assert (d.vx.tolist(), d.vy.tolist()) == ([0.0], [0.0])
        assert d.members.tolist() == [1, 2] and d.label.tolist() == [0, 0]

    def test_wrap_seam(self):
        before = state([flock(0, {1, 2}, centroid=(99.0, 0.0))])
        after = state([flock(0, {1, 2}, centroid=(1.0, 0.0))])
        d = displacements(before, after)
        assert (d.vx.tolist(), d.vy.tolist()) == ([2.0], [0.0])

    def test_zero_flocks(self):
        assert len(displacements(state([]), state([]))) == 0

    @pytest.mark.parametrize(
        "column, value, result", [("x", math.inf, "vx"), ("y", -math.inf, "vy")]
    )
    def test_non_finite_result_rejected(self, column, value, result):
        after = planted(column, 0.0)
        with np.errstate(invalid="ignore"), pytest.raises(
            ValueError, match=f"^{result} must be finite, got nan for row 1$"
        ):
            displacements(planted(column, value), after)

    def test_id_mismatch(self):
        with pytest.raises(CouplingError):
            displacements(state([flock(0, {1, 2})]), state([flock(1, {1, 2})]))

    def test_roundtrip(self):
        before = state([flock(0, {1, 2}, centroid=(10.0, 10.0), heading=35.0)])
        after = macro_step(before, P)
        d = displacements(before, after)
        moved = wrap((10.0 + d.vx[0], 10.0 + d.vy[0]), W)
        assert moved[0] == pytest.approx(after.x[0], abs=1e-9)
        assert moved[1] == pytest.approx(after.y[0], abs=1e-9)
        assert d.heading[0] == after.heading[0]
        assert (d.vx[0], d.vy[0]) == torus_delta((10.0, 10.0), moved, W)


# The three coupled parameter sets, and two that let every bit of a
# bearing through to the heading: a turn bound of 180 returns the target
# itself, a bound of 0 keeps the heading as it was.
PARAM_SETS = {name: VARIANTS[name].macro_params for name in ("M", "M1", "M2")}
PARAM_SETS["exact-align"] = SteeringParams(
    max_separate_turn=180.0, max_align_turn=180.0, max_cohere_turn=0.0
)
PARAM_SETS["exact-cohere"] = SteeringParams(
    max_separate_turn=180.0, max_align_turn=0.0, max_cohere_turn=180.0
)


def assert_matches_per_flock_rule(s, p):
    got = registry_flocks(macro_step(s, p))
    want = per_flock_step(Registry(registry_flocks(s), s.world), p).flocks
    for g, w in zip(got, want):
        assert g == w, f"flock {w.flock_id} differs"
    assert got == want


def random_state(rng, world, n, max_radius):
    flocks = [
        RefFlock(
            k,
            (rng.uniform(0.0, world.width), rng.uniform(0.0, world.height)),
            rng.uniform(0.0, 360.0),
            rng.uniform(0.0, max_radius),
            frozenset({k}),
        )
        for k in range(n)
    ]
    return state(flocks, world=world)


class TestMatchesPerFlockRule:
    """macro_step equals the per-flock oracle bit for bit."""

    @pytest.mark.parametrize("params", sorted(PARAM_SETS))
    def test_random_registries(self, params):
        rng = random.Random(23)
        for _ in range(40):
            world = TorusWorld(rng.choice([30.0, 100.0]), rng.choice([20.0, 100.0]))
            max_radius = rng.choice([0.0, 4.0])
            s = random_state(rng, world, rng.randint(0, 60), max_radius)
            assert_matches_per_flock_rule(s, PARAM_SETS[params])

    @pytest.mark.parametrize("params", sorted(PARAM_SETS))
    def test_zero_and_one_flock(self, params):
        p = PARAM_SETS[params]
        assert_matches_per_flock_rule(state([]), p)
        assert_matches_per_flock_rule(state([flock(4, {1}, heading=77.0)]), p)

    def test_overlap_clamps_gap_and_lowest_id_is_nearest(self):
        # three overlapping flocks: every gap clamps to 0, so flock 2's
        # nearest mate is flock 0, the lowest id, not the closer flock 1
        p = PARAM_SETS["exact-align"]
        s = state(
            [
                flock(0, {1}, centroid=(50.0, 47.0), heading=0.0, radius=3.0),
                flock(1, {2}, centroid=(51.0, 50.0), heading=0.0, radius=3.0),
                flock(2, {3}, centroid=(50.0, 50.0), heading=0.0, radius=3.0),
            ]
        )
        f = registry_flocks(s)
        assert effective_distance(f[2], f[1], W) == 0.0
        assert_matches_per_flock_rule(s, p)
        assert macro_step(s, p).heading[2] == 90.0

    def test_across_the_seam(self):
        # the mates are only close across the x and y seams
        for p in PARAM_SETS.values():
            s = state(
                [
                    flock(0, {1}, centroid=(99.5, 0.3), heading=10.0, radius=0.4),
                    flock(1, {2}, centroid=(0.2, 99.8), heading=100.0, radius=0.0),
                    flock(2, {3}, centroid=(96.0, 2.0), heading=200.0, radius=1.0),
                    flock(3, {4}, centroid=(50.0, 50.0), heading=300.0, radius=1.0),
                ]
            )
            assert_matches_per_flock_rule(s, p)

    def test_vision_tie_decided_by_numpys_hypot(self):
        # the delta from flock 2 to flock 0 is 1.0 long by math.hypot and
        # 1.0000000000000002 by np.hypot, which the step takes its gaps
        # from: flock 0 is not flock 2's mate at vision 1.0
        w = TorusWorld(1.5, 2.5)
        p = SteeringParams(vision=1.0, min_separation=0.1)
        s = state(
            [
                flock(0, {1}, centroid=(0.0, 0.0), heading=180.0, radius=0.0),
                flock(1, {2}, centroid=(1.0, 0.0), heading=90.0, radius=0.0),
                flock(2, {3}, centroid=(0.6, 0.8000000000000002), heading=90.0, radius=0.0),
            ],
            world=w,
        )
        f = registry_flocks(s)
        assert torus_distance(f[2].centroid, f[0].centroid, w) == 1.0
        assert effective_distance(f[2], f[0], w) > p.vision
        assert_matches_per_flock_rule(s, p)

    @pytest.mark.parametrize("extra", [0.0, 1e-12])
    def test_gap_exactly_at_vision(self, extra):
        # centroids 14 apart, radii 1.5 and 2.5: the gap is exactly 10
        p = SteeringParams(vision=10.0, max_align_turn=180.0, max_cohere_turn=0.0)
        a = flock(0, {1}, centroid=(20.0, 40.0), heading=0.0, radius=1.5)
        b = flock(1, {2}, centroid=(34.0 + extra, 40.0), heading=90.0, radius=2.5)
        s = state([a, b])
        assert (effective_distance(a, b, W) == p.vision) == (extra == 0.0)
        assert_matches_per_flock_rule(s, p)
        assert macro_step(s, p).heading[0] == (90.0 if extra == 0.0 else 0.0)

    @pytest.mark.parametrize("extra", [0.0, -1e-12])
    def test_gap_exactly_at_min_separation(self, extra):
        # centroids 3 apart, radii 0.5 and 1.5: the gap is exactly 1, which
        # does not separate; a hair closer, it does
        p = SteeringParams(
            min_separation=1.0, max_separate_turn=180.0, max_align_turn=180.0,
            max_cohere_turn=0.0,
        )
        a = flock(0, {1}, centroid=(20.0, 40.0), heading=0.0, radius=0.5)
        b = flock(1, {2}, centroid=(23.0 + extra, 40.0), heading=90.0, radius=1.5)
        s = state([a, b])
        assert (effective_distance(a, b, W) == p.min_separation) == (extra == 0.0)
        assert_matches_per_flock_rule(s, p)
        assert macro_step(s, p).heading[0] == (90.0 if extra == 0.0 else 180.0)

    def test_gap_rounding_beyond_the_candidate_radius(self):
        # vision 12.599, radii 0.781: the centroid distance rounds to one
        # ulp above vision + 2 radius, yet the gap rounds to vision, so
        # this pair are mates
        p = SteeringParams(vision=12.599, max_align_turn=180.0, max_cohere_turn=0.0)
        a = flock(0, {1}, centroid=(20.0, 50.0), heading=0.0, radius=0.781)
        b = flock(1, {2}, centroid=(34.161, 50.0), heading=90.0, radius=0.781)
        s = state([a, b])
        assert torus_distance(a.centroid, b.centroid, W) > p.vision + 2.0 * 0.781
        assert effective_distance(a, b, W) <= p.vision
        assert_matches_per_flock_rule(s, p)
        assert macro_step(s, p).heading[0] == 90.0


# Half-unit lattice centroids with radii in quarter units: gaps land
# exactly on vision and on min_separation, and many nearest-mate gaps tie
# (also at 0, where circles overlap).
LW = TorusWorld(20.0, 12.5)
lattice_flocks = st.lists(
    st.tuples(
        st.integers(0, 39).map(lambda k: k / 2.0),
        st.integers(0, 24).map(lambda k: k / 2.0),
        st.integers(0, 23).map(lambda k: k * 15.0),
        st.integers(0, 8).map(lambda k: k / 4.0),
    ),
    max_size=30,
)


def registry(flocks, world):
    return state(
        [RefFlock(k, (x, y), h, r, frozenset({k})) for k, (x, y, h, r) in enumerate(flocks)],
        world=world,
    )


@given(
    lattice_flocks,
    st.sampled_from([(0.0, 0.0), (2.5, 1.0), (5.0, 1.0), (5.0, 2.5), (10.0, 1.0)]),
    st.sampled_from(sorted(PARAM_SETS)),
)
@settings(max_examples=150, deadline=None)
def test_lattice_ties_match_per_flock_rule(flocks, vision_sep, params):
    vision, sep = vision_sep
    p = replace(PARAM_SETS[params], vision=vision, min_separation=sep)
    assert_matches_per_flock_rule(registry(flocks, LW), p)


@given(
    st.lists(
        st.tuples(
            st.floats(0.0, 29.999),
            st.floats(0.0, 19.999),
            st.floats(0.0, 359.999),
            st.floats(0.0, 3.0),
        ),
        max_size=25,
    ),
    st.sampled_from(sorted(PARAM_SETS)),
)
@settings(max_examples=150, deadline=None)
def test_random_floats_match_per_flock_rule(flocks, params):
    s = registry(flocks, TorusWorld(30.0, 20.0))
    assert_matches_per_flock_rule(s, PARAM_SETS[params])
