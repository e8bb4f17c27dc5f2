import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flocklevels import coupling
from flocklevels.coupling import (
    ClusterParams,
    Clusters,
    _components,
    detect_clusters,
    emergence_transform,
    reify,
    split_displacements,
)
from flocklevels.experiment import apply_config, build_multimodel
from flocklevels.geometry import TorusWorld
from flocklevels.kernel import run
from flocklevels.macro import Displacements
from flocklevels.micro import CouplingError, MicroState, SteeringParams, micro_step, observe
from helpers import (
    UnionFind,
    brute_clusters,
    cluster_columns,
    cluster_lists,
    columns,
    commands_by_id,
    displacement_columns,
    reify_cluster,
    table_rows,
    wrap,
)

W = TorusWorld(100.0, 100.0)
CP = ClusterParams(d_prox=5.0, theta=30.0, min_size=2)


def snapshot(obs, w=W):
    """(id, (x, y), heading) rows as the package's population state."""
    return MicroState(*columns(obs), 0, w)


def detect(state, p):
    """detect_clusters, its table read as the id lists of brute_clusters."""
    return cluster_lists(detect_clusters(state, p), state)


def reify_lists(lists, state):
    """reify of the clusters given as id lists ordered by lowest member."""
    return reify(Clusters(*cluster_columns(lists, state)), state)


def displacement_table(rows):
    return Displacements(*displacement_columns(rows))


def r_way_split(d, r):
    """The r command tables the immergence artifact delivers over one
    period, each as a map bird id -> ((vx, vy), heading)."""
    return [commands_by_id(split_displacements(d, r)) for _ in range(r)]


def random_observation(n, rng):
    return [
        (i, (rng.uniform(0, 100), rng.uniform(0, 100)), rng.uniform(0, 360))
        for i in range(n)
    ]


def clumped_observation(n, w, rng):
    """n birds around a few centres, headings spread around each centre's."""
    k = int(rng.integers(1, 8))
    cx, cy = rng.uniform(0, w.width, k), rng.uniform(0, w.height, k)
    ch = rng.uniform(0, 360, k)
    spread = rng.uniform(0.5, 6.0)
    obs = []
    for bid in range(n):
        c = int(rng.integers(k))
        pos = wrap((cx[c] + rng.normal(0, spread), cy[c] + rng.normal(0, spread)), w)
        obs.append((bid, pos, float((ch[c] + rng.normal(0, 20)) % 360)))
    return obs


def oracle_flocks(obs, p, w):
    """Brute-force clusters, reified one at a time by the oracle."""
    clusters = brute_clusters(obs, p.d_prox, p.theta, p.min_size, w.width, w.height)
    return [reify_cluster(c, obs, w) for c in clusters]


def as_tuples(flocks):
    return table_rows(flocks)


class TestDetectClusters:
    def test_empty(self):
        assert detect(snapshot([]), CP) == []

    def test_lone_bird_is_not_a_cluster(self):
        assert detect(snapshot([(0, (5.0, 5.0), 0.0)]), CP) == []

    def test_pair_plus_outlier(self):
        obs = [
            (0, (0.0, 0.0), 0.0),
            (1, (1.0, 0.0), 5.0),
            (2, (50.0, 50.0), 0.0),
        ]
        p = ClusterParams(d_prox=5.0, theta=10.0, min_size=2)
        assert detect(snapshot(obs), p) == [[0, 1]]
        assert brute_clusters(obs, 5.0, 10.0, 2, 100.0, 100.0) == [[0, 1]]

    def test_heading_threshold_cuts_edges(self):
        obs = [(0, (0.0, 0.0), 0.0), (1, (1.0, 0.0), 90.0)]
        assert detect(snapshot(obs), CP) == []

    def test_matches_union_find_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            obs = random_observation(50, rng)
            got = detect(snapshot(obs), CP)
            want = brute_clusters(obs, CP.d_prox, CP.theta, CP.min_size, 100.0, 100.0)
            assert got == want

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 39).map(lambda k: k / 2.0),
                st.integers(0, 24).map(lambda k: k / 2.0),
                st.integers(0, 23).map(lambda k: k * 15.0),
            ),
            max_size=60,
        ),
        st.sampled_from([0.5, 2.5, 5.0, 7.5]),
        st.sampled_from([0.0, 15.0, 30.0, 180.0]),
        st.integers(2, 3),
    )
    # two birds exactly d_prox apart, theta apart in heading: one cluster of min_size
    @example([(0.0, 0.0, 0.0), (2.5, 0.0, 15.0)], 2.5, 15.0, 2)
    # headings theta apart the short way round, across 0
    @example([(0.0, 0.0, 345.0), (2.5, 0.0, 15.0)], 2.5, 30.0, 2)
    @settings(max_examples=150, deadline=None)
    def test_lattice_ties_match_union_find_oracle(self, birds, d_prox, theta, min_size):
        # half-unit lattice: distances and heading gaps are exact, so many
        # links sit exactly at d_prox (axis, seam, 3-4-5) and at theta
        w = TorusWorld(20.0, 12.5)
        obs = [(k, (x, y), h) for k, (x, y, h) in enumerate(birds)]
        p = ClusterParams(d_prox=d_prox, theta=theta, min_size=min_size)
        want = brute_clusters(obs, d_prox, theta, min_size, w.width, w.height)
        assert detect(snapshot(obs, w), p) == want

    @pytest.mark.parametrize(
        "headings,want",
        [
            ((184.2557848920924, 351.42947170670556), ([], [[0, 1]])),
            ((351.42947170670556, 184.2557848920924), ([], [[0, 1]])),
        ],
    )
    def test_a_link_passes_both_tests_in_one_direction(self, headings, want):
        # in a 100-wide world the closed-form distance from bird 0 to bird
        # 1 is 42.74294063694282 and back one ulp less, and the closed-form
        # heading difference is 167.17368681461312 one way and
        # 167.17368681461315 the other; the unsigned gap, 42.74294063694281,
        # and the unsigned heading difference, 167.17368681461315, are the
        # same from either bird, so swapping the headings changes nothing:
        # the pair is linked at a theta of the latter and not one ulp below
        obs = [
            (0, (1.6527635528529094, 50.0), headings[0]),
            (1, (44.39570418979572, 50.0), headings[1]),
        ]
        for theta, clusters in zip((167.17368681461312, 167.17368681461315), want):
            p = ClusterParams(d_prox=42.74294063694281, theta=theta, min_size=2)
            assert detect(snapshot(obs), p) == clusters
            assert brute_clusters(obs, p.d_prox, theta, 2, 100.0, 100.0) == clusters

    @given(
        st.lists(
            st.tuples(
                # a half-unit lattice 20 wide around both seams
                st.integers(-20, 19).map(lambda k: k / 2.0 % 100.0),
                st.integers(-20, 19).map(lambda k: k / 2.0 % 100.0),
                st.integers(0, 23).map(lambda k: k * 15.0),
            ),
            max_size=40,
        ),
        st.sampled_from([0.5, 2.5, 5.0]),
        st.sampled_from([0.0, 15.0, 30.0]),
    )
    # the pair whose closed-form distance and heading difference pass one
    # ulp apart in opposite directions, in both heading orders
    @example(
        [
            (1.6527635528529094, 50.0, 351.42947170670556),
            (44.39570418979572, 50.0, 184.2557848920924),
        ],
        42.74294063694281,
        167.17368681461312,
    )
    @example(
        [
            (1.6527635528529094, 50.0, 184.2557848920924),
            (44.39570418979572, 50.0, 351.42947170670556),
        ],
        42.74294063694281,
        167.17368681461312,
    )
    @settings(max_examples=100, deadline=None)
    def test_reversed_ids_give_the_same_clusters(self, birds, d_prox, theta):
        # the birds relabelled in reverse id order: every pair is decided
        # the same, so the id-set clusters are those of the oracle either way
        n = len(birds)
        obs = [(k, (x, y), h) for k, (x, y, h) in enumerate(birds)]
        back = [(n - 1 - k, pos, h) for k, pos, h in obs]
        p = ClusterParams(d_prox=d_prox, theta=theta, min_size=2)
        want = brute_clusters(obs, d_prox, theta, 2, 100.0, 100.0)
        assert detect(snapshot(obs), p) == want
        got = detect(snapshot(back), p)
        assert sorted(sorted(n - 1 - b for b in c) for c in got) == want

    def test_headings_at_both_ends_of_the_circle(self):
        # 0 and the largest heading below 360 are 360 - top apart the short
        # way round; |h[j] - h[i]| = top is below 360, its own remainder
        top = float(np.nextafter(360.0, 0.0))
        obs = [(0, (1.0, 1.0), 0.0), (1, (2.0, 1.0), top), (2, (3.0, 1.0), 0.0)]
        for theta, want in ((0.0, [[0, 2]]), (360.0 - top, [[0, 1, 2]])):
            p = ClusterParams(d_prox=5.0, theta=theta, min_size=2)
            assert detect(snapshot(obs), p) == want
            assert brute_clusters(obs, 5.0, theta, 2, 100.0, 100.0) == want

    def test_seam_invariance(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            obs = random_observation(40, rng)
            shifted = [
                (i, wrap((p[0] + 48.3, p[1] - 67.1), W), h) for i, p, h in obs
            ]
            clusters = detect(snapshot(obs), CP)
            assert clusters == detect(snapshot(shifted), CP)

    def test_unordered_observation_gives_ascending_id_clusters(self):
        rng = np.random.default_rng(29)
        found = 0
        for _ in range(20):
            ids = rng.choice(1000, size=150, replace=False)
            obs = [(int(b), pos, h) for b, (_, pos, h) in zip(ids, random_observation(150, rng))]
            in_order = sorted(obs)
            want = brute_clusters(obs, CP.d_prox, CP.theta, CP.min_size, 100.0, 100.0)
            assert detect(snapshot(obs), CP) == want
            assert detect(snapshot(in_order), CP) == want
            flocks = emergence_transform([snapshot(obs)], CP)[0]
            assert flocks == emergence_transform([snapshot(in_order)], CP)[0]
            found += len(want)
        assert found > 50

    def test_disjoint_and_min_size(self):
        rng = np.random.default_rng(31)
        obs = random_observation(50, rng)
        clusters = detect(snapshot(obs), CP)
        seen = set()
        for c in clusters:
            assert len(c) >= CP.min_size
            assert c == sorted(c)
            assert not (seen & set(c))
            seen |= set(c)


class TestComponents:
    def test_shuffled_chain_is_one_cluster(self):
        # ids shuffled along a chain: the worst case for hooking, where
        # plain min-label propagation needs about a thousand rounds
        n = 4000
        ids = np.random.default_rng(3).permutation(n)
        w = TorusWorld(2.0 * n + 100.0, 10.0)
        obs = sorted((int(ids[k]), (2.0 * k, 5.0), 0.0) for k in range(n))
        p = ClusterParams(d_prox=3.0, theta=0.0, min_size=2)
        assert detect(snapshot(obs, w), p) == [list(range(n))]
        i = np.concatenate((ids[:-1], ids[1:]))
        j = np.concatenate((ids[1:], ids[:-1]))
        t0 = time.perf_counter()
        label = _components(i, j, n)
        assert time.perf_counter() - t0 < 0.1
        assert not label.any()

    @given(
        st.integers(1, 60).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=120),
            )
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_label_is_component_minimum(self, graph):
        n, links = graph
        uf = UnionFind(n)
        for a, b in links:
            uf.union(a, b)
        smallest = {}
        for v in range(n):
            smallest.setdefault(uf.find(v), v)
        i = np.array([a for a, _ in links], dtype=np.int64)
        j = np.array([b for _, b in links], dtype=np.int64)
        label = _components(i, j, n)
        assert label.tolist() == [smallest[uf.find(v)] for v in range(n)]


class TestReify:
    def test_single_member(self):
        obs = [(3, (12.0, 34.0), 270.0)]
        ((members, centroid, heading, radius),) = as_tuples(reify_lists([[3]], snapshot(obs)))
        assert members == {3}
        assert centroid == (12.0, 34.0)
        assert heading == 270.0
        assert radius == 0.0

    def test_seam_pair(self):
        obs = [(0, (98.0, 0.0), 350.0), (1, (2.0, 0.0), 10.0)]
        ((_, (cx, cy), heading, radius),) = as_tuples(reify_lists([[0, 1]], snapshot(obs)))
        assert min(cx, 100 - cx) == pytest.approx(0.0, abs=1e-9)
        assert cy == pytest.approx(0.0, abs=1e-9)
        assert heading == pytest.approx(0.0, abs=1e-9)
        assert radius == pytest.approx(2.0, abs=1e-9)

    def test_square_cluster(self):
        obs = [
            (0, (49.0, 49.0), 90.0),
            (1, (51.0, 49.0), 90.0),
            (2, (49.0, 51.0), 90.0),
            (3, (51.0, 51.0), 90.0),
        ]
        ((_, centroid, heading, radius),) = as_tuples(reify_lists([[0, 1, 2, 3]], snapshot(obs)))
        assert centroid == (pytest.approx(50.0), pytest.approx(50.0))
        assert heading == 90.0
        assert radius == pytest.approx(math.sqrt(2.0), abs=1e-9)

    def test_zero_resultant_falls_back_to_lowest_id(self):
        obs = [(5, (10.0, 10.0), 0.0), (9, (11.0, 10.0), 180.0)]
        f = reify_lists([[9, 5]], snapshot(obs))
        assert f.heading.tolist() == [0.0]  # bird 5's heading
        assert f.members.tolist() == [5, 9]

    def test_missing_member(self):
        # a row beyond the observation
        with pytest.raises(CouplingError):
            reify(Clusters([0, 1], [0, 0]), snapshot([(0, (0.0, 0.0), 0.0)]))
        # one past the last row
        two = snapshot([(0, (0.0, 0.0), 0.0), (5, (1.0, 0.0), 0.0)])
        with pytest.raises(CouplingError, match=r"\[2\]"):
            reify(Clusters([0, 2], [0, 0]), two)


class TestClusters:
    def test_length_is_the_cluster_count(self):
        assert len(Clusters([], [])) == 0
        assert len(Clusters([1, 4, 6, 7], [0, 1, 0, 2])) == 3

    def test_columns_are_read_only(self):
        c = Clusters([1, 4], [0, 0])
        with pytest.raises(ValueError):
            c.rows[0] = 0

    @pytest.mark.parametrize("rows", [[2, 2], [3, 1], [-1, 0]])
    def test_rows_strictly_ascending(self, rows):
        with pytest.raises(CouplingError):
            Clusters(rows, [0, 0])

    def test_rejects_unequal_lengths(self):
        with pytest.raises(ValueError, match=r"^cluster has shape \(1,\), want \(2,\)$"):
            Clusters([1, 4], [0])

    @pytest.mark.parametrize("cluster", [[1, 0], [0, 2], [0, 0, 2]])
    def test_numbered_by_lowest_member(self, cluster):
        with pytest.raises(ValueError, match="lowest member"):
            Clusters(list(range(len(cluster))), cluster)


class TestEmergenceTransform:
    def test_calls_detect_and_reify_once_through_module_globals(self, monkeypatch):
        # the benchmark times the two layers by wrapping them there
        calls = []

        def spy(name):
            fn = getattr(coupling, name)

            def wrapped(*args):
                calls.append(name)
                return fn(*args)

            monkeypatch.setattr(coupling, name, wrapped)

        spy("detect_clusters")
        spy("reify")
        state = snapshot(random_observation(200, np.random.default_rng(3)))
        flocks = emergence_transform([state], CP)[0]
        assert calls == ["detect_clusters", "reify"]
        assert len(flocks) > 0
        assert len(detect_clusters(state, CP)) == len(flocks)

    def test_batch_calls_detect_and_reify_once(self, monkeypatch):
        calls = []
        for name in ("detect_clusters", "reify"):
            fn = getattr(coupling, name)

            def wrapped(*args, fn=fn, name=name):
                calls.append(name)
                return fn(*args)

            monkeypatch.setattr(coupling, name, wrapped)
        rng = np.random.default_rng(4)
        states = [snapshot(random_observation(150, rng)) for _ in range(5)]
        tables = emergence_transform(states, CP)
        assert calls == ["detect_clusters", "reify"]
        assert [len(t) for t in tables] == [len(detect_clusters(s, CP)) for s in states]

    def test_one_snapshot_is_stacked_without_a_copy(self, monkeypatch):
        seen = []
        detect = coupling.detect_clusters

        def spy(stack, p, group):
            seen.append((stack, group))
            return detect(stack, p, group)

        monkeypatch.setattr(coupling, "detect_clusters", spy)
        state = snapshot(random_observation(50, np.random.default_rng(6)))
        emergence_transform([state], CP)
        ((stack, group),) = seen
        assert stack.x is state.x and stack.y is state.y
        assert stack.heading is state.heading
        assert group is None

    def test_snapshots_of_two_worlds_rejected(self):
        obs = [(0, (1.0, 1.0), 0.0)]
        with pytest.raises(ValueError, match="one world"):
            emergence_transform([snapshot(obs), snapshot(obs, TorusWorld(50.0, 50.0))], CP)

    def test_no_snapshots(self):
        assert emergence_transform([], CP) == []

    @pytest.mark.parametrize("variant", ["m", "M", "M1", "M2", "M3"])
    def test_batches_of_a_run_equal_one_snapshot_calls(self, variant):
        # every snapshot a run wrote, with an empty snapshot and one
        # without a cluster put in at the ends and in the middle
        for seed in (1, 2, 3):
            cfg = apply_config(variant, birds=50, horizon=100, base_seed=seed)
            mm = build_multimodel(cfg, 0)
            run(mm)
            snaps = [mm.emergence.buffer[t] for t in sorted(mm.emergence.buffer)]
            w = cfg.world
            empty = MicroState([], [], [], [], 0, w)
            scattered = snapshot([(k, (20.0 * k, 50.0), 0.0) for k in range(5)], w)
            middle = len(snaps) // 2
            snaps = [empty, scattered, *snaps[:middle], empty, scattered,
                     *snaps[middle:], scattered, empty]
            alone = [emergence_transform([s], cfg.cluster)[0] for s in snaps]
            assert len(alone[1]) == 0 and sum(map(len, alone)) > 0
            for size in (1, 3, 7, len(snaps)):
                batched = []
                for k in range(0, len(snaps), size):
                    batched += emergence_transform(snaps[k : k + size], cfg.cluster)
                assert len(batched) == len(snaps)
                for t, (got, want) in enumerate(zip(batched, alone)):
                    assert got == want, (variant, seed, size, t)

    def test_matches_per_cluster_reify(self):
        # one batched pass gives every flock bit for bit as the oracle
        # reifies it alone
        obs = random_observation(400, np.random.default_rng(8))
        flocks = emergence_transform([snapshot(obs)], CP)[0]
        assert len(flocks) > 10
        assert as_tuples(flocks) == oracle_flocks(obs, CP, W)
        with pytest.raises(CouplingError, match=r"\[1000\]"):
            reify(Clusters([0, 1, 2, 1000], [0, 0, 1, 1]), snapshot(obs))

    def test_matches_oracle_on_random_worlds(self):
        rng = np.random.default_rng(41)
        flocks = 0
        for k in range(60):
            if k % 3 == 0:  # narrow: one axis shorter than d_prox can be
                extents = [rng.uniform(2.0, 6.0), rng.uniform(60.0, 200.0)]
                rng.shuffle(extents)
                w = TorusWorld(*extents)
            else:
                w = TorusWorld(rng.uniform(20.0, 150.0), rng.uniform(20.0, 150.0))
            p = ClusterParams(
                d_prox=rng.uniform(0.5, 8.0),
                theta=rng.uniform(0.0, 180.0),
                min_size=int(rng.integers(2, 6)),
            )
            obs = clumped_observation(int(rng.integers(0, 120)), w, rng)
            got = as_tuples(emergence_transform([snapshot(obs, w)], p)[0])
            assert got == oracle_flocks(obs, p, w)
            flocks += len(got)
        assert flocks > 100

    def test_zero_resultant_fallbacks_next_to_ordinary_clusters(self):
        w = TorusWorld(100.0, 60.0)
        p = ClusterParams(d_prox=5.0, theta=90.0, min_size=2)
        birds = (
            # rings round the x axis and round the y axis: zero resultant
            # on that axis; headings 180 apart keep them unlinked
            [((4.0 * k, 5.0), 0.0) for k in range(25)]
            + [((50.0, 4.0 * k), 180.0) for k in range(15)]
            # headings that cancel, linked through the 90-degree steps
            + [((24.0, 30.0), 90.0), ((26.0, 30.0), 0.0)]
            + [((24.0, 32.0), 180.0), ((26.0, 32.0), 270.0)]
            # ordinary clusters
            + [((80.0 + k, 40.0), 40.0 + 5.0 * k) for k in range(3)]
            + [((10.0, 45.0 + k), 300.0 + 10.0 * k) for k in range(2)]
        )
        obs = [(k, pos, h) for k, (pos, h) in enumerate(birds)]
        flocks = emergence_transform([snapshot(obs, w)], p)[0]
        assert as_tuples(flocks) == oracle_flocks(obs, p, w)
        x_ring, y_ring, cancelled, *ordinary = as_tuples(flocks)
        assert x_ring[1][0] == math.fsum(4.0 * k for k in range(25)) / 25
        assert y_ring[1][1] == math.fsum(4.0 * k for k in range(15)) / 15
        assert cancelled[2] == 90.0  # the lowest id's heading
        assert [len(f[0]) for f in ordinary] == [3, 2]

    def test_scattered_birds_no_flocks(self):
        obs = [(i, (i * 20.0, 50.0), 0.0) for i in range(5)]
        assert len(emergence_transform([snapshot(obs)], CP)[0]) == 0

    def test_tight_group_is_one_flock(self):
        obs = [(i, (50.0 + 0.3 * i, 50.0), 10.0) for i in range(10)]
        flocks = emergence_transform([snapshot(obs)], CP)[0]
        assert len(flocks) == 1
        assert flocks.members.tolist() == list(range(10))

    def test_information_reducing(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            obs = random_observation(50, rng)
            flocks = emergence_transform([snapshot(obs)], CP)[0]
            assert len(flocks) <= len(obs) // CP.min_size


class TestImmergenceTransform:
    def test_quarter_split(self):
        d = displacement_table([({1, 2, 3}, (2.0, -2.0), 315.0)])
        sets = r_way_split(d, 4)
        assert len(sets) == 4
        for cs in sets:
            assert set(cs) == {1, 2, 3}
            for v, h in cs.values():
                assert v == (0.5, -0.5)
                assert h == 315.0

    def test_empty_displacements(self):
        assert r_way_split(displacement_table([]), 3) == [{}, {}, {}]

    def test_rejects_ratio_below_one(self):
        d = displacement_table([({1, 2, 3}, (2.0, -2.0), 315.0)])
        with pytest.raises(ValueError, match="^r must be >= 1$"):
            split_displacements(d, 0)

    def test_cardinality_expansion(self):
        d = displacement_table(
            [({1, 2, 3}, (1.0, 0.0), 0.0), ({4, 5, 6, 7, 8}, (0.0, 1.0), 90.0)]
        )
        assert len(split_displacements(d, 1)) == 8

    def test_overlapping_members_rejected(self):
        # a bird in two flocks is rejected when the table is built
        with pytest.raises(CouplingError, match=r"\[2\]"):
            displacement_table([({1, 2}, (1.0, 0.0), 0.0), ({2, 3}, (0.0, 1.0), 90.0)])

    def test_conservation(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            d = []
            next_bird = 0
            for fid in range(rng.integers(1, 5)):
                size = int(rng.integers(1, 6))
                members = frozenset(range(next_bird, next_bird + size))
                next_bird += size
                v = (float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)))
                d.append((fid, members, v, float(rng.uniform(0, 360))))
            table = displacement_table(row[1:] for row in d)
            for r in (1, 2, 4):
                sets = r_way_split(table, r)
                assert len(sets) == r
                union = set().union(*(set(cs) for cs in sets)) if sets else set()
                for fid, members, v, h in d:
                    for bid in members:
                        sx = math.fsum(cs[bid][0][0] for cs in sets)
                        sy = math.fsum(cs[bid][0][1] for cs in sets)
                        assert abs(sx - v[0]) < 1e-12
                        assert abs(sy - v[1]) < 1e-12
                        assert all(cs[bid][1] == h for cs in sets)
                for cs in sets:
                    assert set(cs) == {b for _, m, _, _ in d for b in m}


class TestRoundTrip:
    def test_commands_preserve_cluster(self):
        # a single isolated flock driven by its own displacement commands
        # is re-detected with the same member set
        state = snapshot([(i, (50.0 + 0.7 * i, 50.0 + 0.2 * i), 40.0) for i in range(6)])
        f = emergence_transform([observe(state)], CP)[0]
        assert f.members.tolist() == list(range(6)) and len(f) == 1
        d = displacement_table([(f.members.tolist(), (1.7, -0.9), f.heading[0])])
        for _ in range(4):
            state = micro_step(state, split_displacements(d, 4), SteeringParams())
        g = emergence_transform([observe(state)], CP)[0]
        assert g.members.tolist() == f.members.tolist() and len(g) == 1
        assert g.heading[0] == pytest.approx(f.heading[0], abs=1e-9)
        assert g.radius[0] == pytest.approx(f.radius[0], abs=1e-9)
