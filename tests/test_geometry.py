import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flocklevels.coupling import ClusterParams, Clusters, reify
from flocklevels.geometry import (
    LENGTH_BOUND,
    TorusWorld,
    mate_sums,
    steer,
    torus_links,
    torus_neighbours,
    wrap_array,
    wrapped_delta,
)
from flocklevels.micro import MicroState, SteeringParams
from helpers import (
    UndefinedMeanError,
    brute_delta,
    brute_distance,
    circular_mean,
    cluster_columns,
    gap_length,
    naive_disc_pairs,
    naive_links,
    naive_pairs,
    torus_delta,
    wrap,
    wrap_scalar,
)

W = TorusWorld(100.0, 100.0)

coords = st.floats(min_value=-500.0, max_value=500.0, allow_nan=False)
in_world = st.tuples(
    st.floats(min_value=0.0, max_value=99.999999),
    st.floats(min_value=0.0, max_value=99.999999),
)
headings = st.floats(min_value=0.0, max_value=359.999999)


class TestTorusWorld:
    @pytest.mark.parametrize(
        "width,height", [(math.inf, 1.0), (1.0, math.nan), (0.0, 1.0), (1.0, -2.0)]
    )
    def test_rejects_bad_extents(self, width, height):
        with pytest.raises(ValueError, match="width|height"):
            TorusWorld(width, height)


def up(v):
    """The next float above v."""
    return float(np.nextafter(v, math.inf))


class TestLimits:
    """LENGTH_BOUND bounds every length: extents lie in [1 / L, L], and
    speed, vision and d_prox are at most L."""

    def test_wrapped_delta_forms_one_and_a_half_extents(self):
        big = LENGTH_BOUND
        x = float(np.nextafter(big, 0.0))
        gap = big / 2.0
        assert math.isfinite(x + big / 2.0)
        assert math.isfinite(gap * gap + gap * gap)

    def test_move_forms_a_coordinate_plus_the_speed(self):
        # the largest coordinate lies just below the largest extent
        x = float(np.nextafter(LENGTH_BOUND, 0.0))
        assert math.isfinite(x + LENGTH_BOUND)

    def test_flock_reach_forms_vision_and_two_radii(self):
        big = LENGTH_BOUND
        # a flock's radius is at most half the diagonal of the world; the
        # macro step widens the flock reach once and the search once more
        radius = math.hypot(big / 2.0, big / 2.0)
        reach = (big + 2.0 * radius) * (1.0 + 1e-9)
        reach = reach * (1.0 + 1e-9) + 1e-12 * big
        # the squared reach, about 5.9 L^2, is the largest value any
        # formula forms, above the area L^2
        assert math.isfinite(reach * reach) and math.isfinite(big * big)
        assert 5.8 < reach * reach / (big * big) < 5.9
        # at the smallest extent the search reach at r = 0 and the area
        # are nonzero
        small = 1.0 / LENGTH_BOUND
        assert 1e-12 * small > 0.0 and small * small > 0.0

    def test_parameter_classes_reject_one_ulp_above(self):
        big, small = LENGTH_BOUND, 1.0 / LENGTH_BOUND
        TorusWorld(big, big)
        TorusWorld(small, small)
        SteeringParams(vision=big, speed=big)
        ClusterParams(d_prox=big)
        down = float(np.nextafter(small, 0.0))
        for build, name in (
            (lambda v: TorusWorld(v, 1.0), "width"),
            (lambda v: TorusWorld(1.0, v), "height"),
        ):
            for v in (up(big), down):
                with pytest.raises(ValueError, match=f"^{name} must be"):
                    build(v)
        with pytest.raises(ValueError, match="^speed must be at most"):
            SteeringParams(speed=up(big))
        with pytest.raises(ValueError, match="^vision must be at most"):
            SteeringParams(vision=up(big))
        with pytest.raises(ValueError, match="^d_prox must be positive and at most"):
            ClusterParams(d_prox=up(big))


class TestWrap:
    """wrap_scalar reduces one coordinate, wrap_array every value alike."""

    def test_modulo(self):
        assert (wrap_scalar(105.0, 100.0), wrap_scalar(-3.0, 100.0)) == (5.0, 97.0)
        assert wrap_array(np.array([105.0, -3.0]), 100.0).tolist() == [5.0, 97.0]

    def test_identity(self):
        assert wrap_scalar(50.0, 100.0) == 50.0
        assert wrap_array(np.array([50.0, 0.0]), 100.0).tolist() == [50.0, 0.0]

    def test_exact_extent(self):
        # -1e-20 % 100 rounds to 100 itself, which belongs to 0
        for v in (200.0, -1e-20):
            assert wrap_scalar(v, 100.0) == 0.0
            assert wrap_array(np.array([v]), 100.0).tolist() == [0.0]

    def test_non_finite(self):
        with pytest.raises(ValueError):
            wrap_scalar(math.inf, 100.0)

    @given(st.tuples(coords, coords))
    def test_idempotent(self, p):
        once = wrap_array(np.array(p), 100.0)
        assert once.tolist() == [wrap_scalar(c, 100.0) for c in p]
        assert np.array_equal(wrap_array(once, 100.0), once)
        assert ((0 <= once) & (once < 100)).all()


class TestTorusDelta:
    """The closed-form wrap that every delta in the package and its
    oracles uses, checked against the 9-image brute force."""

    def test_seam(self):
        assert torus_delta((1.0, 0.0), (99.0, 0.0), W) == (-2.0, 0.0)

    def test_identity(self):
        assert torus_delta((5.0, 5.0), (5.0, 5.0), W) == (0.0, 0.0)

    def test_against_image_oracle(self):
        # frozen from the 9-image brute force
        assert torus_delta((10.0, 10.0), (20.0, 90.0), W) == (10.0, -20.0)
        assert brute_delta((10.0, 10.0), (20.0, 90.0), 100.0, 100.0) == (10.0, -20.0)

    @given(in_world, in_world)
    def test_matches_oracle_and_roundtrips(self, a, b):
        dx, dy = torus_delta(a, b, W)
        assert wrapped_delta(np.array(a), np.array(b), 100.0).tolist() == [dx, dy]
        ox, oy = brute_delta(a, b, 100.0, 100.0)
        assert math.hypot(dx, dy) == pytest.approx(math.hypot(ox, oy), abs=1e-9)
        assert abs(dx) <= 50.0 and abs(dy) <= 50.0
        wx, wy = wrap((a[0] + dx, a[1] + dy), W)
        assert min(abs(wx - b[0]), 100 - abs(wx - b[0])) < 1e-9
        assert min(abs(wy - b[1]), 100 - abs(wy - b[1])) < 1e-9


def down(v):
    """The next float below v."""
    return float(np.nextafter(v, -math.inf))


@st.composite
def axis_coordinates(draw):
    """An extent from 2^-500 to 2^500 and two lists of coordinates in [0,
    extent], drawn or at the edges: 0, the smallest subnormal, half the
    extent and its neighbours, the largest coordinate below the extent,
    and the extent itself."""
    e = draw(st.sampled_from([2.0**-500, 1e-150, 0.1, 1.0, 3.0, 100.0, 1e15, 1e300, 2.0**500]))
    edges = [0.0, 5e-324, down(e / 2.0), e / 2.0, up(e / 2.0), down(e), e]
    coordinate = st.sampled_from(edges) | st.floats(0.0, e)
    n = draw(st.integers(0, 8))
    a, b = (draw(st.lists(coordinate, min_size=n, max_size=n)) for _ in range(2))
    return e, a, b


class TestWrappedDelta:
    """wrapped_delta is the floor-mod formula of torus_delta, bit for bit,
    on the coordinates of a world."""

    @given(axis_coordinates())
    @example((100.0, [0.0, 100.0, 50.0, 0.0], [50.0, 0.0, 0.0, 100.0]))
    @example((2.0**500, [0.0, 2.0**499], [down(2.0**500), 0.0]))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_floor_mod_bit_for_bit(self, drawn):
        e, a, b = drawn
        got = wrapped_delta(np.array(a), np.array(b), e)
        want = np.array([(q - p + e / 2.0) % e - e / 2.0 for p, q in zip(a, b)])
        assert got.tobytes() == want.tobytes()

    def test_infinite_coordinates_give_nan(self):
        inf = math.inf
        a = np.array([inf, 0.0, -inf, 0.0, inf])
        b = np.array([0.0, inf, 0.0, -inf, inf])
        with np.errstate(invalid="ignore"):
            assert np.isnan(wrapped_delta(a, b, 100.0)).all()


def point_pairs(x, y, r, w, rows=None):
    """torus_neighbours of points: discs of radius 0, whose gap is their
    distance."""
    return torus_neighbours(x, y, np.zeros(x.size), r, w, rows)


def torus_distance(a, b):
    """The distance torus_neighbours reports from point a to point b."""
    x, y = np.array([a[0], b[0]]), np.array([a[1], b[1]])
    # a radius beyond the half diagonal keeps every pair
    _, _, _, _, dist = point_pairs(x, y, 100.0, W)
    return dist[0]


class TestTorusDistance:
    def test_seam(self):
        assert torus_distance((1.0, 0.0), (99.0, 0.0)) == 2.0

    def test_zero(self):
        assert torus_distance((3.0, 4.0), (3.0, 4.0)) == 0.0

    def test_derived(self):
        d = torus_distance((10.0, 10.0), (20.0, 90.0))
        assert d == pytest.approx(math.sqrt(500.0), abs=1e-12)

    @given(in_world, in_world, in_world)
    @settings(max_examples=200)
    def test_metric_properties(self, a, b, c):
        dab = torus_distance(a, b)
        assert dab == pytest.approx(torus_distance(b, a), abs=1e-9)
        assert dab <= math.sqrt(50.0**2 + 50.0**2) + 1e-9
        assert dab <= torus_distance(a, c) + torus_distance(c, b) + 1e-9


class TestCircularMean:
    """The circular mean of the steering oracles in helpers.py."""

    def test_wraparound(self):
        assert circular_mean([350.0, 10.0]) == pytest.approx(0.0, abs=1e-9)

    def test_singleton(self):
        assert circular_mean([90.0]) == pytest.approx(90.0)

    def test_symmetric(self):
        assert circular_mean([0.0, 90.0]) == pytest.approx(45.0)

    def test_zero_resultant(self):
        with pytest.raises(UndefinedMeanError):
            circular_mean([0.0, 180.0])


def aim(target):
    """The bearing steer takes from a resultant along target: libm's
    atan2 in degrees, in [0, 360). It is target itself for 0, 10, 45, 90,
    180, 190, 270 and 350, not for 3."""
    r = math.radians(target)
    return math.degrees(math.atan2(math.sin(r), math.cos(r))) % 360.0


def turn(current, target, max_turn):
    """The heading steer gives one point that only aligns: its one mate
    heads along target, beyond min_separation, with a zero offset (no
    cohesion), and alignment turns at most max_turn."""
    r = math.radians(target)
    p = SteeringParams(max_align_turn=max_turn)
    sums = (
        np.array([1]),  # count
        np.array([0]),  # nearest
        np.array([5.0]),  # nearest_d
        np.array([math.cos(r)]),
        np.array([math.sin(r)]),
        np.zeros(1),
        np.zeros(1),
    )
    (h,) = steer(np.array([current]), np.zeros(1), np.zeros(1), W, p, *sums)
    return h


def heading_diff(a, b):
    """Minimal circular difference, in [0, 180]."""
    d = abs(a - b) % 360.0
    return min(d, 360.0 - d)


class TestHeadingDiff:
    """The turn reaches its target exactly when its bound covers the
    minimal circular difference, in either direction."""

    @pytest.mark.parametrize(
        "a,b,expected", [(350.0, 10.0, 20.0), (0.0, 180.0, 180.0), (45.0, 45.0, 0.0)]
    )
    def test_examples(self, a, b, expected):
        for cur, tgt in ((a, b), (b, a)):
            assert heading_diff(cur, tgt) == expected
            assert turn(cur, tgt, expected) == tgt
            if expected:
                assert turn(cur, tgt, expected - 1e-6) != tgt


class TestTurnTowards:
    """The bounded turn inside steer."""

    def test_clamped(self):
        assert turn(0.0, 90.0, 5.0) == 5.0
        assert turn(90.0, 0.0, 5.0) == 85.0

    def test_within_bound(self):
        assert turn(0.0, 3.0, 5.0) == aim(3.0) != 3.0

    def test_antipodal_tie_counterclockwise(self):
        assert turn(10.0, 190.0, 5.0) == 15.0
        assert turn(190.0, 10.0, 5.0) == 195.0

    def test_zero_difference(self):
        # d rounds to 0 for a heading equal to the target or one ulp off
        # on either side (less than half an ulp of 180), so even a zero
        # bound reaches the target
        for cur in (90.0, math.nextafter(90.0, 0.0), math.nextafter(90.0, 180.0)):
            assert turn(cur, 90.0, 0.0) == 90.0
        # a heading of -0.0 turns into the target +0.0
        h = turn(-0.0, 0.0, 0.0)
        assert h == 0.0 and math.copysign(1.0, h) == 1.0
        # a zero bound keeps a heading that is really off
        assert turn(89.0, 90.0, 0.0) == 89.0

    def test_exact_reach(self):
        # a bound equal to the difference reaches the target; one ulp less
        # stops one bound short, on either side
        assert turn(0.0, 90.0, 90.0) == 90.0
        assert turn(0.0, 270.0, 90.0) == 270.0
        short = math.nextafter(90.0, 0.0)
        assert turn(0.0, 90.0, short) == short
        assert turn(0.0, 270.0, short) == 360.0 - short

    @given(headings, headings, st.floats(min_value=0.0, max_value=180.0))
    @settings(max_examples=200)
    def test_progress_and_bound(self, c, t, m):
        r = turn(c, t, m)
        assert 0.0 <= r < 360.0
        assert heading_diff(r, aim(t)) <= heading_diff(c, aim(t)) + 1e-9
        assert heading_diff(r, c) <= m + 1e-9


class TestSteer:
    def test_point_without_mates_keeps_its_heading(self):
        h = np.array([123.4])
        none = (np.array([0]), np.array([-1]), np.array([np.inf]), *np.zeros((4, 1)))
        assert steer(h, np.zeros(1), np.zeros(1), W, SteeringParams(), *none) == h

    def test_separation_turns_away_across_the_seam(self):
        # each point's nearest mate lies 0.3 away across the x seam; away
        # from it is 180 for the left point and 0 for the right one
        p = SteeringParams(max_separate_turn=180.0)
        x, y, h = np.array([99.8, 0.1]), np.array([50.0, 50.0]), np.array([90.0, 90.0])
        i, j, dx, dy, dist = point_pairs(x, y, p.vision, W)
        sums = mate_sums(i, j, dist, dx, dy, np.zeros(2), np.ones(2), 2)
        assert steer(h, x, y, W, p, *sums).tolist() == [180.0, 0.0]


def torus_centroid(positions, w=W):
    """The centroid reify gives one cluster of the given positions."""
    ids = range(len(positions))
    xs, ys = zip(*positions)
    state = MicroState(ids, xs, ys, [0.0] * len(ids), 0, w)
    flock = reify(Clusters(*cluster_columns([list(ids)], state)), state)
    return (*flock.x.tolist(), *flock.y.tolist())


class TestTorusCentroid:
    def test_singleton(self):
        assert torus_centroid([(10.0, 10.0)]) == (10.0, 10.0)

    def test_seam_symmetry(self):
        cx, cy = torus_centroid([(98.0, 0.0), (2.0, 0.0)])
        assert min(cx, 100 - cx) == pytest.approx(0.0, abs=1e-9)
        assert cy == pytest.approx(0.0, abs=1e-9)

    def test_collinear(self):
        cx, cy = torus_centroid([(10.0, 10.0), (20.0, 10.0), (30.0, 10.0)])
        assert cx == pytest.approx(20.0, abs=1e-9)
        assert cy == pytest.approx(10.0, abs=1e-9)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=30.0),
                st.floats(min_value=0.0, max_value=30.0),
            ),
            min_size=1,
            max_size=8,
        ),
        st.tuples(coords, coords),
    )
    @settings(max_examples=150)
    def test_translation_equivariant(self, cluster, shift):
        base = torus_centroid([wrap(p, W) for p in cluster])
        shifted = torus_centroid(
            [wrap((p[0] + shift[0], p[1] + shift[1]), W) for p in cluster]
        )
        expected = wrap((base[0] + shift[0], base[1] + shift[1]), W)
        for got, want, extent in zip(shifted, expected, (100.0, 100.0)):
            d = abs(got - want)
            assert min(d, extent - d) < 1e-6


def _nudge(v, ulps):
    """v moved by a whole number of ulps."""
    for _ in range(abs(ulps)):
        v = float(np.nextafter(v, math.copysign(math.inf, ulps)))
    return v


ulp_steps = st.integers(-2, 2)


@st.composite
def boundary_worlds(draw):
    """A radius r and a world from under 3 to several r wide each way."""
    r = draw(st.sampled_from([0.0, 1.0, 2.5, 5.0, 7.77, 10.0]))
    base = max(r, 1.0)
    # fewer than 3 cells along an axis up to several
    fx = draw(st.sampled_from([1.0, 1.5, 2.0, 2.9999999, 3.0, 4.0, 5.0, 7.0]))
    fy = draw(st.sampled_from([0.7, 1.0, 2.5, 3.0, 4.0]))
    return r, TorusWorld(base * fx, base * fy)


@st.composite
def boundary_points(draw, r, w):
    """Pairs of points r apart give or take a few ulps (along an axis,
    across the seam, diagonal, coincident), one of each pair on or near a
    cell edge, plus enough filler for a grid of cells about r wide."""
    base = max(r, 1.0)
    width, height = w.width, w.height

    def edge(extent):
        # an edge of a grid whose cells are about r wide
        cells = math.floor(extent / base) + draw(st.integers(-1, 1))
        cells = max(cells, 1)
        v = draw(st.integers(0, cells)) * extent / cells
        return wrap_scalar(_nudge(v, draw(ulp_steps)), extent)

    points = []
    for _ in range(draw(st.integers(1, 8))):
        ax, ay = edge(width), edge(height)
        ox, oy = draw(
            st.sampled_from(
                [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0), (0.6, 0.8),
                 (-0.8, 0.6), (0.0, 0.0)]
            )
        )
        bx = wrap_scalar(_nudge(ax + ox * r, draw(ulp_steps)), width)
        by = wrap_scalar(_nudge(ay + oy * r, draw(ulp_steps)), height)
        points += [(ax, ay), (bx, by)]
    filler = st.tuples(
        st.floats(0.0, width, exclude_max=True), st.floats(0.0, height, exclude_max=True)
    )
    # the grid has about one cell per point at most
    dense = math.ceil(width * height / (base * base))
    points += draw(st.lists(filler, min_size=dense, max_size=dense + 10))
    order = draw(st.permutations(range(len(points))))
    return [points[k] for k in order]


@st.composite
def boundary_clouds(draw):
    """boundary_points in a boundary world: (points, r, world)."""
    r, w = draw(boundary_worlds())
    return draw(boundary_points(r, w)), r, w


@st.composite
def grouped_clouds(draw):
    """1 to 4 boundary_points clouds of one radius and world."""
    r, w = draw(boundary_worlds())
    clouds = []
    for _ in range(draw(st.integers(1, 4))):
        # now and then an empty group, as an empty snapshot gives
        empty = draw(st.integers(0, 4)) == 0
        clouds.append([] if empty else draw(boundary_points(r, w)))
    return clouds, r, w


class TestTorusNeighbours:
    @given(boundary_clouds())
    # a tie at r where math.hypot and np.hypot round to different sides
    @example(
        (
            [(0.0, 0.0), (1.0, 0.0), (0.6, 0.8000000000000002)],
            1.0,
            TorusWorld(1.5, 2.5),
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_pairwise_rule_on_boundaries(self, cloud):
        points, r, w = cloud
        x = np.array([p[0] for p in points])
        y = np.array([p[1] for p in points])
        i, j, dx, dy, dist = point_pairs(x, y, r, w)
        got = list(zip(i.tolist(), j.tolist(), dx.tolist(), dy.tolist()))
        assert got == naive_pairs(points, r, w.width, w.height)
        # the gap of two points is the length of their unsigned gaps
        assert dist.tolist() == [
            gap_length(points[a], points[b], w.width, w.height)
            for a, b in zip(i.tolist(), j.tolist())
        ]
        # away from the threshold the 9-image oracle decides the same
        found = set(zip(i.tolist(), j.tolist()))
        for a in range(len(points)):
            for b in range(len(points)):
                d = brute_distance(points[a], points[b], w.width, w.height)
                if a != b and abs(d - r) > 1e-9:
                    assert ((a, b) in found) == (d < r)

    @given(boundary_clouds(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_discs_match_the_pairwise_gap_rule(self, cloud, data):
        # radii of 0, r / 8 and r / 4 with a search at r less two of the
        # largest: pairs r apart have gaps at the search radius
        points, r, w = cloud
        x = np.array([p[0] for p in points])
        y = np.array([p[1] for p in points])
        sizes = st.sampled_from([0.0, r / 8.0, r / 4.0])
        radii = data.draw(st.lists(sizes, min_size=len(points), max_size=len(points)))
        vision = r - 2.0 * max(radii)
        got = torus_neighbours(x, y, np.array(radii), vision, w)
        got = list(zip(*(a.tolist() for a in got)))
        assert got == naive_disc_pairs(points, radii, vision, w.width, w.height)

    def test_pair_exactly_r_apart_whose_squares_are_subnormal(self):
        # in a world of 2^-500, (0, 0) and (g, g) are exactly r apart by
        # the closed-form delta; each gap squares to half the smallest
        # subnormal and rounds up to it, so the sum of the squares exceeds
        # the square of r widened by the slack
        e, g, r = 2.0**-500, 1.650009008845513e-162, 2.3334651183471126e-162
        assert float(np.hypot(g, g)) == r
        assert g * g + g * g > (r * (1.0 + 1e-9) + 1e-12 * e) ** 2
        x = y = np.array([0.0, g])
        assert neighbour_set(x, y, r, TorusWorld(e, e)) == {(0, 1), (1, 0)}

    @given(boundary_clouds(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_row_subset_is_the_full_search_filtered(self, cloud, data):
        points, r, w = cloud
        x = np.array([p[0] for p in points])
        y = np.array([p[1] for p in points])
        n = len(points)
        picked = data.draw(
            st.one_of(
                st.just(set()), st.just(set(range(n))), st.sets(st.integers(0, n - 1))
            )
        )
        rows = np.array(sorted(picked), dtype=np.int64)
        full = point_pairs(x, y, r, w)
        keep = np.isin(full[0], rows)
        got = point_pairs(x, y, r, w, rows)
        for name, a, b in zip(("i", "j", "dx", "dy", "dist"), got, full):
            assert a.dtype == b.dtype and a.tobytes() == b[keep].tobytes(), name

    @given(boundary_clouds(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_disc_rows_are_the_full_search_filtered(self, cloud, data):
        points, r, w = cloud
        x = np.array([p[0] for p in points])
        y = np.array([p[1] for p in points])
        n = len(points)
        sizes = st.sampled_from([0.0, r / 8.0, r / 4.0])
        radius = np.array(data.draw(st.lists(sizes, min_size=n, max_size=n)))
        rows = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1)))), dtype=np.int64)
        full = torus_neighbours(x, y, radius, r, w)
        keep = np.isin(full[0], rows)
        got = torus_neighbours(x, y, radius, r, w, rows)
        for name, a, b in zip(("i", "j", "dx", "dy", "gap"), got, full):
            assert a.dtype == b.dtype and a.tobytes() == b[keep].tobytes(), name

    def test_seeded_pairs_straddling_cell_edges(self):
        # worlds 4 to 7 r wide: grids of 3 to 6 cells, where not every
        # cell is adjacent to every other
        rng = np.random.default_rng(5)
        for _ in range(200):
            r = float(rng.choice([1.0, 2.5, 3.3, 7.77]))
            fx, fy = rng.choice([4, 5, 7]), rng.choice([1, 4])
            w = TorusWorld(r * fx, r * fy)
            points = []
            for _ in range(5):
                a = rng.integers(fx + 1) * w.width / fx
                a = wrap_scalar(_nudge(a, rng.integers(-2, 3)), w.width)
                b = a + rng.choice([-r, r])
                b = wrap_scalar(_nudge(b, rng.integers(-2, 3)), w.width)
                y0 = rng.uniform(0.0, w.height)
                points += [(a, y0), (b, y0)]
            filler = fx * fy
            points += zip(rng.uniform(0, w.width, filler), rng.uniform(0, w.height, filler))
            points = [(float(px), float(py)) for px, py in points]
            x = np.array([p[0] for p in points])
            y = np.array([p[1] for p in points])
            i, j, dx, dy, _ = point_pairs(x, y, r, w)
            got = list(zip(i.tolist(), j.tolist(), dx.tolist(), dy.tolist()))
            assert got == naive_pairs(points, r, w.width, w.height)

    def test_empty_and_single(self):
        for n in (0, 1):
            out = point_pairs(np.zeros(n), np.zeros(n), 5.0, W)
            assert all(a.size == 0 for a in out)

    def test_rows_on_empty_and_single(self):
        for n in (0, 1):
            for k in range(n + 1):
                out = point_pairs(np.zeros(n), np.zeros(n), 5.0, W, np.arange(k))
                assert all(a.size == 0 for a in out)

    def test_zero_radius_keeps_coincident_points(self):
        x = np.array([3.0, 7.0, 3.0, 3.0])
        y = np.array([4.0, 4.0, 4.0, 4.5])
        i, j, _, _, dist = point_pairs(x, y, 0.0, W)
        assert list(zip(i.tolist(), j.tolist())) == [(0, 2), (2, 0)]
        assert dist.tolist() == [0.0, 0.0]


def link_set(x, y, r, w, group=None):
    """torus_links as a set of pairs (i, j), i < j, checked to hold each
    unordered pair once and no i == j."""
    i, j = torus_links(x, y, r, w, group)
    assert i.dtype == j.dtype == np.int64 and not (i == j).any()
    pairs = list(zip(np.minimum(i, j).tolist(), np.maximum(i, j).tolist()))
    assert len(set(pairs)) == len(pairs)
    return set(pairs)


def neighbour_set(x, y, r, w):
    i, j, _, _, _ = point_pairs(x, y, r, w)
    return set(zip(i.tolist(), j.tolist()))


def unordered(pairs):
    return {(min(a, b), max(a, b)) for a, b in pairs}


class TestTorusLinks:
    @given(boundary_clouds())
    @settings(max_examples=300, deadline=None)
    def test_pairs_of_torus_neighbours_on_boundaries(self, cloud):
        points, r, w = cloud
        x = np.array([p[0] for p in points])
        y = np.array([p[1] for p in points])
        links = link_set(x, y, r, w)
        assert links == naive_links(points, r, w.width, w.height)
        # the pairs of torus_neighbours, but for ties within a few ulps of
        # the extent, where its closed-form delta rounds the other way
        for a, b in links ^ unordered(neighbour_set(x, y, r, w)):
            d = gap_length(points[a], points[b], w.width, w.height)
            assert abs(d - r) <= 1e-12 * max(w.width, w.height)

    @given(grouped_clouds())
    @settings(max_examples=300, deadline=None)
    def test_groups_give_the_pairs_of_each_group_alone(self, grouped):
        clouds, r, w = grouped
        points = [p for cloud in clouds for p in cloud]
        x = np.array([p[0] for p in points])
        y = np.array([p[1] for p in points])
        sizes = [len(cloud) for cloud in clouds]
        group = np.repeat(np.arange(len(clouds)), sizes)
        gi, gj = torus_links(x, y, r, w, group)
        assert (group[gi] == group[gj]).all()
        want = set()
        for first, cloud in zip(np.cumsum([0, *sizes]).tolist(), clouds):
            cx = np.array([p[0] for p in cloud])
            cy = np.array([p[1] for p in cloud])
            alone = naive_links(cloud, r, w.width, w.height)
            assert link_set(cx, cy, r, w) == alone
            want |= {(a + first, b + first) for a, b in alone}
        assert link_set(x, y, r, w, group) == want

    def test_lattice_ties_and_seam_pairs(self):
        # a half-unit lattice in a 20 x 12.5 world: many pairs lie exactly
        # r apart, along an axis, across a seam and as 3-4-5 triangles;
        # every gap and delta is exact, so both searches agree
        w = TorusWorld(20.0, 12.5)
        k = np.arange(40 * 25)
        x, y = (k // 25) / 2.0, (k % 25) / 2.0
        points = list(zip(x.tolist(), y.tolist()))
        for r in (0.5, 2.5, 5.0, 7.5):
            links = link_set(x, y, r, w)
            assert links == naive_links(points, r, w.width, w.height)
            assert links == unordered(neighbour_set(x, y, r, w))
            assert (0, 25 * 39) in links  # (0, 0) and (19.5, 0), across x

    def test_worlds_of_one_two_and_three_cells_per_axis(self):
        # cells are about r wide here, so a world 1.5, 2.5 and 3.5 r wide
        # has 1, 2 and 3 cells along that axis: with 2 the cells +1 and -1
        # away are one cell, and with 3 each cell is adjacent to both others
        r = 2.0
        rng = np.random.default_rng(11)
        for fx in (1.5, 2.5, 3.5):
            for fy in (1.5, 2.5, 3.5):
                w = TorusWorld(r * fx, r * fy)
                x = rng.uniform(0.0, w.width, 40)
                y = rng.uniform(0.0, w.height, 40)
                # and pairs r apart across each seam
                x[:4] = [0.0, w.width - r, 0.25 * r, 0.25 * r]
                y[:4] = [0.5, 0.5, 0.0, w.height - r]
                points = list(zip(x.tolist(), y.tolist()))
                want = naive_links(points, r, w.width, w.height)
                assert {(0, 1), (2, 3)} <= want
                assert link_set(x, y, r, w) == want

    def test_links_exactly_r_apart_along_an_axis(self):
        # gaps of (r, 0) and (0, r), one across a seam: the box test before
        # the hypot keeps both ends of its closed bound
        x = np.array([0.5, 2.5, 7.0, 7.0, 99.0, 1.0])
        y = np.array([5.0, 5.0, 10.0, 12.0, 60.0, 60.0])
        assert link_set(x, y, 2.0, W) == {(0, 1), (2, 3), (4, 5)}
        assert link_set(x, y, down(2.0), W) == set()

    def test_pair_within_r_one_way_only(self):
        # in a 100-wide world the closed-form distance from 0 to 1 is
        # 42.74294063694282, and from 1 to 0 one ulp less, so that
        # distance holds the pair within 42.74294063694281 one way only;
        # the unsigned gap is 42.74294063694281 from either end, so both
        # searches keep the pair at that radius, both ways, whichever
        # point comes first, and neither keeps it one ulp below
        x = np.array([1.6527635528529094, 44.39570418979572])
        y = np.array([50.0, 50.0])
        gap = 42.74294063694281
        assert wrapped_delta(x[:1], x[1:], W.width)[0] == 42.74294063694282
        assert -wrapped_delta(x[1:], x[:1], W.width)[0] == gap
        for xs in (x, x[::-1]):
            assert neighbour_set(xs, y, gap, W) == {(0, 1), (1, 0)}
            assert link_set(xs, y, gap, W) == {(0, 1)}
            below = float(np.nextafter(gap, 0.0))
            assert neighbour_set(xs, y, below, W) == link_set(xs, y, below, W) == set()

    @pytest.mark.parametrize(
        "extent,r,spread",
        [
            (1e-150, 1e-160, 3e-160),  # squares of r and the gaps are subnormal
            (1e15, 1.0, 3.0),  # one ulp of a coordinate is 0.125
        ],
    )
    def test_float_extremes(self, extent, r, spread):
        w = TorusWorld(extent, extent)
        rng = np.random.default_rng(7)
        # clumps around random points and the seam, the first points twice
        centres = np.concatenate((rng.uniform(0.0, extent, 6), [0.0, extent / 2.0]))
        cx = np.repeat(centres, 12) + rng.uniform(-spread, spread, 96)
        cy = np.repeat(np.roll(centres, 3), 12) + rng.uniform(-spread, spread, 96)
        x = np.array([wrap_scalar(v, extent) for v in cx.tolist()])
        y = np.array([wrap_scalar(v, extent) for v in cy.tolist()])
        x, y = np.concatenate((x, x[:8])), np.concatenate((y, y[:8]))
        want = naive_links(list(zip(x.tolist(), y.tolist())), r, extent, extent)
        assert len(want) >= 8 and link_set(x, y, r, w) == want

    def test_gaps_whose_squares_underflow_to_zero(self):
        # points 1e-170 apart in a world of 1: every gap squares to 0, and
        # the closed-form wrap, which adds half the extent, rounds every
        # delta to 0; the unsigned gaps keep their bits, so at r = 1e-300
        # no pair is a mate or a link, and at 1.5e-170 each point's next
        # one is both, while the deltas of the mates are those 0s
        w1 = TorusWorld(1.0, 1.0)
        k = np.arange(10)
        x, y = k * 1e-170, k[::-1] * 1e-170
        points = list(zip(x.tolist(), y.tolist()))
        assert neighbour_set(x, y, 1e-300, w1) == set()
        assert link_set(x, y, 1e-300, w1) == naive_links(points, 1e-300, 1.0, 1.0) == set()
        want = {(a, a + 1) for a in range(9)}
        assert link_set(x, y, 1.5e-170, w1) == naive_links(points, 1.5e-170, 1.0, 1.0) == want
        assert neighbour_set(x, y, 1.5e-170, w1) == want | {(b, a) for a, b in want}
        i, j, dx, dy, dist = point_pairs(x, y, 1.5e-170, w1)
        assert not dx.any() and not dy.any() and dist.all()
        assert dist.tolist() == [
            gap_length(points[a], points[b], 1.0, 1.0) for a, b in zip(i.tolist(), j.tolist())
        ]
        # a pair exactly r apart in a world of 2^-500: each gap squares
        # to half the smallest subnormal and rounds up to it, so the sum
        # of the squares exceeds the square of r widened by the slack
        e, g = 2.0**-500, 1.650009008845513e-162
        r = float(np.hypot(g, g))
        assert g * g + g * g > (r * (1.0 + 1e-9) + 1e-12 * e) ** 2
        x = y = np.array([0.0, g])
        assert link_set(x, y, r, TorusWorld(e, e)) == {(0, 1)}
        assert neighbour_set(x, y, r, TorusWorld(e, e)) == {(0, 1), (1, 0)}

    def test_empty_and_single(self):
        for n in (0, 1):
            x = y = np.zeros(n)
            assert all(a.size == 0 for a in torus_links(x, y, 5.0, W))
            assert link_set(x, y, 5.0, W) == set()


class TestOnePairRule:
    """Both searches decide a pair of points on one length, np.hypot of
    its unsigned wrapped gaps, the same from either end: each mate is a
    mate both ways, and the mates at r are the links at r."""

    @given(boundary_clouds())
    # the pair that the closed-form distance holds within r one way only
    @example(
        ([(1.6527635528529094, 50.0), (44.39570418979572, 50.0)], 42.74294063694281, W)
    )
    # ties at r along each axis, one across the seam of each
    @example(
        (
            [(0.5, 5.0), (2.5, 5.0), (7.0, 99.0), (7.0, 1.0), (99.0, 60.0), (1.0, 60.0)],
            2.0,
            W,
        )
    )
    # a tie at r across the seam, at a gap that is no round number
    @example(([(99.9, 3.0), (0.1, 3.0)], 100.0 - abs(0.1 - 99.9), W))
    @settings(max_examples=300, deadline=None)
    def test_mates_are_symmetric_and_are_the_links(self, cloud):
        points, r, w = cloud
        x = np.array([p[0] for p in points])
        y = np.array([p[1] for p in points])
        mates = neighbour_set(x, y, r, w)
        assert mates == {(b, a) for a, b in mates}
        assert unordered(mates) == link_set(x, y, r, w)


def assert_searches_match_oracles(points, r, w, group=None):
    """torus_neighbours and torus_links of the points give the pairs of
    the one-pair-at-a-time oracles; with a group, the links of each
    group alone."""
    x = np.array([p[0] for p in points])
    y = np.array([p[1] for p in points])
    i, j, dx, dy, _ = point_pairs(x, y, r, w)
    assert list(zip(i.tolist(), j.tolist(), dx.tolist(), dy.tolist())) == naive_pairs(
        points, r, w.width, w.height
    )
    links = naive_links(points, r, w.width, w.height)
    if group is not None:
        links = {(a, b) for a, b in links if group[a] == group[b]}
    assert link_set(x, y, r, w, group) == links
    return links


class TestDenseStencil:
    """Where the mean spacing sqrt(area / m) of the points is below 0.6
    of the search reach, the cells are at least reach / 2 wide and the
    stencil is the 5 x 5 cells at most two away along each axis."""

    @pytest.mark.parametrize("kx", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("ky", [1, 2, 3, 4, 5])
    def test_one_to_five_cells_per_axis(self, kx, ky):
        # cells r / 2 wide, kx by ky of them: with fewer than 5 along an
        # axis the cells two away on either side are one cell, or the
        # point's own; where the world is over 2 r wide, pairs r apart
        # cross each seam
        r = 2.0
        w = TorusWorld((kx + 0.5) * r / 2.0, (ky + 0.5) * r / 2.0)
        rng = np.random.default_rng(100 * kx + ky)
        n = 40
        assert math.sqrt(w.width * w.height / n) < 0.5 * r
        x = rng.uniform(0.0, w.width, n)
        y = rng.uniform(0.0, w.height, n)
        x[:4] = [0.0, wrap_scalar(-r, w.width), 0.25, 0.25]
        y[:4] = [0.5, 0.5, 0.0, wrap_scalar(-r, w.height)]
        points = list(zip(x.tolist(), y.tolist()))
        assert_searches_match_oracles(points, r, w)

    def test_pairs_exactly_r_apart_two_cells_apart(self):
        # 400 points in a 10 x 10 world at r = 2: a mean spacing of 0.5,
        # so cells of reach / 2, just over 1, 9 of 10 / 9 along each axis;
        # the pairs at x 0.5 and 2.5 (cells 0 and 2), at y 0.5 and 2.5, and
        # at x 9.5 and 1.5 (cells 8 and 1, across the seam) are exactly r
        # apart
        r, w = 2.0, TorusWorld(10.0, 10.0)
        rng = np.random.default_rng(41)
        x, y = rng.uniform(0.0, 10.0, 400), rng.uniform(0.0, 10.0, 400)
        x[:6] = [0.5, 2.5, 6.0, 6.0, 9.5, 1.5]
        y[:6] = [7.0, 7.0, 0.5, 2.5, 4.0, 4.0]
        points = list(zip(x.tolist(), y.tolist()))
        links = assert_searches_match_oracles(points, r, w)
        assert {(0, 1), (2, 3), (4, 5)} <= links

    def test_thin_world(self):
        # 300 points in a 100 x 0.75 world: a mean spacing of 0.5 at r = 1
        # gives 199 cells along x and one along y
        r, w = 1.0, TorusWorld(100.0, 0.75)
        rng = np.random.default_rng(43)
        x, y = rng.uniform(0.0, 100.0, 300), rng.uniform(0.0, 0.75, 300)
        x[:2], y[:2] = [99.5, 0.5], [0.1, 0.1]
        points = list(zip(x.tolist(), y.tolist()))
        assert (0, 1) in assert_searches_match_oracles(points, r, w)

    def test_grouped_links(self):
        # groups 0, 1 and 3 of 60 points in a 6 x 6 world at r = 2, and
        # group 2 empty: 45 points in the mean group, a mean spacing of 0.89
        r, w = 2.0, TorusWorld(6.0, 6.0)
        rng = np.random.default_rng(47)
        group = np.repeat([0, 1, 3], 60)
        x, y = rng.uniform(0.0, 6.0, 180), rng.uniform(0.0, 6.0, 180)
        points = list(zip(x.tolist(), y.tolist()))
        links = assert_searches_match_oracles(points, r, w, group)
        for g in (0, 1, 3):
            rows = np.flatnonzero(group == g)
            alone = link_set(x[rows], y[rows], r, w)
            assert {(rows[a], rows[b]) for a, b in alone} == {
                (a, b) for a, b in links if group[a] == g
            }


def traced_peak(search, *args):
    """The peak of the memory traced while search(*args) runs, in bytes."""
    tracemalloc.start()
    try:
        search(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestGridCap:
    """The grid has at most one cell per point of the mean group, so a
    thin world, whose cells would otherwise be many along its long axis,
    is searched in memory of the order of its points."""

    @pytest.mark.parametrize("r", [1e-3, 0.0])
    def test_thin_world_is_searched_in_bounded_memory(self, r):
        # 100 points in a 1e5 x 1e-5 world, whose area gives cells 0.1
        # wide: uncapped, 1e6 of them along x
        w = TorusWorld(1e5, 1e-5)
        rng = np.random.default_rng(3)
        # clumps of 5 points 1e-3 wide, the first 10 points twice
        x = np.repeat(rng.uniform(0.0, 1e5, 20), 5) + rng.uniform(0.0, 1e-3, 100)
        x, y = wrap_array(x, w.width), rng.uniform(0.0, w.height, 100)
        x[90:], y[90:] = x[:10], y[:10]
        points = list(zip(x.tolist(), y.tolist()))
        want = naive_pairs(points, r, w.width, w.height)
        assert len(want) >= 20

        assert traced_peak(point_pairs, x, y, r, w) < 2**20
        i, j, dx, dy, _ = point_pairs(x, y, r, w)
        assert list(zip(i.tolist(), j.tolist(), dx.tolist(), dy.tolist())) == want

        # one group, and four groups of 25 points, the pairs within each
        links = naive_links(points, r, w.width, w.height)
        assert len(links) >= 10
        group = np.repeat(np.arange(4), 25)
        for g in (None, group):
            assert traced_peak(torus_links, x, y, r, w, g) < 2**20
            same = {(a, b) for a, b in links if g is None or g[a] == g[b]}
            assert link_set(x, y, r, w, g) == same
