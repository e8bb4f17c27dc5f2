import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flocklevels import geometry
from flocklevels.geometry import TorusWorld
from flocklevels.macro import NO_FLOCKS, Displacements, Flocks, MacroState
from flocklevels.micro import (
    Bird,
    Columns,
    Commands,
    CouplingError,
    MicroState,
    SteeringParams,
    init_random,
    micro_step,
    observe,
)
from helpers import (
    columns,
    flockmates,
    state_key,
    step_autonomous,
    step_commanded,
    torus_delta,
    torus_distance,
)

W = TorusWorld(100.0, 100.0)
P = SteeringParams()
COLUMNS = ("ids", "x", "y", "heading")


def make_state(birds, tick=0):
    return MicroState(*columns((b.id, b.pos, b.heading) for b in birds), tick, W)


def commands(by_id):
    """The command table of a map bird id -> ((vx, vy), heading)."""
    rows = sorted(by_id.items())
    return Commands(
        [b for b, _ in rows],
        [v[0] for _, (v, _) in rows],
        [v[1] for _, (v, _) in rows],
        [h for _, (_, h) in rows],
    )


class TestInitRandom:
    def test_empty(self):
        s = init_random(0, W, np.random.default_rng(1))
        assert s.birds == ()

    def test_deterministic(self):
        a = init_random(100, W, np.random.default_rng(42))
        b = init_random(100, W, np.random.default_rng(42))
        assert state_key(a) == state_key(b)

    def test_ids(self):
        s = init_random(100, W, np.random.default_rng(0))
        assert [c.dtype for c in (s.ids, s.x, s.y, s.heading)] == [np.int64] + 3 * [np.float64]
        assert len(s) == 100
        assert [b.id for b in s.birds] == list(range(100))
        assert all(0 <= b.pos[0] < 100 and 0 <= b.pos[1] < 100 for b in s.birds)
        assert all(0 <= b.heading < 360 for b in s.birds)


class TestFlockmates:
    def test_lone_bird(self):
        s = make_state([Bird(0, (5.0, 5.0), 0.0)])
        assert flockmates(s.birds[0], s, P) == []

    def test_boundary_inclusive(self):
        a = Bird(0, (0.0, 0.0), 0.0)
        b = Bird(1, (P.vision, 0.0), 0.0)
        s = make_state([a, b])
        assert flockmates(a, s, P) == [b]
        assert flockmates(b, s, P) == [a]

    def test_beyond_vision_excluded(self):
        a = Bird(0, (0.0, 0.0), 0.0)
        near = Bird(1, (3.0, 0.0), 0.0)
        far = Bird(2, (0.0, 40.0), 0.0)
        s = make_state([a, near, far])
        expected = [
            m
            for m in (near, far)
            if torus_distance(a.pos, m.pos, W) <= P.vision
        ]
        assert flockmates(a, s, P) == expected == [near]


class TestStepAutonomous:
    def test_no_mates_straight_line(self):
        b = Bird(0, (50.0, 50.0), 30.0)
        after = step_autonomous(b, [], P, W)
        assert after.heading == 30.0
        assert torus_distance(b.pos, after.pos, W) == pytest.approx(1.0, abs=1e-12)
        dx, dy = torus_delta(b.pos, after.pos, W)
        assert math.degrees(math.atan2(dy, dx)) == pytest.approx(30.0, abs=1e-9)

    def test_separation_tie_counterclockwise(self):
        # mate straight ahead within min_separation: away-bearing is 180,
        # exactly antipodal to the current heading, so the turn goes ccw
        p = SteeringParams(max_separate_turn=10.0)
        b = Bird(0, (50.0, 50.0), 0.0)
        mate = Bird(1, (50.5, 50.0), 0.0)
        after = step_autonomous(b, [mate], p, W)
        assert after.heading == pytest.approx(10.0)

    def test_align_then_cohere(self):
        # both mates ahead at bearing 0 with heading 40: alignment turns
        # 0 -> 5 (bounded), cohesion target 0 pulls back 5 -> 2 (bounded)
        p = SteeringParams(max_align_turn=5.0, max_cohere_turn=3.0)
        b = Bird(0, (50.0, 50.0), 0.0)
        mates = [Bird(1, (55.0, 50.0), 40.0), Bird(2, (58.0, 50.0), 40.0)]
        after = step_autonomous(b, mates, p, W)
        assert after.heading == pytest.approx(2.0, abs=1e-9)

    def test_undefined_mean_skips_alignment(self):
        # antipodal mate headings: alignment undefined, cohesion still runs
        b = Bird(0, (50.0, 50.0), 90.0)
        mates = [Bird(1, (55.0, 50.0), 0.0), Bird(2, (58.0, 50.0), 180.0)]
        after = step_autonomous(b, mates, P, W)
        # cohesion target is bearing 0, three degrees toward it from 90
        assert after.heading == pytest.approx(87.0)


class TestStepCommanded:
    def test_zero_vector(self):
        b = Bird(0, (10.0, 10.0), 0.0)
        after = step_commanded(b, ((0.0, 0.0), 90.0), W)
        assert after.pos == (10.0, 10.0)
        assert after.heading == 90.0

    def test_wrap(self):
        b = Bird(0, (99.0, 0.0), 0.0)
        after = step_commanded(b, ((2.0, 0.0), 0.0), W)
        assert after.pos == (1.0, 0.0)

    def test_rigid_pair(self):
        cmd = ((3.7, -1.2), 123.0)
        a = Bird(0, (10.0, 10.0), 0.0)
        b = Bird(1, (12.0, 11.0), 50.0)
        before = torus_delta(a.pos, b.pos, W)
        a2, b2 = step_commanded(a, cmd, W), step_commanded(b, cmd, W)
        after = torus_delta(a2.pos, b2.pos, W)
        assert after[0] == pytest.approx(before[0], abs=1e-12)
        assert after[1] == pytest.approx(before[1], abs=1e-12)
        assert a2.heading == b2.heading == 123.0


class TestMicroStep:
    def test_matches_per_bird_rule(self):
        # the vectorized population step equals the per-bird rule bit for
        # bit, also in a crowd where every bird has about a hundred mates,
        # and with turn bounds of 180, which pass every bit of a bearing
        # through to the heading
        exact = SteeringParams(
            max_separate_turn=180.0, max_align_turn=180.0, max_cohere_turn=180.0
        )
        crowd = TorusWorld(30.0, 30.0)
        for n, world, p in ((40, W, P), (300, crowd, P), (150, crowd, exact)):
            s = init_random(n, world, np.random.default_rng(7))
            stepped = micro_step(s, None, p)
            for b, got in zip(s.birds, stepped.birds):
                want = step_autonomous(b, flockmates(b, s, p), p, world)
                assert got == want, f"bird {b.id} differs"

    def test_mixed_crowd_matches_per_bird_rules(self):
        # about half of a crowd commanded: every free bird still counts the
        # commanded birds among its mates, at their pre-step state; and the
        # whole crowd commanded, where no row is searched or turned
        exact = SteeringParams(
            max_separate_turn=180.0, max_align_turn=180.0, max_cohere_turn=180.0
        )
        crowd = TorusWorld(30.0, 30.0)
        for share in (0.5, 1.0):
            rng = np.random.default_rng(29)
            s = init_random(300, crowd, rng)
            by_id = {
                b: ((float(vx), float(vy)), float(h))
                for b, vx, vy, h in zip(
                    range(300), rng.uniform(-2, 2, 300), rng.uniform(-2, 2, 300),
                    rng.uniform(-400, 400, 300),
                )
                if rng.random() < share
            }
            assert abs(len(by_id) - 300 * share) < 50
            for p in (P, exact):
                stepped = micro_step(s, commands(by_id), p)
                for b, got in zip(s.birds, stepped.birds):
                    if b.id in by_id:
                        want = step_commanded(b, by_id[b.id], crowd)
                    else:
                        want = step_autonomous(b, flockmates(b, s, p), p, crowd)
                    assert got == want, f"bird {b.id} differs"

    def test_free_bird_coheres_to_a_commanded_mate(self):
        # bird 1 is bird 0's only mate; its command does not hide it, and
        # bird 0 aligns with its pre-step heading 90 and coheres toward it
        free = Bird(0, (50.0, 50.0), 90.0)
        mate = Bird(1, (55.0, 50.0), 90.0)
        s = make_state([free, mate])
        got = micro_step(s, commands({1: ((0.0, 3.0), 200.0)}), P).birds
        assert got[0] == step_autonomous(free, [mate], P, W)
        assert got[0].heading == 87.0
        assert got[1] == step_commanded(mate, ((0.0, 3.0), 200.0), W)
        assert micro_step(make_state([free]), None, P).birds[0].heading == 90.0

    def test_separation_bearing_from_the_reverse_delta(self):
        # across the seam, the delta from bird 1 to bird 0 and the negated
        # delta from bird 0 to bird 1 round apart, and so do their bearings
        # (303.302826575146 against 303.30282657514687)
        p = SteeringParams(max_separate_turn=180.0)
        s = make_state(
            [
                Bird(0, (0.0518798764062578, 17.787609947272777), 0.0),
                Bird(1, (99.6313654602715, 18.42771314536086), 0.0),
            ]
        )
        stepped = micro_step(s, None, p)
        assert stepped.birds[0].heading == 303.302826575146
        for b, got in zip(s.birds, stepped.birds):
            assert got == step_autonomous(b, flockmates(b, s, p), p, W)

    def test_vision_tie_decided_by_numpys_hypot(self):
        # the delta from bird 2 to bird 0 is 1.0 long by math.hypot and
        # 1.0000000000000002 by np.hypot, which the search takes: bird 0
        # is not bird 2's mate at vision 1.0, and with it bird 2 would
        # align toward 135 and cohere toward bird 0 as well
        w = TorusWorld(1.5, 2.5)
        p = SteeringParams(vision=1.0, min_separation=0.1)
        birds = [
            Bird(0, (0.0, 0.0), 180.0),
            Bird(1, (1.0, 0.0), 90.0),
            Bird(2, (0.6, 0.8000000000000002), 90.0),
        ]
        s = MicroState(*columns((b.id, b.pos, b.heading) for b in birds), 0, w)
        assert torus_distance(birds[2].pos, birds[0].pos, w) == 1.0
        assert flockmates(birds[2], s, p) == [birds[1]]
        stepped = micro_step(s, None, p)
        for b, got in zip(s.birds, stepped.birds):
            assert got == step_autonomous(b, flockmates(b, s, p), p, w)

    def test_all_commanded_translates_population(self):
        s = init_random(10, W, np.random.default_rng(3))
        cmds = commands({b.id: ((1.0, 0.0), 0.0) for b in s.birds})
        stepped = micro_step(s, cmds, P)
        for b, a in zip(s.birds, stepped.birds):
            dx, dy = torus_delta(b.pos, a.pos, W)
            assert (dx, dy) == pytest.approx((1.0, 0.0), abs=1e-12)
            assert a.heading == 0.0

    def test_all_commanded_skips_the_search(self, monkeypatch):
        # no bird turns, so the step never searches; a search of no rows
        # would give the same birds, at the fixed cost of a search
        def no_search(*args):
            raise AssertionError("searched with every bird commanded")

        monkeypatch.setattr(geometry, "torus_neighbours", no_search)
        s = init_random(10, W, np.random.default_rng(3))
        by_id = {b.id: ((1.0, -0.5), 370.0) for b in s.birds}
        stepped = micro_step(s, commands(by_id), P)
        for b, got in zip(s.birds, stepped.birds):
            assert got == step_commanded(b, by_id[b.id], W)

    def test_mate_exactly_vision_away_whose_squares_are_subnormal(self):
        # in a world of 2^-500, birds at (0, 0) and (g, g) are exactly
        # vision apart; each gap squares to half the smallest subnormal and
        # rounds up to it, so their sum exceeds the squared search reach.
        # Each bird is the other's mate and aligns with it.
        e, g, vision = 2.0**-500, 1.650009008845513e-162, 2.3334651183471126e-162
        w = TorusWorld(e, e)
        p = SteeringParams(vision=vision, min_separation=0.0, speed=0.0)
        birds = [Bird(0, (0.0, 0.0), 0.0), Bird(1, (g, g), 90.0)]
        s = MicroState(*columns((b.id, b.pos, b.heading) for b in birds), 0, w)
        assert flockmates(birds[0], s, p) == [birds[1]]
        stepped = micro_step(s, None, p)
        assert [b.heading for b in stepped.birds] == [5.0, 85.0]
        for b, got in zip(s.birds, stepped.birds):
            assert got == step_autonomous(b, flockmates(b, s, p), p, w)

    def test_mixed_commanded_ignores_neighbors(self):
        # a commanded bird moves identically with or without neighbors
        lone = make_state([Bird(0, (50.0, 50.0), 10.0)])
        crowded = make_state(
            [Bird(0, (50.0, 50.0), 10.0), Bird(1, (50.4, 50.0), 200.0)]
        )
        cmd = commands({0: ((0.5, 0.5), 77.0)})
        a = micro_step(lone, cmd, P).birds[0]
        b = next(x for x in micro_step(crowded, cmd, P).birds if x.id == 0)
        assert a.pos == b.pos and a.heading == b.heading == 77.0

    def test_unknown_command_id(self):
        s = init_random(3, W, np.random.default_rng(0))
        for bid in (99, -1):
            with pytest.raises(CouplingError, match=rf"\[{bid}\]"):
                micro_step(s, commands({1: ((0.0, 0.0), 0.0), bid: ((0.0, 0.0), 0.0)}), P)

    def test_id_set_preserved_and_tick_advances(self):
        s = init_random(12, W, np.random.default_rng(5))
        stepped = micro_step(s, None, P)
        assert [b.id for b in stepped.birds] == [b.id for b in s.birds]
        assert stepped.tick == s.tick + 1

    def test_autonomous_displacement_magnitude(self):
        s = init_random(30, W, np.random.default_rng(11))
        stepped = micro_step(s, None, P)
        for b, a in zip(s.birds, stepped.birds):
            assert torus_distance(b.pos, a.pos, W) == pytest.approx(
                P.speed, abs=1e-9
            )

    def test_storage_order_independence(self):
        rng = np.random.default_rng(9)
        birds = list(init_random(20, W, rng).birds)
        s1 = make_state(birds)
        s2 = make_state(list(reversed(birds)))
        assert state_key(micro_step(s1, None, P)) == state_key(micro_step(s2, None, P))

    def test_empty_command_set_equals_absent(self):
        # an empty command set and no information at all mean the same, also
        # for an empty population
        for n in (25, 0):
            a = init_random(n, W, np.random.default_rng(21))
            b = init_random(n, W, np.random.default_rng(21))
            for _ in range(10):
                a = micro_step(a, None, P)
                b = micro_step(b, commands({}), P)
            assert state_key(a) == state_key(b)

    def test_empty_population(self):
        s = make_state([])
        assert micro_step(s, None, P).tick == 1

    def test_input_arrays_never_written(self):
        # the event log keeps every published state by reference; the ids
        # are shared, read-only, and every other column is a new array
        s = init_random(30, W, np.random.default_rng(17))
        before = state_key(s)
        cmds = commands({bid: ((0.5, -0.25), 10.0) for bid in range(0, 30, 3)})
        stepped = micro_step(s, cmds, P)
        assert state_key(s) == before
        assert stepped.ids is s.ids and not stepped.ids.flags.writeable
        for name in COLUMNS[1:]:
            assert not np.shares_memory(getattr(s, name), getattr(stepped, name))
            assert not getattr(stepped, name).flags.writeable

    @pytest.mark.parametrize(
        "command, field",
        [
            ({"vx": math.inf}, "x"),
            ({"vy": -math.inf}, "y"),
            ({"heading": math.nan}, "heading"),
        ],
    )
    def test_non_finite_command_result_rejected(self, command, field):
        s = make_state([Bird(k, (10.0 * k, 5.0), 0.0) for k in range(6)])
        # derive puts the bad column in unchecked, so micro_step's own check
        # must catch the result
        bad = {k: np.array([v]) for k, v in command.items()}
        cmds = commands({4: ((0.0, 0.0), 0.0)}).derive(**bad)
        message = f"^{field} must be finite, got nan for bird 4$"
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match=message):
            micro_step(s, cmds, P)


class TestMicroState:
    @pytest.mark.parametrize("ids, bad", [([5, 2, 9], [2]), ([1, 1, 2], [1])])
    def test_rejects_ids_not_strictly_ascending(self, ids, bad):
        # unsorted or repeated ids are refused, not sorted
        message = rf"^ids must be strictly ascending; these are not: \{bad}$"
        with pytest.raises(CouplingError, match=message):
            MicroState(ids, [1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0], 0, W)

    @pytest.mark.parametrize("field", COLUMNS[1:])
    def test_rejects_unequal_lengths(self, field):
        cols = dict(ids=[0, 1], x=[0.0, 1.0], y=[0.0, 1.0], heading=[0.0, 1.0])
        cols[field] = [0.0, 1.0, 2.0]
        with pytest.raises(ValueError, match=rf"^{field} has shape \(3,\), want \(2,\)$"):
            MicroState(**cols, tick=0, world=W)

    @pytest.mark.parametrize("field", COLUMNS[1:])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, field, value):
        cols = dict(ids=[3, 4], x=[0.0, 1.0], y=[0.0, 1.0], heading=[0.0, 1.0])
        cols[field] = [0.0, value]
        with pytest.raises(ValueError, match=f"^{field} must be finite, got .* for bird 4"):
            MicroState(**cols, tick=0, world=W)

    @pytest.mark.parametrize(
        "field, value, top",
        [("x", 100.0, 100.0), ("y", -5e-324, 100.0), ("heading", 360.0, 360.0)],
    )
    def test_rejects_a_coordinate_outside_the_world(self, field, value, top):
        # x, y and heading lie in [0, width), [0, height) and [0, 360): the
        # extent itself and the negative below 0 are out, the values just
        # inside are in
        cols = dict(ids=[3, 4], x=[0.0, 99.99999999999999], y=[0.0, 1.0], heading=[0.0, 1.0])
        cols[field] = [0.0, value]
        message = rf"^{field} must lie in \[0, {top!r}\), got {value!r} for bird 4$"
        with pytest.raises(ValueError, match=message):
            MicroState(**cols, tick=0, world=W)
        cols[field] = [0.0, float(np.nextafter(top, 0.0))]
        MicroState(**cols, tick=0, world=W)


class TestCommands:
    @pytest.mark.parametrize("field", ["vx", "vy", "heading"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, field, value):
        cols = dict(ids=[3, 4], vx=[0.0, 1.0], vy=[0.0, 1.0], heading=[0.0, 1.0])
        cols[field] = [0.0, value]
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {value!r} for bird 4$"):
            Commands(**cols)

    @pytest.mark.parametrize("field", ["vx", "vy", "heading"])
    def test_rejects_unequal_lengths(self, field):
        cols = dict(ids=[3, 4], vx=[0.0, 1.0], vy=[0.0, 1.0], heading=[0.0, 1.0])
        cols[field] = [0.0]
        with pytest.raises(ValueError, match=rf"^{field} has shape \(1,\), want \(2,\)$"):
            Commands(**cols)

    @pytest.mark.parametrize("ids", [[4, 3], [3, 3]])
    def test_rejects_ids_not_strictly_ascending(self, ids):
        with pytest.raises(CouplingError, match="strictly ascending"):
            Commands(ids, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0])


def float_columns(draw, k, n):
    return [draw(st.lists(st.floats(0.0, 99.0), min_size=n, max_size=n)) for _ in range(k)]


def ascending_ids(draw, size=None):
    """Distinct ids in ascending order, of the given count or up to five."""
    lengths = {"max_size": 5} if size is None else {"min_size": size, "max_size": size}
    return sorted(draw(st.lists(st.integers(0, 50), unique=True, **lengths)))


@st.composite
def micro_states(draw):
    ids = ascending_ids(draw)
    return MicroState(ids, *float_columns(draw, 3, len(ids)), draw(st.integers(0, 2)), W)


@st.composite
def command_tables(draw):
    ids = ascending_ids(draw)
    return Commands(ids, *float_columns(draw, 3, len(ids)))


@st.composite
def flock_tables(draw, cls):
    """A Flocks or Displacements table; each row has one to three members,
    and the labels follow no order."""
    sizes = draw(st.lists(st.integers(1, 3), max_size=4))
    f, m = len(sizes), sum(sizes)
    members = ascending_ids(draw, m)
    label = draw(st.permutations([k for k, size in enumerate(sizes) for _ in range(size)]))
    extra = float_columns(draw, 2, f) if cls is Displacements else []
    return cls(*float_columns(draw, 4, f), members, label, *extra)


@st.composite
def registries(draw):
    """A flock registry whose next id is drawn per table, above its ids."""
    flocks = draw(flock_tables(Flocks))
    ids = ascending_ids(draw, len(flocks))
    next_id = draw(st.integers(max(ids, default=-1) + 1, 60))
    return MacroState(**vars(flocks), ids=ids, next_id=next_id, world=W)


table_kinds = [
    micro_states(),
    command_tables(),
    flock_tables(Flocks),
    flock_tables(Displacements),
    registries(),
]


ONE_FLOCK = Flocks([1.0], [2.0], [3.0], [0.5], [4, 7], [0, 0])


@given(st.sampled_from(table_kinds).flatmap(lambda kind: st.lists(kind, min_size=1, max_size=4)))
@example([NO_FLOCKS, ONE_FLOCK, NO_FLOCKS])
@example(
    [
        MacroState(**vars(ONE_FLOCK), ids=[3], next_id=4, world=W),
        MacroState(**vars(NO_FLOCKS), ids=[], next_id=0, world=W),
        MacroState(**vars(ONE_FLOCK), ids=[3], next_id=9, world=W),
    ]
)
@example([MicroState([1], [2.0], [3.0], [4.0], tick, W) for tick in (5, 5, 6)])
@settings(max_examples=300, deadline=None)
def test_split_inverts_stack(tables):
    stack, part = Columns.stack(tables)
    assert type(stack) is type(tables[0])
    assert len(stack) == sum(map(len, tables))
    if len(tables) == 1:
        assert stack is tables[0] and part is None
    else:
        assert part.tolist() == [k for k, t in enumerate(tables) for _ in range(len(t))]
        # a field that is not a column holds the parts' one value, or each part's
        for name, value in vars(tables[0]).items():
            if not isinstance(value, np.ndarray):
                values = tuple(vars(t)[name] for t in tables)
                want = value if values.count(value) == len(values) else values
                assert vars(stack)[name] == want
    assert stack.split(part, len(tables)) == tables


class TestObserve:
    def test_empty(self):
        s = make_state([])
        assert observe(s) is s and len(s) == 0 and s.birds == ()

    def test_ordered_snapshot(self):
        birds = [Bird(2, (1.0, 1.0), 5.0), Bird(0, (2.0, 2.0), 6.0), Bird(1, (3.0, 3.0), 7.0)]
        obs = observe(make_state(birds))
        assert obs.ids.tolist() == [0, 1, 2]
        assert obs.birds[0] == Bird(0, (2.0, 2.0), 6.0)

    def test_read_only(self):
        obs = observe(init_random(3, W, np.random.default_rng(1)))
        for name in COLUMNS:
            with pytest.raises(ValueError, match="read-only"):
                getattr(obs, name)[0] = 1


# Half-unit lattice points: every delta and squared distance is exact, so
# many pairs sit exactly at vision (3-4-5 triangles, axis neighbours,
# across the seam) and many nearest-mate distances tie.
LW = TorusWorld(20.0, 12.5)
lattice_birds = st.lists(
    st.tuples(
        st.integers(0, 39).map(lambda k: k / 2.0),
        st.integers(0, 24).map(lambda k: k / 2.0),
        st.integers(0, 23).map(lambda k: k * 15.0),
    ),
    min_size=1,
    max_size=60,
)


@given(
    lattice_birds,
    st.sampled_from([(0.0, 0.0), (2.5, 1.0), (5.0, 1.0), (5.0, 2.5), (10.0, 1.0)]),
)
# two birds exactly vision apart along x: each is the other's mate
@example([(0.0, 0.0, 0.0), (5.0, 0.0, 90.0)], (5.0, 1.0))
@settings(max_examples=150, deadline=None)
def test_lattice_ties_match_per_bird_rule(birds, vision_sep):
    vision, sep = vision_sep
    p = SteeringParams(vision=vision, min_separation=sep, max_separate_turn=4.0)
    s = MicroState(*columns((k, (x, y), h) for k, (x, y, h) in enumerate(birds)), 0, LW)
    stepped = micro_step(s, None, p)
    for b, got in zip(s.birds, stepped.birds):
        want = step_autonomous(b, flockmates(b, s, p), p, LW)
        assert got == want, f"bird {b.id} differs"
