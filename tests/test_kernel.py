from dataclasses import replace

import numpy as np
import pytest

from flocklevels.audit import (
    CHUNK_ROWS,
    audit_cardinality,
    audit_causality,
    audit_coherence,
    audit_log,
)
from flocklevels.coupling import ClusterParams, emergence_transform
from flocklevels.experiment import apply_config, build_multimodel
from flocklevels.geometry import TorusWorld
from flocklevels.kernel import (
    CouplingArtifact,
    DeadlockError,
    EventLog,
    MultiModel,
    ProtocolError,
    run,
)
from flocklevels.macro import Displacements, Flocks
from flocklevels.micro import Commands, MicroState
from helpers import state_key

W = TorusWorld(100.0, 100.0)


def trace(log):
    return [(r.timestamp, r.agent, r.op, r.artifact) for r in log.records]


class TestCouplingArtifact:
    def test_first_write(self):
        a = CouplingArtifact("e")
        a.write(0, [1, 2, 3])
        assert a.buffer == {0: [1, 2, 3]}
        assert a.producer_clock == 0

    def test_monotone_writes(self):
        a = CouplingArtifact("e")
        a.write(0, ["x"])
        a.write(4, ["y"])
        assert a.buffer == {0: ["x"], 4: ["y"]}

    def test_duplicate_timestamp_rejected(self):
        a = CouplingArtifact("e")
        a.write(0, ["x"])
        with pytest.raises(ProtocolError):
            a.write(0, ["y"])

    def test_out_of_order_write_rejected(self):
        a = CouplingArtifact("e")
        a.write(4, ["x"])
        with pytest.raises(ProtocolError):
            a.write(2, ["y"])

    def test_negative_timestamp_rejected(self):
        with pytest.raises(
            ProtocolError, match=r"^e: external non-monotone write at t=-1 \(producer clock -1\)$"
        ):
            CouplingArtifact("e").write(-1, ["x"])

    def test_direct_delivery_applies_transformer(self):
        a = CouplingArtifact("i", transformer=lambda ps: [[x * 2 for x in p] for p in ps])
        a.write(1, [1, 2])
        assert a.read(1) == [2, 4]

    def test_read_and_peek_apply_the_transformer_to_one_payload(self):
        batches = []

        def transformer(payloads):
            batches.append(list(payloads))
            return [p[::-1] for p in payloads]

        a = CouplingArtifact("e", transformer)
        a.write(0, [1, 2])
        assert a.read(0) == [2, 1]
        assert a.peek(0) == [2, 1]
        assert batches == [[[1, 2]], [[1, 2]]]

    def test_default_transformer_delivers_as_written(self):
        a = CouplingArtifact("e")
        assert a.transformer(([1], "x")) == [[1], "x"]
        a.write(0, [3])
        assert a.read(0) == [3]

    def test_absent_when_producer_passed(self):
        # a tick the producer passed without writing is never delivered
        a = CouplingArtifact("i")
        a.write(4, ["x"])
        passed = "at t=1, which the producer passed without writing (producer clock 4)"
        with pytest.raises(ProtocolError) as info:
            a.read(1, "A_m", cycle=1)
        assert str(info.value) == f"i: A_m read {passed}"
        with pytest.raises(ProtocolError) as info:
            a.peek(1)
        assert str(info.value) == f"i: peek {passed}"
        assert trace(a.log) == [(4, "external", "write", "i")]

    def test_repeated_reads_idempotent(self):
        a = CouplingArtifact("e")
        a.write(0, [1, 2, 3])
        assert a.read(0) == a.read(0)

    def test_interpretation_artifact_may_reduce(self):
        a = CouplingArtifact("e", transformer=lambda ps: [p[:1] for p in ps])
        a.write(0, [1, 2, 3])
        assert a.read(0) == [1]

    def test_failed_read_logs_nothing_and_later_read_delivers(self):
        a = CouplingArtifact("e")
        a.write(0, ["early"])
        with pytest.raises(DeadlockError):
            a.read(2, "A_M", cycle=1)
        assert trace(a.log) == [(0, "external", "write", "e")]
        a.write(2, ["late"])
        assert a.read(2, "A_M", cycle=2) == ["late"]

    def test_stalled_read_raises_deadlock(self):
        a = CouplingArtifact("e")
        a.write(0, ["x"])
        with pytest.raises(DeadlockError) as info:
            a.read(1, "A_M", cycle=1)
        assert str(info.value) == "e: A_M read at t=1 beyond the producer clock 0"


def small_multimodel(variant, birds=5, horizon=2, seed=0):
    cfg = apply_config(variant, birds=birds, horizon=horizon, reps=1, base_seed=seed)
    return cfg, build_multimodel(cfg, 0)


class TestRun:
    def test_empty_horizon(self):
        _, mm = small_multimodel("M", horizon=0)
        log = run(mm)
        assert trace(log) == [(0, "A_m", "write", "e")]

    def test_reference_trace_equal_timescales(self):
        _, mm = small_multimodel("M", horizon=2)
        log = run(mm)
        assert trace(log) == [
            (0, "A_m", "write", "e"),
            (0, "A_M", "read", "e"),
            (1, "A_M", "write", "i"),
            (1, "A_m", "read", "i"),
            (1, "A_m", "write", "e"),
            (1, "A_M", "read", "e"),
            (2, "A_M", "write", "i"),
            (2, "A_m", "read", "i"),
            (2, "A_m", "write", "e"),
        ]

    def test_four_to_one_period_shape(self):
        cfg = apply_config("M3", birds=5, horizon=4, reps=1, base_seed=0)
        mm = build_multimodel(cfg, 0)
        log = run(mm)
        ops = trace(log)
        assert ops.count((0, "A_M", "read", "e")) == 1
        assert [o for o in ops if o[3] == "i" and o[2] == "write"] == [
            (t, "A_M", "write", "i") for t in (1, 2, 3, 4)
        ]
        assert [o for o in ops if o[3] == "e" and o[2] == "write"] == [
            (0, "A_m", "write", "e"),
            (4, "A_m", "write", "e"),
        ]

    def test_passive_macro_never_writes(self):
        _, mm = small_multimodel("m", horizon=3)
        log = run(mm)
        assert all(r.op == "read" for r in log.records if r.agent == "A_M")
        assert mm.immergence is None

    def test_upward_only_macro_never_steps(self):
        # without an immergence transformer the macro agent syncs its
        # registry every period but never steps or observes its model
        _, mm = small_multimodel("m", birds=20, horizon=6)
        interface = mm.macro_agent.interface
        calls = {"update_model": 0, "step_model": 0, "observe_model": 0}

        def counting(name):
            original = getattr(interface, name)

            def call(*args):
                calls[name] += 1
                return original(*args)

            return call

        for name in calls:
            setattr(interface, name, counting(name))
        run(mm)
        assert calls == {"update_model": 6, "step_model": 0, "observe_model": 0}

    def test_exact_protocol_macro_interface(self):
        # a macro interface with only the three InterfaceArtifact methods
        # runs exactly as the built one
        class Macro:
            def __init__(self, inner):
                self.inner = inner

            def update_model(self, data):
                self.inner.update_model(data)

            def step_model(self):
                self.inner.step_model()

            def observe_model(self):
                return self.inner.observe_model()

        _, built = small_multimodel("M", birds=20, horizon=8)
        _, mm = small_multimodel("M", birds=20, horizon=8)
        stand_in = MultiModel(
            micro=mm.micro_agent.interface,
            macro=Macro(mm.macro_agent.interface),
            emergence=mm.emergence.transformer,
            immergence=mm.immergence.transformer,
            ratio=mm.ratio,
            horizon=mm.horizon,
        )
        assert run(stand_in).export_lines() == run(built).export_lines()
        birds = stand_in.micro_agent.interface.state
        assert state_key(birds) == state_key(built.micro_agent.interface.state)

    def test_termination_counts(self):
        for variant, horizon in (("M", 6), ("M3", 8)):
            cfg = apply_config(variant, birds=5, horizon=horizon, reps=1, base_seed=1)
            mm = build_multimodel(cfg, 0)
            run(mm)
            r = cfg.variant.ratio
            assert mm.micro_agent.local_clock == horizon
            assert mm.micro_agent.cycle_index == horizon
            assert mm.macro_agent.cycle_index == horizon // r

    def test_deterministic_logs(self):
        logs = []
        for _ in range(2):
            _, mm = small_multimodel("M", birds=20, horizon=10, seed=7)
            logs.append(run(mm).export_lines())
        assert logs[0] == logs[1]

    def test_published_snapshots_stay_as_written(self):
        # the log keeps each published state by reference; no later tick
        # may change one, commanded birds included
        _, mm = small_multimodel("M", birds=40, horizon=30, seed=3)
        copies = {}
        write = mm.emergence.write

        def copying_write(t, payload, *args, **kwargs):
            copies[t] = state_key(payload)
            write(t, payload, *args, **kwargs)

        mm.emergence.write = copying_write
        run(mm)
        assert sorted(copies) == list(range(31))
        for t in range(11):
            assert state_key(mm.emergence.buffer[t]) == copies[t]

    def test_audits_clean(self):
        for variant in ("m", "M", "M3"):
            cfg = apply_config(variant, birds=20, horizon=8, reps=1, base_seed=2)
            mm = build_multimodel(cfg, 0)
            log = run(mm)
            artifacts = {"e": mm.emergence}
            if mm.immergence is not None:
                artifacts["i"] = mm.immergence
            assert audit_log(log, artifacts, min_size=cfg.cluster.min_size) == []

    def test_interface_failure_reports_tick(self):
        # the third step_model call fails: micro cycle 3 runs tick 3,
        # macro cycle 3 runs the period starting at tick 2
        for agent_name, message in (
            ("micro_agent", "in A_m at tick 3"),
            ("macro_agent", "in A_M at tick 2"),
        ):
            _, mm = small_multimodel("M", horizon=4)
            interface = getattr(mm, agent_name).interface
            original = interface.step_model
            calls = {"n": 0}

            def failing(original=original, calls=calls):
                calls["n"] += 1
                if calls["n"] == 3:
                    raise ValueError("model blew up")
                original()

            interface.step_model = failing
            with pytest.raises(
                RuntimeError, match=f"{message}: ValueError: model blew up"
            ):
                run(mm)

    def test_dropped_write_reaches_the_caller_as_deadlock(self):
        # the macro agent skips its i write of tick 2, so the micro read of
        # tick 2 is beyond the producer clock; run re-raises it unwrapped
        _, mm = small_multimodel("M", horizon=4)
        write = mm.immergence.write

        def dropping(t, *args, **kwargs):
            if t != 2:
                write(t, *args, **kwargs)

        mm.immergence.write = dropping
        with pytest.raises(DeadlockError, match="^i: A_m read at t=2 beyond the producer clock 1$"):
            run(mm)

    def test_repeated_write_reaches_the_caller_naming_the_agent(self):
        # the macro agent writes its i payload of tick 2 twice; run
        # re-raises the ProtocolError unwrapped, naming the writing agent
        _, mm = small_multimodel("M", horizon=4)
        write = mm.immergence.write

        def repeating(t, *args, **kwargs):
            write(t, *args, **kwargs)
            if t == 2:
                write(t, *args, **kwargs)

        mm.immergence.write = repeating
        with pytest.raises(
            ProtocolError, match=r"^i: A_M non-monotone write at t=2 \(producer clock 2\)$"
        ):
            run(mm)

    def test_multimodel_wiring_errors(self):
        def parts(variant="M3"):
            _, mm = small_multimodel(variant, horizon=4)
            return dict(
                micro=mm.micro_agent.interface,
                macro=mm.macro_agent.interface,
                emergence=mm.emergence.transformer,
                immergence=mm.immergence.transformer,
                ratio=mm.ratio,
                horizon=mm.horizon,
            )

        ok = MultiModel(**parts())
        assert ok.log is ok.emergence.log is ok.immergence.log
        assert ok.micro_agent.ratio == ok.macro_agent.ratio == ok.ratio == 4

        zero_ratio = {**parts("M"), "ratio": 0}
        cases = [
            (zero_ratio, "share one ratio"),
            ({**parts(), "horizon": 6}, "multiple of the ratio"),
            ({**parts(), "horizon": -4}, "multiple of the ratio"),
        ]
        for kwargs, message in cases:
            with pytest.raises(ValueError, match=message):
                MultiModel(**kwargs)


class TestEventLogExport:
    def test_line_format(self):
        _, mm = small_multimodel("M", horizon=2)
        log = run(mm)
        lines = log.export_lines()
        assert lines[0] == "0;A_m;write;e;MicroObservation;5"
        for line in lines:
            fields = line.split(";")
            assert len(fields) == 6
            assert fields[2] in ("read", "write")

    def test_replayable_order(self):
        _, mm = small_multimodel("M", horizon=2)
        log = run(mm)
        assert [r.seq for r in log.records] == list(range(len(log.records)))


class TestAuditDetectsViolations:
    def test_causality_flags_future_read(self):
        # one tick after the cycle's own write is already in its future
        for read_tick in (6, 9):
            log = EventLog()
            log.append("A", "write", "x", 5, "payload", [1], cycle=1)
            log.append("A", "read", "y", read_tick, "payload", [1], cycle=1)
            assert audit_causality(log) == [
                f"causality: A cycle 1 read y@{read_tick} but wrote x@5",
                f"delivery: read y@{read_tick} before the producer clock (-1) reached it",
            ]

    def test_causality_flags_self_loop(self):
        # a cycle that reads the tick of one artifact that it writes
        log = EventLog()
        log.append("A", "write", "x", 5, "payload", [1], cycle=1)
        log.append("A", "read", "x", 5, "payload", [1], cycle=1)
        assert audit_causality(log) == ["causality: A cycle 1 read and wrote x@5 (self-loop)"]

    def test_delivery_flags_premature_read(self):
        log = EventLog()
        log.append("A", "read", "x", 3, "payload", [1], cycle=1)
        assert audit_causality(log) == [
            "delivery: read x@3 before the producer clock (-1) reached it"
        ]

    def test_coherence_flags_divergent_reads(self):
        log = EventLog()
        log.append("A", "write", "x", 0, "payload", [1], cycle=None)
        log.append("B", "read", "x", 0, "payload", [1], cycle=1)
        log.append("B", "read", "x", 0, "payload", [2], cycle=2)
        assert audit_coherence(log, {}) == ["coherence: divergent repeated reads of x@0"]

    @pytest.mark.parametrize(
        "ops, issue",
        [
            ([("write", 0), ("write", 0), ("read", 0)], "duplicate write x@0"),
            (
                [("write", 1), ("write", 0), ("read", 0), ("read", 1)],
                "non-monotone write order on x: [1, 0]",
            ),
            ([("write", 0), ("read", 0), ("read", 1)], "x@1 delivered without a write"),
        ],
    )
    def test_coherence_flags_one_fault_once(self, ops, issue):
        log = EventLog()
        for op, t in ops:
            log.append("A" if op == "write" else "B", op, "x", t, "payload", [t], cycle=None)
        assert audit_coherence(log, {}) == [f"coherence: {issue}"]

    def test_coherence_flags_lost_event(self):
        log = EventLog()
        log.append("A", "write", "x", 0, "payload", [1], cycle=None)
        log.append("A", "write", "x", 1, "payload", [2], cycle=None)
        log.append("B", "read", "x", 1, "payload", [2], cycle=1)
        assert audit_coherence(log, {}) == ["coherence: x@0 written but never read (lost)"]

    def test_cardinality_flags_expansion_mismatch(self):
        log = EventLog()
        # one flock of three members, but a command for one bird only
        d = Displacements([5.0], [5.0], [0.0], [1.0], [1, 2, 3], [0, 0, 0], [1.0], [0.0])
        log.append("A_M", "write", "i", 1, "DisplacementList", d, cycle=1)
        cmds = Commands([1], [1.0], [0.0], [0.0])
        log.append("A_m", "read", "i", 1, "CommandSet", cmds, cycle=1)
        assert audit_cardinality(log, 3) == ["cardinality: i@1 has 1 commands for 3 members"]

    def test_cardinality_flags_too_many_flocks(self):
        # five birds hold at most one flock of three, not two
        log = EventLog()
        state = MicroState(range(5), [0.0] * 5, [0.0] * 5, [0.0] * 5, 0, W)
        log.append("A_m", "write", "e", 0, "MicroObservation", state, cycle=None)
        flocks = Flocks([0.0, 1.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0], [0, 1, 2, 3], [0, 0, 1, 1])
        log.append("A_M", "read", "e", 0, "FlockObservationList", flocks, cycle=1)
        assert audit_cardinality(log, 3) == ["cardinality: e@0 has 2 flocks for 5 birds"]

    def test_cardinality_accepts_as_many_flocks_as_the_birds_hold(self):
        # five birds hold one flock of three, which is no issue
        log = EventLog()
        state = MicroState(range(5), [0.0] * 5, [0.0] * 5, [0.0] * 5, 0, W)
        log.append("A_m", "write", "e", 0, "MicroObservation", state, cycle=None)
        flocks = Flocks([0.0], [0.0], [0.0], [0.0], [0, 1, 2], [0, 0, 0])
        log.append("A_M", "read", "e", 0, "FlockObservationList", flocks, cycle=1)
        assert audit_cardinality(log, 3) == []

    @pytest.mark.parametrize("ulps", [0, 1])
    def test_coherence_flags_a_flock_table_one_ulp_off(self, ulps):
        # an e read is checked against the transformer of the written state
        state = MicroState(range(4), [10.0, 11.0, 12.0, 40.0], [10.0] * 4, [0.0] * 4, 0, W)
        cluster = ClusterParams(min_size=3)
        e = CouplingArtifact("e", lambda states: emergence_transform(states, cluster))
        good = e.transformer([state])[0]
        radius = good.radius.copy()
        for _ in range(ulps):
            radius[0] = np.nextafter(radius[0], np.inf)
        read = replace(good, radius=radius)
        log = EventLog()
        log.append("A_m", "write", "e", 0, "MicroObservation", state, cycle=0)
        log.append("A_M", "read", "e", 0, "FlockObservationList", read, cycle=0)
        flagged = [s for s in audit_coherence(log, {"e": e}) if "transformer" in s]
        assert len(flagged) == ulps

    def test_coherence_flags_a_corrupted_read_in_the_middle_of_a_chunk(self):
        # chunks of per_chunk snapshots of 100 birds, every one full
        per_chunk = CHUNK_ROWS // 100
        assert per_chunk >= 3 and CHUNK_ROWS % 100 == 0
        cfg = apply_config("M1", birds=100, horizon=10 * per_chunk, base_seed=13)
        mm = build_multimodel(cfg, 0)
        run(mm)
        # an e read neither first nor last in its chunk, with flocks
        k, rec = next(
            (k, r)
            for k, r in enumerate(mm.log.records)
            if r.op == "read" and r.artifact == "e" and len(r.payload)
            and 0 < r.timestamp % per_chunk < per_chunk - 1
        )
        radius = rec.payload.radius.copy()
        radius[0] = np.nextafter(radius[0], np.inf)
        mm.log.records[k] = replace(rec, payload=replace(rec.payload, radius=radius))

        batches = []
        transformer = mm.emergence.transformer

        def recording(states):
            batches.append([s.tick for s in states])
            return transformer(states)

        mm.emergence.transformer = recording
        issues = audit_coherence(mm.log, {"e": mm.emergence, "i": mm.immergence})
        assert issues == [
            f"coherence: e@{rec.timestamp} delivered payload differs from "
            f"transformer(written payload)"
        ]
        assert rec.timestamp in batches[rec.timestamp // per_chunk]
        assert all(len(b) == per_chunk for b in batches)

    def test_coherence_chunks_put_a_snapshot_above_chunk_rows_alone(self):
        # snapshot sizes in rows, tick by tick: a chunk ends once it holds
        # CHUNK_ROWS rows; a snapshot of more rows ends the chunk before it
        # and is a chunk alone, one of exactly CHUNK_ROWS rows is not
        quarter = CHUNK_ROWS // 4
        sizes = [quarter, CHUNK_ROWS + 1, 2 * quarter, quarter, quarter]
        sizes += [quarter, CHUNK_ROWS, 3 * CHUNK_ROWS, quarter]
        log = EventLog()
        for t, n in enumerate(sizes):
            state = MicroState(range(n), np.zeros(n), np.zeros(n), np.zeros(n), t, W)
            log.append("A_m", "write", "e", t, "MicroObservation", state, cycle=None)
            log.append("A_M", "read", "e", t, "MicroObservation", state, cycle=t)
        batches = []

        def recording(states):
            batches.append([s.tick for s in states])
            return states

        assert audit_coherence(log, {"e": CouplingArtifact("e", recording)}) == []
        assert batches == [[0], [1], [2, 3, 4], [5, 6], [7], [8]]
