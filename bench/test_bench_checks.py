"""Each benchmark check passes on a real output and fails on a wrong one.

Run with the package sources on the path:

    PYTHONPATH=src python3 -m pytest bench
"""

from __future__ import annotations

import math

import pytest

import checks
from flocklevels import experiment
from flocklevels.kernel import run

WIDTH = 20.0  # dense enough for flocks to form within a few ticks


def tiny_run(variant: str, tmp_path, horizon: int = 8, reps: int = 2):
    """A small replicated run, its written files and its multi-models."""
    world = {"world.width": WIDTH, "world.height": WIDTH}
    cfg = experiment.apply_config(variant, world, birds=60, horizon=horizon, reps=reps)
    result = experiment.run_replicated(cfg)
    csv = tmp_path / "records.csv"
    experiment.write_records_csv(csv, variant, result.records)
    mms = [experiment.build_multimodel(cfg, rep) for rep in range(reps)]
    for mm in mms:
        run(mm)
    return cfg, result, checks.read_records_csv(csv), mms


def test_expected_counts_follow_the_schedule():
    # M over T ticks: T+1 emergence writes, T of every other line
    assert checks.expected_event_counts(7, 1, True) == {
        ("A_m", "write", "e"): 8,
        ("A_M", "read", "e"): 7,
        ("A_M", "write", "i"): 7,
        ("A_m", "read", "i"): 7,
    }
    assert checks.expected_event_counts(8, 4, False) == {
        ("A_m", "write", "e"): 3,
        ("A_M", "read", "e"): 2,
    }


@pytest.mark.parametrize("variant,ratio,immergence", [("M3", 4, True), ("m", 1, False)])
def test_event_counts_catch_missing_extra_and_misread_lines(
    tmp_path, variant, ratio, immergence
):
    cfg, result, _, _ = tiny_run(variant, tmp_path)
    lines = result.event_log_lines
    assert checks.check_event_counts(lines, 8, ratio, immergence, cfg.reps) == []
    assert checks.check_event_counts(lines[:-1], 8, ratio, immergence, cfg.reps)
    assert checks.check_event_counts(lines + lines[:1], 8, ratio, immergence, cfg.reps)
    assert checks.check_event_counts(lines, 8, ratio, immergence, cfg.reps + 1)
    assert checks.check_event_counts(lines, 8, 2, immergence, cfg.reps)


def test_records_bounds_catch_each_violation():
    good = ["M", "0", "5", "3", "4.000000", "1.500000"]
    assert checks.check_records([good], birds=12, min_size=3) == []
    assert checks.check_records([["M", "0", "5", "0", "0.000000", "0.000000"]], 12, 3) == []
    wrong = [
        ["M", "0", "5", "5", "3.000000", "1.0"],  # more flocks than 12 // 3
        ["M", "0", "5", "-1", "3.000000", "1.0"],
        ["M", "0", "5", "2", "2.500000", "1.0"],  # below min_size
        ["M", "0", "5", "3", "4.500000", "1.0"],  # 13.5 members of 12 birds
        ["M", "0", "5", "2", "3.000000", "-0.1"],
        ["M", "0", "5", "2", "3.000000", "nan"],
        ["M", "0", "5", "2", "3.000000", "inf"],
    ]
    for row in wrong:
        assert checks.check_records([row], birds=12, min_size=3), row


def test_final_flocks_catch_a_wrong_count_or_size(tmp_path):
    cfg, _, rows, mms = tiny_run("M", tmp_path)
    c = cfg.cluster
    for rep, mm in enumerate(mms):
        birds = [(b.id, *b.pos, b.heading) for b in mm.micro_agent.interface.state.birds]
        sizes = checks.brute_force_flock_sizes(birds, c.d_prox, c.theta, c.min_size, WIDTH, WIDTH)
        assert sizes, "the test needs flocks at the final tick"
        assert checks.check_final_flocks(rows, rep, cfg.horizon, sizes) == []
        assert checks.check_final_flocks(rows, rep, cfg.horizon, sizes[1:])

        k = rows.index([r for r in rows if r[1] == str(rep) and r[2] == str(cfg.horizon)][0])
        assert checks.check_final_flocks(rows[:k] + rows[k + 1 :], rep, cfg.horizon, sizes)
        for field, value in ((3, str(int(rows[k][3]) + 1)), (4, f"{float(rows[k][4]) + 1e-6:.6f}")):
            tampered = [list(r) for r in rows]
            tampered[k][field] = value
            assert checks.check_final_flocks(tampered, rep, cfg.horizon, sizes)


def test_brute_force_clusterer_closed_thresholds_across_the_seam():
    birds = [
        (0, 9.5, 5.0, 350.0),
        (1, 0.5, 5.0, 20.0),  # 1.0 away across the seam, 30 degrees apart
        (2, 1.5, 5.0, 50.0),  # chained through bird 1
        (3, 5.0, 5.0, 0.0),  # alone
        (4, 5.0, 6.0, 30.0 + 1e-9),  # 1.0 away from bird 3, just over theta
    ]
    assert checks.brute_force_flock_sizes(birds, 1.0, 30.0, 3, 10.0, 10.0) == [3]
    assert checks.brute_force_flock_sizes(birds, 1.0, 30.0, 2, 10.0, 10.0) == [3]
    assert checks.brute_force_flock_sizes(birds, math.nextafter(1.0, 0.0), 30.0, 2, 10.0, 10.0) == []


def test_audit_catches_a_lost_read(tmp_path):
    cfg, _, _, mms = tiny_run("M", tmp_path, reps=1)
    mm = mms[0]
    assert checks.audit_problems(mm, cfg.cluster.min_size) == []
    reads = [k for k, r in enumerate(mm.log.records) if r.op == "read" and r.artifact == "i"]
    del mm.log.records[reads[0]]
    assert checks.audit_problems(mm, cfg.cluster.min_size)


def test_digests_differ_on_one_changed_byte(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.write_bytes(b"variant,rep\nM,0\n")
    b.write_bytes(b"variant,rep\nM,1\n")
    first = {"x.csv": checks.digest(a)}
    assert checks.check_same_digests(first, {"x.csv": checks.digest(a)}) == []
    assert checks.check_same_digests(first, {"x.csv": checks.digest(b)})
    assert checks.check_same_digests(first, {})
