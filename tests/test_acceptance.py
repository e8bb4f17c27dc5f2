"""End-to-end acceptance checks.

Each test covers one numbered acceptance criterion and prints a single
live PASS line (bypassing capture) once its assertions hold. Criteria 2
and 8 share one module-scoped batch of audited runs.
"""

import math
import time

import numpy as np
import pytest

from flocklevels.audit import audit_cardinality, audit_causality, audit_coherence
from flocklevels.coupling import (
    ClusterParams,
    detect_clusters,
    emergence_transform,
    split_displacements,
)
from flocklevels.experiment import (
    apply_config,
    build_multimodel,
    run_replicated,
    write_records_csv,
)
from flocklevels.geometry import TorusWorld
from flocklevels.interfaces import MacroModelInterface, MicroModelInterface
from flocklevels.kernel import MultiModel, run
from flocklevels.macro import NO_FLOCKS, Displacements, Flocks, MacroState, sync_registry
from flocklevels.micro import MicroState, SteeringParams, init_random, micro_step, observe
from helpers import (
    best_matching,
    brute_clusters,
    cluster_lists,
    columns,
    commands_by_id,
    displacement_columns,
    jaccard,
    registry_flocks,
    state_key,
    torus_distance,
)

W = TorusWorld(100.0, 100.0)


def report(capfd, criterion: int, detail: str) -> None:
    # emit one live line per criterion even under fd-level capture
    with capfd.disabled():
        print(f"acceptance criterion {criterion}: PASS ({detail})", flush=True)


@pytest.fixture(scope="module")
def audited_runs():
    """20 seeded runs each of the equal- and split-time-scale variants."""
    out = []
    for variant in ("M", "M3"):
        for seed in range(20):
            cfg = apply_config(variant, birds=50, horizon=40, reps=1, base_seed=seed)
            mm = build_multimodel(cfg, 0)
            run(mm)
            out.append((cfg, mm))
    return out


def test_criterion_1_clustering_oracle(capfd):
    rng = np.random.default_rng(2024)
    params = ClusterParams(d_prox=5.0, theta=30.0, min_size=2)
    start = time.perf_counter()
    for _ in range(1000):
        obs = [
            (i, (float(x), float(y)), float(h))
            for i, (x, y, h) in enumerate(
                zip(rng.uniform(0, 100, 50), rng.uniform(0, 100, 50), rng.uniform(0, 360, 50))
            )
        ]
        state = MicroState(*columns(obs), 0, W)
        got = cluster_lists(detect_clusters(state, params), state)
        want = brute_clusters(obs, 5.0, 30.0, 2, 100.0, 100.0)
        assert got == want
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(capfd, 1, f"1000 instances matched the brute-force oracle in {elapsed:.2f}s")


def test_criterion_2_causality_and_coherence(audited_runs, capfd):
    for cfg, mm in audited_runs:
        artifacts = {"e": mm.emergence}
        if mm.immergence is not None:
            artifacts["i"] = mm.immergence
        issues = audit_causality(mm.log) + audit_coherence(mm.log, artifacts)
        assert issues == []
    report(capfd, 2, f"zero audit issues over {len(audited_runs)} runs of M and M3")


def test_criterion_3_determinism(tmp_path, capfd):
    exports, csvs = [], []
    for i in range(2):
        cfg = apply_config("M", birds=100, horizon=200, reps=1, base_seed=7)
        result = run_replicated(cfg)
        log_path = tmp_path / f"events{i}.log"
        csv_path = tmp_path / f"records{i}.csv"
        log_path.write_bytes(("\n".join(result.event_log_lines) + "\n").encode())
        write_records_csv(csv_path, "M", result.records)
        exports.append(log_path.read_bytes())
        csvs.append(csv_path.read_bytes())
    assert exports[0] == exports[1]
    assert csvs[0] == csvs[1]
    report(capfd, 3, "repeated seed-7 runs gave byte-identical event logs and CSVs")


def test_criterion_4_no_immergence_equivalence(capfd):
    cfg = apply_config("m", birds=100, horizon=200, reps=1, base_seed=11)
    mm = build_multimodel(cfg, 0)
    run(mm)
    assert list(mm.emergence.buffer) == list(range(cfg.horizon + 1))

    state = init_random(cfg.birds, cfg.world, np.random.default_rng(11))
    counts = []
    for t in range(cfg.horizon + 1):
        if t > 0:
            state = micro_step(state, None, cfg.micro)
        # the coupled run publishes its raw snapshot at every boundary;
        # with ratio 1 that is every tick, so trajectories compare exactly
        assert state_key(mm.emergence.buffer[t]) == state_key(observe(state))
        counts.append(len(emergence_transform([observe(state)], cfg.cluster)[0]))

    stats = mm.macro_agent.interface.stats
    sampled = {k * mm.ratio: n for k, (n, _, _) in enumerate(stats)}
    sampled[cfg.horizon] = len(mm.emergence.peek(cfg.horizon))
    for t in cfg.sample_ticks:
        assert sampled[t] == counts[t]
    report(capfd, 4, "passive-coupling trajectories and flock counts match the standalone run")


def test_criterion_5_immergence_conservation(capfd):
    rng = np.random.default_rng(55)
    for _ in range(100):
        d, next_bird = [], 0
        for fid in range(int(rng.integers(1, 6))):
            size = int(rng.integers(1, 8))
            members = frozenset(range(next_bird, next_bird + size))
            next_bird += size
            v = (float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5)))
            d.append((fid, members, v, float(rng.uniform(0, 360))))
        union = sorted(b for _, m, _, _ in d for b in m)
        table = Displacements(*displacement_columns(row[1:] for row in d))
        for r in (1, 2, 4):
            # the immergence artifact splits once per micro tick of a period
            sets = [commands_by_id(split_displacements(table, r)) for _ in range(r)]
            assert len(sets) == r
            for cs in sets:
                assert sorted(cs) == union
            for _, members, v, _ in d:
                for bid in members:
                    sx = math.fsum(cs[bid][0][0] for cs in sets)
                    sy = math.fsum(cs[bid][0][1] for cs in sets)
                    assert abs(sx - v[0]) < 1e-12
                    assert abs(sy - v[1]) < 1e-12
    report(capfd, 5, "100 displacement lists decompose exactly for ratios 1, 2 and 4")


def test_criterion_6_flock_rigidity(capfd):
    rng = np.random.default_rng(6)
    x, y = 50.0 + rng.uniform(-1, 1, (10, 2)).T
    initial = MicroState(range(10), x, y, [37.0] * 10, 0, W)
    cluster = ClusterParams(d_prox=5.0, theta=30.0, min_size=3)

    mm = MultiModel(
        micro=MicroModelInterface(initial, SteeringParams()),
        macro=MacroModelInterface(W, SteeringParams()),
        emergence=lambda states: emergence_transform(states, cluster),
        immergence=lambda ds: [split_displacements(d, 1) for d in ds],
        ratio=1,
        horizon=20,
    )
    emergence = mm.emergence
    run(mm)

    assert list(emergence.buffer) == list(range(21))
    snapshots = [emergence.buffer[t] for t in range(21)]
    for obs in snapshots:
        assert len(set(obs.heading.tolist())) == 1
    for before, after in zip(snapshots, snapshots[1:]):
        p0, p1 = (list(zip(s.x.tolist(), s.y.tolist())) for s in (before, after))
        for i in range(10):
            for j in range(i + 1, 10):
                d0 = torus_distance(p0[i], p0[j], W)
                d1 = torus_distance(p1[i], p1[j], W)
                assert abs(d1 - d0) < 1e-9
        # the flock stayed one flock throughout
        assert len(emergence_transform([after], cluster)[0]) == 1
    report(capfd, 6, "one commanded flock stayed rigid across 20 macro periods")


def test_criterion_7_registry_lifecycle(capfd):
    def obs_of(members):
        """One observed flock of the given members at (50, 50)."""
        return Flocks([50.0], [50.0], [0.0], [1.0], sorted(members), [0] * len(members))

    def check_against_oracle(before, observations, after):
        reg = {f.flock_id: set(f.members) for f in registry_flocks(before)}
        _, assignment = best_matching(reg, [set(o) for o in observations])
        kept = {
            f.flock_id: set(f.members) for f in registry_flocks(after) if f.flock_id in reg
        }
        assert {fid: observations[idx] for fid, idx in assignment.items()} == {
            fid: kept[fid] for fid in assignment
        }
        assert set(kept) == set(assignment)

    s0 = MacroState(**vars(NO_FLOCKS), ids=(), next_id=0, world=W)

    appear = set(range(10))
    s1 = sync_registry(s0, obs_of(appear))
    check_against_oracle(s0, [appear], s1)
    assert s1.ids.tolist() == [0]

    churn = set(range(5, 15))  # 50% membership churn
    s2 = sync_registry(s1, obs_of(churn))
    check_against_oracle(s1, [churn], s2)
    assert s2.ids.tolist() == [0]
    assert registry_flocks(s2)[0].members == frozenset(churn)
    assert jaccard(appear, churn) == pytest.approx(1 / 3)

    s3 = sync_registry(s2, NO_FLOCKS)
    check_against_oracle(s2, [], s3)
    assert registry_flocks(s3) == ()
    report(capfd, 7, "appear, churn-update and vanish all match the exhaustive oracle")


def test_criterion_8_cardinality_contracts(audited_runs, capfd):
    total_reads = 0
    for cfg, mm in audited_runs:
        assert audit_cardinality(mm.log, cfg.cluster.min_size) == []
        total_reads += sum(1 for r in mm.log.records if r.op == "read")
    report(capfd, 8, f"cardinality held on every one of {total_reads} delivered events")


def test_criterion_9_variant_ordering(capfd):
    start = time.perf_counter()

    def final_means(variant):
        cfg = apply_config(variant, birds=100, horizon=500, reps=50, base_seed=0)
        recs = run_replicated(cfg).records
        means = []
        for rep in range(cfg.reps):
            series = sorted(
                (r.tick, r.flock_count) for r in recs if r.rep == rep
            )[-100:]
            means.append(sum(c for _, c in series) / len(series))
        return np.asarray(means)

    m1, m2 = final_means("M1"), final_means("M2")
    rng = np.random.default_rng(90210)
    n = len(m1)
    diffs = np.empty(10_000)
    for k in range(diffs.size):
        diffs[k] = m1[rng.integers(0, n, n)].mean() - m2[rng.integers(0, n, n)].mean()
    lower = float(np.percentile(diffs, 5.0))
    elapsed = time.perf_counter() - start
    assert lower >= 0.0, (
        f"cohesion-dominant variant not below separation-dominant one: "
        f"mean(M1)={m1.mean():.3f}, mean(M2)={m2.mean():.3f}, "
        f"bootstrap 5th percentile of the difference {lower:.3f}"
    )
    assert elapsed < 180.0
    report(
        capfd,
        9,
        f"mean(M1)={m1.mean():.2f} >= mean(M2)={m2.mean():.2f}, "
        f"bootstrap lower bound {lower:.2f}, {elapsed:.0f}s",
    )
