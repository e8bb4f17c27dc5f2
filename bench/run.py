"""Benchmark of the two-level flocking co-simulation, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload crowd-1000 --seed 1 --seconds 20 --trace 0

A run first times the workload's set-up in fresh interpreters, then
repeats rounds until --seconds have passed. Every round runs the same
inputs, made from --seed: `experiment.run_replicated` for each of the
workload's variants, the records CSV, aggregate CSV and event log
written as the `flocklevels` command writes them, the package's audit
over every replication and the checks in checks.py. With --trace 1,
traced rounds alternate with untraced ones, and the per-layer metrics
come from the traced rounds. The last line of standard output is one
JSON object with the metrics. README.md describes workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

# One BLAS thread in this process and in the set-up probes, set before
# numpy loads: on a 2-core machine a second BLAS thread competes with
# whatever else runs there, and identical runs then differ by a third.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
from flocklevels import audit, coupling, experiment, interfaces, kernel  # noqa: E402
from tracing import Tracer, patched, retained_bytes  # noqa: E402

SETUP_PROBES = 5

# The coupling schedule of each variant, as the paper's variant table
# gives it: (micro ticks per macro step, immergence on).
SCHEDULES = {
    "m": (1, False),
    "M": (1, True),
    "M1": (1, True),
    "M2": (1, True),
    "M3": (4, True),
}


@dataclass(frozen=True)
class Workload:
    variants: tuple[str, ...]
    birds: int
    width: float  # of a square world
    horizon: int
    reps: int  # replications of each variant in one round


WORKLOADS = {
    "replicate-100": Workload(("M1", "M2"), 100, 100.0, 500, 2),
    "crowd-1000": Workload(("M",), 1000, 100.0, 10, 1),
    "scale-4000": Workload(("M3",), 4000, 200.0, 4, 1),
    "passive-long": Workload(("m",), 100, 100.0, 2000, 1),
}


@dataclass
class Round:
    traced: bool
    attempted: int = 0
    failed: int = 0
    bird_ticks: int = 0
    busy_s: float = 0.0  # simulating and writing outputs
    write_s: float = 0.0
    ticks: int = 0
    emergence_writes: int = 0
    audit_s: list[float] = field(default_factory=list)
    log_records: list[int] = field(default_factory=list)
    log_bytes: int | None = None
    digests: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    @property
    def rate(self) -> float:
        """Bird-ticks per second of simulating and writing."""
        return self.bird_ticks / self.busy_s


def probe_setup(w: Workload, seed: int) -> float:
    cmd = [
        sys.executable,
        str(Path(__file__).with_name("setup_probe.py")),
        str(SRC),
        w.variants[0],
        str(w.birds),
        repr(w.width),
        str(w.horizon),
        str(seed),
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.split()[-1])


def layer_sites(tracer: Tracer) -> list:
    """Wrappers at the attributes through which the package calls each layer."""
    def flocks(state):
        return len(state.flocks)

    sites = [
        (interfaces, "micro_step", "micro.step", None),
        (interfaces, "observe", "micro.observe", None),
        (coupling, "detect_clusters", "coupling.detect", len),
        (coupling, "reify", "coupling.reify", None),
        (experiment, "emergence_transform", "coupling.emergence", None),
        (experiment, "split_displacements", "coupling.split", len),
        (interfaces, "sync_registry", "macro.sync", flocks),
        (interfaces, "macro_step", "macro.step", None),
        (interfaces, "displacements", "macro.displacements", None),
        (kernel.CouplingArtifact, "read", "kernel.read", None),
        (kernel.CouplingArtifact, "write", "kernel.write", None),
        (experiment, "run", "kernel.run", None),
        (experiment, "build_multimodel", "experiment.build", None),
        (audit, "audit_causality", "audit.causality", None),
        (audit, "audit_coherence", "audit.coherence", None),
        (audit, "audit_cardinality", "audit.cardinality", None),
    ]
    return [
        (owner, attr, tracer.wrap(name, getattr(owner, attr), count))
        for owner, attr, name, count in sites
    ]


def write_outputs(out_dir: Path, variant: str, result) -> list[Path]:
    """The three files the `flocklevels` command writes for one variant."""
    records = out_dir / f"{variant}.csv"
    experiment.write_records_csv(records, variant, result.records)
    agg = experiment.aggregate_path(records)
    experiment.write_aggregate_csv(agg, variant, experiment.aggregate(result.records))
    events = out_dir / f"{variant}.events.log"
    with open(events, "w", encoding="utf-8", newline="\n") as fh:
        for line in result.event_log_lines:
            fh.write(line + "\n")
    return [records, agg, events]


def run_variant(rnd: Round, w: Workload, variant: str, seed: int, out_dir: Path,
                measure_log: bool) -> None:
    ratio, immergence = SCHEDULES[variant]
    cfg = experiment.apply_config(
        variant,
        {"world.width": w.width, "world.height": w.width},
        birds=w.birds,
        horizon=w.horizon,
        reps=w.reps,
        base_seed=seed,
    )
    built = []
    build = experiment.build_multimodel

    def capture(cfg, rep):
        mm = build(cfg, rep)
        built.append(mm)
        return mm

    rnd.attempted += w.reps
    t0 = perf_counter()
    try:
        with patched([(experiment, "build_multimodel", capture)]):
            result = experiment.run_replicated(cfg)
    except RuntimeError as exc:
        rnd.failed += w.reps
        print(f"{variant}: {exc}", file=sys.stderr)
        return
    t1 = perf_counter()
    paths = write_outputs(out_dir, variant, result)
    t2 = perf_counter()
    rnd.busy_s += t2 - t0
    rnd.write_s += t2 - t1
    rnd.bird_ticks += w.birds * w.horizon * w.reps
    rnd.ticks += w.horizon * w.reps
    rnd.emergence_writes += (w.horizon // ratio + 1) * w.reps

    min_size = cfg.cluster.min_size
    for mm in built:
        t = perf_counter()
        rnd.problems += checks.audit_problems(mm, min_size)
        rnd.audit_s.append(perf_counter() - t)
        rnd.log_records.append(len(mm.log))
    if measure_log and built:
        rnd.log_bytes = retained_bytes(built[0].log.records)

    records, _, events = paths
    rows = checks.read_records_csv(records)
    rnd.problems += checks.check_records(rows, w.birds, min_size)
    with open(events, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rnd.problems += checks.check_event_counts(lines, w.horizon, ratio, immergence, w.reps)
    for rep, mm in enumerate(built):
        state = mm.micro_agent.interface.state
        if state.tick != w.horizon:
            rnd.problems.append(f"rep {rep} ended at tick {state.tick}")
        population = [(b.id, b.pos[0], b.pos[1], b.heading) for b in state.birds]
        sizes = checks.brute_force_flock_sizes(
            population, cfg.cluster.d_prox, cfg.cluster.theta, min_size, w.width, w.width
        )
        rnd.problems += checks.check_final_flocks(rows, rep, w.horizon, sizes)
    rnd.digests.update((p.name, checks.digest(p)) for p in paths)


def end_to_end(rounds: list[Round], setup: list[float]) -> dict:
    return {
        "setup_s": (statistics.median(setup), "s"),
        "bird_ticks_per_s": (
            statistics.median(r.rate for r in rounds),
            "bird-ticks/s",
        ),
        "audit_s": (statistics.median(t for r in rounds for t in r.audit_s), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
        ),
    }


def per_layer(rounds: list[Round], tracer: Tracer) -> dict:
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    reps = sum(r.attempted - r.failed for r in traced)
    ticks = sum(r.ticks for r in traced)
    sp = tracer.spans
    rate = statistics.median(r.rate for r in plain)
    traced_rate = statistics.median(r.rate for r in traced)
    log_bytes = next(r.log_bytes for r in traced if r.log_bytes is not None)
    return {
        "micro.step_ms": (sp["micro.step"].mean_ms(), "ms"),
        "micro.step_calls": (sp["micro.step"].calls / reps, "count"),
        "micro.observe_ms": (sp["micro.observe"].mean_ms(), "ms"),
        "coupling.detect_ms": (sp["coupling.detect"].mean_ms(), "ms"),
        "coupling.reify_ms": (sp["coupling.reify"].mean_ms(), "ms"),
        "coupling.emergence_ms": (sp["coupling.emergence"].mean_ms(), "ms"),
        "coupling.clusters": (sp["coupling.detect"].mean_count(), "count"),
        "coupling.split_ms": (sp["coupling.split"].mean_ms(), "ms"),
        "coupling.commands": (sp["coupling.split"].mean_count(), "count"),
        "coupling.emergence_calls_per_period": (
            sp["coupling.emergence"].calls / sum(r.emergence_writes for r in traced),
            "count",
        ),
        "macro.step_ms": (sp["macro.step"].mean_ms(), "ms"),
        "macro.sync_ms": (sp["macro.sync"].mean_ms(), "ms"),
        "macro.displacements_ms": (sp["macro.displacements"].mean_ms(), "ms"),
        "macro.flocks": (sp["macro.sync"].mean_count(), "count"),
        "kernel.read_self_ms": (sp["kernel.read"].mean_self_ms(), "ms"),
        "kernel.write_ms": (sp["kernel.write"].mean_ms(), "ms"),
        "kernel.run_self_ms_per_tick": (1000.0 * sp["kernel.run"].self_s / ticks, "ms"),
        "kernel.log_records": (
            sum(n for r in traced for n in r.log_records) / reps,
            "count",
        ),
        "kernel.log_retained_mb": (log_bytes / 2**20, "MB"),
        "audit.causality_s": (sp["audit.causality"].mean_ms() / 1000.0, "s"),
        "audit.coherence_s": (sp["audit.coherence"].mean_ms() / 1000.0, "s"),
        "audit.cardinality_s": (sp["audit.cardinality"].mean_ms() / 1000.0, "s"),
        "experiment.build_ms": (sp["experiment.build"].mean_ms(), "ms"),
        "experiment.write_ms": (1000.0 * sum(r.write_s for r in traced) / reps, "ms"),
        "experiment.replications": (reps, "count"),
        "trace.overhead_pct": (100.0 * (rate / traced_rate - 1.0), "%"),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    w = WORKLOADS[args.workload]
    if not Path(experiment.__file__).resolve().is_relative_to(SRC):
        print(f"error: flocklevels imported from outside {SRC}", file=sys.stderr)
        return 2
    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)

    setup = [] if args.trace else [probe_setup(w, args.seed) for _ in range(SETUP_PROBES)]
    tracer = Tracer()
    sites = layer_sites(tracer) if args.trace else []
    rounds: list[Round] = []
    start = perf_counter()
    # whole rounds only; a traced run needs one traced and one untraced round
    while (
        not rounds
        or perf_counter() - start < args.seconds
        or (args.trace and len(rounds) < 2)
    ):
        rnd = Round(traced=bool(args.trace) and len(rounds) % 2 == 1)
        with patched(sites if rnd.traced else []):
            for variant in w.variants:
                run_variant(rnd, w, variant, args.seed, out_dir,
                            measure_log=rnd.traced and len(rounds) == 1)
        if rounds:
            rnd.problems += checks.check_same_digests(rounds[0].digests, rnd.digests)
        rounds.append(rnd)
        print(
            f"round {len(rounds)}: {rnd.rate:.0f} bird-ticks/s, "
            f"{len(rnd.problems)} problems",
            file=sys.stderr,
        )

    problems = [p for r in rounds for p in r.problems]
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    for name, value in sorted(rounds[0].digests.items()):
        print(f"digest {args.workload} seed {args.seed} {name} sha256 {value}")
    metrics = per_layer(rounds, tracer) if args.trace else end_to_end(rounds, setup)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": sum(r.attempted for r in rounds),
                "failed": sum(r.failed for r in rounds),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
