"""Replicated experiment harness over the two-level multi-model.

Configures one of the five studied couplings, runs seeded independent
replications through the kernel, samples the flock-count statistics at
period boundaries, and emits deterministic CSV (per-record plus a
per-tick mean/std aggregate).

Variants:
    m   no downward influence and no flock behavior (passive macro reads)
    M   baseline two-way coupling, equal time scales
    M1  separation-dominant flock behavior
    M2  cohesion/alignment-dominant flock behavior
    M3  baseline behavior, four micro ticks per macro step
"""

from __future__ import annotations

import json
import math
import numbers
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .coupling import ClusterParams, emergence_transform, split_displacements
from .geometry import TorusWorld
from .interfaces import MacroModelInterface, MicroModelInterface
from .kernel import MultiModel, run
from .macro import flock_stats
from .micro import SteeringParams, init_random

__all__ = [
    "ConfigError",
    "VariantSpec",
    "VARIANTS",
    "ExperimentConfig",
    "RunRecord",
    "ExperimentResult",
    "build_multimodel",
    "run_replicated",
    "aggregate",
    "write_records_csv",
    "write_aggregate_csv",
    "load_config_file",
]


class ConfigError(ValueError):
    """Invalid experiment configuration, detected before any run starts."""


@dataclass(frozen=True)
class VariantSpec:
    name: str
    immergence: bool
    macro_params: SteeringParams
    ratio: int


VARIANTS: dict[str, VariantSpec] = {
    "m": VariantSpec("m", False, SteeringParams(), 1),
    "M": VariantSpec("M", True, SteeringParams(), 1),
    "M1": VariantSpec(
        "M1",
        True,
        SteeringParams(max_separate_turn=8.0, max_align_turn=1.0, max_cohere_turn=1.0),
        1,
    ),
    "M2": VariantSpec(
        "M2",
        True,
        SteeringParams(max_align_turn=8.0, max_cohere_turn=8.0, max_separate_turn=0.5),
        1,
    ),
    "M3": VariantSpec("M3", True, SteeringParams(), 4),
}


@dataclass(frozen=True)
class RunRecord:
    rep: int
    tick: int
    flock_count: int
    mean_flock_size: float
    mean_flock_radius: float


@dataclass(frozen=True)
class ExperimentConfig:
    variant: VariantSpec
    birds: int
    horizon: int
    reps: int
    base_seed: int
    sample_interval: int
    world: TorusWorld = TorusWorld(100.0, 100.0)
    micro: SteeringParams = SteeringParams()
    cluster: ClusterParams = ClusterParams()

    def __post_init__(self) -> None:
        r = self.variant.ratio
        if self.reps < 1:
            raise ConfigError("reps must be >= 1")
        if self.birds < 0:
            raise ConfigError("birds must be >= 0")
        if self.horizon < 0 or self.horizon % r != 0:
            raise ConfigError("horizon must be a non-negative multiple of the ratio")
        if self.sample_interval < 1 or self.sample_interval % r != 0:
            raise ConfigError("sample_interval must be a positive multiple of the ratio")
        if self.horizon % self.sample_interval != 0:
            raise ConfigError("horizon must be a multiple of sample_interval")

    @property
    def sample_ticks(self) -> list[int]:
        return list(range(0, self.horizon + 1, self.sample_interval))


@dataclass
class ExperimentResult:
    records: list[RunRecord]
    event_log_lines: list[str]


def build_multimodel(cfg: ExperimentConfig, rep: int) -> MultiModel:
    """The multi-model of one replication, its birds seeded with base_seed+rep."""
    v = cfg.variant
    rng = np.random.default_rng(cfg.base_seed + rep)
    return MultiModel(
        micro=MicroModelInterface(init_random(cfg.birds, cfg.world, rng), cfg.micro),
        macro=MacroModelInterface(cfg.world, v.macro_params),
        emergence=lambda states: emergence_transform(states, cfg.cluster),
        immergence=(
            (lambda ds: [split_displacements(d, v.ratio) for d in ds])
            if v.immergence
            else None
        ),
        ratio=v.ratio,
        horizon=cfg.horizon,
    )


def run_replicated(cfg: ExperimentConfig) -> ExperimentResult:
    """reps independent runs; one record per (rep, sampled tick)."""
    records: list[RunRecord] = []
    log_lines: list[str] = []
    for rep in range(cfg.reps):
        mm = build_multimodel(cfg, rep)
        try:
            run(mm)
        except Exception as exc:
            raise RuntimeError(f"replication {rep} aborted: {exc}") from exc
        # the k-th macro update read boundary k * ratio; the final boundary
        # is written but read by no cycle, so sample it through the
        # artifact's pure transform
        stats = [
            *mm.macro_agent.interface.stats,
            flock_stats(mm.emergence.peek(cfg.horizon)),
        ]
        for t in cfg.sample_ticks:
            records.append(RunRecord(rep, t, *stats[t // mm.ratio]))
        log_lines.extend(mm.log.export_lines())
    return ExperimentResult(records=records, event_log_lines=log_lines)


def aggregate(records: list[RunRecord]) -> list[tuple[int, float, float]]:
    """Per-tick mean and population standard deviation of the flock count."""
    by_tick: dict[int, list[int]] = {}
    for rec in records:
        by_tick.setdefault(rec.tick, []).append(rec.flock_count)
    out = []
    for tick in sorted(by_tick):
        counts = by_tick[tick]
        mean = math.fsum(counts) / len(counts)
        var = math.fsum((c - mean) ** 2 for c in counts) / len(counts)
        out.append((tick, mean, math.sqrt(var)))
    return out


def write_records_csv(path, variant_name: str, records: list[RunRecord]) -> None:
    ordered = sorted(records, key=lambda r: (r.rep, r.tick))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("variant,rep,tick,flock_count,mean_flock_size,mean_flock_radius\n")
        for r in ordered:
            fh.write(
                f"{variant_name},{r.rep},{r.tick},{r.flock_count},"
                f"{r.mean_flock_size:.6f},{r.mean_flock_radius:.6f}\n"
            )


def write_aggregate_csv(
    path, variant_name: str, aggregated: list[tuple[int, float, float]]
) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# std_count is the population standard deviation\n")
        fh.write("variant,tick,mean_count,std_count\n")
        for tick, mean, std in aggregated:
            fh.write(f"{variant_name},{tick},{mean:.6f},{std:.6f}\n")


_CONFIG_KEYS = {"ratio"} | {
    f"{group}.{f.name}"
    for group, params in (
        ("world", TorusWorld),
        ("micro", SteeringParams),
        ("macro", SteeringParams),
        ("cluster", ClusterParams),
    )
    for f in fields(params)
}


def _check_keys(values: dict) -> None:
    unknown = set(values) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")


def load_config_file(path) -> dict:
    """Flat-key JSON config (e.g. {"world.width": 200, "ratio": 4})."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    _check_keys(data)
    return data


@contextmanager
def _keyed(group: str):
    """Turn a parameter's ValueError into a ConfigError naming its key.

    The parameter classes start each message with the field name.
    """
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{group}.{exc}") from exc


def _number(key: str, value) -> float:
    # bool is an int and float() takes numeric strings; neither is a number
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    return float(value)


def _integer(key: str, value: float) -> int:
    if not value.is_integer():
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def apply_config(
    variant_name: str,
    file_values: dict | None = None,
    *,
    birds: int = 100,
    horizon: int = 500,
    reps: int = 1,
    base_seed: int = 0,
    sample_interval: int | None = None,
) -> ExperimentConfig:
    """Resolve a full configuration: defaults < config file values."""
    if variant_name not in VARIANTS:
        raise ConfigError(f"unknown variant {variant_name!r}")
    v = VARIANTS[variant_name]
    fv = dict(file_values or {})
    _check_keys(fv)
    fv = {k: _number(k, x) for k, x in fv.items()}

    if "ratio" in fv and _integer("ratio", fv["ratio"]) != v.ratio:
        raise ConfigError(
            f"variant {variant_name} requires ratio {v.ratio}, "
            f"config sets {fv['ratio']:g}"
        )

    if "cluster.min_size" in fv:
        fv["cluster.min_size"] = _integer("cluster.min_size", fv["cluster.min_size"])
    params = {}
    for name, default in (
        ("world", ExperimentConfig.world),
        ("micro", ExperimentConfig.micro),
        ("macro", v.macro_params),
        ("cluster", ExperimentConfig.cluster),
    ):
        over = {k[len(name) + 1 :]: x for k, x in fv.items() if k.startswith(name + ".")}
        with _keyed(name):
            params[name] = replace(default, **over)
    return ExperimentConfig(
        variant=replace(v, macro_params=params.pop("macro")),
        birds=birds,
        horizon=horizon,
        reps=reps,
        base_seed=base_seed,
        sample_interval=sample_interval if sample_interval is not None else v.ratio,
        **params,
    )


def aggregate_path(out_path) -> Path:
    p = Path(out_path)
    return p.with_name(p.stem + "_aggregate" + (p.suffix or ".csv"))
