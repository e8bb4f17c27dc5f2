"""Command-line entry point for replicated variant experiments."""

from __future__ import annotations

import argparse
import sys

from .experiment import (
    VARIANTS,
    ConfigError,
    aggregate,
    aggregate_path,
    apply_config,
    load_config_file,
    run_replicated,
    write_aggregate_csv,
    write_records_csv,
)

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flocklevels",
        description=(
            "Run replicated two-level flocking co-simulations and emit "
            "flock-count time series as CSV."
        ),
    )
    parser.add_argument(
        "--variant", choices=sorted(VARIANTS), default="M", help="coupling variant"
    )
    parser.add_argument("--birds", type=int, default=100, metavar="N")
    parser.add_argument("--ticks", type=int, default=500, metavar="T")
    parser.add_argument("--reps", type=int, default=1, metavar="R")
    parser.add_argument("--seed", type=int, default=0, metavar="S")
    parser.add_argument(
        "--sample-interval",
        type=int,
        default=None,
        metavar="K",
        help="record every K ticks (default: the variant's step ratio)",
    )
    parser.add_argument(
        "--config", default=None, metavar="PATH", help="flat-key JSON config file"
    )
    parser.add_argument("--out", default="records.csv", metavar="PATH")
    parser.add_argument(
        "--event-log",
        default=None,
        metavar="PATH",
        help="export the concatenated event logs of all replications",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        file_values = load_config_file(args.config) if args.config else None
        cfg = apply_config(
            args.variant,
            file_values,
            birds=args.birds,
            horizon=args.ticks,
            reps=args.reps,
            base_seed=args.seed,
            sample_interval=args.sample_interval,
        )
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # a replication that aborts, or an output that cannot be written
    try:
        result = run_replicated(cfg)
        write_records_csv(args.out, cfg.variant.name, result.records)
        agg_path = aggregate_path(args.out)
        write_aggregate_csv(agg_path, cfg.variant.name, aggregate(result.records))
        if args.event_log:
            with open(args.event_log, "w", encoding="utf-8", newline="\n") as fh:
                for line in result.event_log_lines:
                    fh.write(line + "\n")
    except (RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {len(result.records)} records to {args.out} (+ {agg_path})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
