"""Correctness checks the benchmark applies to every replication it runs.

Each check returns a list of problems (empty when the output is right).
Apart from `audit_problems`, which runs the package's own audit, the
checks read the files the run wrote and the final bird population, and
compare them with what the coupling schedule and the clustering rule
imply. They share no code with the package they check.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter

import numpy as np
from flocklevels.audit import audit_log


def digest(path) -> str:
    """sha256 of a file's bytes."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def read_records_csv(path) -> list[list[str]]:
    """Rows of a records CSV as raw fields, header dropped."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != (
        "variant,rep,tick,flock_count,mean_flock_size,mean_flock_radius"
    ):
        raise ValueError(f"{path}: unexpected records header")
    return [line.split(",") for line in lines[1:]]


def expected_event_counts(horizon: int, ratio: int, immergence: bool) -> Counter:
    """Event-log lines per (agent, op, artifact) for one replication.

    The micro agent publishes its state at tick 0 and at every macro
    period boundary; the macro agent reads it once per period. With
    immergence, the macro agent writes one command set per micro tick
    and the micro agent reads one per tick.
    """
    periods = horizon // ratio
    counts = Counter({("A_m", "write", "e"): periods + 1, ("A_M", "read", "e"): periods})
    if immergence:
        counts[("A_M", "write", "i")] = horizon
        counts[("A_m", "read", "i")] = horizon
    return counts


def check_event_counts(
    lines: list[str], horizon: int, ratio: int, immergence: bool, reps: int
) -> list[str]:
    """Line counts of a concatenated event log against the schedule."""
    got = Counter()
    for line in lines:
        _, agent, op, artifact, _, _ = line.split(";")
        got[(agent, op, artifact)] += 1
    want = Counter(
        {k: v * reps for k, v in expected_event_counts(horizon, ratio, immergence).items()}
    )
    if got == want:
        return []
    return [
        f"event log: {agent} {op} {artifact}: {got[(agent, op, artifact)]} lines, "
        f"schedule implies {want[(agent, op, artifact)]}"
        for agent, op, artifact in sorted(set(got) | set(want))
        if got[(agent, op, artifact)] != want[(agent, op, artifact)]
    ]


def check_records(rows: list[list[str]], birds: int, min_size: int) -> list[str]:
    """Bounds every (count, mean size, mean radius) record must satisfy."""
    problems = []
    for row in rows:
        rep, tick = row[1], row[2]
        count, size, radius = int(row[3]), float(row[4]), float(row[5])
        where = f"records rep {rep} tick {tick}"
        if not 0 <= count <= birds // min_size:
            problems.append(f"{where}: {count} flocks for {birds} birds")
        if count > 0 and size < min_size:
            problems.append(f"{where}: mean flock size {size} below {min_size}")
        # sizes are printed with 6 decimals; allow the rounding of the product
        if count * size > birds + count * 5e-7:
            problems.append(f"{where}: {count} flocks of mean size {size} exceed {birds}")
        if not (math.isfinite(radius) and radius >= 0.0):
            problems.append(f"{where}: mean flock radius {radius}")
    return problems


def brute_force_flock_sizes(
    birds: list[tuple[int, float, float, float]],
    d_prox: float,
    theta: float,
    min_size: int,
    width: float,
    height: float,
) -> list[int]:
    """Sizes of the flocks in a population, by union-find over all pairs.

    Two birds are linked when their wrapped distance is <= d_prox and
    their heading difference is <= theta. One row of distances at a time
    keeps memory linear in the bird count.
    """
    n = len(birds)
    x = np.array([b[1] for b in birds])
    y = np.array([b[2] for b in birds])
    h = np.array([b[3] for b in birds])
    parent = list(range(n))

    def root(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(n - 1):
        ax = np.abs(x[i + 1 :] - x[i])
        ay = np.abs(y[i + 1 :] - y[i])
        ax = np.minimum(ax, width - ax)
        ay = np.minimum(ay, height - ay)
        ah = np.abs(h[i + 1 :] - h[i]) % 360.0
        ah = np.minimum(ah, 360.0 - ah)
        linked = (np.sqrt(ax * ax + ay * ay) <= d_prox) & (ah <= theta)
        for j in np.flatnonzero(linked):
            ri, rj = root(i), root(i + 1 + int(j))
            if ri != rj:
                parent[rj] = ri
    sizes = Counter(root(i) for i in range(n))
    return sorted(s for s in sizes.values() if s >= min_size)


def check_final_flocks(
    rows: list[list[str]], rep: int, horizon: int, sizes: list[int]
) -> list[str]:
    """The record at the final tick against a brute-force clustering."""
    final = [r for r in rows if int(r[1]) == rep and int(r[2]) == horizon]
    if len(final) != 1:
        return [f"records: {len(final)} rows for rep {rep} at tick {horizon}"]
    count, mean_size = final[0][3], final[0][4]
    want_count = len(sizes)
    want_size = sum(sizes) / want_count if want_count else 0.0
    problems = []
    if int(count) != want_count:
        problems.append(
            f"final flocks rep {rep}: {count} flocks, brute force finds {want_count}"
        )
    if mean_size != f"{want_size:.6f}":
        problems.append(
            f"final flocks rep {rep}: mean size {mean_size}, "
            f"brute force finds {want_size:.6f}"
        )
    return problems


def check_same_digests(first: dict[str, str], again: dict[str, str]) -> list[str]:
    """Two rounds on the same inputs must write byte-identical files."""
    return [
        f"digest of {name} changed between rounds on the same inputs"
        for name in sorted(set(first) | set(again))
        if first.get(name) != again.get(name)
    ]


def audit_problems(mm, min_size: int) -> list[str]:
    """The package's own audit over one replication's event log."""
    artifacts = {"e": mm.emergence}
    if mm.immergence is not None:
        artifacts["i"] = mm.immergence
    return audit_log(mm.log, artifacts, min_size)
