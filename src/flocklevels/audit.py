"""Mechanical post-hoc checks over an event log.

These run on the log alone (plus the artifacts, for re-applying
transformers), independently of the run loop that produced it, and are
the trusted side of the coordination contract. Two checks walk the log
in its interleaved order, grouping its records by agent cycle and
replaying each producer clock:

- causality: within one agent cycle, no input is consumed from a tick
  later than the cycle's own outputs (a cycle may consume an input
  stamped exactly at its output tick from a *different* artifact -- the
  boundary command feeding the boundary state -- which is the acyclic
  intra-period dependency, not a violation);
- conservative delivery: nothing is read before its producer's clock
  reached the requested tick.

The other two read one index of the log: for each artifact, for each
tick in ascending order, the write records and the read records of that
tick, each in log order. They report artifact by artifact:

- coherence: no tick is written twice and writes come in ascending
  order per artifact (each fault is one issue), repeated reads agree,
  every read is of a written tick, every delivered payload equals the
  transformer applied to the payload written at that tick, and no event
  a consumer got past was silently dropped. The transformer is
  re-applied to the written payloads in chronological chunks of about
  CHUNK_ROWS rows, one call per chunk, and each delivered payload is
  compared with its own result;
- cardinality: the reducing artifact never emits more flocks than the
  bird count allows, the expanding artifact emits exactly one command
  per member of the displacement table.
"""

from __future__ import annotations

import math
from collections import defaultdict
from operator import attrgetter

from .kernel import CouplingArtifact, EventLog, LogRecord

__all__ = [
    "audit_causality",
    "audit_coherence",
    "audit_cardinality",
    "audit_log",
]


def audit_causality(log: EventLog) -> list[str]:
    issues: list[str] = []

    cycles: dict[tuple[str, int], dict[str, list]] = defaultdict(
        lambda: {"reads": [], "writes": []}
    )
    for rec in log.records:
        if rec.cycle is None:
            continue
        cycles[(rec.agent, rec.cycle)][rec.op + "s"].append(rec)

    for (agent, cycle), ops in sorted(cycles.items()):
        for w in ops["writes"]:
            for r in ops["reads"]:
                if r.timestamp > w.timestamp:
                    issues.append(
                        f"causality: {agent} cycle {cycle} read "
                        f"{r.artifact}@{r.timestamp} but wrote "
                        f"{w.artifact}@{w.timestamp}"
                    )
                elif r.timestamp == w.timestamp and r.artifact == w.artifact:
                    issues.append(
                        f"causality: {agent} cycle {cycle} read and wrote "
                        f"{r.artifact}@{r.timestamp} (self-loop)"
                    )

    # conservative delivery: replay producer clocks in log order
    clock: dict[str, int] = defaultdict(lambda: -1)
    for rec in log.records:
        if rec.op == "write":
            clock[rec.artifact] = max(clock[rec.artifact], rec.timestamp)
        elif rec.op == "read" and rec.timestamp > clock[rec.artifact]:
            issues.append(
                f"delivery: read {rec.artifact}@{rec.timestamp} before the "
                f"producer clock ({clock[rec.artifact]}) reached it"
            )
    return issues


# The audit re-applies a transformer to the written payloads of its reads
# in chronological chunks, one call per chunk. A chunk ends once its
# payloads hold this many rows (len) in all, and a larger payload forms a
# chunk alone. At 100 birds that is 4 snapshots an emergence call: the
# fixed cost of a call is shared, at about 1 to 3 MB of transient memory
# for the stacked search.
CHUNK_ROWS = 400


def _index(log: EventLog) -> dict[str, dict[int, tuple[list, list]]]:
    """For each artifact, for each tick in ascending order, the write
    records and the read records of that tick, each in log order."""
    index: dict = defaultdict(lambda: defaultdict(lambda: ([], [])))
    for rec in log.records:
        writes, reads = index[rec.artifact][rec.timestamp]
        (writes if rec.op == "write" else reads).append(rec)
    return {name: dict(sorted(ticks.items())) for name, ticks in index.items()}


def audit_coherence(
    log: EventLog, artifacts: dict[str, CouplingArtifact]
) -> list[str]:
    issues: list[str] = []
    for name, ticks in _index(log).items():
        written = [w for ws, _ in ticks.values() for w in ws]
        order = [w.timestamp for w in sorted(written, key=attrgetter("seq"))]
        if order != sorted(order):
            issues.append(f"coherence: non-monotone write order on {name}: {order}")

        # lost events: anything written at or before the consumer's last
        # read must have been delivered at least once
        horizon = max((t for t, (_, rs) in ticks.items() if rs), default=-math.inf)
        # the first delivered payload of every read of a written tick, to be
        # compared with the transformer re-applied to the written payload
        delivered = []
        for t, (ws, rs) in ticks.items():
            for _ in ws[1:]:
                issues.append(f"coherence: duplicate write {name}@{t}")
            if any(r.payload != rs[0].payload for r in rs[1:]):
                issues.append(f"coherence: divergent repeated reads of {name}@{t}")
            if not ws:
                issues.append(f"coherence: {name}@{t} delivered without a write")
            elif rs:
                delivered.append((ws[-1], rs[0]))
            elif t <= horizon:
                issues.append(f"coherence: {name}@{t} written but never read (lost)")

        if name in artifacts:
            for chunk in _chunks(delivered):
                expected = artifacts[name].transformer([w.payload for w, _ in chunk])
                for (w, r), want in zip(chunk, expected):
                    if r.payload != want:
                        issues.append(
                            f"coherence: {name}@{w.timestamp} delivered payload "
                            f"differs from transformer(written payload)"
                        )
    return issues


def _chunks(pairs: list[tuple[LogRecord, LogRecord]]):
    """The (write, read) pairs in runs that end once their written payloads
    hold CHUNK_ROWS rows; a pair whose payload alone holds more is a run
    alone."""
    chunk, rows = [], 0
    for pair in pairs:
        size = pair[0].payload_size
        if chunk and size > CHUNK_ROWS:
            yield chunk
            chunk, rows = [], 0
        chunk.append(pair)
        rows += size
        if rows >= CHUNK_ROWS:
            yield chunk
            chunk, rows = [], 0
    if chunk:
        yield chunk


def audit_cardinality(log: EventLog, min_size: int) -> list[str]:
    issues: list[str] = []
    for name, ticks in _index(log).items():
        for t, (ws, rs) in ticks.items():
            for r in rs if ws else ():
                src, got = ws[-1].payload, len(r.payload)
                if name == "e" and got > len(src) // min_size:
                    issues.append(
                        f"cardinality: e@{t} has {got} flocks for {len(src)} birds"
                    )
                elif name == "i" and got != len(src.members):
                    issues.append(
                        f"cardinality: i@{t} has {got} commands for "
                        f"{len(src.members)} members"
                    )
    return issues


def audit_log(
    log: EventLog, artifacts: dict[str, CouplingArtifact], min_size: int
) -> list[str]:
    """All audits combined; returns the (ideally empty) list of issues."""
    return (
        audit_causality(log)
        + audit_coherence(log, artifacts)
        + audit_cardinality(log, min_size)
    )
