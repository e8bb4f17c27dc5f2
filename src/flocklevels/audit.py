"""Mechanical post-hoc checks over an event log.

These run on the log alone (plus the artifacts, for re-applying
transformers), independently of the run loop that produced it, and are
the trusted side of the coordination contract:

- causality: within one agent cycle, no input is consumed from a tick
  later than the cycle's own outputs (a cycle may consume an input
  stamped exactly at its output tick from a *different* artifact -- the
  boundary command feeding the boundary state -- which is the acyclic
  intra-period dependency, not a violation);
- conservative delivery: nothing is read before its producer's clock
  reached the requested tick;
- coherence: no tick is written twice and writes come in ascending
  order per artifact (each fault is one issue), repeated reads agree,
  every read is of a written tick, every delivered payload equals the
  transformer applied to the payload written at that tick, and no event
  a consumer got past was silently dropped. The transformer is re-applied to the written payloads
  in chronological chunks of about CHUNK_ROWS rows, one call per chunk,
  and each delivered payload is compared with its own result;
- cardinality: the reducing artifact never emits more flocks than the
  bird count allows, the expanding artifact emits exactly one command
  per member of the displacement table.
"""

from __future__ import annotations

from collections import defaultdict

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


def audit_coherence(
    log: EventLog, artifacts: dict[str, CouplingArtifact] | None = None
) -> list[str]:
    issues: list[str] = []

    writes: dict[str, dict[int, LogRecord]] = defaultdict(dict)
    write_order: dict[str, list[int]] = defaultdict(list)
    reads: dict[tuple[str, int], list] = defaultdict(list)
    for rec in log.records:
        if rec.op == "write":
            if rec.timestamp in writes[rec.artifact]:
                issues.append(
                    f"coherence: duplicate write {rec.artifact}@{rec.timestamp}"
                )
            writes[rec.artifact][rec.timestamp] = rec
            write_order[rec.artifact].append(rec.timestamp)
        else:
            reads[(rec.artifact, rec.timestamp)].append(rec)

    for name, order in write_order.items():
        if order != sorted(order):
            issues.append(f"coherence: non-monotone write order on {name}: {order}")

    # the first delivered payload of every read of a written tick, to be
    # compared with the transformer re-applied to the written payload
    delivered: dict[str, dict[int, object]] = defaultdict(dict)
    for (name, t), recs in reads.items():
        payloads = [r.payload for r in recs]
        if any(p != payloads[0] for p in payloads[1:]):
            issues.append(f"coherence: divergent repeated reads of {name}@{t}")
        if t not in writes[name]:
            issues.append(f"coherence: {name}@{t} delivered without a write")
        elif artifacts and name in artifacts:
            delivered[name][t] = payloads[0]

    for name, got in delivered.items():
        transformer = artifacts[name].transformer
        for chunk in _chunks(sorted(got), writes[name]):
            expected = transformer([writes[name][t].payload for t in chunk])
            for t, want in zip(chunk, expected):
                if got[t] != want:
                    issues.append(
                        f"coherence: {name}@{t} delivered payload differs from "
                        f"transformer(written payload)"
                    )

    # lost events: anything written at or before the consumer's last read
    # must have been delivered at least once
    for name, stamped in writes.items():
        read_ts = [t for (n, t) in reads if n == name]
        if not read_ts:
            continue
        horizon = max(read_ts)
        for t in stamped:
            if t <= horizon and (name, t) not in reads:
                issues.append(f"coherence: {name}@{t} written but never read (lost)")
    return issues


def _chunks(ticks: list[int], written: dict[int, LogRecord]):
    """The ticks in runs that end once their written payloads hold
    CHUNK_ROWS rows; a tick whose payload alone holds more is a run alone."""
    chunk, rows = [], 0
    for t in ticks:
        size = written[t].payload_size
        if chunk and size > CHUNK_ROWS:
            yield chunk
            chunk, rows = [], 0
        chunk.append(t)
        rows += size
        if rows >= CHUNK_ROWS:
            yield chunk
            chunk, rows = [], 0
    if chunk:
        yield chunk


def audit_cardinality(log: EventLog, min_size: int) -> list[str]:
    issues: list[str] = []
    writes: dict[tuple[str, int], object] = {}
    for rec in log.records:
        if rec.op == "write":
            writes[(rec.artifact, rec.timestamp)] = rec.payload
    for rec in log.records:
        if rec.op != "read":
            continue
        src = writes.get((rec.artifact, rec.timestamp))
        if src is None:
            continue
        if rec.artifact == "e":
            if len(rec.payload) > len(src) // min_size:
                issues.append(
                    f"cardinality: {rec.artifact}@{rec.timestamp} has "
                    f"{len(rec.payload)} flocks for {len(src)} birds"
                )
        elif rec.artifact == "i":
            expected = len(src.members)
            if len(rec.payload) != expected:
                issues.append(
                    f"cardinality: {rec.artifact}@{rec.timestamp} has "
                    f"{len(rec.payload)} commands for {expected} members"
                )
    return issues


def audit_log(
    log: EventLog,
    artifacts: dict[str, CouplingArtifact] | None = None,
    min_size: int | None = None,
) -> list[str]:
    """All audits combined; returns the (ideally empty) list of issues."""
    issues = audit_causality(log) + audit_coherence(log, artifacts)
    if min_size is not None:
        issues += audit_cardinality(log, min_size)
    return issues
