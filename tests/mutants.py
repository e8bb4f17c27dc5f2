"""A kept mutation gate: the tests must catch every mutant listed here.

Each entry plants one exact fault: in one file of the package, an old
text that must occur exactly once is replaced with a new text. For each
entry the runner copies `src/` to a temporary directory, plants the
fault in the copy, and runs only the entry's tests against the copy;
`src/` itself is never edited. A child process imports the package,
checks that it came from the copy, and only then runs pytest, so every
test module sees the mutated package.

The runner fails if a mutant survives (its tests pass), if an old text
does not occur exactly once (a refactor must update the list, it cannot
drop a mutant unseen), if the unmutated copy fails the listed tests, or
if a test run ends in anything but a pass or a test failure. Run it
from anywhere, with the test dependencies installed:

    python tests/mutants.py

pytest does not collect this file: its name does not match test_*.py.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

AUDIT = "tests/test_kernel.py::TestAuditDetectsViolations::"
ARTIFACT = "tests/test_kernel.py::TestCouplingArtifact::"
RUN = "tests/test_kernel.py::TestRun::"


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/flocklevels
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = [
    Mutant(
        "causality: a read one tick after the cycle's write passes",
        "audit.py",
        "if r.timestamp > w.timestamp:",
        "if r.timestamp > w.timestamp + 1:",
        (AUDIT + "test_causality_flags_future_read",),
    ),
    Mutant(
        "self-loop: tested across artifacts instead of within one",
        "audit.py",
        "r.timestamp == w.timestamp and r.artifact == w.artifact",
        "r.timestamp == w.timestamp and r.artifact != w.artifact",
        (AUDIT + "test_causality_flags_self_loop",),
    ),
    Mutant(
        "delivery: the clock test applied to writes, not reads",
        "audit.py",
        'elif rec.op == "read" and rec.timestamp > clock[rec.artifact]:',
        'elif rec.op == "write" and rec.timestamp > clock[rec.artifact]:',
        (AUDIT + "test_delivery_flags_premature_read",),
    ),
    Mutant(
        "duplicate write: one issue too few",
        "audit.py",
        "for _ in ws[1:]:",
        "for _ in ws[2:]:",
        (AUDIT + "test_coherence_flags_one_fault_once",),
    ),
    Mutant(
        "write order: taken from the index's tick order, not the log's",
        "audit.py",
        'sorted(written, key=attrgetter("seq"))',
        'sorted(written, key=attrgetter("timestamp"))',
        (AUDIT + "test_coherence_flags_one_fault_once",),
    ),
    Mutant(
        "divergent reads: the second read not compared",
        "audit.py",
        "for r in rs[1:]",
        "for r in rs[2:]",
        (AUDIT + "test_coherence_flags_divergent_reads",),
    ),
    Mutant(
        "delivered without a write: issue dropped",
        "audit.py",
        'issues.append(f"coherence: {name}@{t} delivered without a write")',
        "pass",
        (AUDIT + "test_coherence_flags_one_fault_once",),
    ),
    Mutant(
        "transformer mismatch: only the sizes compared",
        "audit.py",
        "if r.payload != want:",
        "if len(r.payload) != len(want):",
        (AUDIT + "test_coherence_flags_a_flock_table_one_ulp_off",),
    ),
    Mutant(
        "lost event: issue dropped",
        "audit.py",
        'issues.append(f"coherence: {name}@{t} written but never read (lost)")',
        "pass",
        (AUDIT + "test_coherence_flags_lost_event",),
    ),
    Mutant(
        "cardinality e: flocks counted against min_size - 1",
        "audit.py",
        "got > len(src) // min_size",
        "got > len(src) // (min_size - 1)",
        (AUDIT + "test_cardinality_flags_too_many_flocks",),
    ),
    Mutant(
        "cardinality i: only too many commands flagged",
        "audit.py",
        "got != len(src.members)",
        "got > len(src.members)",
        (AUDIT + "test_cardinality_flags_expansion_mismatch",),
    ),
    Mutant(
        "chunk cut: a chunk ends only past CHUNK_ROWS",
        "audit.py",
        "if rows >= CHUNK_ROWS:",
        "if rows > CHUNK_ROWS:",
        (AUDIT + "test_coherence_flags_a_corrupted_read_in_the_middle_of_a_chunk",),
    ),
    Mutant(
        "kernel write check: a repeated tick accepted",
        "kernel.py",
        "if t <= self.producer_clock:",
        "if t < self.producer_clock:",
        (ARTIFACT + "test_duplicate_timestamp_rejected",),
    ),
    Mutant(
        "kernel read check: one tick beyond the clock let through",
        "kernel.py",
        "if t > self.producer_clock:",
        "if t > self.producer_clock + 1:",
        (ARTIFACT + "test_stalled_read_raises_deadlock",),
    ),
    Mutant(
        "run: a ProtocolError wrapped as an interface failure",
        "kernel.py",
        "except (ProtocolError, DeadlockError):",
        "except DeadlockError:",
        (RUN + "test_repeated_write_reaches_the_caller_naming_the_agent",),
    ),
    Mutant(
        "run: a DeadlockError wrapped as an interface failure",
        "kernel.py",
        "except (ProtocolError, DeadlockError):",
        "except ProtocolError:",
        (RUN + "test_dropped_write_reaches_the_caller_as_deadlock",),
    ),
    Mutant(
        "sync_registry: an equal-Jaccard tie goes to the highest member",
        "macro.py",
        "np.lexsort((lowest[ko], s.ids[fo], -jaccard))",
        "np.lexsort((-lowest[ko], s.ids[fo], -jaccard))",
        (
            "tests/test_macro.py::TestSyncRegistry::"
            "test_equal_jaccard_goes_to_the_lowest_member",
        ),
    ),
]

# pytest exits with 0 to 5; this status means the package was imported
# from somewhere else than the mutated copy
WRONG_IMPORT = 10

CHILD = f"""
import sys
from pathlib import Path

import flocklevels

copy = Path(sys.argv[1]).resolve()
if not Path(flocklevels.__file__).resolve().is_relative_to(copy):
    print(f"flocklevels imported from {{flocklevels.__file__}}, not {{copy}}")
    sys.exit({WRONG_IMPORT})

import pytest

sys.exit(pytest.main(sys.argv[2:]))
"""


def run_tests(src: Path, tests: tuple[str, ...]) -> tuple[int, str]:
    """Run the tests against the package in `src`; the exit status and
    the output."""
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(src), "-q", "-x", "-p", "no:cacheprovider"]
        + list(tests),
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout + proc.stderr


def copy_src(into: Path) -> Path:
    src = into / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def failed_test(output: str) -> str:
    """The first test that pytest's summary names as failed."""
    for line in output.splitlines():
        if line.startswith("FAILED "):
            return line[len("FAILED ") :].split(" - ")[0]
    return "?"


def main() -> int:
    problems: list[str] = []
    start = time.perf_counter()

    # the listed tests must pass on the unmutated copy, or a failure
    # below would catch nothing
    every_test = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
    with tempfile.TemporaryDirectory() as tmp:
        status, output = run_tests(copy_src(Path(tmp)), every_test)
    if status != 0:
        print(output)
        print(f"the unmutated copy fails the listed tests (status {status})")
        return 1

    for m in MUTANTS:
        t = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            src = copy_src(Path(tmp))
            path = src / "flocklevels" / m.file
            text = path.read_text()
            found = text.count(m.old)
            if found != 1:
                problems.append(f"{m.name}: old text occurs {found} times in {m.file}")
                print(f"STALE     {m.name}")
                continue
            path.write_text(text.replace(m.old, m.new))
            status, output = run_tests(src, m.tests)
        took = time.perf_counter() - t
        if status == 1:
            print(f"caught    {m.name} ({took:.1f} s) by {failed_test(output)}")
        elif status == 0:
            problems.append(f"{m.name}: survived {', '.join(m.tests)}")
            print(f"SURVIVED  {m.name} ({took:.1f} s)")
        else:
            problems.append(f"{m.name}: test run ended with status {status}")
            print(f"ERROR     {m.name} (status {status})\n{output}")

    print(f"{len(MUTANTS)} mutants in {time.perf_counter() - start:.1f} s")
    for p in problems:
        print(f"FAIL: {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
