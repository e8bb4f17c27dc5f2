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
if a test run ends in anything but a pass or a test failure. Every run
seeds hypothesis with the same HYPOTHESIS_SEED, so a `@given` test draws
the same examples each time, and an entry is caught or not alike on
every run. Run it from anywhere, with the test dependencies installed:

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
CONFIG = "tests/test_experiment.py::TestApplyConfig::"
DETECT = "tests/test_coupling.py::TestDetectClusters::"
LINKS = "tests/test_geometry.py::TestTorusLinks::"
NEIGHBOURS = "tests/test_geometry.py::TestTorusNeighbours::"
DENSE = "tests/test_geometry.py::TestDenseStencil::"
DELTA = "tests/test_geometry.py::TestWrappedDelta::"
EMERGENCE = "tests/test_coupling.py::TestEmergenceTransform::"
CLUSTERS = "tests/test_coupling.py::TestClusters::"
MICRO = "tests/test_micro.py::"
MACRO = "tests/test_macro.py::"
PER_FLOCK = MACRO + "TestMatchesPerFlockRule::"


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
        "cardinality e: exactly as many flocks as the birds hold flagged",
        "audit.py",
        "got > len(src) // min_size",
        "got >= len(src) // min_size",
        (AUDIT + "test_cardinality_accepts_as_many_flocks_as_the_birds_hold",),
    ),
    Mutant(
        "chunk cut: a snapshot of exactly CHUNK_ROWS rows put in a chunk alone",
        "audit.py",
        "if chunk and size > CHUNK_ROWS:",
        "if chunk and size >= CHUNK_ROWS:",
        (AUDIT + "test_coherence_chunks_put_a_snapshot_above_chunk_rows_alone",),
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
    Mutant(
        "sync_registry: a registered flock matched to two observed flocks",
        "macro.py",
        "if fr not in taken and ids[kr] < 0:",
        "if ids[kr] < 0:",
        (
            MACRO + "TestSyncRegistry::test_equal_jaccard_goes_to_the_lowest_member",
            "tests/test_drawn_runs.py::test_drawn_runs_match_reference_run",
        ),
    ),
    Mutant(
        "sync_registry: member labels not remapped to the rows in id order",
        "macro.py",
        "np.argsort(order)[observed.label]",
        "observed.label",
        (MACRO + "TestSyncRegistry::test_equal_jaccard_goes_to_the_lowest_member",),
    ),
    Mutant(
        "registry: flock ids not declared a key, so any order passes",
        "macro.py",
        'KEYS = ("members", "ids")',
        'KEYS = ("members",)',
        (MACRO + "TestMacroState::test_rejects_bad_ids",),
    ),
    Mutant(
        "registry: next_id equal to the last id accepted",
        "macro.py",
        "self.next_id <= self.ids[-1]",
        "self.next_id < self.ids[-1]",
        (MACRO + "TestMacroState::test_rejects_bad_ids",),
    ),
    Mutant(
        "boids_step: a flock or bird exactly vision away is no mate",
        "geometry.py",
        "keep = np.flatnonzero(gap <= r)",
        "keep = np.flatnonzero(gap < r)",
        (
            PER_FLOCK + "test_gap_exactly_at_vision",
            MICRO + "test_lattice_ties_match_per_bird_rule",
        ),
    ),
    Mutant(
        "steer: a mate exactly min_separation away separates",
        "geometry.py",
        "sep = nearest_d < p.min_separation",
        "sep = nearest_d <= p.min_separation",
        (PER_FLOCK + "test_gap_exactly_at_min_separation",),
    ),
    Mutant(
        "macro_step: the check of the stepped columns skipped",
        "macro.py",
        'state.check("x", "y", "heading")',
        "pass",
        (MACRO + "TestMacroStep::test_non_finite_result_rejected",),
    ),
    Mutant(
        "displacements: the check of vx and vy skipped",
        "macro.py",
        'table.check("vx", "vy")',
        "pass",
        (MACRO + "TestDisplacements::test_non_finite_result_rejected",),
    ),
    Mutant(
        "Columns.check: a repeated key accepted",
        "micro.py",
        "if name in self.KEYS and (col[1:] <= col[:-1]).any():",
        "if name in self.KEYS and (col[1:] < col[:-1]).any():",
        (
            MICRO + "TestMicroState::test_rejects_ids_not_strictly_ascending",
            MICRO + "TestCommands::test_rejects_ids_not_strictly_ascending",
            MACRO + "TestMacroState::test_rejects_bad_ids",
        ),
    ),
    Mutant(
        "Columns.check: a column of another length accepted",
        "micro.py",
        "if col.ndim != 1 or (size is not None and col.size != size):",
        "if col.ndim != 1:",
        (CLUSTERS + "test_rejects_unequal_lengths",),
    ),
    Mutant(
        "Columns.check: a non-finite value accepted",
        "micro.py",
        "if not ok.all():",
        "if False:",
        (MACRO + "TestFlock::test_rejects_non_finite_or_negative",),
    ),
    Mutant(
        "Columns.check: a state coordinate at the extent accepted",
        "micro.py",
        "(0.0 <= col) & (col < top)",
        "(0.0 <= col) & (col <= top)",
        (MICRO + "TestMicroState::test_rejects_a_coordinate_outside_the_world",),
    ),
    Mutant(
        "Columns.check: a column left writeable",
        "micro.py",
        "col.flags.writeable = False",
        "pass",
        (CLUSTERS + "test_columns_are_read_only",),
    ),
    Mutant(
        "micro_step: the check of the stepped columns skipped",
        "micro.py",
        'state.check("x", "y", "heading")',
        "pass",
        (MICRO + "TestMicroStep::test_non_finite_command_result_rejected",),
    ),
    Mutant(
        "micro_step: the commanded heading not written",
        "micro.py",
        "h[rows] = wrap_array(cmds.heading, 360.0)",
        "pass",
        (MICRO + "TestMicroStep::test_mixed_crowd_matches_per_bird_rules",),
    ),
    Mutant(
        "torus_neighbours: a pair exactly r apart dropped",
        "geometry.py",
        "keep = np.flatnonzero(gap <= r)",
        "keep = np.flatnonzero(gap < r)",
        (NEIGHBOURS + "test_matches_pairwise_rule_on_boundaries",),
    ),
    Mutant(
        "torus_neighbours: the box test at r, not at the search reach",
        "geometry.py",
        "(gx <= reach) & (gy <= reach)",
        "(gx <= r) & (gy <= r)",
        (PER_FLOCK + "test_gap_rounding_beyond_the_candidate_radius",),
    ),
    Mutant(
        "torus_neighbours: a point its own mate",
        "geometry.py",
        "(gy <= reach) & (i != j)",
        "(gy <= reach)",
        (NEIGHBOURS + "test_zero_radius_keeps_coincident_points",),
    ),
    Mutant(
        "boids_step: a step with no row to turn searches anyway",
        "geometry.py",
        "if rows is not None and rows.size == 0:",
        "if False:",
        (MICRO + "TestMicroStep::test_all_commanded_skips_the_search",),
    ),
    Mutant(
        "torus_links: a pair exactly r apart dropped",
        "geometry.py",
        "keep = box[np.hypot(gx[box], gy[box]) <= r]",
        "keep = box[np.hypot(gx[box], gy[box]) < r]",
        (DETECT + "test_lattice_ties_match_union_find_oracle",),
    ),
    Mutant(
        "torus_links: the box test drops a gap of exactly r along x",
        "geometry.py",
        "(gx <= r) & (gy <= r)",
        "(gx < r) & (gy <= r)",
        (LINKS + "test_links_exactly_r_apart_along_an_axis",),
    ),
    Mutant(
        "torus_links: the box test drops a gap of exactly r along y",
        "geometry.py",
        "(gx <= r) & (gy <= r)",
        "(gx <= r) & (gy < r)",
        (LINKS + "test_links_exactly_r_apart_along_an_axis",),
    ),
    Mutant(
        "_candidates: the 5 x 5 stencil without its offsets of +-2",
        "geometry.py",
        "kx, ky = min(nx, 2 * depth + 1), min(ny, 2 * depth + 1)",
        "kx, ky = min(nx, 3), min(ny, 3)",
        (DENSE + "test_pairs_exactly_r_apart_two_cells_apart",),
    ),
    Mutant(
        "_candidates: cells narrower than reach / depth",
        "geometry.py",
        "cell = max(reach / depth, spacing)",
        "cell = max(reach / (depth + 1), spacing)",
        (DENSE + "test_pairs_exactly_r_apart_two_cells_apart",),
    ),
    Mutant(
        "wrapped_delta: the shift up moved off its boundary, to t <= 0",
        "geometry.py",
        "d += (d < 0.0) * extent",
        "d += (d <= 0.0) * extent",
        (DELTA + "test_equals_the_floor_mod_bit_for_bit",),
    ),
    Mutant(
        "wrapped_delta: no shift down where t >= extent",
        "geometry.py",
        "np.fmod(d, extent, out=d)",
        "pass",
        (DELTA + "test_equals_the_floor_mod_bit_for_bit",),
    ),
    Mutant(
        "torus_links: a point paired with itself in its own cell",
        "geometry.py",
        "after[order] = np.arange(1, n + 1)",
        "after[order] = np.arange(n)",
        (LINKS + "test_worlds_of_one_two_and_three_cells_per_axis",),
    ),
    Mutant(
        "torus_links: adjacent cells keyed below a point's own visited too",
        "geometry.py",
        "per_cell[near < cid[:, None]] = 0",
        "pass",
        (LINKS + "test_worlds_of_one_two_and_three_cells_per_axis",),
    ),
    Mutant(
        "detect_clusters: a heading difference of exactly theta not linked",
        "coupling.py",
        "np.minimum(turn, 360.0 - turn) <= p.theta",
        "np.minimum(turn, 360.0 - turn) < p.theta",
        (DETECT + "test_lattice_ties_match_union_find_oracle",),
    ),
    Mutant(
        "detect_clusters: a heading difference taken the long way round",
        "coupling.py",
        "np.minimum(turn, 360.0 - turn)",
        "turn",
        (DETECT + "test_lattice_ties_match_union_find_oracle",),
    ),
    Mutant(
        "detect_clusters: a cluster of exactly min_size dropped",
        "coupling.py",
        ">= p.min_size",
        "> p.min_size",
        (DETECT + "test_lattice_ties_match_union_find_oracle",),
    ),
    Mutant(
        "reify: no lowest-member heading on a zero resultant",
        "coupling.py",
        "heading[k] = mh[np.argmax(cluster == k)]",
        "pass",
        ("tests/test_coupling.py::TestReify::test_zero_resultant_falls_back_to_lowest_id",),
    ),
    Mutant(
        "reify: no arithmetic-mean coordinate on a zero resultant",
        "coupling.py",
        "col[k] = math.fsum(coords[cluster == k].tolist()) / sizes[k]",
        "pass",
        (EMERGENCE + "test_zero_resultant_fallbacks_next_to_ordinary_clusters",),
    ),
    Mutant(
        "split_displacements: a ratio of 0 accepted",
        "coupling.py",
        "if r < 1:",
        "if r < 0:",
        ("tests/test_coupling.py::TestImmergenceTransform::test_rejects_ratio_below_one",),
    ),
    Mutant(
        "ClusterParams: a d_prox of 0 accepted",
        "coupling.py",
        "if not 0 < self.d_prox <= LENGTH_BOUND:",
        "if not 0 <= self.d_prox <= LENGTH_BOUND:",
        (CONFIG + "test_invalid_value_names_its_key",),
    ),
    Mutant(
        "ClusterParams: a theta above 180 accepted",
        "coupling.py",
        "if not (0.0 <= self.theta <= 180.0):",
        "if not (0.0 <= self.theta <= 360.0):",
        (CONFIG + "test_invalid_value_names_its_key",),
    ),
    Mutant(
        "ClusterParams: clusters of one bird accepted",
        "coupling.py",
        "if self.min_size < 2:",
        "if self.min_size < 1:",
        (CONFIG + "test_invalid_value_names_its_key",),
    ),
    Mutant(
        "ExperimentConfig: no replication accepted",
        "experiment.py",
        "if self.reps < 1:",
        "if self.reps < 0:",
        (CONFIG + "test_reps_must_be_positive",),
    ),
    Mutant(
        "ExperimentConfig: a run of 0 birds refused",
        "experiment.py",
        "if self.birds < 0:",
        "if self.birds <= 0:",
        (
            "tests/test_experiment.py::TestRunReplicated::"
            "test_no_birds_gives_records_without_flocks",
        ),
    ),
]

# the examples of every @given test are drawn from this seed
HYPOTHESIS_SEED = 0

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
        + [f"--hypothesis-seed={HYPOTHESIS_SEED}", *tests],
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
