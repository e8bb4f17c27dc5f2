"""A run gives the same bits whichever SIMD code numpy dispatches to."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# Prints the SIMD features numpy dispatches to above its baseline, then,
# for a 100-bird, 100-tick run of each of M1 and m, hashes of the final
# bird state and flock registry and of the exported event log.
RUN = """
import hashlib
import numpy as np
from flocklevels.experiment import apply_config, build_multimodel
from flocklevels.kernel import run

print(",".join(np.show_config(mode="dicts")["SIMD Extensions"].get("found", [])))
for variant in ("M1", "m"):
    mm = build_multimodel(apply_config(variant, birds=100, horizon=100, base_seed=1), 0)
    run(mm)
    s = mm.micro_agent.interface.state
    state = hashlib.sha256(b"".join(a.tobytes() for a in (s.ids, s.x, s.y, s.heading)))
    state.update(repr(mm.macro_agent.interface.state).encode())
    log = hashlib.sha256("\\n".join(mm.log.export_lines()).encode())
    print(variant, state.hexdigest(), log.hexdigest())
"""


def run_hashes(disable: list[str]) -> list[str]:
    """RUN's output with the given features disabled (none: default dispatch)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    if disable:
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(disable)
    out = subprocess.run(
        [sys.executable, "-c", RUN],
        capture_output=True,
        text=True,
        check=True,
        env=env,
        timeout=300,
    )
    return out.stdout.splitlines()


def test_outputs_do_not_depend_on_simd_dispatch():
    simd = np.show_config(mode="dicts")["SIMD Extensions"]
    # disabling a baseline feature aborts numpy, an unknown one is ignored
    above = [f for f in simd.get("found", []) if f not in simd["baseline"]]
    if not above:
        pytest.skip("numpy finds no SIMD features above its baseline on this CPU")
    default = run_hashes([])
    baseline = run_hashes(above)
    assert default[0] and baseline[0] == "", "the features were not disabled"
    assert baseline[1:] == default[1:]
