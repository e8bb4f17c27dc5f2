"""Time one set-up of a workload in a fresh interpreter.

Set-up is the import of the package, the resolution of the config and
the construction of the first multi-model: everything before the first
simulated tick. Prints the elapsed seconds.

    python3 bench/setup_probe.py SRC_DIR VARIANT BIRDS WIDTH HORIZON SEED
"""

import sys
from time import perf_counter

t0 = perf_counter()
src, variant, birds, width, horizon, seed = sys.argv[1:7]
sys.path.insert(0, src)
from flocklevels import experiment  # noqa: E402

cfg = experiment.apply_config(
    variant,
    {"world.width": float(width), "world.height": float(width)},
    birds=int(birds),
    horizon=int(horizon),
    base_seed=int(seed),
)
experiment.build_multimodel(cfg, 0)
print(perf_counter() - t0)
