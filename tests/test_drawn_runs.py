"""Whole runs over drawn configurations equal the one-agent-at-a-time
reference, tick by tick.

Hypothesis draws a variant and a valid configuration of it through
`apply_config`: the world, the steering of both levels and the cluster
parameters, 0 to 30 birds and a horizon of 1 to 40 ticks, at least one
macro period, since the recorder keeps the first state at the first
step. The run of `run_replicated` is compared with
`helpers.reference_run` on the same parameters, bit for bit, as
`test_whole_run.py` compares the default configuration, and a
difference is reported at the first tick where it shows.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flocklevels import experiment
from helpers import REFERENCE_VARIANTS, Cluster, Steering, World, reference_run
from test_whole_run import divergences, package_run

# lengths of whole and half units among others, so that worlds of one to
# a few search cells per axis and thresholds at the lattice come up
lengths = st.one_of(
    st.integers(1, 40).map(lambda k: k / 2.0), st.floats(0.5, 30.0, allow_nan=False)
)
turns = st.one_of(st.sampled_from([0.0, 1.0, 8.0, 180.0]), st.floats(0.0, 180.0))


@st.composite
def steering(draw, level):
    vision = draw(lengths | st.just(0.0))
    return {
        f"{level}.vision": vision,
        f"{level}.min_separation": draw(st.floats(0.0, vision) | st.just(vision)),
        f"{level}.max_align_turn": draw(turns),
        f"{level}.max_cohere_turn": draw(turns),
        f"{level}.max_separate_turn": draw(turns),
        f"{level}.speed": draw(st.floats(0.0, 3.0)),
    }


@st.composite
def configs(draw):
    variant = draw(st.sampled_from(sorted(REFERENCE_VARIANTS)))
    ratio = REFERENCE_VARIANTS[variant][1]
    values = {
        "world.width": draw(lengths) * 2.0,
        "world.height": draw(lengths) * 2.0,
        **draw(steering("micro")),
        **draw(steering("macro")),
        "cluster.d_prox": draw(lengths),
        "cluster.theta": draw(st.sampled_from([0.0, 30.0, 180.0]) | st.floats(0.0, 180.0)),
        "cluster.min_size": draw(st.integers(2, 5)),
    }
    return experiment.apply_config(
        variant,
        values,
        birds=draw(st.integers(0, 30)),
        horizon=draw(st.integers(1, 40 // ratio)) * ratio,
        base_seed=draw(st.integers(0, 2**16)),
    )


def drawn_run(cfg):
    """test_whole_run's package_run of cfg: its apply_config call gives cfg."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(experiment, "apply_config", lambda *args, **kwargs: cfg)
        return package_run(m, cfg.variant.name, cfg.base_seed)


@given(configs())
# a registered flock splits: flock 0, birds {1, 2, 4, 5, 6, 7, 8}, is seen at
# tick 2 as {1, 2, 6} and {4, 5, 7, 8}, and only one of the two keeps its id
@example(
    experiment.apply_config(
        "m", {"world.width": 10.0, "world.height": 10.0}, birds=9, horizon=3, base_seed=25
    )
)
@settings(max_examples=150, deadline=None)
def test_drawn_runs_match_reference_run(cfg):
    ref = reference_run(
        cfg.variant.name,
        cfg.birds,
        cfg.horizon,
        cfg.base_seed,
        world=World(cfg.world.width, cfg.world.height),
        micro=Steering(**vars(cfg.micro)),
        macro=Steering(**vars(cfg.variant.macro_params)),
        cluster=Cluster(**vars(cfg.cluster)),
    )
    found = divergences(drawn_run(cfg), ref, cfg.variant.ratio)
    if found:
        tick, _, message = found[0]
        pytest.fail(f"first divergence at tick {tick}: {message}")
