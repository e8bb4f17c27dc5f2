"""Whole runs equal the one-agent-at-a-time reference, tick by tick.

Every replication of every variant is compared with `helpers.reference_run`
bit for bit: the birds at every tick, the flock registry after every sync
and every step, every line of the exported event log and the sampled flock
statistics. A difference is reported at the first tick where it shows,
with the agent and the bird or flock it concerns.
"""

from itertools import zip_longest

import pytest

from flocklevels import experiment, interfaces
from helpers import REFERENCE_VARIANTS, reference_run, registry_flocks

BIRDS = 50
HORIZON = 100
SEEDS = (1, 2, 3)


def package_run(monkeypatch, variant, seed):
    """The same record as reference_run, from one `run_replicated` call.

    Recorders at the interfaces' lookup sites of micro_step, sync_registry
    and macro_step keep every state the run passes through.
    """
    states, synced, stepped = [], [], []
    micro_step, sync_registry = interfaces.micro_step, interfaces.sync_registry
    macro_step = interfaces.macro_step

    def record_micro(s, cmds, p):
        if not states:
            states.append(s)
        states.append(micro_step(s, cmds, p))
        return states[-1]

    def record_sync(s, observations):
        synced.append(sync_registry(s, observations))
        return synced[-1]

    def record_step(s, p):
        stepped.append(macro_step(s, p))
        return stepped[-1]

    with monkeypatch.context() as m:
        m.setattr(interfaces, "micro_step", record_micro)
        m.setattr(interfaces, "sync_registry", record_sync)
        m.setattr(interfaces, "macro_step", record_step)
        cfg = experiment.apply_config(
            variant, birds=BIRDS, horizon=HORIZON, base_seed=seed
        )
        result = experiment.run_replicated(cfg)

    ratio = cfg.variant.ratio
    return {
        "states": [
            tuple(zip(*(a.tolist() for a in (s.ids, s.x, s.y, s.heading))))
            for s in states
        ],
        "cycles": [
            (k * ratio, registry_flocks(a), b and registry_flocks(b))
            for k, (a, b) in enumerate(zip_longest(synced, stepped))
        ],
        "log": result.event_log_lines,
        "stats": [
            (rec.flock_count, rec.mean_flock_size, rec.mean_flock_radius)
            for rec in result.records
        ],
    }


def as_row(f):
    return (f.flock_id, f.centroid, f.heading, f.radius, sorted(f.members))


def first_difference(got, want):
    """(index, got item, wanted item) of the first items of two sequences
    that differ, None past the end of one; None when they are equal."""
    for k in range(max(len(got), len(want))):
        g = got[k] if k < len(got) else None
        w = want[k] if k < len(want) else None
        if g != w:
            return k, g, w
    return None


def divergences(pkg, ref, ratio):
    """(tick, order, message) of the first difference in each record; a
    different number of macro cycles shows in the log."""
    out = []
    diff = first_difference(pkg["states"], ref["states"])
    if diff:
        tick, got, want = diff
        _, g, w = first_difference(got or (), want or ())
        out.append((tick, 0, f"A_m: bird {(g or w)[0]} is {g}, the reference has {w}"))
    for (tick, *got), (_, *want) in zip(pkg["cycles"], ref["cycles"]):
        for phase, g, w in zip(("sync", "step"), got, want):
            g, w = ({f.flock_id: as_row(f) for f in fs or ()} for fs in (g, w))
            if g != w:
                fid = min(i for i in g.keys() | w.keys() if g.get(i) != w.get(i))
                message = (
                    f"A_M: flock {fid} after the {phase} is {g.get(fid)}, "
                    f"the reference has {w.get(fid)}"
                )
                out.append((tick, 1, message))
                break
        else:
            continue
        break
    diff = first_difference(pkg["log"], ref["log"])
    if diff:
        k, got, want = diff
        tick, agent = (got or want).split(";")[:2]
        message = f"{agent}: log line {k} is {got!r}, the reference has {want!r}"
        out.append((int(tick), 2, message))
    diff = first_difference(pkg["stats"], ref["stats"])
    if diff:
        k, got, want = diff
        out.append((k * ratio, 3, f"A_M: flock statistics {got}, the reference has {want}"))
    return sorted(out)


@pytest.mark.parametrize("variant", sorted(REFERENCE_VARIANTS))
def test_run_replicated_matches_reference_run(monkeypatch, variant):
    ratio = REFERENCE_VARIANTS[variant][1]
    for seed in SEEDS:
        pkg = package_run(monkeypatch, variant, seed)
        ref = reference_run(variant, BIRDS, HORIZON, seed)
        found = divergences(pkg, ref, ratio)
        if found:
            tick, _, message = found[0]
            pytest.fail(f"{variant}, seed {seed}, first divergence at tick {tick}: {message}")
