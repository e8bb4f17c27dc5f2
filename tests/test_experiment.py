import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flocklevels import interfaces
from flocklevels.cli import main
from flocklevels.coupling import emergence_transform
from flocklevels.geometry import LENGTH_BOUND
from flocklevels.experiment import (
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
from flocklevels.micro import init_random, micro_step, observe
from helpers import two_pass_mean_std


class TestVariants:
    def test_catalogue(self):
        assert sorted(VARIANTS) == ["M", "M1", "M2", "M3", "m"]
        assert VARIANTS["m"].immergence is False
        assert VARIANTS["M3"].ratio == 4
        assert all(v.ratio == 1 for k, v in VARIANTS.items() if k != "M3")

    def test_parameter_overrides(self):
        m1, m2 = VARIANTS["M1"].macro_params, VARIANTS["M2"].macro_params
        assert m1.max_separate_turn == 8.0 and m1.max_align_turn == 1.0
        assert m2.max_align_turn == 8.0 and m2.max_separate_turn == 0.5


class TestApplyConfig:
    def test_defaults(self):
        cfg = apply_config("M")
        assert cfg.birds == 100 and cfg.horizon == 500
        assert cfg.sample_interval == 1
        assert cfg.micro.vision == 10.0
        assert cfg.cluster.min_size == 3

    def test_default_sample_interval_tracks_ratio(self):
        assert apply_config("M3").sample_interval == 4

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            apply_config("M4")

    @pytest.mark.parametrize(
        "values",
        [{"world.depth": 5}, {"bogus": 1}, {"cluster.size": 4}, {"micro.bogus": 1}],
    )
    def test_unknown_key_named(self, values):
        (key,) = values
        with pytest.raises(ConfigError, match=re.escape(key)):
            apply_config("M", values)

    def test_ratio_conflict(self):
        with pytest.raises(ConfigError):
            apply_config("M", {"ratio": 4})
        assert apply_config("M3", {"ratio": 4}).variant.ratio == 4

    def test_horizon_must_respect_ratio(self):
        with pytest.raises(ConfigError):
            apply_config("M3", horizon=6)

    def test_sample_interval_validation(self):
        with pytest.raises(ConfigError):
            apply_config("M3", horizon=8, sample_interval=2)
        with pytest.raises(ConfigError):
            apply_config("M", horizon=10, sample_interval=3)

    def test_reps_must_be_positive(self):
        with pytest.raises(ConfigError, match="^reps must be >= 1$"):
            apply_config("M", reps=0)

    def test_overrides_flow_through(self):
        fv = {
            "world.width": 200.0,
            "micro.vision": 7.5,
            "macro.speed": 2.0,
            "cluster.min_size": 4,
        }
        cfg = apply_config("M", fv)
        assert cfg.world.width == 200.0
        assert cfg.micro.vision == 7.5
        assert cfg.variant.macro_params.speed == 2.0
        assert cfg.cluster.min_size == 4
        # untouched parameters keep their defaults
        assert cfg.micro.speed == 1.0
        assert cfg.variant.macro_params.vision == 10.0


    @pytest.mark.parametrize(
        "key,value",
        [
            ("world.width", math.inf),
            ("world.height", math.nan),
            ("cluster.min_size", 2.9),
            ("macro.speed", -5.0),
            ("macro.speed", math.inf),
            ("macro.vision", -1.0),
            ("ratio", 1.5),
            ("micro.vision", None),
            ("micro.vision", "ten"),
            ("cluster.min_size", "x"),
            ("micro.speed", True),
            ("micro.vision", "12"),
            ("world.height", 1e-300),
            ("cluster.theta", 181.0),
            ("cluster.theta", -1.0),
            ("cluster.min_size", 1),
            ("cluster.d_prox", 0.0),
        ],
    )
    def test_invalid_value_names_its_key(self, key, value):
        with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
            apply_config("M", {key: value})

    @pytest.mark.parametrize(
        "key,limit",
        [
            ("world.width", LENGTH_BOUND),
            ("world.height", LENGTH_BOUND),
            ("micro.speed", LENGTH_BOUND),
            ("macro.speed", LENGTH_BOUND),
            ("micro.vision", LENGTH_BOUND),
            ("macro.vision", LENGTH_BOUND),
            ("cluster.d_prox", LENGTH_BOUND),
        ],
    )
    def test_limit_accepted_and_one_ulp_above_named(self, key, limit):
        # the largest values whose arithmetic stays finite (geometry)
        apply_config("M", {key: limit})
        with pytest.raises(ConfigError, match=key.replace(".", r"\.") + " must be"):
            apply_config("M", {key: float(np.nextafter(limit, math.inf))})

    def test_integral_float_min_size_accepted(self):
        assert apply_config("M", {"cluster.min_size": 4.0}).cluster.min_size == 4


# the bound on every length, its inverse and one ulp either side of each
EXTENTS = [
    v for b in (LENGTH_BOUND, 1.0 / LENGTH_BOUND)
    for v in (float(np.nextafter(b, 0.0)), b, float(np.nextafter(b, math.inf)))
]
LENGTHS = [0.0, math.ulp(0.0), LENGTH_BOUND]


class TestExtremeConfigs:
    @given(
        st.sampled_from(EXTENTS),
        st.sampled_from(EXTENTS),
        st.fixed_dictionaries({
            key: st.sampled_from(LENGTHS)
            for key in ("micro.speed", "micro.vision", "macro.speed", "macro.vision",
                        "cluster.d_prox")
        }),
    )
    @settings(max_examples=200, deadline=None)
    def test_refused_or_runs_without_overflow(self, width, height, lengths):
        values = {"world.width": width, "world.height": height, **lengths}
        # the default min_separation of 1, unless vision is smaller
        for level in ("micro", "macro"):
            values[f"{level}.min_separation"] = min(values[f"{level}.vision"], 1.0)
        for variant in ("m", "M", "M3"):
            try:
                cfg = apply_config(variant, values, birds=12, horizon=8)
            except ConfigError:
                continue
            # underflow is left out: a gap that squares to 0 only widens
            # the prefilter of geometry.torus_neighbours, and torus_links
            # takes np.hypot of the gaps, which does not square them
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                run_replicated(cfg)


class TestLoadConfigFile:
    def test_roundtrip(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"micro.vision": 12, "ratio": 1}))
        assert load_config_file(p) == {"micro.vision": 12, "ratio": 1}

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"micro.visoin": 12}))
        with pytest.raises(ConfigError, match="visoin"):
            load_config_file(p)

    def test_non_object_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            load_config_file(p)


class TestRunReplicated:
    def test_record_count_arithmetic(self):
        cfg = apply_config("M", birds=10, horizon=0, reps=1)
        assert len(run_replicated(cfg).records) == 1
        cfg = apply_config("M3", birds=10, horizon=8, reps=3)
        result = run_replicated(cfg)
        # 3 reps x ticks {0, 4, 8}
        assert len(result.records) == 3 * 3
        assert sorted({r.tick for r in result.records}) == [0, 4, 8]
        assert sorted({r.rep for r in result.records}) == [0, 1, 2]

    def test_no_birds_gives_records_without_flocks(self):
        cfg = apply_config("M", birds=0, horizon=4, reps=1)
        stats = [
            (r.tick, r.flock_count, r.mean_flock_size, r.mean_flock_radius)
            for r in run_replicated(cfg).records
        ]
        assert stats == [(t, 0, 0.0, 0.0) for t in range(5)]

    def test_final_tick_sampled(self):
        cfg = apply_config("M", birds=30, horizon=10, reps=1, base_seed=3)
        ticks = [r.tick for r in run_replicated(cfg).records]
        assert ticks == list(range(11))

    def test_deterministic_across_calls(self):
        cfg = apply_config("M", birds=30, horizon=10, reps=2, base_seed=9)
        a, b = run_replicated(cfg), run_replicated(cfg)
        assert a.records == b.records
        assert a.event_log_lines == b.event_log_lines

    def test_reps_differ(self):
        cfg = apply_config("M", birds=100, horizon=20, reps=2, base_seed=9)
        recs = run_replicated(cfg).records
        series = {
            rep: [
                (r.flock_count, r.mean_flock_size, r.mean_flock_radius)
                for r in recs
                if r.rep == rep
            ]
            for rep in (0, 1)
        }
        assert series[0] != series[1]

    def test_passive_variant_matches_offline_oracle(self):
        # variant m must report exactly what an uncontrolled micro run
        # plus offline cluster detection would report
        cfg = apply_config("m", birds=40, horizon=20, reps=1, base_seed=5)
        recs = run_replicated(cfg).records
        state = init_random(cfg.birds, cfg.world, np.random.default_rng(cfg.base_seed))
        expected = []
        for t in range(cfg.horizon + 1):
            if t > 0:
                state = micro_step(state, None, cfg.micro)
            flocks = emergence_transform([observe(state)], cfg.cluster)[0]
            expected.append(len(flocks))
        assert [r.flock_count for r in recs] == expected


class TestAggregate:
    def test_single_rep_std_zero(self):
        cfg = apply_config("M", birds=20, horizon=4, reps=1, base_seed=0)
        agg = aggregate(run_replicated(cfg).records)
        assert [t for t, _, _ in agg] == [0, 1, 2, 3, 4]
        assert all(std == 0.0 for _, _, std in agg)

    def test_known_values(self):
        from flocklevels.experiment import RunRecord

        recs = [
            RunRecord(0, 0, 2, 0.0, 0.0),
            RunRecord(1, 0, 4, 0.0, 0.0),
        ]
        ((tick, mean, std),) = aggregate(recs)
        assert (tick, mean, std) == (0, 3.0, 1.0)

    def test_matches_two_pass_oracle(self):
        cfg = apply_config("M", birds=30, horizon=6, reps=4, base_seed=2)
        recs = run_replicated(cfg).records
        for tick, mean, std in aggregate(recs):
            counts = [r.flock_count for r in recs if r.tick == tick]
            omean, ostd = two_pass_mean_std(counts)
            assert mean == pytest.approx(omean, abs=1e-12)
            assert std == pytest.approx(ostd, abs=1e-12)

    def test_permutation_invariant(self):
        cfg = apply_config("M", birds=30, horizon=6, reps=3, base_seed=2)
        recs = run_replicated(cfg).records
        assert aggregate(recs) == aggregate(list(reversed(recs)))


class TestCsvOutput:
    def test_records_format(self, tmp_path):
        cfg = apply_config("M", birds=20, horizon=2, reps=2, base_seed=1)
        result = run_replicated(cfg)
        path = tmp_path / "out.csv"
        write_records_csv(path, "M", result.records)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "variant,rep,tick,flock_count,mean_flock_size,mean_flock_radius"
        assert len(lines) == 1 + len(result.records)
        fields = lines[1].split(",")
        assert fields[0] == "M" and fields[1] == "0" and fields[2] == "0"
        float(fields[4]), float(fields[5])
        assert "." in fields[4] and len(fields[4].split(".")[1]) == 6

    def test_aggregate_format(self, tmp_path):
        path = tmp_path / "agg.csv"
        write_aggregate_csv(path, "M", [(0, 3.0, 1.0)])
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "# std_count is the population standard deviation"
        assert lines[1] == "variant,tick,mean_count,std_count"
        assert lines[2] == "M,0,3.000000,1.000000"

    def test_byte_determinism(self, tmp_path):
        cfg = apply_config("M", birds=20, horizon=4, reps=2, base_seed=6)
        blobs = []
        for i in range(2):
            path = tmp_path / f"out{i}.csv"
            write_records_csv(path, "M", run_replicated(cfg).records)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_aggregate_path(self):
        assert aggregate_path("a/b/records.csv").name == "records_aggregate.csv"
        assert aggregate_path("records").name == "records_aggregate.csv"


class TestCli:
    def test_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "records.csv"
        events = tmp_path / "events.log"
        rc = main(
            [
                "--variant", "M3",
                "--birds", "20",
                "--ticks", "8",
                "--reps", "2",
                "--seed", "3",
                "--out", str(out),
                "--event-log", str(events),
            ]
        )
        assert rc == 0
        assert "wrote 6 records" in capsys.readouterr().out
        assert out.read_text().count("\n") == 7  # header + 6 records
        agg = aggregate_path(out)
        assert agg.exists()
        assert len(events.read_text().splitlines()) > 0

    def test_config_file_flag(self, tmp_path):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"cluster.min_size": 2}))
        out = tmp_path / "r.csv"
        rc = main(
            ["--variant", "m", "--birds", "15", "--ticks", "4",
             "--config", str(cfgfile), "--out", str(out)]
        )
        assert rc == 0
        assert out.exists()

    def test_bad_config_returns_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"ratio": 4}))
        rc = main(["--variant", "M", "--config", str(cfgfile),
                   "--out", str(tmp_path / "r.csv")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_ticks_returns_2(self, tmp_path, capsys):
        rc = main(["--variant", "M3", "--ticks", "6",
                   "--out", str(tmp_path / "r.csv")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_aborted_replication_returns_1(self, tmp_path, capsys, monkeypatch):
        # a micro step that fails on its second call: the run aborts at tick 2
        step = interfaces.micro_step

        def failing(s, cmds, p):
            if s.tick == 1:
                raise ValueError("x must be finite, got nan")
            return step(s, cmds, p)

        monkeypatch.setattr(interfaces, "micro_step", failing)
        rc = main(["--variant", "m", "--birds", "5", "--ticks", "3",
                   "--out", str(tmp_path / "r.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: replication 0 aborted:")
        assert "at tick 2" in err
        assert not (tmp_path / "r.csv").exists()

    def test_overflowing_config_returns_2(self, tmp_path, capsys):
        # finite values whose sums overflow are rejected before the run
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps(
            {"world.width": 1.5e308, "world.height": 1.5e308, "micro.speed": 1e308}
        ))
        rc = main(["--variant", "m", "--birds", "5", "--ticks", "3",
                   "--config", str(cfgfile), "--out", str(tmp_path / "r.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: world.width must be positive and at most")
        assert not (tmp_path / "r.csv").exists()

    def test_unwritable_out_returns_1(self, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "dir" / "x.csv"
        rc = main(["--variant", "m", "--birds", "5", "--ticks", "3", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err
