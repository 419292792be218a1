import gc
import itertools
import json
import math
import os
import pickle
import re
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import MISSING, asdict, fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from otafl import data as data_mod
from otafl import harness
from otafl.bounds import (
    bound_final_model,
    bound_weighted_average,
    schedule_shift,
    validate_dominance,
)
from otafl.data import Dataset, PartitionSpec, generate_synthetic, partition
from otafl.harness import (
    AlphaSpec,
    ChannelSpec,
    CsvSpec,
    ExperimentConfig,
    MetricsRow,
    MetricsTable,
    ScheduleSpec,
    SyntheticSpec,
    TrainerSpec,
    analyze_comparison,
    export_table,
    load_config,
    load_table,
    parse_config,
    run_experiment,
    sigma_from_snr,
    simulate_trials,
    tabulate,
)
from otafl.objectives import (
    ProbeBall,
    estimate_constants,
    grams_optimum,
    shard_grams,
    solve_optimum,
)
from otafl.precoding import estimate_alpha_mc
from otafl.rng import stream_generator
from otafl.trainer import CHANNEL_KINDS, SCHEMES, run_training


def tiny_config(**overrides):
    doc = {
        "seed": 11,
        "trials": 3,
        "users": 4,
        "dataset": {"kind": "synthetic", "dim": 5, "total_samples": 120, "noise_std": 1.0},
        "partition": {"mode": "iid"},
        "trainer": {
            "scheme": "cotaf",
            "local_steps": 3,
            "rounds": 6,
            "schedule": {"kind": "final_model", "shift": "auto"},
        },
        "channel": {"kind": "awgn_mac", "snr_db": -6.0},
        "alpha": {"source": "mc_pilot", "fraction": 0.5, "pilot_trials": 2},
    }
    doc.update(overrides)
    return parse_config(doc)


class TestConfigParsing:
    def test_unknown_top_level_key(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            parse_config({"seed": 1, "bogus": 2})

    def test_unknown_nested_key(self):
        doc = {
            "seed": 1, "trials": 1, "users": 2,
            "dataset": {"kind": "synthetic", "dim": 2, "total_samples": 10, "extra": 1},
            "trainer": {"scheme": "cotaf", "local_steps": 1, "rounds": 1},
            "channel": {"kind": "awgn_mac", "snr_db": 0.0},
        }
        with pytest.raises(ValueError, match="dataset"):
            parse_config(doc)

    def test_missing_required_key(self):
        with pytest.raises(ValueError, match="missing config key"):
            parse_config({"seed": 1})

    def test_defaults_applied(self):
        config = tiny_config()
        assert config.partition_mode == "iid"
        assert config.alpha.source == "mc_pilot"
        assert config.trainer.ridge_lambda == 0.5

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "c.json"
        doc = {
            "seed": 3, "trials": 1, "users": 2,
            "dataset": {"kind": "synthetic", "dim": 2, "total_samples": 20},
            "trainer": {"scheme": "noise_free_local_sgd", "local_steps": 2, "rounds": 2},
            "channel": {"kind": "noiseless_orthogonal"},
        }
        path.write_text(json.dumps(doc))
        config = load_config(path)
        assert config.seed == 3 and config.users == 2

    def test_fading_keys_need_fading_kind(self):
        for kind in ("awgn_mac", "noiseless_orthogonal"):
            for key, value in (
                ("participants", 3), ("eligibility", 0.8), ("h_min", None), ("rayleigh_scale", 0.0)
            ):
                match = f"channel key '{key}' needs kind 'fading_mac', got '{kind}'"
                with pytest.raises(ValueError, match=match):
                    tiny_config(channel={"kind": kind, "snr_db": -6.0, key: value})
        channel = {"kind": "fading_mac", "snr_db": -6.0, "participants": 3, "eligibility": 0.7,
                   "h_min": None, "rayleigh_scale": 1.3}
        assert tiny_config(channel=channel).channel.participants == 3

    def test_invalid_scheme_rejected(self):
        with pytest.raises(ValueError):
            tiny_config(trainer={"scheme": "nope", "local_steps": 1, "rounds": 1})

    def test_shipped_configs_load(self):
        paths = sorted((Path(__file__).parents[1] / "configs").glob("*.json"))
        assert paths
        for path in paths:
            doc = json.loads(path.read_text())
            config = load_config(path)
            assert (config.seed, config.trainer.scheme) == (doc["seed"], doc["trainer"]["scheme"])

    @pytest.mark.parametrize(
        "dataset_doc, dataset",
        [
            ({"kind": "synthetic", "dim": 7, "total_samples": 300, "noise_std": 2},
             SyntheticSpec(7, 300, 2.0)),
            ({"kind": "csv", "path": "data.csv", "header": True, "standardize": False},
             CsvSpec("data.csv", True, False)),
        ],
        ids=["synthetic", "csv"],
    )
    def test_every_key_set_parses_to_the_hand_built_config(self, dataset_doc, dataset):
        doc = {
            "seed": 5, "trials": 9, "users": 12,
            "dataset": dataset_doc,
            "partition": {"mode": "heterogeneous", "skew_fraction": 0.35},
            "trainer": {
                "scheme": "cotaf_fading", "local_steps": 4, "rounds": 30,
                "schedule": {"kind": "averaged_model", "shift": 12},
                "theta0_std": 0.3, "ridge_lambda": 0.1, "non_precoded_gain": 0.7,
            },
            "channel": {
                "kind": "fading_mac", "snr_db": 3, "rayleigh_scale": 1.1, "participants": 5,
                "eligibility": 0.6, "h_min": 0.4,
            },
            "alpha": {"source": "file", "fraction": 0.5, "pilot_trials": 3, "path": "alpha.json"},
            "output": "out.csv",
        }
        expected = ExperimentConfig(
            seed=5, trials=9, users=12, dataset=dataset,
            trainer=TrainerSpec("cotaf_fading", 4, 30, ScheduleSpec("averaged_model", 12.0), 0.3,
                                0.1, 0.7),
            channel=ChannelSpec("fading_mac", 3.0, 1.1, 5, 0.6, 0.4),
            partition_mode="heterogeneous", skew_fraction=0.35,
            alpha=AlphaSpec("file", 0.5, 3, "alpha.json"), output="out.csv",
        )
        config = parse_config(doc)
        assert config == expected

        def leaves(spec):
            for f in fields(spec):
                value = getattr(spec, f.name)
                yield from leaves(value) if is_dataclass(value) else [(spec, f, value)]

        for (spec, f, value), (_, _, want) in zip(leaves(config), leaves(expected), strict=True):
            # every key is away from its default, and numbers take their field's type
            assert f.default is MISSING or value != f.default, (type(spec).__name__, f.name)
            assert type(value) is type(want), (type(spec).__name__, f.name)

    def test_every_spec_field_type_has_a_coercion(self):
        seen, todo = set(), [ExperimentConfig]
        while todo:
            spec = todo.pop()
            seen.add(spec)
            for name, kind in harness._field_kinds(spec).items():
                if kind == harness.DatasetSpec:
                    todo.extend(harness._DATASET_SPECS.values())
                elif is_dataclass(kind):
                    todo.append(kind)
                else:
                    assert kind in harness._COERCE, (spec.__name__, name, kind)
        assert seen == {
            ExperimentConfig, SyntheticSpec, CsvSpec, TrainerSpec, ScheduleSpec, ChannelSpec,
            AlphaSpec,
        }


    @pytest.mark.parametrize(
        "section, key, value",
        [("dataset", "standardize", "false"), ("dataset", "header", 0), ("dataset", "header", None)],
    )
    def test_bool_fields_take_only_json_booleans(self, section, key, value):
        dataset = {"kind": "csv", "path": "data.csv", key: value}
        with pytest.raises(ValueError, match=rf"config key {section}\.{key} must be a JSON boolean"):
            tiny_config(dataset=dataset)
        assert getattr(tiny_config(dataset={**dataset, key: False}).dataset, key) is False

    @pytest.mark.parametrize(
        "path, value",
        [(("users",), 2.7), (("trainer", "local_steps"), True), (("dataset", "dim"), "5"),
         (("alpha", "pilot_trials"), 2.5), (("channel", "participants"), "3")],
    )
    def test_int_fields_take_only_integral_numbers(self, path, value):
        doc = _fading_doc()
        section = doc
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
        with pytest.raises(ValueError, match=rf"config key {'.'.join(path)} must be an integral"):
            parse_config(doc)
        section[path[-1]] = 3.0  # an integral float is the integer
        config = parse_config(doc)
        for key in path:
            config = getattr(config, key)
        assert config == 3 and type(config) is int

    @pytest.mark.parametrize(
        "path, value",
        [(("channel", "snr_db"), True), (("trainer", "ridge_lambda"), "0.5"),
         (("trainer", "schedule", "shift"), False), (("trainer", "schedule", "shift"), "12"),
         (("partition", "skew_fraction"), None)],
    )
    def test_float_fields_take_any_number_but_a_boolean(self, path, value):
        doc = _fading_doc()
        doc["partition"] = {"mode": "heterogeneous"}
        section = doc
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
        with pytest.raises(ValueError, match=rf"config key {'.'.join(path)} must be a number"):
            parse_config(doc)
        section[path[-1]] = 0  # an integer is a number
        config = parse_config(doc)
        for key in path if path[0] != "partition" else path[1:]:
            config = getattr(config, key)
        assert config == 0.0 and type(config) is float

    def test_str_fields_take_only_strings(self):
        with pytest.raises(ValueError, match="config key trainer.scheme must be a string"):
            tiny_config(trainer={"scheme": 1, "local_steps": 1, "rounds": 1})
        with pytest.raises(ValueError, match="config key output must be a string, got 5"):
            tiny_config(output=5)
        with pytest.raises(ValueError, match="config key partition.mode must be a string"):
            tiny_config(partition={"mode": 0})

    @pytest.mark.parametrize(
        "path, value",
        [
            (("trainer",), 5),
            (("alpha",), 3.0),
            (("dataset",), None),
            (("channel",), "awgn_mac"),
            (("channel",), None),
            (("partition",), "iid"),
            (("trainer", "schedule"), ["final_model"]),
        ],
    )
    def test_a_section_that_is_not_an_object_is_rejected(self, path, value):
        doc = _fading_doc()
        section = doc
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
        where = re.escape(".".join(path))
        with pytest.raises(ValueError, match=rf"^{where} must be a JSON object, got {re.escape(repr(value))}$"):
            parse_config(doc)

    def test_a_config_that_is_not_an_object_is_rejected(self):
        with pytest.raises(ValueError, match=r"^config must be a JSON object, got \[1\]$"):
            parse_config([1])


def _fading_doc() -> dict:
    return {
        "seed": 1, "trials": 1, "users": 4,
        "dataset": {"kind": "synthetic", "dim": 5, "total_samples": 40},
        "trainer": {"scheme": "cotaf_fading", "local_steps": 2, "rounds": 2,
                    "schedule": {"kind": "final_model", "shift": 12.0}},
        "channel": {"kind": "fading_mac", "snr_db": 0.0, "participants": 2},
        "alpha": {"pilot_trials": 2},
    }


class TestSnrBookkeeping:
    def test_sigma_matches_snr(self):
        sigma = sigma_from_snr(-6.0)
        assert 10 * math.log10(1.0 / sigma) == pytest.approx(-6.0, abs=1e-9)
        assert sigma == pytest.approx(10 ** 0.6)
        for snr_db in (-6.0, 0.0, 6.0):
            assert sigma_from_snr(snr_db) == 1.0 / 10.0 ** (snr_db / 10.0)

    def test_noiseless(self):
        assert sigma_from_snr(None) == 0.0

    @pytest.mark.parametrize("snr_db", [3100.0, -3100.0, 4000.0, -4000.0, math.inf, math.nan])
    def test_snr_without_a_finite_positive_noise_variance_is_rejected(self, snr_db):
        match = f"snr_db={snr_db} gives no finite positive noise variance"
        with pytest.raises(ValueError, match=match):
            sigma_from_snr(snr_db)
        with pytest.raises(ValueError, match=match):
            tiny_config(channel={"kind": "awgn_mac", "snr_db": snr_db})


class TestRunExperiment:
    def test_determinism(self):
        config = tiny_config()
        assert run_experiment(config) == run_experiment(config)

    def test_single_trial_matches_hand_run(self):
        config = tiny_config(trials=1, trainer={
            "scheme": "noise_free_local_sgd", "local_steps": 3, "rounds": 4,
            "schedule": {"kind": "final_model", "shift": "auto"},
        }, channel={"kind": "noiseless_orthogonal"})
        result = simulate_trials(config)
        table = tabulate(result)
        rows = table.for_scheme("noise_free_local_sgd")
        assert len(rows) == 4
        assert all(row.stderr == 0.0 for row in rows)

        # hand-rebuild trial 0 with the documented streams and compare
        resolved = harness.resolve(config, ["noise_free_local_sgd"])
        trial_rows = partition(
            resolved.dataset, config.partition_spec, stream_generator(config.seed, "trial0/partition")
        )
        shards = resolved.dataset.shards(trial_rows)
        theta_star, hess = grams_optimum(*shard_grams(shards), config.trainer.ridge_lambda)
        theta0 = stream_generator(config.seed, "trial0/init").normal(
            0.0, config.trainer.theta0_std, resolved.dataset.feature_dim
        )
        (trace,) = run_training(
            resolved.dataset,
            trial_rows[None],
            theta0[None],
            [harness._trainer_config(resolved, "noise_free_local_sgd")],
            None,
            [harness.trial_streams(config, 0, ["noise_free_local_sgd"])],
            (theta_star[None], hess[None]),
        )
        for row, gap in zip(rows, trace.gaps[0]):
            assert row.mean_gap == gap
        run = result.schemes["noise_free_local_sgd"]
        np.testing.assert_array_equal(run.gaps, trace.gaps)
        np.testing.assert_array_equal(run.power_per_user, trace.powers)
        np.testing.assert_array_equal(run.waits, trace.waits)

    def test_paired_initial_models_across_schemes(self):
        config = tiny_config(trials=2)
        result = simulate_trials(config, ["cotaf", "noise_free_local_sgd"])
        # pairing: with a noiseless channel the gap arrays would match; here we
        # check stream sharing via the recorded initial distances
        assert result.theta0_dist2.shape == (2,)
        r1 = simulate_trials(config, ["noise_free_local_sgd"])
        np.testing.assert_array_equal(result.theta0_dist2, r1.theta0_dist2)
        np.testing.assert_array_equal(
            result.schemes["noise_free_local_sgd"].gaps, r1.schemes["noise_free_local_sgd"].gaps
        )

    def test_noiseless_schemes_collapse(self):
        config = tiny_config(channel={"kind": "awgn_mac", "snr_db": None})
        result = simulate_trials(
            config, ["noise_free_local_sgd", "cotaf", "non_precoded_ota"]
        )
        base = result.schemes["noise_free_local_sgd"].gaps
        for scheme in ("cotaf", "non_precoded_ota"):
            assert np.max(np.abs(result.schemes[scheme].gaps - base)) < 1e-10

    def test_stderr_shrinks_with_trials(self):
        trainer = {
            "scheme": "cotaf", "local_steps": 3, "rounds": 10,
            "schedule": {"kind": "final_model", "shift": "auto"},
        }
        se_small = np.array(
            [r.stderr for r in run_experiment(tiny_config(trials=16, trainer=trainer)).for_scheme("cotaf")]
        )
        se_large = np.array(
            [r.stderr for r in run_experiment(tiny_config(trials=64, trainer=trainer)).for_scheme("cotaf")]
        )
        ratio = np.mean(se_large / se_small)
        assert 0.5 * 0.7 <= ratio <= 0.5 * 1.3

    def test_scheme_channel_mismatch_rejected(self):
        # every (scheme, channel kind) pair: the accepted ones resolve, the
        # rest name the kind the scheme needs
        needed = {"cotaf": "awgn_mac", "non_precoded_ota": "awgn_mac", "cotaf_fading": "fading_mac"}
        for scheme, kind in itertools.product(SCHEMES, CHANNEL_KINDS):
            channel = {"kind": kind, "snr_db": -6.0}
            if kind == "fading_mac":
                channel["participants"] = 3
            config = tiny_config(channel=channel)
            if needed.get(scheme, kind) == kind:
                resolved = harness.resolve(config, [scheme])
                precoded = scheme in ("cotaf", "cotaf_fading")
                assert (resolved.alpha_schedule is not None) == precoded, (scheme, kind)
                assert (resolved.fading_policy is not None) == (kind == "fading_mac"), (scheme, kind)
            else:
                match = f"scheme {scheme} needs channel kind '{needed[scheme]}', got '{kind}'"
                with pytest.raises(ValueError, match=match):
                    harness.resolve(config, [scheme])

    def test_failures_name_trial_and_round(self, monkeypatch):
        import otafl.trainer as trainer_mod

        monkeypatch.setattr(trainer_mod, "MAX_WAIT_REDRAWS", 50)
        # the config passes the resolve-time supply check; every drawn user is
        # censored, so round 1 starves at run time
        monkeypatch.setattr(
            trainer_mod, "sample_rayleigh", lambda n, scale, rng, rows: np.full((rows, n), 1e-3)
        )
        config = tiny_config(
            trials=1,
            channel={"kind": "fading_mac", "snr_db": -6.0, "participants": 4, "h_min": 0.5},
            trainer={
                "scheme": "cotaf_fading", "local_steps": 3, "rounds": 2,
                "schedule": {"kind": "final_model", "shift": "auto"},
            },
        )
        with pytest.raises(RuntimeError, match=r"trial 0, scheme cotaf_fading: round 1"):
            simulate_trials(config, ["cotaf_fading"])

    def test_failures_name_the_starved_trial_of_a_block(self, monkeypatch):
        import otafl.trainer as trainer_mod

        monkeypatch.setattr(trainer_mod, "MAX_WAIT_REDRAWS", 50)
        config = tiny_config(
            trials=3,
            channel={"kind": "fading_mac", "snr_db": -6.0, "participants": 4, "h_min": 0.5},
            trainer={
                "scheme": "cotaf_fading", "local_steps": 3, "rounds": 2,
                "schedule": {"kind": "final_model", "shift": "auto"},
            },
        )
        # the three trials train as one block; only trial 2's fading draws
        # are all censored, so only its round 1 starves
        starved = stream_generator(config.seed, "trial2/fading/cotaf_fading").bit_generator.state
        sample_rayleigh = trainer_mod.sample_rayleigh

        def rayleigh(n, scale, rng, rows):
            if rng.bit_generator.state == starved:
                return np.full((rows, n), 1e-3)
            return sample_rayleigh(n, scale, rng, rows=rows)

        monkeypatch.setattr(trainer_mod, "sample_rayleigh", rayleigh)
        with pytest.raises(RuntimeError, match=r"trial 2, scheme cotaf_fading: round 1"):
            simulate_trials(config, ["cotaf_fading"])

    @pytest.mark.parametrize("block_bytes", [1, 1 << 20])
    @pytest.mark.parametrize("fading", [False, True])
    def test_trial_blocks_equal_a_per_trial_loop(self, monkeypatch, block_bytes, fading):
        # trials train in blocks, one run_training call each; every trial's
        # results are those of training it alone, however the trials block
        monkeypatch.setattr(harness, "TRIAL_BLOCK_BYTES", block_bytes)
        blocks = []
        def counted(*args, **kwargs):
            blocks.append(len(args[5]))  # the block's trial streams
            return run_training(*args, **kwargs)

        monkeypatch.setattr(harness, "run_training", counted)
        if fading:
            schemes = ["cotaf_fading", "noise_free_local_sgd"]
            channel = {"kind": "fading_mac", "snr_db": -6.0, "participants": 3}
        else:
            schemes = ["noise_free_local_sgd", "cotaf", "non_precoded_ota"]
            channel = {"kind": "awgn_mac", "snr_db": -6.0}
        config = tiny_config(trials=4, channel=channel)
        result = simulate_trials(config, schemes)
        assert blocks == ([1, 1, 1, 1] if block_bytes == 1 else [4])

        resolved, lam = result.resolved, config.trainer.ridge_lambda
        for trial in range(config.trials):
            rows = partition(
                resolved.dataset,
                config.partition_spec,
                stream_generator(config.seed, f"trial{trial}/partition"),
            )
            theta_star, hess = grams_optimum(*shard_grams(resolved.dataset.shards(rows)), lam)
            theta0 = harness.initial_model_for_trial(config, trial, resolved.dataset.feature_dim)
            diff = theta0 - theta_star
            assert result.theta0_dist2[trial] == diff @ diff
            for scheme in schemes:
                (trace,) = run_training(
                    resolved.dataset,
                    rows[None],
                    theta0[None],
                    [harness._trainer_config(resolved, scheme)],
                    resolved.alpha_schedule,
                    [harness.trial_streams(config, trial, [scheme])],
                    (theta_star[None], hess[None]),
                )
                run = result.schemes[scheme]
                assert np.array_equal(run.gaps[trial], trace.gaps[0])
                assert np.array_equal(run.power_per_user[trial], trace.powers[0])
                assert np.array_equal(run.waits[trial], trace.waits[0])
                k = config.users if trace.participants is None else trace.participants.shape[-1]
                assert np.all(run.participants[trial] == k)
                if scheme == "cotaf_fading":
                    assert k == 3

    @pytest.mark.parametrize("trials", [1, 5, 7, 9, 50])
    def test_tabulate_equals_per_round_reductions(self, trials):
        # the CSV is byte-stable, so each row must carry the bits of reducing
        # that round's column on its own (an axis-0 reduction differs at T >= 9)
        rng = np.random.default_rng(trials)
        rounds = 40
        run = harness.SchemeRuns(
            gaps=rng.lognormal(sigma=2.0, size=(trials, rounds)),
            power_per_user=rng.lognormal(sigma=2.0, size=(trials, rounds, 3)),
            participants=rng.integers(1, 4, size=(trials, rounds)),
            waits=rng.integers(0, 5, size=(trials, rounds)),
        )
        config = tiny_config(trials=trials)
        result = harness.SimulationResult(
            config=config, schemes={"cotaf": run}, t_grid=3 * np.arange(1, rounds + 1),
            theta0_dist2=np.zeros(trials), resolved=None,
        )
        rows = tabulate(result).rows
        assert len(rows) == rounds
        for i, row in enumerate(rows):
            gaps = run.gaps[:, i]
            stderr = 0.0 if trials < 2 else float(gaps.std(ddof=1) / math.sqrt(trials))
            assert (row.round, row.t) == (i + 1, 3 * (i + 1))
            assert row.mean_gap == float(gaps.mean())
            assert row.stderr == stderr
            assert row.mean_power == float(run.power_max[:, i].mean())
            assert row.participants_mean == float(run.participants[:, i].mean())
            assert row.wait_count == float(run.waits[:, i].mean())

    def test_trial_streams_share_init_and_users(self):
        config = tiny_config()
        paired = harness.trial_streams(config, 1, ["cotaf", "non_precoded_ota"])
        alone = harness.trial_streams(config, 1, ["non_precoded_ota"])
        assert len(paired.users) == config.users
        assert len(paired.noise) == len(paired.fading) == 2
        # one initial model per trial, whatever the schemes, from trial{t}/init
        np.testing.assert_array_equal(
            harness.initial_model_for_trial(config, 1, 5),
            stream_generator(config.seed, "trial1/init").normal(0.0, config.trainer.theta0_std, 5),
        )
        assert paired.users[2].normal() == alone.users[2].normal()
        assert paired.noise[1].normal() == alone.noise[0].normal()
        assert paired.fading[1].normal() == alone.fading[0].normal()
        assert paired.noise[0].normal() != alone.noise[0].normal()

    def test_gap_never_meaningfully_negative(self):
        config = tiny_config(trials=4)
        result = simulate_trials(
            config, ["noise_free_local_sgd", "cotaf", "non_precoded_ota"]
        )
        for run in result.schemes.values():
            assert np.all(run.gaps >= -1e-9)

    def test_rows_cover_rounds_and_schemes(self):
        config = tiny_config()
        table = run_experiment(config, ["cotaf", "noise_free_local_sgd"])
        assert len(table.rows) == 2 * config.trainer.rounds
        for scheme in ("cotaf", "noise_free_local_sgd"):
            rounds = [r.round for r in table.for_scheme(scheme)]
            assert rounds == list(range(1, config.trainer.rounds + 1))


class TestExport:
    def _table(self):
        return MetricsTable(
            rows=(
                MetricsRow("cotaf", 1, 3, 0.1 + 1e-17, 0.01, 0.9, 4.0, 0.0),
                MetricsRow("cotaf", 2, 6, 1 / 3, 0.005, 0.8, 4.0, 0.0),
            )
        )

    def test_csv_round_trip(self, tmp_path):
        table = self._table()
        path = tmp_path / "meas.csv"
        export_table(table, path)
        assert load_table(path) == table
        header = path.read_text().splitlines()[0]
        assert header == "scheme,round,t,mean_gap,stderr,mean_power,participants_mean,wait_count"

    def test_csv_bytes(self, tmp_path):
        path = tmp_path / "meas.csv"
        export_table(self._table(), path)
        assert path.read_bytes() == (
            b"scheme,round,t,mean_gap,stderr,mean_power,participants_mean,wait_count\r\n"
            b"cotaf,1,3,0.10000000000000002,0.01,0.90000000000000002,4,0\r\n"
            b"cotaf,2,6,0.33333333333333331,0.0050000000000000001,0.80000000000000004,4,0\r\n"
        )

    def test_json_round_trip(self, tmp_path):
        table = self._table()
        path = tmp_path / "meas.json"
        export_table(table, path)
        assert load_table(path) == table

    def test_empty_table_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        export_table(MetricsTable(), path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 and lines[0].startswith("scheme,")
        assert load_table(path) == MetricsTable()

    def test_real_experiment_round_trip(self, tmp_path):
        table = run_experiment(tiny_config())
        for name in ("t.csv", "t.json"):
            path = tmp_path / name
            export_table(table, path)
            assert load_table(path) == table


class TestCompare:
    def test_ordering_and_floor_flags(self):
        config = tiny_config(trials=4, trainer={
            "scheme": "cotaf", "local_steps": 3, "rounds": 12,
            "schedule": {"kind": "final_model", "shift": "auto"},
        })
        schemes = ["noise_free_local_sgd", "cotaf", "non_precoded_ota"]
        report = analyze_comparison(simulate_trials(config, schemes), schemes)
        assert report.ordering_ok()
        assert report.final_mean_gaps["non_precoded_ota"] > report.final_mean_gaps["cotaf"]
        assert report.error_floor["non_precoded_ota"]
        payload = report.to_dict()
        assert payload["ordering_ok"] is True

    def test_noiseless_collapse_statistically_indistinguishable(self):
        config = tiny_config(trials=3, channel={"kind": "awgn_mac", "snr_db": None})
        result = simulate_trials(config, ["noise_free_local_sgd", "cotaf", "non_precoded_ota"])
        report = analyze_comparison(result, ["noise_free_local_sgd", "cotaf", "non_precoded_ota"])
        for pair in report.pairs:
            assert abs(pair.mean_diff) < 1e-10

    def test_needs_two_schemes(self):
        result = simulate_trials(tiny_config(), ["cotaf"])
        with pytest.raises(ValueError, match="need at least two schemes"):
            analyze_comparison(result, ["cotaf"])

    def test_a_repeated_scheme_is_rejected_before_training(self, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "run_training", lambda *args, **kwargs: calls.append(args))
        monkeypatch.setattr(harness, "estimate_alpha_mc", lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ValueError, match=r"schemes listed more than once: \['cotaf'\]"):
            simulate_trials(tiny_config(), ["cotaf", "noise_free_local_sgd", "cotaf"])
        assert calls == []


class TestBoundInputs:
    def test_dominance_on_tiny_run(self):
        config = tiny_config(trials=4)
        result = simulate_trials(config, ["cotaf"])
        inputs = harness.estimate_bound_inputs(config, kind="final_model")
        gaps = result.schemes["cotaf"].gaps.mean(axis=0)
        report = validate_dominance(
            list(zip(result.t_grid, gaps)), bound_final_model, inputs
        )
        assert report.passed

    def test_other_kind_shift_follows_the_auto_rule(self):
        # the config trains with a final_model schedule; the averaged-model
        # bound gets the auto shift of its own kind on the estimated constants
        config = tiny_config()
        inputs = harness.estimate_bound_inputs(config, kind="averaged_model")
        c = inputs.constants
        _, auto = schedule_shift("averaged_model", c.L / c.mu, config.trainer.local_steps)
        assert inputs.shift == auto
        assert inputs.shift != harness.resolve(config, ["noise_free_local_sgd"]).schedule.shift
        assert bound_weighted_average(inputs) > 0

    def test_draws_merge_field_by_field(self):
        # each partition draw is estimated on its own stream; the merge keeps
        # the pessimistic value of every field (min for mu)
        config = tiny_config(partition={"mode": "heterogeneous", "skew_fraction": 0.5})
        inputs = harness.estimate_bound_inputs(config)
        dataset = harness.resolve(config, ["noise_free_local_sgd"]).dataset
        lam = config.trainer.ridge_lambda
        theta_star = solve_optimum(dataset.shards(np.arange(len(dataset))[None]), lam)
        ball = ProbeBall(theta_star, 2.0 * math.sqrt(inputs.delta0), count=32)
        draws = [
            estimate_constants(
                dataset.shards(
                    partition(
                        dataset,
                        config.partition_spec,
                        stream_generator(config.seed, f"bound/partition{i}"),
                    )
                ),
                lam,
                ball,
                stream_generator(config.seed, "bound/probe"),
                H=config.trainer.local_steps,
                P=harness.POWER,
                sigma_w2=sigma_from_snr(config.channel.snr_db),
            )
            for i in range(3)
        ]
        assert len({c.G2 for c in draws}) == 3 and len({c.mu for c in draws}) == 3
        c = inputs.constants
        assert c.L == max(d.L for d in draws)
        assert c.mu == min(d.mu for d in draws)
        assert c.G2 == max(d.G2 for d in draws)
        assert c.Gamma == max(d.Gamma for d in draws)
        np.testing.assert_array_equal(c.Mn2, np.max([d.Mn2 for d in draws], axis=0))
        assert (c.d, c.N, c.H, c.P, c.sigma_w2) == (
            draws[0].d, draws[0].N, draws[0].H, draws[0].P, draws[0].sigma_w2
        )

    def test_delta0_at_least_analytic(self):
        config = tiny_config()
        inputs = harness.estimate_bound_inputs(config)
        resolved = harness.resolve(config, ["cotaf"])
        whole = resolved.dataset.shards(np.arange(len(resolved.dataset))[None])
        theta_star = solve_optimum(whole, config.trainer.ridge_lambda)
        analytic = config.trainer.theta0_std ** 2 * 5 + float(theta_star @ theta_star)
        assert inputs.delta0 >= analytic - 1e-12

    def test_resolve_keeps_the_full_dataset_hessian(self):
        # estimate_bound_inputs takes theta* from the same pass instead of a new Gram
        config = tiny_config()
        resolved = harness.resolve(config, ["noise_free_local_sgd"])
        whole = resolved.dataset.shards(np.arange(len(resolved.dataset))[None])
        lam = config.trainer.ridge_lambda
        np.testing.assert_array_equal(resolved.hessian, grams_optimum(*shard_grams(whole), lam)[1])
        eigs = np.linalg.eigvalsh(resolved.hessian)
        assert (resolved.mu, resolved.smoothness) == (eigs[0], eigs[-1])
        theta_star, hess = resolved.dataset.whole_optimum(lam)
        assert hess is resolved.hessian and not hess.flags.writeable
        np.testing.assert_array_equal(theta_star, solve_optimum(whole, lam))

    def test_full_dataset_objective_reads_the_dataset_uncopied(self, monkeypatch):
        # resolve's Hessian and the bound inputs' theta* come from one Gram
        # pass per dataset, on its own arrays as one user's shard: one
        # grams_optimum call across simulate_trials and estimate_bound_inputs
        # (Dataset.whole_optimum's peak memory is pinned in test_data.py)
        seen, solve = [], data_mod.grams_optimum

        def recording(grams, moments, lam):
            seen.append((grams.shape, moments.shape, lam))
            return solve(grams, moments, lam)

        monkeypatch.setattr(harness, "_DATASETS", weakref.WeakValueDictionary())
        monkeypatch.setattr(data_mod, "grams_optimum", recording)
        config = tiny_config()
        result = harness.simulate_trials(config, ["noise_free_local_sgd"])
        harness.estimate_bound_inputs(config)
        dim = result.resolved.dataset.feature_dim
        # simulate_trials' resolve; estimate_bound_inputs' reuses its optimum
        assert seen == [((1, dim, dim), (1, dim), config.trainer.ridge_lambda)]


def _traced_peak(fn) -> int:
    """Peak bytes traced by tracemalloc while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestShardPasses:
    def test_partition_passes_hold_one_shard_at_a_time(self):
        # the bound constants and a trial's optimum read the partition from its
        # row ids one shard at a time: their peak stays under half the dataset,
        # which one gathered (N, D_n, d) copy alone exceeds
        dataset = generate_synthetic(30, 20000, 1.0, np.random.default_rng(12))
        rows = partition(dataset, PartitionSpec("iid", 40), np.random.default_rng(13))
        limit = (dataset.features.nbytes + dataset.targets.nbytes) / 2
        ball = ProbeBall(np.zeros(30), 2.0)

        def constants():
            estimate_constants(
                dataset.shards(rows), 0.5, ball, np.random.default_rng(1),
                H=1, P=1.0, sigma_w2=0.0,
            )

        assert _traced_peak(constants) < limit
        optimum = lambda: grams_optimum(*shard_grams(dataset.shards(rows)), 0.5)
        assert _traced_peak(optimum) < limit
        assert _traced_peak(lambda: dataset.features[rows]) > 1.9 * limit

    def test_mc_pilot_gathers_only_its_subsample(self, monkeypatch):
        # the pilot steps on its subsample's row ids into the dataset; the
        # schedule keeps the bits of the old input form, the gathered
        # subsample as its own dataset, on the same draws; also for one local
        # step and for the whole partition
        pilots = []

        def recording(shards, *args, **kwargs):
            pilots.append(shards)
            return estimate_alpha_mc(shards, *args, **kwargs)

        monkeypatch.setattr(harness, "estimate_alpha_mc", recording)
        base = tiny_config()
        for local_steps, fraction in ((3, 0.5), (1, 0.5), (3, 1.0)):
            pilots.clear()
            config = replace(
                base,
                trainer=replace(base.trainer, local_steps=local_steps),
                alpha=replace(base.alpha, fraction=fraction),
            )
            trainer, lam = config.trainer, config.trainer.ridge_lambda
            resolved = harness.resolve(config, ["cotaf"])
            dataset = resolved.dataset
            rows = partition(
                dataset, config.partition_spec, stream_generator(config.seed, "alpha/partition")
            )
            n_users, shard_size = rows.shape
            k = max(1, int(round(fraction * shard_size)))
            if fraction < 1.0:
                subsample = stream_generator(config.seed, "alpha/subsample")
                picks = np.stack(
                    [subsample.choice(shard_size, size=k, replace=False) for _ in range(n_users)]
                )
                rows = np.take_along_axis(rows, picks, axis=1)
            gathered = Dataset(
                dataset.features[rows].reshape(-1, dataset.feature_dim),
                dataset.targets[rows].reshape(-1),
            )
            expected = estimate_alpha_mc(
                gathered.shards(np.arange(n_users * k).reshape(n_users, k)),
                lam,
                trainer.rounds,
                trainer.local_steps,
                harness.POWER,
                config.alpha.pilot_trials,
                stream_generator(config.seed, "alpha/run"),
                step_fn=resolved.schedule.eta,
                theta0_std=trainer.theta0_std,
            )
            np.testing.assert_array_equal(resolved.alpha_schedule.values, expected.values)
            (pilot,) = pilots
            assert pilot.dataset is dataset
            np.testing.assert_array_equal(pilot.rows, rows)
            assert (k < shard_size) == (fraction < 1.0)


class TestFadingExperiment:
    def test_fading_run_and_eligibility_calibration(self):
        config = tiny_config(
            trials=2,
            channel={"kind": "fading_mac", "snr_db": -6.0, "participants": 3, "eligibility": 0.8},
            trainer={
                "scheme": "cotaf_fading", "local_steps": 3, "rounds": 5,
                "schedule": {"kind": "final_model", "shift": "auto"},
            },
        )
        resolved = harness.resolve(config, ["cotaf_fading"])
        # h_min calibrated so that P(h > h_min) = eligibility under Rayleigh
        h_min = resolved.fading_policy.h_min
        scale = config.channel.rayleigh_scale
        assert math.exp(-h_min**2 / (2 * scale**2)) == pytest.approx(0.8, rel=1e-12)

        result = simulate_trials(config, ["cotaf_fading"])
        run = result.schemes["cotaf_fading"]
        assert np.all(run.participants == 3)
        assert np.all(run.gaps[:, -1] >= -1e-9)

    def test_starved_config_fails_at_resolve(self):
        # unit-power Rayleigh: one user clears h_min with q = exp(-h_min^2), so
        # K = N = 4 users do with p_K = q^4
        def config(h_min):
            return tiny_config(
                channel={"kind": "fading_mac", "snr_db": -6.0, "participants": 4, "h_min": h_min}
            )

        # p_K = exp(-9) ~ 1.2e-4: about 8100 redraws per round, served
        assert harness.resolve(config(1.5), ["cotaf_fading"]).fading_policy.h_min == 1.5
        # p_K = exp(-16) ~ 1.1e-7: about 8.9e6 redraws per round, rejected
        p_k = math.exp(-4.0) ** 4
        with pytest.raises(ValueError, match=rf"starve: .* p_K={p_k:.3g}, .* MAX_WAIT_REDRAWS"):
            harness.resolve(config(2.0), ["cotaf_fading"])
        with pytest.raises(ValueError, match=r"p_K=0, so a round waits for inf redraws"):
            harness.resolve(config(50.0), ["noise_free_local_sgd"])

    def test_rayleigh_scale_reaches_the_policy(self):
        channel = {"kind": "fading_mac", "snr_db": -6.0, "participants": 3, "rayleigh_scale": 1.3}
        config = tiny_config(channel=channel)
        policy = harness.resolve(config, ["noise_free_local_sgd"]).fading_policy
        assert policy.rayleigh_scale == 1.3
        assert math.exp(-policy.h_min**2 / (2 * 1.3**2)) == pytest.approx(0.8, rel=1e-12)
        with pytest.raises(ValueError, match="rayleigh_scale must be positive"):
            harness.resolve(tiny_config(channel={**channel, "rayleigh_scale": 0.0}), [])


def _same_bound_inputs(a, b) -> bool:
    """Field by field, arrays bit for bit."""
    flat_a, flat_b = asdict(a), asdict(b)
    flat_a.update(flat_a.pop("constants"))
    flat_b.update(flat_b.pop("constants"))
    return flat_a.keys() == flat_b.keys() and all(
        np.array_equal(flat_a[k], flat_b[k]) for k in flat_a
    )


class TestDatasetMemo:
    """One dataset per config while something holds it (harness.build_dataset)."""

    # a seed no other test uses, so no other test's live results share the memo
    SEED = 424242

    def config(self, **overrides):
        return tiny_config(seed=self.SEED, **overrides)

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        generate = harness.generate_synthetic

        def counted(*args, **kwargs):
            calls.append(args)
            return generate(*args, **kwargs)

        monkeypatch.setattr(harness, "generate_synthetic", counted)
        return calls

    def test_a_held_dataset_is_reused_and_a_dropped_one_rebuilt(self, builds):
        config = self.config()
        result = simulate_trials(config)
        again = harness.resolve(config, ["noise_free_local_sgd"])
        assert again.dataset is result.resolved.dataset
        assert len(builds) == 1
        dropped = weakref.ref(result.resolved.dataset)
        del result, again
        gc.collect()
        assert dropped() is None
        rebuilt = harness.build_dataset(config)
        assert len(builds) == 2
        np.testing.assert_array_equal(rebuilt.features, harness.build_dataset(config).features)
        assert len(builds) == 2

    def test_another_seed_or_spec_builds_its_own(self, builds):
        config = self.config()
        held = harness.build_dataset(config)
        other_seed = harness.build_dataset(tiny_config(seed=self.SEED + 1))
        other_spec = harness.build_dataset(
            self.config(dataset={"kind": "synthetic", "dim": 5, "total_samples": 120,
                                 "noise_std": 0.5})
        )
        assert len(builds) == 3
        assert other_seed is not held and other_spec is not held
        assert not np.array_equal(other_seed.features, held.features)
        assert not np.array_equal(other_spec.targets, held.targets)
        assert harness.build_dataset(config) is held

    def test_a_rewritten_csv_is_read_again(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0,2.0,3.0\n4.0,5.0,6.0\n")
        config = self.config(dataset={"kind": "csv", "path": str(path), "standardize": False})
        first = harness.build_dataset(config)
        assert harness.build_dataset(config) is first
        path.write_text("7.0,8.0,9.0\n1.5,2.5,3.5\n0.5,0.25,0.125\n")
        second = harness.build_dataset(config)
        assert second is not first and first.targets.tolist() == [1.0, 4.0]
        assert second.targets.tolist() == [7.0, 1.5, 0.5]

    def test_bound_inputs_after_simulate_build_the_dataset_once(self, builds, tmp_path):
        doc = {
            "seed": self.SEED, "trials": 2, "users": 4,
            "dataset": {"kind": "synthetic", "dim": 5, "total_samples": 120},
            "trainer": {"scheme": "cotaf", "local_steps": 3, "rounds": 6},
            "channel": {"kind": "awgn_mac", "snr_db": -6.0},
            "alpha": {"source": "analytic_bound"},
        }
        config = parse_config(doc)
        result = simulate_trials(config)
        inputs = harness.estimate_bound_inputs(config)
        assert len(builds) == 1
        assert result.resolved.dataset is harness.build_dataset(config)

        # a fresh process resolves the config once, in estimate_bound_inputs
        out = tmp_path / "inputs.pickle"
        script = (
            "import json, pickle, sys\n"
            "from otafl import harness\n"
            "config = harness.parse_config(json.loads(sys.argv[1]))\n"
            "inputs = harness.estimate_bound_inputs(config)\n"
            "open(sys.argv[2], 'wb').write(pickle.dumps(inputs))\n"
        )
        src = str(Path(harness.__file__).parents[1])
        subprocess.run(
            [sys.executable, "-c", script, json.dumps(doc), str(out)],
            check=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert _same_bound_inputs(inputs, pickle.loads(out.read_bytes()))
