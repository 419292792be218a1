import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from otafl import harness
from otafl.bounds import (
    bound_final_model,
    bound_final_model_fading,
    bound_weighted_average,
    weight_sum,
)
from otafl.cli import main
from otafl.data import Dataset, PartitionSpec, generate_synthetic, load_csv, partition, save_csv
from otafl.harness import estimate_bound_inputs, load_config, load_table
from otafl.precoding import AlphaSchedule
from otafl.rng import stream_generator


@pytest.fixture
def config_path(tmp_path):
    doc = {
        "seed": 5,
        "trials": 2,
        "users": 3,
        "dataset": {"kind": "synthetic", "dim": 4, "total_samples": 90, "noise_std": 1.0},
        "partition": {"mode": "iid"},
        "trainer": {
            "scheme": "cotaf",
            "local_steps": 2,
            "rounds": 4,
            "schedule": {"kind": "final_model", "shift": "auto"},
        },
        "channel": {"kind": "awgn_mac", "snr_db": -6.0},
        "alpha": {"source": "mc_pilot", "fraction": 0.5, "pilot_trials": 2},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_simulate_writes_table(config_path, tmp_path):
    out = tmp_path / "table.csv"
    assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
    table = load_table(out)
    assert len(table.rows) == 4


def test_simulate_json_format(config_path, tmp_path):
    out = tmp_path / "table.json"
    assert main(["simulate", "--config", str(config_path), "--out", str(out), "--format", "json"]) == 0
    assert len(load_table(out).rows) == 4


def test_bound_prints_constants(config_path, capsys):
    assert main(["bound", "--config", str(config_path), "--theorem", "2", "--t", "4,8"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["theorem"] == 2
    assert payload["B"] > 0 and payload["C"] >= payload["B"]
    assert set(payload["bounds"]) == {"4", "8"}
    assert payload["bounds"]["8"] < payload["bounds"]["4"]
    assert set(payload["S_R"]) == {"4", "8"}


@pytest.fixture
def no_estimate(monkeypatch):
    """Fails a test that estimates the bound inputs."""

    def estimate(*args, **kwargs):
        raise AssertionError("the bound inputs were estimated")

    monkeypatch.setattr(harness, "estimate_bound_inputs", estimate)


def test_bound_rejects_bad_t(config_path, capsys, no_estimate):
    # H = 2: the step counts are checked before the inputs are estimated
    assert main(["bound", "--config", str(config_path), "--theorem", "2", "--t", "3"]) == 1
    assert "total_steps must be a positive multiple of H=2" in capsys.readouterr().err


def test_bound_rejects_theorem_3_without_fading(config_path, capsys, no_estimate):
    assert main(["bound", "--config", str(config_path), "--theorem", "3", "--t", "4"]) == 1
    assert "theorem 3 needs a fading channel config" in capsys.readouterr().err


@pytest.mark.parametrize("theorem", [1, 2, 3])
def test_bound_evaluates_the_library_inputs_at_each_t(config_path, tmp_path, capsys, theorem):
    # each t's bound is the library's on the estimated inputs with T = t
    path = config_path
    if theorem == 3:
        path = _write_variant(
            config_path,
            tmp_path,
            trainer={"scheme": "cotaf_fading", "local_steps": 2, "rounds": 4},
            channel={"kind": "fading_mac", "snr_db": -6.0, "participants": 2},
        )
    t_values = (2, 4, 6, 8, 10, 16, 24, 40, 100, 2000, 8)
    argv = ["bound", "--config", str(path), "--theorem", str(theorem)]
    assert main([*argv, "--t", ",".join(map(str, t_values))]) == 0
    payload = json.loads(capsys.readouterr().out)
    kind = "averaged_model" if theorem == 1 else "final_model"
    inputs = estimate_bound_inputs(load_config(path), kind=kind)
    bound_fn = {1: bound_weighted_average, 2: bound_final_model, 3: bound_final_model_fading}
    expected = {str(t): bound_fn[theorem](replace(inputs, total_steps=t)) for t in t_values}
    assert payload["bounds"] == expected
    assert payload["S_R"] == {str(t): weight_sum(inputs.shift, 2, t // 2) for t in t_values}
    assert (payload["shift"], payload["delta0"]) == (inputs.shift, inputs.delta0)


def test_estimate_alpha_writes_schedule(config_path, tmp_path):
    out = tmp_path / "alpha.json"
    assert main(["estimate-alpha", "--config", str(config_path), "--out", str(out)]) == 0
    schedule = AlphaSchedule.load(out)
    assert schedule.rounds == 4
    assert np.all(schedule.values > 0)


def _write_variant(config_path, tmp_path, **overrides):
    doc = {**json.loads(config_path.read_text()), **overrides}
    path = tmp_path / "variant.json"
    path.write_text(json.dumps(doc))
    return path


def test_estimate_alpha_on_fading_config(config_path, tmp_path):
    fading = _write_variant(
        config_path, tmp_path, channel={"kind": "fading_mac", "snr_db": -6.0, "participants": 2}
    )
    out = tmp_path / "alpha.json"
    assert main(["estimate-alpha", "--config", str(fading), "--out", str(out)]) == 0
    assert AlphaSchedule.load(out).rounds == 4


def test_estimate_alpha_names_the_accepted_channel_kinds(config_path, tmp_path, capsys):
    noiseless = _write_variant(
        config_path,
        tmp_path,
        trainer={"scheme": "noise_free_local_sgd", "local_steps": 2, "rounds": 4},
        channel={"kind": "noiseless_orthogonal"},
    )
    out = tmp_path / "alpha.json"
    assert main(["estimate-alpha", "--config", str(noiseless), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "'awgn_mac' or 'fading_mac'" in err and "got 'noiseless_orthogonal'" in err
    assert not out.exists()


def test_simulate_with_alpha_file(config_path, tmp_path):
    alpha_path = tmp_path / "alpha.json"
    assert main(["estimate-alpha", "--config", str(config_path), "--out", str(alpha_path)]) == 0
    doc = json.loads(config_path.read_text())
    doc["alpha"] = {"source": "file", "path": str(alpha_path)}
    file_config = tmp_path / "config2.json"
    file_config.write_text(json.dumps(doc))
    out = tmp_path / "table2.csv"
    assert main(["simulate", "--config", str(file_config), "--out", str(out)]) == 0
    # identical alpha source -> identical table as the mc_pilot run
    out_ref = tmp_path / "ref.csv"
    assert main(["simulate", "--config", str(config_path), "--out", str(out_ref)]) == 0
    assert load_table(out) == load_table(out_ref)


def test_compare_ordering(config_path, capsys, tmp_path):
    code = main([
        "compare", "--config", str(config_path),
        "--schemes", "noise_free_local_sgd,cotaf,non_precoded_ota",
        "--assert-ordering",
    ])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["ordering_ok"] is True
    # the reversed order must fail the assertion with exit code 3
    code = main([
        "compare", "--config", str(config_path),
        "--schemes", "non_precoded_ota,cotaf,noise_free_local_sgd",
        "--assert-ordering",
    ])
    assert code == 3


@pytest.mark.parametrize("schemes", ["cotaf", "cotaf,cotaf"])
def test_compare_rejects_a_scheme_list_before_training(config_path, capsys, monkeypatch, schemes):
    calls = []
    monkeypatch.setattr(harness, "run_training", lambda *args, **kwargs: calls.append(args))
    assert main(["compare", "--config", str(config_path), "--schemes", schemes]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert calls == []


def test_partition_command_round_trip(tmp_path):
    dataset = generate_synthetic(3, 40, 1.0, np.random.default_rng(2))
    csv_in = tmp_path / "data.csv"
    save_csv(dataset, csv_in)
    out_dir = tmp_path / "shards"
    assert main([
        "partition", "--csv", str(csv_in), "--mode", "iid", "--n", "4",
        "--out", str(out_dir), "--seed", "1",
    ]) == 0
    files = sorted(out_dir.glob("user_*.csv"))
    assert len(files) == 4
    total = sum(len(load_csv(f)) for f in files)
    assert total == 40


@pytest.mark.parametrize("mode", ["iid", "heterogeneous"])
def test_partition_command_writes_each_users_rows(tmp_path, capsys, mode):
    # user n's file holds the samples of row n of the partition's row ids, in
    # order, written as save_csv writes that user's gathered shard
    csv_in = tmp_path / "data.csv"
    save_csv(generate_synthetic(3, 42, 1.0, np.random.default_rng(5)), csv_in)
    out_dir = tmp_path / "shards"
    assert main([
        "partition", "--csv", str(csv_in), "--mode", mode, "--n", "4", "--out", str(out_dir),
        "--seed", "2", "--skew", "0.3",
    ]) == 0
    assert "wrote 4 shards of 10 samples" in capsys.readouterr().out
    dataset = load_csv(csv_in)
    rows = partition(dataset, PartitionSpec(mode, 4, 0.3), stream_generator(2, "partition"))
    expected = tmp_path / "expected.csv"
    for n, ids in enumerate(rows, start=1):
        save_csv(Dataset(dataset.features[ids], dataset.targets[ids]), expected)
        assert (out_dir / f"user_{n:03d}.csv").read_bytes() == expected.read_bytes()


# SHA-256 over the name and bytes of each shard file, in file order
PINNED_SHARD_FILES = {
    "iid": "9859c44b64fd421b79fd35309e70358bde695c24a8194dd22b64edf539a0f2ac",
    "heterogeneous": "e64cec75780b22ea217f0048a6639d2b4e771a67e91d65dbd9b74160a0375049",
}


@pytest.mark.parametrize("mode", sorted(PINNED_SHARD_FILES))
def test_partition_command_shard_files_are_pinned(tmp_path, mode):
    # the shard files of a fixed seed, byte for byte: 23 exactly printable
    # samples split between 4 users (3 dropped), so the digest holds across
    # platforms whose generators give the same permutations
    csv_in = tmp_path / "data.csv"
    csv_in.write_text("".join(
        f"{0.5 * i - 3},{(7 * i % 11) * 0.125},{(i * i % 13) - 6},{i / 8}\n" for i in range(23)
    ))
    out_dir = tmp_path / mode
    assert main([
        "partition", "--csv", str(csv_in), "--mode", mode, "--n", "4", "--out", str(out_dir),
        "--seed", "3", "--skew", "0.4",
    ]) == 0
    files = sorted(out_dir.glob("user_*.csv"))
    assert [f.name for f in files] == [f"user_{n:03d}.csv" for n in range(1, 5)]
    sha = hashlib.sha256()
    for f in files:
        sha.update(f.name.encode() + b"\n" + f.read_bytes())
    assert sha.hexdigest() == PINNED_SHARD_FILES[mode]


def test_validation_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"seed": 1, "bogus": True}))
    assert main(["simulate", "--config", str(bad)]) == 1


@pytest.mark.parametrize("key, value", [("trainer", 5), ("dataset", None), ("partition", "iid")])
def test_a_section_that_is_not_an_object_exits_1(config_path, capsys, key, value):
    doc = json.loads(config_path.read_text())
    doc[key] = value
    config_path.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err == f"error: {key} must be a JSON object, got {value!r}\n"


@pytest.mark.parametrize("snr_db", [3100, -3100, 4000, -4000])
def test_an_extreme_snr_exits_1(config_path, capsys, snr_db):
    doc = json.loads(config_path.read_text())
    doc["channel"]["snr_db"] = snr_db
    config_path.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: snr_db={float(snr_db)} gives no finite positive noise variance")


def test_missing_file_exit_code(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2
