"""Tests of the benchmark itself, on shrunken versions of its workloads.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import job
from job import run_job
from run import E2E_UNITS, reference_speed, summarise
from spans import LAYER_UNITS, WRAPS, span_totals
from speed import CAL_REF_S, SpeedSampler
from workloads import DEFAULT_SEED, WORKLOADS

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def small_config(name: str, seed: int = DEFAULT_SEED) -> dict:
    """The workload's config with fewer rounds, trials, samples and pilot runs."""
    doc = WORKLOADS[name].config(seed)
    doc["trials"] = 1
    doc["trainer"]["rounds"] = 12
    doc["dataset"]["total_samples"] = doc["users"] * 60
    if doc["alpha"]["source"] == "mc_pilot":
        doc["alpha"]["pilot_trials"] = 2
    return doc


@pytest.fixture(scope="module")
def job_pairs():
    """One untraced and one traced job per workload, at one seed."""
    pairs = {}
    for name in WORKLOADS:
        doc = small_config(name)
        pairs[name] = tuple(
            run_job({"workload": name, "config": doc, "trace": trace}) for trace in (False, True)
        )
    return pairs


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_and_untraced_results_are_bit_identical(job_pairs, name):
    untraced, traced = job_pairs[name]
    assert traced["result"] == untraced["result"]
    assert traced["failures"] == untraced["failures"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_self_times_add_up_to_wall_time(job_pairs, name):
    _, traced = job_pairs[name]
    assert traced["self_sum_s"] == pytest.approx(traced["wall_s"], rel=1e-9, abs=1e-6)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_reports_every_layer_metric_and_overhead(job_pairs, name):
    untraced, traced = job_pairs[name]
    summary = summarise(WORKLOADS[name], 1, [(False, untraced), (True, traced)], trace=True)
    assert set(summary["metrics"]) == set(LAYER_UNITS)
    overhead = summary["metrics"]["trace_overhead_frac"]["value"]
    assert overhead == reference_speed(traced)["wall_s"] / reference_speed(untraced)["wall_s"] - 1.0
    layers = traced["layers"]
    assert layers["localsgd.sample_steps"] == layers["localsgd.local_pass.calls"] * (
        small_config(name)["trainer"]["local_steps"]
    )
    assert layers["trainer.run_round.calls"] == 12 * len(WORKLOADS[name].schemes)


def test_untraced_summary_has_the_end_to_end_metrics(job_pairs):
    untraced, _ = job_pairs["desk_compare"]
    summary = summarise(WORKLOADS["desk_compare"], 1, [(False, untraced)], trace=False)
    assert set(summary["metrics"]) == set(E2E_UNITS)
    assert all(m["value"] > 0 for m in summary["metrics"].values())
    assert summary["attempted"] == 1


def test_times_are_scaled_to_the_reference_speed(job_pairs):
    untraced, _ = job_pairs["desk_compare"]
    slow = {**untraced, "ref_scale": dict.fromkeys(untraced["ref_scale"], 0.5)}  # half the speed
    metrics = summarise(WORKLOADS["desk_compare"], 1, [(False, slow)], trace=False)["metrics"]
    assert metrics["wall_s"]["value"] == untraced["wall_s"] / 2
    assert metrics["setup_s"]["value"] == untraced["setup_s"] / 2
    assert metrics["train_steps_per_s"]["value"] == untraced["train_steps_per_s"] * 2
    assert metrics["peak_rss_mb"]["value"] == untraced["peak_rss_mb"]


def test_speed_scale_averages_the_speeds_of_the_samples_in_a_window():
    sampler = SpeedSampler()
    ref_ns = int(CAL_REF_S * 1e9)
    sampler.samples = [(0, ref_ns), (10, 2 * ref_ns), (20, ref_ns)]
    assert sampler.scale([(5, 15)]) == pytest.approx(0.5)
    assert sampler.scale([(0, 5), (15, 25)]) == pytest.approx(1.0)
    assert sampler.scale([(30, 40)]) == pytest.approx(2.5 / 3)  # no sample inside: all of them
    assert sampler.scale() == pytest.approx(2.5 / 3)


def test_differing_results_of_one_config_are_not_correct(job_pairs):
    untraced, _ = job_pairs["fading_h1"]
    other = json.loads(json.dumps(untraced))
    other["result"]["digest"] = "0" * 64
    summary = summarise(WORKLOADS["fading_h1"], 1, [(False, untraced), (False, other)], trace=False)
    assert not summary["correct"]


def test_missing_layer_is_reported_absent_and_the_job_finishes(monkeypatch):
    monkeypatch.setattr(job, "WRAPS", WRAPS + (("trainer", "no_such_function", "x", None),))
    out = run_job({"workload": "fading_h1", "config": small_config("fading_h1"), "trace": True})
    assert out["absent"] == ["trainer.no_such_function"]
    assert out["layers"]["trainer.run_round.calls"] == 12


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        (0, -1, "root", 0, 100),
        (1, 0, "a", 10, 40),
        (2, 0, "b", 30, 50),  # overlaps a by 10
        (3, 1, "c", 15, 20),
    ]
    totals = span_totals(spans)
    assert totals["root"]["self_s"] == pytest.approx(60e-9)
    assert totals["a"]["self_s"] == pytest.approx(25e-9)
    assert totals["c"]["self_s"] == pytest.approx(5e-9)


def test_benchmark_json_lists_the_reported_metrics():
    doc = json.loads(BENCHMARK.read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == LAYER_UNITS
    assert {w["name"] for w in doc["workloads"]} <= set(WORKLOADS)


def test_run_fails_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in Path(__file__).parent.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(BENCHMARK.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk_compare", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
