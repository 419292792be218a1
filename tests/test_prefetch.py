"""The kernel's gather worker: a run that gathers each round's samples on a
worker thread while the round before steps has the bits of the serial run,
no call steps on another call's samples, the worker ends with the run, and
only numpy runs on it."""

import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import otafl.precoding as precoding_mod
import otafl.trainer as trainer_mod
from otafl import _workers, harness, localsgd
from otafl.localsgd import KernelBlocks, local_pass
from otafl.precoding import AlphaSchedule, estimate_alpha_mc
from otafl.trainer import TrainerConfig, run_training

from conftest import make_shards
import test_trainer
from test_trainer import _paired_streams, _schedule, _start, _trial_block

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def gathers(monkeypatch):
    """Records the thread of every gather: True for the main thread."""
    threads, real = [], localsgd._gather

    def record(*args):
        threads.append(threading.current_thread() is threading.main_thread())
        real(*args)

    monkeypatch.setattr(localsgd, "_gather", record)
    return threads


def prefetched_and_serial(cpu_pool, gathers, run, rounds):
    """run() on the calling thread and then with the gather worker; the
    prefetched run must gather every round but the first on the worker."""
    cpu_pool(1)
    serial = run()
    assert gathers == [True] * rounds
    gathers.clear()
    cpu_pool(2)
    prefetched = run()
    assert gathers == [True] + [False] * (rounds - 1)
    return prefetched, serial


class TestTrainingBits:
    N_TRIALS, N_USERS = 2, 6
    ROUNDS = 70  # two chunks of trainer.ROUND_CHUNK rounds

    @pytest.mark.parametrize(
        "schemes",
        [
            ("cotaf",),
            ("noise_free_local_sgd", "cotaf", "non_precoded_ota"),
            ("cotaf_fading",),
        ],
    )
    def test_prefetched_run_has_the_serial_bits(self, cpu_pool, gathers, schemes):
        assert trainer_mod.ROUND_CHUNK < self.ROUNDS
        dataset, rows, optima = _trial_block(
            np.random.default_rng(6), self.N_TRIALS, self.N_USERS
        )
        config = TrainerConfig(
            schemes=schemes, local_steps=2, rounds=self.ROUNDS, step=_schedule(), sigma_w2=0.4,
            fading=test_trainer.TestStackedTrials.POLICY if "cotaf_fading" in schemes else None,
        )
        theta0 = np.stack([_start(seed, dataset.feature_dim) for seed in (1, 8)])
        alpha = AlphaSchedule(np.linspace(0.5, 2.0, self.ROUNDS))

        def run():
            streams = [_paired_streams(seed, self.N_USERS, len(schemes)) for seed in (1, 8)]
            return run_training(dataset, rows, theta0, config, alpha, streams, optima)

        prefetched, serial = prefetched_and_serial(cpu_pool, gathers, run, self.ROUNDS)
        for got, expected in zip(prefetched, serial):
            for field in ("thetas", "gaps", "powers", "fading", "waits"):
                assert np.array_equal(getattr(got, field), getattr(expected, field)), field


class TestPilotBits:
    @pytest.mark.parametrize("rounds", [1, 35])
    def test_prefetched_pilot_has_the_serial_bits(self, cpu_pool, gathers, rounds):
        shards = make_shards(np.random.default_rng(5), n_users=4, per_user=12, dim=3)

        def run():
            return estimate_alpha_mc(
                shards, 0.5, rounds, 2, 1.0, 3, np.random.default_rng(8),
                step_fn=lambda t: 2.0 / (0.8 * (20.0 + t)), theta0_std=1.0,
            ).values

        before = threading.active_count()
        prefetched, serial = prefetched_and_serial(cpu_pool, gathers, run, rounds)
        assert prefetched.tobytes() == serial.tobytes()
        assert threading.active_count() == before


class TestNoStaleSamples:
    """A call steps on the rows it is given, whatever the call before it
    handed to the worker."""

    SHAPE = (3, 2, 5)  # (H, T, N)
    ETAS = [0.1, 0.08, 0.05]

    @pytest.fixture
    def case(self, cpu_pool):
        cpu_pool(2)  # blocks of any size hold a spare slot
        rng = np.random.default_rng(2)
        features, targets = rng.standard_normal((40, 4)), rng.standard_normal(40)
        rows = [rng.integers(40, size=self.SHAPE) for _ in range(3)]
        return features, targets, rows, rng.standard_normal((1, 2, 1, 4))

    def serial(self, theta, features, targets, rows):
        blocks = KernelBlocks(1, self.SHAPE, features)
        return local_pass(theta, features, targets, self.ETAS, rows, 0.5, blocks=blocks)

    def second_call(self, case, second, gathers):
        """The models of a call on second's (features, targets, rows) after a
        call that handed rows[1] to the worker, and the threads of both
        calls' gathers (True: the main thread)."""
        features, targets, rows, theta = case
        with KernelBlocks(1, self.SHAPE, features) as blocks:
            local_pass(
                theta, features, targets, self.ETAS, rows[0], 0.5, blocks=blocks,
                next_rows=rows[1],
            )
            features, targets, rows = second
            models = local_pass(theta, features, targets, self.ETAS, rows, 0.5, blocks=blocks)
            models = models.copy()
            np.testing.assert_array_equal(blocks.gathered, features[blocks.ids])
            np.testing.assert_array_equal(blocks.gathered_targets, targets[blocks.ids])
        return models, gathers

    @pytest.mark.parametrize("change", [None, "dtype"])
    def test_matching_rows_step_on_the_worker_gather(self, case, gathers, change):
        features, targets, rows, theta = case
        # the same ids in another dtype are the same rows
        second = (features, targets, rows[1] if change is None else rows[1].astype(np.uint8))
        models, threads = self.second_call(case, second, gathers)
        assert threads == [True, False]  # the second call took the worker's gather over
        assert np.array_equal(models, self.serial(theta, *second))

    @pytest.mark.parametrize("change", ["rows", "features", "targets"])
    def test_mismatched_call_gathers_its_own_rows(self, case, gathers, change):
        features, targets, rows, theta = case
        second = {
            "rows": (features, targets, rows[2]),
            "features": (features.copy(), targets, rows[1]),  # equal values, another array
            "targets": (features, targets + 1.0, rows[1]),
        }[change]
        models, threads = self.second_call(case, second, gathers)
        assert threads == [True, False, True]
        assert np.array_equal(models, self.serial(theta, *second))

    def test_calls_step_on_their_own_rows_under_fast_thread_switching(self, case):
        # every third call hands the worker rows that the next call does not
        # take, so taken-over and own gathers alternate
        features, targets, _, theta = case
        rows = np.random.default_rng(7).integers(40, size=(150, *self.SHAPE))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with KernelBlocks(1, self.SHAPE, features) as blocks:
                for i, own in enumerate(rows):
                    handed = rows[(i + 1 + (i % 3 == 0)) % len(rows)]
                    models = local_pass(
                        theta, features, targets, self.ETAS, own, 0.5, blocks=blocks,
                        next_rows=handed,
                    )
                    assert np.array_equal(models, self.serial(theta, features, targets, own)), i
        finally:
            sys.setswitchinterval(interval)

    def test_a_gather_error_is_raised_unchanged(self, case, monkeypatch):
        features, targets, rows, theta = case
        error, real = RuntimeError("gather failed"), localsgd._gather

        def gather(*args):
            if threading.current_thread() is not threading.main_thread():
                raise error
            real(*args)

        monkeypatch.setattr(localsgd, "_gather", gather)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as raised:
            with KernelBlocks(1, self.SHAPE, features) as blocks:
                for i in range(2):
                    local_pass(
                        theta, features, targets, self.ETAS, rows[i], 0.5, blocks=blocks,
                        next_rows=rows[i + 1],
                    )
        assert raised.value is error
        assert threading.active_count() == before


class TestThreads:
    def test_worker_ends_with_a_run_that_raises(self, cpu_pool, gathers, monkeypatch):
        # round 67 raises from the second chunk of rounds, after the worker
        # started
        calls, real = [], trainer_mod.run_round

        def failing(*args):
            calls.append(None)
            if len(calls) == 67:
                raise ValueError("injected")
            return real(*args)

        monkeypatch.setattr(trainer_mod, "run_round", failing)
        cpu_pool(2)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=r"round 67: injected$"):
            test_trainer.TestPlannedFadingRounds()._run(np.random.default_rng(4), slice(None))
        assert False in gathers  # the worker had started
        assert threading.active_count() == before

    def test_kernel_and_rounds_run_on_the_main_thread(self, cpu_pool, gathers, monkeypatch):
        calls = []

        def on_main(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(
                    (module.__name__, name, threading.current_thread() is threading.main_thread())
                )
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for module, name in (
            (trainer_mod, "local_pass"), (trainer_mod, "run_round"),
            (precoding_mod, "local_pass"),
        ):
            on_main(module, name)
        cpu_pool(2)
        test_trainer.TestPlannedFadingRounds()._run(np.random.default_rng(2), slice(None))
        shards = make_shards(np.random.default_rng(5), n_users=4, per_user=12, dim=3)
        estimate_alpha_mc(
            shards, 0.5, 20, 2, 1.0, 3, np.random.default_rng(8),
            step_fn=lambda t: 2.0 / (0.8 * (20.0 + t)),
        )
        assert {call[:2] for call in calls} == {
            ("otafl.trainer", "local_pass"), ("otafl.trainer", "run_round"),
            ("otafl.precoding", "local_pass"),
        }
        assert all(main for *_, main in calls)
        assert False in gathers  # the worker gathered

    def test_desk_run_makes_no_thread_and_imports_nothing_for_one(self):
        # the desk dataset holds less than the threshold, so the run is serial
        doc = json.loads((ROOT / "configs" / "desk.json").read_text())
        dataset = doc["dataset"]
        assert dataset["total_samples"] * (dataset["dim"] + 1) * 8 < _workers.POOL_BYTES
        script = (
            "import sys, threading\n"
            "from otafl import _workers, harness\n"
            "started = []\n"
            "_workers.Worker = lambda: started.append(1)\n"
            f"harness.simulate_trials(harness.load_config({str(ROOT / 'configs/desk.json')!r}))\n"
            "print(started, threading.active_count(),\n"
            "      [m for m in ('queue', 'concurrent.futures') if m in sys.modules])\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script], check=True, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"},
        ).stdout
        assert out.strip().splitlines()[-1] == "[] 1 []"


def _workload_configs():
    """The three benchmark workloads' configs and scheme counts."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return {
        name: (
            harness.parse_config(w.config(1)), len(w.schemes),
            (w.users * w.samples_per_user, w.dim),
        )
        for name, w in WORKLOADS.items()
    }


class TestTrialBlocks:
    # trials per run_training call at the workloads' shapes, serial and
    # prefetched; every workload trains its trials in one call either way
    BLOCKS = {
        "desk_compare": (55, 55),
        "fading_h1": (64, 64),
        "fullscale_synth": (3, 2),
    }

    @pytest.mark.parametrize("name", sorted(BLOCKS))
    def test_workloads_keep_their_trial_block_count(self, cpu_pool, name):
        config, n_schemes, shape = _workload_configs()[name]
        features = np.empty(shape)  # never written: only its shape and size count
        serial_dataset = features.nbytes < _workers.POOL_BYTES
        floors = _workers.POOL_BYTES, _workers.HANDOFF_BYTES
        sizes = []
        for workers in (1, 2):
            cpu_pool(workers, *floors)
            sizes.append(harness.trial_block(config, features, n_schemes))
        assert tuple(sizes) == self.BLOCKS[name]
        assert serial_dataset == (sizes[0] == sizes[1])
        assert [math.ceil(config.trials / size) for size in sizes] == [1, 1]
        # the block counts the spare slot that the run's kernel blocks hold
        ids_shape = (config.trainer.local_steps, min(sizes[1], config.trials), config.users)
        blocks = KernelBlocks(n_schemes, ids_shape, features)
        assert (blocks._spare is not None) == (sizes[0] != sizes[1])


class TestSmallGathersStaySerial:
    """On a dataset above the byte floor, a call shape whose gather moves
    less than _workers.HANDOFF_BYTES per round starts no worker."""

    # (S, H, T, N, d) of the workloads' training calls, and whether they
    # hand the next round's gather to a worker
    SHAPES = {
        "fading_h1": ((1, 1, 7, 20, 20), False),  # 23 KiB per call
        "desk_compare": ((3, 10, 5, 20, 20), False),  # 164 KiB
        "fullscale_synth": ((1, 40, 1, 50, 90), True),  # 1.39 MiB
    }

    @pytest.mark.parametrize("name", sorted(SHAPES))
    def test_only_large_gathers_go_to_the_worker(self, cpu_pool, gathers, monkeypatch, name):
        (s, h, t, n, d), offloads = self.SHAPES[name]
        cpu_pool(2, _workers.POOL_BYTES, _workers.HANDOFF_BYTES)
        started, real = [], _workers.Worker

        def worker():
            started.append(1)
            return real()

        monkeypatch.setattr(_workers, "Worker", worker)
        rows = _workers.POOL_BYTES // (8 * d) + 1  # features of at least the floor
        features, targets = np.zeros((rows, d)), np.zeros(rows)
        ids = np.random.default_rng(3).integers(rows, size=(3, h, t, n))
        theta = np.zeros((s, t, 1, d))
        with KernelBlocks(s, (h, t, n), features) as blocks:
            for i in range(2):
                local_pass(
                    theta, features, targets, [0.1] * h, ids[i], 0.5, blocks=blocks,
                    next_rows=ids[i + 1],
                )
        assert started == [1] * offloads
        # the worker gathers the second call's rows and the third's, which no call takes
        assert gathers == ([True, False, False] if offloads else [True, True])
