"""The shard passes of objectives on several workers: the bits of the serial
pass whatever the worker count, a worker's exception raised from the pass,
and one shard per worker in memory."""

import os
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from otafl import _workers, harness, objectives
from otafl.objectives import ProbeBall, estimate_constants, estimate_g2, shard_grams

from conftest import block_shards, make_shards
from test_harness import _same_bound_inputs, tiny_config

USERS = (1, 5, 20, 50)  # 5 is no multiple of 2 or 3 workers
WORKERS = (2, 3)


def probe_ball(shards):
    return ProbeBall(center=np.full(shards.shape[-1], 0.2), radius=1.5)


def constants(shards):
    return estimate_constants(
        shards, 0.05, probe_ball(shards), np.random.default_rng(9), H=3, P=1.0, sigma_w2=0.2
    )


def g2(shards):
    """The analytic alpha's Gram-free G2 on constants' arguments."""
    return estimate_g2(shards, 0.05, probe_ball(shards), np.random.default_rng(9))


def same_constants(a, b) -> bool:
    """Every field equal, Mn2 by bytes."""
    fields_a, fields_b = asdict(a), asdict(b)
    return fields_a.pop("Mn2").tobytes() == fields_b.pop("Mn2").tobytes() and fields_a == fields_b


def pooled_and_serial(cpu_pool, workers, run):
    cpu_pool(1)
    serial = run()
    cpu_pool(workers)
    return run(), serial


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("users", USERS)
class TestBitsDoNotDependOnTheWorkers:
    def shards(self, users):
        return make_shards(np.random.default_rng(users), n_users=users, per_user=37, dim=6)

    def test_shard_grams(self, cpu_pool, users, workers):
        shards = self.shards(users)
        pooled, serial = pooled_and_serial(cpu_pool, workers, lambda: shard_grams(shards))
        assert [a.tobytes() for a in pooled] == [a.tobytes() for a in serial]

    def test_constants(self, cpu_pool, users, workers):
        shards = self.shards(users)
        pooled, serial = pooled_and_serial(cpu_pool, workers, lambda: constants(shards))
        assert same_constants(pooled, serial)
        pooled_g2, serial_g2 = pooled_and_serial(cpu_pool, workers, lambda: g2(shards))
        assert pooled_g2 == serial_g2 == serial.G2

    def test_bound_inputs(self, cpu_pool, users, workers):
        config = tiny_config(users=users)
        pooled, serial = pooled_and_serial(
            cpu_pool, workers, lambda: harness.estimate_bound_inputs(config)
        )
        assert _same_bound_inputs(pooled, serial)
        assert pooled.constants.Mn2.tobytes() == serial.constants.Mn2.tobytes()

    def test_analytic_alpha(self, cpu_pool, users, workers):
        config = tiny_config(users=users, alpha={"source": "analytic_bound"})
        pooled, serial = pooled_and_serial(
            cpu_pool, workers, lambda: harness.resolve(config).alpha_schedule.values
        )
        assert pooled.tobytes() == serial.tobytes()


_THREADS_SCRIPT = """
import sys
import numpy as np
from otafl import _workers, objectives
from otafl.data import Dataset
rng = np.random.default_rng(5)
users, size, dim = 5, 2000, 90
dataset = Dataset(rng.standard_normal((users * size, dim)), rng.standard_normal(users * size))
shards = dataset.shards(rng.permutation(users * size).reshape(users, size))
ball = objectives.ProbeBall(center=np.full(dim, 0.1), radius=2.0)
def run():
    c = objectives.estimate_constants(
        shards, 0.01, ball, np.random.default_rng(1), H=4, P=1.0, sigma_w2=0.1
    )
    grams = objectives.shard_grams(shards)
    g2 = objectives.estimate_g2(shards, 0.01, ball, np.random.default_rng(1))
    assert g2 == c.G2
    return b"".join(np.asarray(v).tobytes() for v in (*grams, c.L, c.mu, c.G2, c.Gamma, c.Mn2))
_workers.cpu_count = lambda: 1
serial = run()
_workers.POOL_BYTES = 0
for workers in (2, 3):
    _workers.cpu_count = lambda: workers
    assert run() == serial, workers
print("same")
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_pooled_is_serial_under_each_blas_thread_count(threads):
    # within one process only: G2 itself moves in its last bits between
    # OpenBLAS thread counts
    src = str(Path(objectives.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-c", _THREADS_SCRIPT], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["same"]


def test_small_passes_start_no_thread():
    # a desk-scale pass stays on the calling thread and imports no queue or pool
    src = str(Path(objectives.__file__).parents[1])
    script = (
        "import sys, threading\n"
        "from otafl import harness\n"
        "config = harness.parse_config({'seed': 3, 'trials': 1, 'users': 20,\n"
        "    'dataset': {'kind': 'synthetic', 'dim': 20, 'total_samples': 10000},\n"
        "    'trainer': {'scheme': 'cotaf', 'local_steps': 2, 'rounds': 2},\n"
        "    'channel': {'kind': 'awgn_mac', 'snr_db': 0.0},\n"
        "    'alpha': {'source': 'analytic_bound'}})\n"
        "harness.resolve(config)\n"
        "harness.estimate_bound_inputs(config)\n"
        "print('concurrent.futures' in sys.modules, 'queue' in sys.modules,\n"
        "      threading.active_count())\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "False", "1"]


def threads_per_pass(monkeypatch, shards, expected) -> int:
    """The number of threads a shard_grams pass runs its tasks on. Each
    thread's first task waits until expected threads have started one, so
    that no thread can run two workers' shards in turn."""
    seen = set()
    started = threading.Barrier(expected, timeout=30)
    real = objectives._shard_pass

    def watched(shards, task, *scratch):
        def noted(n, *args):
            if threading.get_ident() not in seen:
                seen.add(threading.get_ident())
                started.wait()
            return task(n, *args)

        return real(shards, noted, *scratch)

    monkeypatch.setattr(objectives, "_shard_pass", watched)
    shard_grams(shards)
    return len(seen)


@pytest.mark.parametrize("users, workers, expected", [(1, 3, 1), (2, 3, 2), (5, 3, 3), (5, 1, 1)])
def test_workers_are_capped_at_the_shard_count(monkeypatch, cpu_pool, users, workers, expected):
    cpu_pool(workers)
    shards = make_shards(np.random.default_rng(2), n_users=users, per_user=10, dim=3)
    assert threads_per_pass(monkeypatch, shards, expected) == expected


def test_passes_below_the_threshold_stay_serial(monkeypatch, cpu_pool):
    shards = make_shards(np.random.default_rng(2), n_users=5, per_user=10, dim=3)
    gathered = 5 * 10 * (3 + 1) * 8  # bytes of features and targets
    cpu_pool(2, threshold=gathered + 1)
    assert threads_per_pass(monkeypatch, shards, 1) == 1
    cpu_pool(2, threshold=gathered)
    assert threads_per_pass(monkeypatch, shards, 2) == 2
    # and below the per-handoff floor: each worker's share of the shards
    cpu_pool(2, threshold=gathered, handoff=gathered // 2 + 1)
    assert threads_per_pass(monkeypatch, shards, 1) == 1
    cpu_pool(2, threshold=gathered, handoff=gathered // 2)
    assert threads_per_pass(monkeypatch, shards, 2) == 2


def test_small_shards_of_a_large_dataset_offload(monkeypatch, cpu_pool):
    # 100 shards of 300 rows, d = 90: 218 KB a shard, 21.8 MB a pass
    cpu_pool(2, _workers.POOL_BYTES, _workers.HANDOFF_BYTES)
    shards = make_shards(np.random.default_rng(2), n_users=100, per_user=300, dim=90)
    assert 300 * 91 * 8 < _workers.HANDOFF_BYTES
    assert threads_per_pass(monkeypatch, shards, 2) == 2


def test_workers_that_started_are_closed_when_one_fails_to(monkeypatch, cpu_pool):
    cpu_pool(3)
    shards = make_shards(np.random.default_rng(2), n_users=5, per_user=10, dim=3)
    started, real = [], _workers.Worker

    def worker():
        if started:
            raise RuntimeError("can't start new thread")
        started.append(real())
        return started[-1]

    monkeypatch.setattr(_workers, "Worker", worker)
    with pytest.raises(RuntimeError, match="new thread"):
        shard_grams(shards)
    assert len(started) == 1 and not started[0]._thread.is_alive()


def test_worker_count_falls_back_to_cpu_count(monkeypatch):
    assert _workers.cpu_count() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity")
    assert _workers.cpu_count() == (os.cpu_count() or 1)


class ShardFailure(Exception):
    pass


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("failing", [0, 3, 4])  # shard 0 is the calling thread's
def test_a_task_error_is_raised_once_every_worker_ends(monkeypatch, cpu_pool, workers, failing):
    cpu_pool(workers)
    shards = make_shards(np.random.default_rng(4), n_users=5, per_user=12, dim=4)
    error = ShardFailure(f"shard {failing}")
    real = objectives._shard_pass

    def faulty_pass(shards, task, *scratch):
        def faulty(n, *args):
            if n == failing:
                raise error
            return task(n, *args)

        return real(shards, faulty, *scratch)

    monkeypatch.setattr(objectives, "_shard_pass", faulty_pass)
    before = threading.active_count()
    with pytest.raises(ShardFailure) as raised:
        constants(shards)
    assert raised.value is error
    assert threading.active_count() == before


# Beyond the workers' shards and workspaces and the (N, d, d) Grams, a pass
# allocates the probes, (N, d), (N, p) and (p,)-sized arrays, a 64 KiB ufunc
# buffer per worker for the broadcast residual subtraction, and on the first
# pooled pass in a process the import of queue: under this. A shard-sized
# copy per worker (672 KB here) breaks it.
SLACK_BYTES = 512 << 10


@pytest.mark.parametrize("workers", WORKERS)
def test_workers_hold_one_shard_each(cpu_pool, workers):
    cpu_pool(workers)
    users, size, dim, probes = 20, 4000, 20, 33
    rng = np.random.default_rng(6)
    shards = block_shards(rng.standard_normal((users, size, dim)), rng.standard_normal((users, size)))
    ball = ProbeBall(center=np.zeros(dim), radius=1.0, count=probes - 1)
    shard = size * (dim + 1) * 8
    workspace = size * (2 * probes + 1) * 8  # projections, residuals, feature norms
    outputs = users * dim * dim * 8
    # an (N, D_n, p) block alone would be users * size * probes * 8 = 21 MB
    for bound, run in (
        (workers * shard + outputs, lambda: shard_grams(shards)),
        (
            workers * (shard + workspace),
            lambda: estimate_g2(shards, 0.1, ball, np.random.default_rng(1)),
        ),
        (
            workers * (shard + workspace) + outputs,
            lambda: estimate_constants(
                shards, 0.1, ball, np.random.default_rng(1), H=2, P=1.0, sigma_w2=0.1
            ),
        ),
    ):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound + SLACK_BYTES, (peak, bound)
