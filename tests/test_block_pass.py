"""The block pass of otafl.data: generate_synthetic draws its features block
by block while a worker checks each drawn block, writes its targets and adds
its Gram into X^T X. The features and targets are those of one draw, the
bits do not depend on the worker or the BLAS thread count, a failed check
is raised unchanged, and the worker ends with the draw. A Dataset built from
arrays checks and sums them by the same blocks."""

import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from otafl import _workers, data, harness, objectives
from otafl.data import NON_FINITE, Dataset, generate_synthetic
from otafl.objectives import ProbeBall, estimate_constants
from otafl.precoding import alpha_upper_bound_schedule
from otafl.rng import stream_generator

from test_harness import tiny_config

# With blocks of this many bytes, a desk-size dataset spans several blocks.
BLOCK_BYTES = 64 << 10
DIM, SAMPLES = 20, 10000  # configs/desk.json's dataset, 1.6 MB of features


def draw(seed: int = 3) -> Dataset:
    return generate_synthetic(DIM, SAMPLES, 1.0, np.random.default_rng(seed))


def sums_bytes(dataset: Dataset) -> bytes:
    return b"".join(array.tobytes() for array in dataset._sums)


@pytest.fixture
def small_blocks(monkeypatch):
    """Blocks of BLOCK_BYTES, so that a desk-size dataset spans several."""
    monkeypatch.setattr(data, "_BLOCK_BYTES", BLOCK_BYTES)


@pytest.fixture
def scans(monkeypatch):
    """Records the thread of every block scan: True for the main thread."""
    threads, real = [], data._scan_block

    def record(*args):
        threads.append(threading.current_thread() is threading.main_thread())
        real(*args)

    monkeypatch.setattr(data, "_scan_block", record)
    return threads


def test_desk_data_spans_several_blocks_of_whole_row_groups(monkeypatch):
    block_bytes = data._BLOCK_BYTES
    assert block_bytes == 8 << 20  # fullscale_synth's X^T X sums blocks of this size
    monkeypatch.setattr(data, "_BLOCK_BYTES", BLOCK_BYTES)
    blocks = data._row_blocks(SAMPLES, DIM)
    size = BLOCK_BYTES // (8 * DIM) // data._ROW_GROUP * data._ROW_GROUP
    assert [b.start for b in blocks] == list(range(0, SAMPLES, size))
    assert blocks[-1].stop == SAMPLES and len(blocks) == math.ceil(SAMPLES / size) > 3
    monkeypatch.setattr(data, "_BLOCK_BYTES", 0)  # still whole row groups
    assert data._row_blocks(100, DIM)[0] == slice(0, data._ROW_GROUP)
    monkeypatch.setattr(data, "_BLOCK_BYTES", block_bytes)
    # the threading rule's floors do not move the blocks
    monkeypatch.setattr(_workers, "POOL_BYTES", BLOCK_BYTES)
    assert data._row_blocks(SAMPLES, DIM) == [slice(0, SAMPLES)]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("dim", [DIM, 90])  # 90: fullscale_synth's, whose GEMV groups rows
def test_block_draw_is_one_draw(cpu_pool, small_blocks, scans, workers, dim):
    cpu_pool(workers)
    dataset = generate_synthetic(dim, SAMPLES, 1.0, np.random.default_rng(3))
    rng = np.random.default_rng(3)
    theta_true = rng.standard_normal(dim)
    features = rng.standard_normal((SAMPLES, dim))
    targets = features @ theta_true + 1.0 * rng.standard_normal(SAMPLES)
    assert dataset.features.tobytes() == features.tobytes()
    assert dataset.targets.tobytes() == targets.tobytes()
    # X^T X is the ordered sum of the block Grams, X^T y one product
    blocks = data._row_blocks(SAMPLES, dim)
    gram = features[blocks[0]].T @ features[blocks[0]]
    for rows in blocks[1:]:
        gram += features[rows].T @ features[rows]
    assert dataset._sums[0].tobytes() == gram.tobytes()
    assert dataset._sums[1].tobytes() == (features.T @ targets).tobytes()
    assert scans == [workers == 1] * len(blocks)


def test_threaded_draw_has_the_serial_bits(cpu_pool, small_blocks):
    cpu_pool(1)
    serial = draw()
    cpu_pool(2)
    threaded = draw()
    assert threaded.features.tobytes() == serial.features.tobytes()
    assert threaded.targets.tobytes() == serial.targets.tobytes()
    assert sums_bytes(threaded) == sums_bytes(serial)
    # a dataset of the same arrays sums them by the same blocks
    assert sums_bytes(Dataset(threaded.features, threaded.targets)) == sums_bytes(serial)


_THREADS_SCRIPT = f"""
import sys
import numpy as np
from otafl import _workers, data
from otafl.data import Dataset, generate_synthetic
data._BLOCK_BYTES = {BLOCK_BYTES}
_workers.POOL_BYTES = _workers.HANDOFF_BYTES = 0
_workers.cpu_count = lambda: 2
dataset = generate_synthetic(90, 3000, 1.0, np.random.default_rng(5))
copied = Dataset(dataset.features, dataset.targets)
for array in (dataset.targets, *dataset._sums, *copied._sums):
    sys.stdout.buffer.write(array.tobytes())
"""


def test_sums_do_not_depend_on_the_blas_thread_count():
    src = str(Path(data.__file__).parents[1])
    results = [
        subprocess.run(
            [sys.executable, "-c", _THREADS_SCRIPT], check=True, capture_output=True,
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads},
        ).stdout
        for threads in ("1", "2")
    ]
    assert len(results[0]) == 8 * (3000 + 2 * (90 * 90 + 90))
    assert results[0] == results[1]


class SpoiledGenerator:
    """A generator whose fill of one block of features gets a bad value."""

    def __init__(self, seed: int, block: int, bad: float):
        self._rng, self._fills, self._block, self._bad = np.random.default_rng(seed), 0, block, bad

    def standard_normal(self, size=None, out=None):
        values = self._rng.standard_normal(size, out=out)
        if out is not None and out.ndim == 2:
            if self._fills == self._block:
                out[len(out) // 2, 1] = self._bad
            self._fills += 1
        return values


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_a_bad_value_in_a_middle_block_raises_and_the_worker_ends(
    cpu_pool, small_blocks, scans, workers, bad
):
    cpu_pool(workers)
    middle = len(data._row_blocks(SAMPLES, DIM)) // 2
    before = threading.active_count()
    with pytest.raises(ValueError) as raised:
        generate_synthetic(DIM, SAMPLES, 1.0, SpoiledGenerator(3, middle, bad))
    assert str(raised.value) == NON_FINITE == "dataset contains non-finite values"
    assert threading.active_count() == before
    assert False in scans if workers == 2 else all(scans)


def test_a_worker_error_is_raised_unchanged(cpu_pool, small_blocks, monkeypatch):
    error, real = RuntimeError("scan failed"), data._scan_block

    def scan(features, rows, *args):
        if rows.start > 0:
            raise error
        real(features, rows, *args)

    monkeypatch.setattr(data, "_scan_block", scan)
    cpu_pool(2)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as raised:
        draw()
    assert raised.value is error
    assert threading.active_count() == before


def test_desk_draw_starts_no_thread(cpu_pool, monkeypatch):
    # one block below the threshold: scanned on the calling thread
    started = []
    monkeypatch.setattr(_workers, "Worker", lambda: started.append(1))
    cpu_pool(2, _workers.POOL_BYTES, _workers.HANDOFF_BYTES)
    assert 8 * DIM * SAMPLES < _workers.POOL_BYTES
    before = threading.active_count()
    draw()
    assert started == [] and threading.active_count() == before


@pytest.mark.parametrize("row", [0, 4999, 9999])
def test_dataset_checks_its_arrays_block_by_block(small_blocks, row):
    # a bad value in the first, a middle or the last block is found, and the
    # check holds one block's temporaries, never a (D, d) one
    features = np.random.default_rng(4).standard_normal((SAMPLES, DIM))
    targets = np.zeros(SAMPLES)
    tracemalloc.start()
    try:
        Dataset(features, targets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < features.nbytes / 16  # a (D, d) boolean mask is nbytes / 8
    features[row, 3] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        Dataset(features, targets)


def test_analytic_alpha_takes_theta_star_from_the_sums_and_forms_no_gram(monkeypatch):
    # the partition's theta* is the dataset's sums less the dropped rows and
    # G2 that of estimate_constants on the partition, from a pass with no Gram
    config = tiny_config(
        alpha={"source": "analytic_bound"},
        dataset={"kind": "synthetic", "dim": 5, "total_samples": 123, "noise_std": 1.0},
    )
    dataset = harness.build_dataset(config)
    lam, trainer = config.trainer.ridge_lambda, config.trainer

    def no_gram(*args):
        raise AssertionError("the analytic alpha formed a Gram")

    monkeypatch.setattr(objectives, "_gram_moment", no_gram)
    resolved = harness.resolve(config)
    monkeypatch.undo()

    rows = data.partition(
        dataset, config.partition, config.users, stream_generator(config.seed, "alpha/partition")
    )
    assert dataset.dropped_rows(rows).size == 3
    theta_star, _ = dataset.kept_optimum(dataset.dropped_rows(rows), lam)
    delta0 = trainer.theta0_std**2 * dataset.feature_dim + float(theta_star @ theta_star)
    constants = estimate_constants(
        dataset.shards(rows), lam, ProbeBall(theta_star, 2.0 * math.sqrt(delta0)),
        stream_generator(config.seed, "alpha/probe"), H=trainer.local_steps, P=harness.POWER,
        sigma_w2=resolved.trainer.sigma_w2,
    )
    expected = alpha_upper_bound_schedule(
        trainer.local_steps, resolved.trainer.step.eta, constants.G2, harness.POWER,
        trainer.rounds,
    )
    assert resolved.alpha_schedule.values.tobytes() == expected.values.tobytes()
