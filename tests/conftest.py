"""Shared fixtures and helpers for the test suite, and the test oracles:
the per-sample ridge loss and gradient, the exact global gradient and the
weighted-average model, which the simulator itself never needs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from otafl.data import (
    Dataset,
    PartitionSpec,
    ShardRows,
    check_row_ids,
    generate_synthetic,
    partition,
)
from otafl import _workers
from otafl.localsgd import KernelBlocks, check_steps, local_pass
from otafl.types import as_model_vector

# The arrays of a run's KernelBlocks that local_pass writes.
KERNEL_BLOCKS = ("ids", "gathered", "gathered_targets", "models", "residual", "step")


def block_recorder(calls: list):
    """A stand-in for a caller's local_pass that appends the data address and
    shape of each block it is given to calls, one dict per call. It checks
    that the models it starts from share no memory with the blocks, and that
    the call leaves the gathered samples and targets equal to the rows it
    gathered."""

    def record(theta, features, targets, etas, rows, lam, *, blocks, next_rows=None):
        arrays = {name: getattr(blocks, name) for name in KERNEL_BLOCKS}
        assert not any(np.may_share_memory(theta, array) for array in arrays.values())
        calls.append(
            {name: (array.__array_interface__["data"][0], array.shape) for name, array in arrays.items()}
        )
        models = local_pass(
            theta, features, targets, etas, rows, lam, blocks=blocks, next_rows=next_rows
        )
        np.testing.assert_array_equal(blocks.gathered, features[blocks.ids])
        np.testing.assert_array_equal(blocks.gathered_targets, targets[blocks.ids])
        return models

    return record


def checked_pass(theta, features, targets, etas, rows, lam):
    """local_pass with the checks a run makes once, on fresh blocks, for the
    layouts the tests start from. rows holds (N, H) sample row ids, user n
    taking sample rows[n, j] at step j, or a (T, N, H) block of them, one
    (N, H) slab per trial. theta broadcasts against the (..., N, d) samples
    of a step: (d,), (N, d) or (T, 1 or N, d), or with a leading axis of S
    models sharing each row block, (S, 1 or N, d) or (S, T, 1 or N, d).
    Returns the models in that broadcast shape."""
    theta, rows = np.asarray(theta), np.asarray(rows)
    check_steps(etas, lam)
    check_row_ids(rows, len(features))
    assert rows.ndim in (2, 3) and rows.shape[-1] == len(etas), rows.shape
    ids = np.moveaxis(rows, -1, 0).reshape(len(etas), -1, rows.shape[-2])  # (H, T, N)
    models = ()  # or (S,), a leading axis of S models
    if theta.ndim > rows.ndim:  # as the kernel's (S, T, 1 or N, d) start models
        models = theta.shape[:1]
        theta = theta.reshape(*models, *(1,) * (4 - theta.ndim), *theta.shape[1:])
    blocks = KernelBlocks(models[0] if models else 1, ids.shape, features)
    out = local_pass(theta, features, targets, etas, ids, lam, blocks=blocks)
    return out.reshape(*models, *rows.shape[:-1], features.shape[1])


def allocating_pass(theta, features, targets, etas, rows, lam, *, blocks, next_rows=None):
    """A stand-in for a caller's local_pass that ignores its blocks and the
    next call's rows: the checked call on fresh blocks, on the (T, N, H)
    form of the step-major rows."""
    return checked_pass(theta, features, targets, etas, np.moveaxis(rows, 0, -1), lam)


def make_shards(
    rng: np.random.Generator,
    n_users: int = 4,
    per_user: int = 30,
    dim: int = 5,
    noise_std: float = 0.5,
) -> ShardRows:
    dataset = generate_synthetic(dim, n_users * per_user, noise_std, rng)
    return dataset.shards(partition(dataset, PartitionSpec("iid", n_users), rng))


def block_shards(features, targets) -> ShardRows:
    """(N, D_n, d) features and (N, D_n) targets as shards: the samples as one
    dataset, user n's sample i at row n*D_n + i."""
    features, targets = np.asarray(features), np.asarray(targets)
    n_users, shard_size, dim = features.shape
    dataset = Dataset(features.reshape(-1, dim), targets.reshape(-1))
    return dataset.shards(np.arange(n_users * shard_size).reshape(n_users, shard_size))


def one_shard(features, targets) -> ShardRows:
    """One user's (D_n, d) features and (D_n,) targets as one shard."""
    return block_shards(np.asarray(features)[None], np.asarray(targets)[None])


def single_shard(rng: np.random.Generator, n_samples: int = 40, dim: int = 4) -> ShardRows:
    dataset = generate_synthetic(dim, n_samples, 0.3, rng)
    return one_shard(dataset.features, dataset.targets)


def accumulated_optimum(shards: ShardRows, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """theta* and the Hessian as a running sum of the shard Grams and a mean
    of the shard moments, a loop independent of objectives.shard_grams."""
    n_users, shard_size, dim = shards.shape
    gram = np.zeros((dim, dim))
    for features, _ in shards:
        gram += features.T @ features / shard_size
    gram /= n_users
    hess = gram + lam * np.eye(dim)
    rhs = np.mean([x.T @ y / len(y) for x, y in shards], axis=0)
    return np.linalg.solve(hess, rhs), hess


@dataclass(frozen=True)
class RegressionSample:
    """One (features, target) pair."""

    features: np.ndarray
    target: float

    def __post_init__(self):
        object.__setattr__(self, "features", as_model_vector(self.features))
        object.__setattr__(self, "target", float(self.target))


def _sample_residual(theta, sample: RegressionSample, lam: float):
    if lam < 0:
        raise ValueError("regularization weight must be non-negative")
    theta = as_model_vector(theta, dim=sample.features.shape[0])
    return theta, sample.features @ theta - sample.target


def ridge_loss(theta, sample: RegressionSample, lam: float) -> float:
    """Per-sample loss 0.5*(s_s.theta - s_y)^2 + (lam/2)*||theta||^2."""
    theta, residual = _sample_residual(theta, sample, lam)
    return float(0.5 * residual * residual + 0.5 * lam * (theta @ theta))


def ridge_grad(theta, sample: RegressionSample, lam: float) -> np.ndarray:
    """Gradient of ridge_loss: (s_s.theta - s_y)*s_s + lam*theta."""
    theta, residual = _sample_residual(theta, sample, lam)
    return residual * sample.features + lam * theta


def global_grad(theta, shards: ShardRows, lam: float) -> np.ndarray:
    """Exact gradient of objectives.global_loss, shard by shard."""
    theta = as_model_vector(theta, dim=shards.shape[-1])
    grads = []
    for x, y in shards:
        residuals = x @ theta - y
        grads.append(x.T @ residuals / len(y) + lam * theta)
    return np.mean(grads, axis=0)


def weighted_average_model(thetas: np.ndarray, a: float, local_steps: int) -> np.ndarray:
    """Weighted average of an (R, d) block of per-round global models, row i
    being round r = i+1, with weights (a + r*H)^2: the model that the
    weighted-average bound covers."""
    if len(thetas) == 0:
        raise ValueError("thetas must be non-empty")
    weights = (a + local_steps * np.arange(1, len(thetas) + 1)) ** 2
    return (weights[:, None] * thetas).sum(axis=0) / weights.sum()


@pytest.fixture
def cpu_pool(monkeypatch):
    """Pins the CPU count and the two byte floors of the rule that the shard
    passes of objectives, the kernel's gather worker and data's block draw
    ask (_workers.offloads), whatever the machine's CPUs: after
    cpu_pool(workers), every pass that gathers at least threshold bytes
    (default 0, every pass) and at least handoff bytes per worker's share
    of the shards (default 0) runs on min(workers, N) workers, and with workers > 1 every run on
    features of at least threshold bytes whose calls gather at least
    handoff bytes gathers each round's samples on a worker while the round
    before steps, and every such draw scans its blocks on a worker.
    cpu_pool(1) runs everything on the calling thread."""

    def pin(workers: int, threshold: int = 0, handoff: int = 0) -> None:
        monkeypatch.setattr(_workers, "cpu_count", lambda: workers)
        monkeypatch.setattr(_workers, "POOL_BYTES", threshold)
        monkeypatch.setattr(_workers, "HANDOFF_BYTES", handoff)

    return pin


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
