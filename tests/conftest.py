"""Shared fixtures and helpers for the test suite, and the test oracles:
the per-sample ridge loss and gradient, the exact global gradient and the
weighted-average model, which the simulator itself never needs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from otafl.data import Dataset, PartitionSpec, ShardRows, generate_synthetic, partition
from otafl.types import as_model_vector


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
def rng():
    return np.random.default_rng(1234)
