"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from otafl.data import Dataset, PartitionSpec, ShardRows, generate_synthetic, partition


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


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
