"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from otafl.data import Dataset, PartitionSpec, generate_synthetic, partition
from otafl.types import ShardBlock


def make_shards(
    rng: np.random.Generator,
    n_users: int = 4,
    per_user: int = 30,
    dim: int = 5,
    noise_std: float = 0.5,
) -> ShardBlock:
    dataset = generate_synthetic(dim, n_users * per_user, noise_std, rng)
    return dataset.shards(partition(dataset, PartitionSpec("iid", n_users), rng)).gather()


def flat_rows(shards: ShardBlock) -> tuple[Dataset, np.ndarray]:
    """A shard block as one dataset and the (1, N, D_n) row ids of one
    trial's shards in it: user n's sample i is row n*D_n + i."""
    n_users, shard_size, dim = shards.features.shape
    dataset = Dataset(shards.features.reshape(-1, dim), shards.targets.reshape(-1))
    return dataset, np.arange(n_users * shard_size).reshape(1, n_users, shard_size)


def one_shard(features, targets) -> ShardBlock:
    """One user's (D_n, d) features and (D_n,) targets as a block of one shard."""
    return ShardBlock(np.asarray(features)[None], np.asarray(targets)[None])


def single_shard(rng: np.random.Generator, n_samples: int = 40, dim: int = 4) -> ShardBlock:
    dataset = generate_synthetic(dim, n_samples, 0.3, rng)
    return one_shard(dataset.features, dataset.targets)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
