"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from otafl.data import Dataset, PartitionSpec, generate_synthetic, partition
from otafl.types import ShardBlock, UserShard


def make_shards(
    rng: np.random.Generator,
    n_users: int = 4,
    per_user: int = 30,
    dim: int = 5,
    noise_std: float = 0.5,
) -> list[UserShard]:
    dataset = generate_synthetic(dim, n_users * per_user, noise_std, rng)
    return partition(dataset, PartitionSpec("iid", n_users), rng)


def flat_rows(shards) -> tuple[Dataset, np.ndarray]:
    """Equal-size shards as one dataset and the (1, N, D_n) row ids of one
    trial's shards in it: user n's sample i is row n*D_n + i."""
    block = ShardBlock.of(shards)
    n_users, shard_size, dim = block.features.shape
    dataset = Dataset(block.features.reshape(-1, dim), block.targets.reshape(-1))
    return dataset, np.arange(n_users * shard_size).reshape(1, n_users, shard_size)


def single_shard(rng: np.random.Generator, n_samples: int = 40, dim: int = 4) -> UserShard:
    dataset = generate_synthetic(dim, n_samples, 0.3, rng)
    return UserShard(user_id=1, features=dataset.features, targets=dataset.targets)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
