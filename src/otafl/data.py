"""Synthetic dataset generation, CSV ingestion, and partitioning into user shards.

CSV layout: comma-separated, UTF-8, decimal point '.', one sample per row with
the target in column 0 and features after (pass header=True to skip one line).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from .objectives import grams_optimum

logger = logging.getLogger(__name__)

PARTITION_MODES = ("iid", "heterogeneous")


@dataclass(frozen=True)
class Dataset:
    """Immutable regression dataset: all samples share one feature dimension.

    Its arrays are read-only views, checked finite once, here.
    """

    features: np.ndarray  # (D, d_f)
    targets: np.ndarray  # (D,)
    _optima: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        features = np.ascontiguousarray(self.features, dtype=np.float64)
        targets = np.ascontiguousarray(self.targets, dtype=np.float64)
        if features.ndim != 2 or features.shape[0] == 0:
            raise ValueError(f"features must be a non-empty 2-D array, got {features.shape}")
        if targets.ndim != 1 or targets.shape[0] != features.shape[0]:
            raise ValueError("targets must be 1-D and match the feature rows")
        if not (np.all(np.isfinite(features)) and np.all(np.isfinite(targets))):
            raise ValueError("dataset contains non-finite values")
        # read-only: every resolve of a config may share one instance
        # (harness.build_dataset), and the shards read from it need no scan
        for name, array in (("features", features), ("targets", targets)):
            view = array.view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    def __reduce__(self):
        # a copy or unpickled instance goes through the checks and is read-only too
        return (type(self), (self.features, self.targets))

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def shards(self, rows: np.ndarray) -> ShardRows:
        """The N equal-size shards with these (N, D_n) row ids, as a view that
        gathers one shard per iteration step."""
        return ShardRows(self, rows)

    def whole_optimum(self, lam: float) -> tuple[np.ndarray, np.ndarray]:
        """theta* and the Hessian of the global objective with the whole dataset
        as one user's shard, with the bits of grams_optimum on its shard_grams:
        formed in one pass over the arrays, uncopied, on the first call for
        each lam and kept, read-only, with the dataset."""
        if lam not in self._optima:
            x, y, size = self.features, self.targets, len(self)
            optimum = grams_optimum((x.T @ x / size)[None], (x.T @ y / size)[None], lam)
            for array in optimum:
                array.flags.writeable = False
            self._optima[lam] = optimum
        return self._optima[lam]


@dataclass(frozen=True, eq=False)
class ShardRows:
    """N equal-size user shards held as (N, D_n) row ids into a dataset, the
    one shard form training, the alpha pilot and the objectives read.

    Iterating gathers user n + 1's (D_n, d) features and (D_n,) targets at
    step n, so a pass over the shards holds one shard's copy at a time and
    never the (N, D_n, d) block. A caller that holds sample arrays builds
    Dataset(features, targets).shards(rows), which checks them.
    """

    dataset: Dataset
    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows)
        if rows.ndim != 2:
            raise ValueError(
                f"need (N, D_n, d) features from (N, D_n) row ids, got row ids of shape "
                f"{rows.shape}"
            )
        if rows.shape[0] == 0:
            raise ValueError("need at least one user shard")
        if rows.shape[1] == 0:
            raise ValueError("shard must be non-empty")
        if rows.dtype.kind not in "iu" or rows.min() < 0 or rows.max() >= len(self.dataset):
            raise ValueError(f"row ids must be integers in [0, {len(self.dataset)})")
        object.__setattr__(self, "rows", rows)

    @property
    def shape(self) -> tuple[int, int, int]:
        return (*self.rows.shape, self.dataset.feature_dim)

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        for ids in self.rows:
            yield self.dataset.features[ids], self.dataset.targets[ids]


@dataclass(frozen=True)
class PartitionSpec:
    """How to split a dataset between users.

    iid mode deals samples at random; heterogeneous mode gives each user
    skew_fraction of its shard from a user-specific contiguous target-quantile
    bin and the rest i.i.d. from the remainder, inducing per-user
    distribution shift.
    """

    mode: str
    n_users: int
    skew_fraction: float = 0.2

    def __post_init__(self):
        if self.mode not in PARTITION_MODES:
            raise ValueError(f"mode must be one of {PARTITION_MODES}, got {self.mode!r}")
        if self.n_users < 1:
            raise ValueError("n_users must be >= 1")
        if not (0.0 <= self.skew_fraction < 1.0):
            raise ValueError("skew_fraction must lie in [0, 1)")


def generate_synthetic(
    dim: int, total_samples: int, noise_std: float, rng: np.random.Generator
) -> Dataset:
    """Linear-model data: standard normal features, targets s.theta_true + noise."""
    if dim < 1 or total_samples < 1:
        raise ValueError("dim and total_samples must be >= 1")
    if noise_std < 0:
        raise ValueError("noise_std must be non-negative")
    theta_true = rng.standard_normal(dim)
    features = rng.standard_normal((total_samples, dim))
    targets = features @ theta_true + noise_std * rng.standard_normal(total_samples)
    return Dataset(features, targets)


def load_csv(path, header: bool = False) -> Dataset:
    """Parse a CSV file into a Dataset; errors name the offending line."""
    path = Path(path)
    rows: list[list[float]] = []
    n_cols: int | None = None
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if header and lineno == 1:
                continue
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if n_cols is None:
                n_cols = len(parts)
                if n_cols < 2:
                    raise ValueError(f"{path}: line {lineno}: need >= 2 columns, got {n_cols}")
            elif len(parts) != n_cols:
                raise ValueError(
                    f"{path}: line {lineno}: expected {n_cols} columns, got {len(parts)}"
                )
            try:
                rows.append([float(p) for p in parts])
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: malformed numeric value") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    data = np.asarray(rows)
    return Dataset(features=data[:, 1:], targets=data[:, 0])


def save_csv(dataset: Dataset, path) -> None:
    """Write a Dataset in the load_csv layout, losslessly for 64-bit floats."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for target, row in zip(dataset.targets, dataset.features):
            fh.write(",".join(f"{v:.17g}" for v in (target, *row)))
            fh.write("\n")


def standardize(dataset: Dataset) -> Dataset:
    """Per-feature zero mean, unit variance; constant features are only centered."""
    mean = dataset.features.mean(axis=0)
    std = dataset.features.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    return Dataset((dataset.features - mean) / std, dataset.targets)


def partition(
    dataset: Dataset, spec: PartitionSpec, rng: np.random.Generator
) -> np.ndarray:
    """Split the dataset's row ids into disjoint, equal-size user shards.

    Returns an (N, D_n) block, row n holding user n+1's sample row ids;
    dataset.shards(rows) reads their samples shard by shard. Samples beyond
    the largest multiple of n_users are dropped (logged), so every user
    holds the same number of samples.
    """
    total = len(dataset)
    if spec.n_users > total:
        raise ValueError(f"cannot split {total} samples between {spec.n_users} users")
    per_user = total // spec.n_users
    kept = spec.n_users * per_user
    if kept < total:
        logger.info("partition: dropping %d remainder samples", total - kept)

    perm = rng.permutation(total)[:kept]
    if spec.mode == "iid":
        return perm.reshape(spec.n_users, per_user)
    # Sort the kept samples by target and give user n a skewed slice of
    # quantile bin n; everything else is dealt i.i.d. from the pooled rest.
    by_target = perm[np.argsort(dataset.targets[perm], kind="stable")]
    bins = by_target.reshape(spec.n_users, per_user)
    n_skewed = int(round(spec.skew_fraction * per_user))
    own: list[np.ndarray] = []
    pool_parts: list[np.ndarray] = []
    for n in range(spec.n_users):
        order = rng.permutation(per_user)
        own.append(bins[n][order[:n_skewed]])
        pool_parts.append(bins[n][order[n_skewed:]])
    pool = np.concatenate(pool_parts)
    pool = pool[rng.permutation(pool.shape[0])]
    fill = per_user - n_skewed
    return np.stack(
        [np.concatenate([own[n], pool[n * fill : (n + 1) * fill]]) for n in range(spec.n_users)]
    )
