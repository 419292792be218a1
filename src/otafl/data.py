"""Synthetic dataset generation, CSV ingestion, and partitioning into user shards.

CSV layout: comma-separated, UTF-8, decimal point '.', one sample per row with
the target in column 0 and features after (pass header=True to skip one line).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property, partial
from pathlib import Path
from typing import Iterator

import numpy as np

from . import _workers
from .objectives import grams_optimum

logger = logging.getLogger(__name__)

PARTITION_MODES = ("iid", "heterogeneous")

NON_FINITE = "dataset contains non-finite values"

# The block pass's blocks hold about this many bytes of features; X^T X sums
# their Grams in order, so the size sets its bits.
_BLOCK_BYTES = 8 << 20

# The block pass's blocks hold a multiple of this many rows. OpenBLAS's GEMV
# takes rows in groups (of 4 in its Haswell kernel), so the products
# X_k theta of such blocks have the bits of X theta.
_ROW_GROUP = 64


def _row_blocks(n_rows: int, dim: int) -> list[slice]:
    """The row slices of the block pass over (n_rows, dim) float64
    features, in order: _BLOCK_BYTES of features each (read at call time),
    rounded down to a multiple of _ROW_GROUP rows but no fewer, and the
    rest. A desk-scale dataset (1.6 MB) is one block."""
    size = max(_BLOCK_BYTES // (8 * dim) // _ROW_GROUP, 1) * _ROW_GROUP
    return [slice(start, min(start + size, n_rows)) for start in range(0, n_rows, size)]


def _scan_block(
    features, rows: slice, gram=None, theta=None, targets=None, *, check: bool = True
) -> None:
    """The block pass's work on the block features[rows]: raise unless it
    is finite (unless check is False, for features checked before); with
    theta, write its X_k theta into targets[rows]; with gram, add its
    X_k^T X_k into gram, which the block at row 0 writes, so X^T X is the
    ordered sum of the block Grams. Only numpy runs here, so
    generate_synthetic's worker may run it."""
    block = features[rows]
    if check and not np.isfinite(block).all():
        raise ValueError(NON_FINITE)
    if theta is not None:
        np.matmul(block, theta, out=targets[rows])
    if gram is None:
        return
    if rows.start == 0:
        np.matmul(block.T, block, out=gram)
    else:
        gram += block.T @ block


@dataclass(frozen=True)
class Dataset:
    """Immutable regression dataset: all samples share one feature dimension.

    Its arrays are read-only views, checked finite once, here, the features
    block by block (_scan_block), with no (D, d) temporary.
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
        for rows in _row_blocks(*features.shape):
            _scan_block(features, rows)
        self._hold(features, targets)

    def _hold(self, features: np.ndarray, targets: np.ndarray) -> None:
        """Check the targets and hold read-only views of both arrays."""
        if not np.isfinite(targets).all():
            raise ValueError(NON_FINITE)
        # read-only: every resolve of a config may share one instance
        # (harness.build_dataset), and the shards read from it need no scan
        for name, array in (("features", features), ("targets", targets)):
            view = array.view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    @classmethod
    def _drawn(cls, features: np.ndarray, targets: np.ndarray, gram: np.ndarray) -> Dataset:
        """generate_synthetic's dataset of the C-contiguous float64 arrays
        it drew: it checked the features block by block as it drew them and
        summed their Grams into gram, so only the targets are checked here
        and the sums are primed with gram."""
        dataset = cls.__new__(cls)
        object.__setattr__(dataset, "_optima", {})
        dataset._hold(features, targets)
        dataset.__dict__["_sums"] = (gram, dataset.features.T @ dataset.targets)
        return dataset

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

    @cached_property
    def _sums(self) -> tuple[np.ndarray, np.ndarray]:
        """X^T X and X^T y over every row, formed once on the arrays, uncopied:
        X^T X by the block pass, as generate_synthetic sums it, on the
        features that __post_init__ checked."""
        x = self.features
        gram = np.empty((x.shape[1], x.shape[1]))
        for rows in _row_blocks(*x.shape):
            _scan_block(x, rows, gram, check=False)
        return gram, x.T @ self.targets

    def dropped_rows(self, rows: np.ndarray) -> np.ndarray:
        """The sorted ids of the rows that a partition's (N, D_n) row ids
        leave out, fewer than N of them."""
        check_row_ids(rows, len(self))
        held = np.zeros(len(self), dtype=bool)
        held[rows.ravel()] = True
        return np.flatnonzero(~held)

    def kept_optimum(self, dropped: np.ndarray, lam: float) -> tuple[np.ndarray, np.ndarray]:
        """theta* and the Hessian of the global objective of every partition
        into equal shards that drops these increasing row ids, read-only.

        With equal shards the mean of the shard Grams X_n^T X_n / D_n is the
        kept rows' X^T X over their count, and likewise for the moments, so
        the objective depends only on the dropped rows: the cached sums less
        theirs go to grams_optimum as stacks of one. With no row dropped the
        pair is whole_optimum's, solved once per lam and kept.
        """
        dropped = np.asarray(dropped)
        check_row_ids(dropped, len(self))
        kept = len(self) - dropped.size
        if dropped.ndim != 1 or kept < 1 or np.any(dropped[1:] <= dropped[:-1]):
            raise ValueError("dropped row ids must be increasing and leave a row kept")
        if dropped.size == 0 and lam in self._optima:
            return self._optima[lam]
        gram, moment = self._sums
        x, y = self.features[dropped], self.targets[dropped]
        optimum = grams_optimum(
            ((gram - x.T @ x) / kept)[None], ((moment - x.T @ y) / kept)[None], lam
        )
        for array in optimum:
            array.flags.writeable = False
        if dropped.size == 0:
            self._optima[lam] = optimum
        return optimum

    def whole_optimum(self, lam: float) -> tuple[np.ndarray, np.ndarray]:
        """theta* and the Hessian of the global objective with the whole dataset
        as one user's shard, formed from the arrays, uncopied, on the first
        call for each lam and kept, read-only, with the dataset. A dataset of
        one block (_row_blocks) gets the bits of grams_optimum on its
        shard_grams; a larger one's X^T X sums the block Grams."""
        return self.kept_optimum(np.empty(0, dtype=np.intp), lam)


def check_row_ids(rows: np.ndarray, n_rows: int) -> None:
    """Raise unless rows holds integer row ids in [0, n_rows)."""
    if rows.dtype.kind not in "iu" or rows.size and (rows.min() < 0 or rows.max() >= n_rows):
        raise ValueError(f"row ids must be integers in [0, {n_rows})")


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
        check_row_ids(rows, len(self.dataset))
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

    mode: str = "iid"
    skew_fraction: float = 0.2

    def __post_init__(self):
        if self.mode not in PARTITION_MODES:
            raise ValueError(f"mode must be one of {PARTITION_MODES}, got {self.mode!r}")
        if not (0.0 <= self.skew_fraction < 1.0):
            raise ValueError("skew_fraction must lie in [0, 1)")


def generate_synthetic(
    dim: int, total_samples: int, noise_std: float, rng: np.random.Generator
) -> Dataset:
    """Linear-model data: standard normal features, targets s.theta_true + noise.

    The features are drawn block by block (_row_blocks) into one array, in
    stream order, so they hold the values of one draw. Each drawn block is
    checked, its targets X_k theta_true written and its Gram added into
    X^T X (_scan_block), by a Worker while the calling thread draws the
    next block if that offloads (the features' bytes, a block's per
    handoff). The bits do not depend on the worker, which has ended when
    this returns or raises.
    """
    if dim < 1 or total_samples < 1:
        raise ValueError("dim and total_samples must be >= 1")
    if noise_std < 0:
        raise ValueError("noise_std must be non-negative")
    theta_true = rng.standard_normal(dim)
    features, targets = np.empty((total_samples, dim)), np.empty(total_samples)
    gram = np.empty((dim, dim))
    blocks = _row_blocks(total_samples, dim)
    offload = _workers.offloads(features.nbytes, features[blocks[0]].nbytes)
    worker = _workers.Worker() if offload else None
    scan = _scan_block if worker is None else partial(worker.submit, _scan_block)
    try:
        for rows in blocks:
            rng.standard_normal(out=features[rows])
            scan(features, rows, gram, theta_true, targets)
        if worker is not None:
            for _ in blocks:
                worker.wait()
    finally:
        if worker is not None:
            worker.close()
    targets += noise_std * rng.standard_normal(total_samples)
    return Dataset._drawn(features, targets, gram)


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
    # subtract into a new array and divide it in place: the per-element
    # operations of (features - mean) / std with one (D, d) array beyond
    # the input
    features = np.subtract(dataset.features, mean)
    features /= std
    return Dataset(features, dataset.targets)


def partition(
    dataset: Dataset, spec: PartitionSpec, n_users: int, rng: np.random.Generator
) -> np.ndarray:
    """Split the dataset's row ids into disjoint, equal-size shards of n_users users.

    Returns an (N, D_n) block, row n holding user n+1's sample row ids;
    dataset.shards(rows) reads their samples shard by shard. Samples beyond
    the largest multiple of n_users are dropped (logged), so every user
    holds the same number of samples.
    """
    total = len(dataset)
    if n_users < 1:
        raise ValueError("n_users must be >= 1")
    if n_users > total:
        raise ValueError(f"cannot split {total} samples between {n_users} users")
    per_user = total // n_users
    kept = n_users * per_user
    if kept < total:
        logger.info("partition: dropping %d remainder samples", total - kept)

    perm = rng.permutation(total)[:kept]
    if spec.mode == "iid":
        return perm.reshape(n_users, per_user)
    # Sort the kept samples by target and give user n a skewed slice of
    # quantile bin n; everything else is dealt i.i.d. from the pooled rest.
    by_target = perm[np.argsort(dataset.targets[perm], kind="stable")]
    bins = by_target.reshape(n_users, per_user)
    n_skewed = int(round(spec.skew_fraction * per_user))
    own: list[np.ndarray] = []
    pool_parts: list[np.ndarray] = []
    for n in range(n_users):
        order = rng.permutation(per_user)
        own.append(bins[n][order[:n_skewed]])
        pool_parts.append(bins[n][order[n_skewed:]])
    pool = np.concatenate(pool_parts)
    pool = pool[rng.permutation(pool.shape[0])]
    fill = per_user - n_skewed
    return np.stack(
        [np.concatenate([own[n], pool[n * fill : (n + 1) * fill]]) for n in range(n_users)]
    )
