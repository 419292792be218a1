"""Core value types shared across the simulator.

Model vectors are plain 1-D float64 numpy arrays of fixed length d; the
helpers here enforce the two invariants every operation must preserve
(constant length, finite entries). All types are immutable values and safe
to share across concurrent trials.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Protocol

import numpy as np


def as_model_vector(values, dim: int | None = None) -> np.ndarray:
    """Validate and convert to a 1-D float64 model vector."""
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"model vector must be 1-D, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise ValueError(f"model vector has length {arr.shape[0]}, expected {dim}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("model vector contains non-finite entries")
    return arr


@dataclass(frozen=True)
class RegressionSample:
    """One (features, target) pair."""

    features: np.ndarray
    target: float

    def __post_init__(self):
        object.__setattr__(self, "features", as_model_vector(self.features))
        object.__setattr__(self, "target", float(self.target))


class Shards(Protocol):
    """N equal-size user shards as the objectives read them.

    shape is (N, D_n, d); iterating yields each user's (D_n, d) features and
    (D_n,) targets in user order. A ShardBlock holds its shards; the row-id
    view of Dataset.shards gathers one shard per step, so a pass over a
    partition never holds more than one shard of it.
    """

    @property
    def shape(self) -> tuple[int, int, int]: ...

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray]]: ...


def check_shard_shape(n_users: int, shard_size: int) -> None:
    """The checks every shard layout shares: at least one non-empty shard."""
    if n_users == 0:
        raise ValueError("need at least one user shard")
    if shard_size == 0:
        raise ValueError("shard must be non-empty")


@dataclass(frozen=True, eq=False)
class ShardBlock:
    """N equal-size user shards held as one block, the layout local SGD runs on.

    features is (N, D_n, d) and targets (N, D_n); user n + 1's shard is row n
    of both. A contiguous float64 input is held without a copy.
    """

    features: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        self._hold(self.features, self.targets)
        # shard by shard, so the check's temporaries stay shard-sized
        for x, y in self:
            if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
                raise ValueError("shard contains non-finite values")

    @classmethod
    def of_finite(cls, features, targets) -> ShardBlock:
        """A block of samples already checked finite, such as a Dataset's rows:
        the shape checks run, the finiteness scan does not."""
        block = object.__new__(cls)
        block._hold(features, targets)
        return block

    def _hold(self, features, targets) -> None:
        features = np.ascontiguousarray(features, dtype=np.float64)
        targets = np.ascontiguousarray(targets, dtype=np.float64)
        if features.ndim != 3 or targets.shape != features.shape[:2]:
            raise ValueError(
                f"need (N, D_n, d) features and (N, D_n) targets, got {features.shape} "
                f"and {targets.shape}"
            )
        check_shard_shape(*targets.shape)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "targets", targets)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.features.shape

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        return zip(self.features, self.targets)


@dataclass(frozen=True)
class ProblemConstants:
    """Inputs to the convergence-bound calculators.

    L / mu       smoothness and strong-convexity constants of the global objective
    G2           uniform second-moment bound on per-sample stochastic gradients
    Mn2          per-user gradient-variance bounds, one entry per user
    Gamma        heterogeneity degree: global minimum loss minus the average of
                 the per-user minimum losses (zero for homogeneous data)
    d, N, H      model dimension, user count, local SGD steps per round
    P, sigma_w2  transmit power budget and channel noise variance per coordinate

    G2 and Mn2 entries are allowed to be zero so that noiseless / degenerate
    reductions of the bound formulas stay evaluable.
    """

    L: float
    mu: float
    G2: float
    Mn2: np.ndarray
    Gamma: float
    d: int
    N: int
    H: int
    P: float
    sigma_w2: float

    def __post_init__(self):
        mn2 = np.ascontiguousarray(self.Mn2, dtype=np.float64)
        if not (self.L >= self.mu > 0):
            raise ValueError(f"need L >= mu > 0, got L={self.L}, mu={self.mu}")
        if self.G2 < 0:
            raise ValueError("G2 must be non-negative")
        if mn2.ndim != 1 or np.any(mn2 < 0):
            raise ValueError("Mn2 must be a 1-D array of non-negative entries")
        if self.Gamma < 0:
            raise ValueError("Gamma must be non-negative")
        if self.d < 1 or self.N < 1 or self.H < 1:
            raise ValueError("d, N and H must all be >= 1")
        if mn2.shape[0] != self.N:
            raise ValueError(f"Mn2 has {mn2.shape[0]} entries, expected N={self.N}")
        if self.P <= 0:
            raise ValueError("P must be positive")
        if self.sigma_w2 < 0:
            raise ValueError("sigma_w2 must be non-negative")
        object.__setattr__(self, "Mn2", mn2)
        for name in ("L", "mu", "G2", "Gamma", "P", "sigma_w2"):
            object.__setattr__(self, name, float(getattr(self, name)))
        for name in ("d", "N", "H"):
            object.__setattr__(self, name, int(getattr(self, name)))
