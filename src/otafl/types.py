"""Core value types shared across the simulator.

Model vectors are plain 1-D float64 numpy arrays of fixed length d; the
helpers here enforce the two invariants every operation must preserve
(constant length, finite entries). All types are immutable values and safe
to share across concurrent trials.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        if not self.G2 >= 0:
            raise ValueError("G2 must be non-negative")
        if mn2.ndim != 1 or not np.all(mn2 >= 0):
            raise ValueError("Mn2 must be a 1-D array of non-negative entries")
        if not self.Gamma >= 0:
            raise ValueError("Gamma must be non-negative")
        if self.d < 1 or self.N < 1 or self.H < 1:
            raise ValueError("d, N and H must all be >= 1")
        if mn2.shape[0] != self.N:
            raise ValueError(f"Mn2 has {mn2.shape[0]} entries, expected N={self.N}")
        if not self.P > 0:
            raise ValueError("P must be positive")
        if not self.sigma_w2 >= 0:
            raise ValueError("sigma_w2 must be non-negative")
        object.__setattr__(self, "Mn2", mn2)
        for name in ("L", "mu", "G2", "Gamma", "P", "sigma_w2"):
            object.__setattr__(self, name, float(getattr(self, name)))
        for name in ("d", "N", "H"):
            object.__setattr__(self, name, int(getattr(self, name)))
