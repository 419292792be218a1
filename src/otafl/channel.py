"""Uplink channel models applied to a set of simultaneous user transmissions.

The simulator is real-valued throughout: transmitters pre-correct the fading
phase, so the effective channel coefficient is the positive magnitude and all
channel symbols are real vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Rayleigh scale giving E[h^2] = 1 (unit average power gain).
RAYLEIGH_UNIT_POWER_SCALE = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class FadingRealization:
    """Per-user fading magnitudes and phases for one communication round."""

    magnitudes: np.ndarray
    phases: np.ndarray

    def __post_init__(self):
        mags = np.ascontiguousarray(self.magnitudes, dtype=np.float64)
        phases = np.ascontiguousarray(self.phases, dtype=np.float64)
        if mags.ndim != 1 or phases.shape != mags.shape:
            raise ValueError("magnitudes and phases must be matching 1-D arrays")
        if np.any(mags <= 0):
            raise ValueError("fading magnitudes must be strictly positive")
        object.__setattr__(self, "magnitudes", mags)
        object.__setattr__(self, "phases", phases)

    @property
    def n_users(self) -> int:
        return self.magnitudes.shape[0]


def _stack_inputs(inputs: Sequence[np.ndarray] | np.ndarray) -> np.ndarray:
    """Inputs as a (K, d) float64 block; such a block passes through uncopied."""
    stacked = np.ascontiguousarray(inputs, dtype=np.float64)
    if stacked.ndim != 2:
        raise ValueError("channel inputs must be 1-D vectors of equal length")
    return stacked


def awgn_mac(
    inputs: Sequence[np.ndarray] | np.ndarray,
    sigma_w2: float,
    rng: np.random.Generator,
    dim: int | None = None,
) -> np.ndarray:
    """Superposition of all inputs plus i.i.d. Gaussian noise per coordinate.

    inputs is a list of 1-D vectors or a (K, d) block with one input per row.
    """
    if sigma_w2 < 0:
        raise ValueError("sigma_w2 must be non-negative")
    if len(inputs) == 0:
        if dim is None:
            raise ValueError("empty input list needs an explicit dim")
        total = np.zeros(dim)
    else:
        stacked = _stack_inputs(inputs)
        if dim is not None and stacked.shape[1] != dim:
            raise ValueError(f"inputs have length {stacked.shape[1]}, expected {dim}")
        total = stacked.sum(axis=0)
    if sigma_w2 > 0:
        total = total + rng.normal(0.0, math.sqrt(sigma_w2), total.shape[0])
    return total


def fading_mac(
    inputs: Sequence[np.ndarray] | np.ndarray,
    fades: FadingRealization,
    sigma_w2: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Superposition weighted by fading magnitudes, plus Gaussian noise.

    Inputs are assumed phase-pre-corrected at the transmitters, so only the
    magnitudes apply. With all magnitudes equal to 1 this reduces bit-exactly
    to awgn_mac given the same noise stream.
    """
    if sigma_w2 < 0:
        raise ValueError("sigma_w2 must be non-negative")
    if len(inputs) != fades.n_users:
        raise ValueError(f"got {len(inputs)} inputs for {fades.n_users} fading entries")
    if len(inputs) == 0:
        raise ValueError("fading_mac needs at least one input")
    stacked = _stack_inputs(inputs)
    total = (fades.magnitudes[:, None] * stacked).sum(axis=0)
    if sigma_w2 > 0:
        total = total + rng.normal(0.0, math.sqrt(sigma_w2), total.shape[0])
    return total


def sample_rayleigh(
    n_users: int, scale: float, rng: np.random.Generator
) -> FadingRealization:
    """I.i.d. Rayleigh magnitudes and uniform phases for one round."""
    if n_users < 1:
        raise ValueError("n_users must be >= 1")
    if scale <= 0:
        raise ValueError("scale must be positive")
    return FadingRealization(
        magnitudes=rng.rayleigh(scale, n_users),
        phases=rng.uniform(-math.pi, math.pi, n_users),
    )


def orthogonal_noiseless(inputs: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Identity passthrough: the server receives each user's vector exactly."""
    return [np.ascontiguousarray(x, dtype=np.float64) for x in inputs]
