"""Uplink channel models applied to a set of simultaneous user transmissions.

The simulator is real-valued throughout: transmitters pre-correct the fading
phase, so the effective channel coefficient is the positive magnitude and all
channel symbols are real vectors.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

# Rayleigh scale giving E[h^2] = 1 (unit average power gain).
RAYLEIGH_UNIT_POWER_SCALE = 1.0 / math.sqrt(2.0)


def _stack_inputs(inputs: Sequence[np.ndarray] | np.ndarray) -> np.ndarray:
    """Inputs as a (K, d) float64 block, or a (T, K, d) stack of T blocks;
    such an array passes through uncopied."""
    stacked = np.ascontiguousarray(inputs, dtype=np.float64)
    if stacked.ndim not in (2, 3):
        raise ValueError("channel inputs must be 1-D vectors of equal length")
    return stacked


def _add_noise(total: np.ndarray, noise: np.ndarray | None) -> np.ndarray:
    """total plus the channel noise, in place: the callers own their totals."""
    if noise is None:
        return total
    if np.shape(noise) != total.shape:
        raise ValueError(f"need channel noise of shape {total.shape}, got {np.shape(noise)}")
    total += noise
    return total


def awgn_mac(
    inputs: Sequence[np.ndarray] | np.ndarray, noise: np.ndarray | None = None
) -> np.ndarray:
    """Superposition of all inputs plus the channel noise.

    inputs is a list of 1-D vectors or a (K, d) block with one input per row,
    received as one (d,) output; a (T, K, d) stack of T trials' blocks gives
    a (T, d) output. noise is i.i.d. Gaussian noise of the output's shape
    (sample_noise draws it), or None for a noiseless channel.
    """
    if len(inputs) == 0:
        raise ValueError("awgn_mac needs at least one input")
    return _add_noise(_stack_inputs(inputs).sum(axis=-2), noise)


def fading_mac(
    inputs: Sequence[np.ndarray] | np.ndarray,
    magnitudes: np.ndarray,
    noise: np.ndarray | None = None,
) -> np.ndarray:
    """Superposition weighted by fading magnitudes, plus the channel noise.

    inputs is a (K, d) block (or a list of K vectors) and magnitudes the K
    transmitters' positive fading magnitudes; a (T, K, d) stack takes (T, K)
    magnitudes and (T, d) noise, as awgn_mac does. Inputs are assumed
    phase-pre-corrected at the transmitters, so only the magnitudes apply.
    With all magnitudes equal to 1 this reduces bit-exactly to awgn_mac
    given the same noise.
    """
    if len(inputs) == 0:
        raise ValueError("fading_mac needs at least one input")
    stacked = _stack_inputs(inputs)
    magnitudes = np.asarray(magnitudes, dtype=np.float64)
    if magnitudes.shape != stacked.shape[:-1]:
        raise ValueError(f"got inputs {stacked.shape} for magnitudes of shape {magnitudes.shape}")
    if magnitudes.min() <= 0:
        raise ValueError("fading magnitudes must be strictly positive")
    return _add_noise((magnitudes[..., None] * stacked).sum(axis=-2), noise)


def sample_noise(
    dim: int, sigma_w2: float, rng: np.random.Generator, rows: int | None = None
) -> np.ndarray:
    """I.i.d. N(0, sigma_w2) channel noise per coordinate: (dim,) for one
    round, or (rows, dim) for `rows` rounds at once.

    A sized draw consumes the stream as `rows` one-round draws in a row
    would (pinned in tests/test_rng.py), so a run's noise can be drawn ahead
    of its rounds.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if sigma_w2 < 0:
        raise ValueError("sigma_w2 must be non-negative")
    shape = dim if rows is None else (rows, dim)
    return rng.normal(0.0, math.sqrt(sigma_w2), shape)


def sample_rayleigh(
    n_users: int, scale: float, rng: np.random.Generator, rows: int | None = None
) -> np.ndarray:
    """I.i.d. Rayleigh fading magnitudes: (n_users,) for one round, or
    (rows, n_users) for `rows` draws at once.

    A sized draw consumes the stream as `rows` one-round draws in a row
    would, so a run's draws can be made up front. No phases are drawn: the
    transmitters cancel them exactly.
    """
    if n_users < 1:
        raise ValueError("n_users must be >= 1")
    if scale <= 0:
        raise ValueError("scale must be positive")
    shape = n_users if rows is None else (rows, n_users)
    return rng.rayleigh(scale, shape)


def orthogonal_noiseless(inputs: np.ndarray) -> np.ndarray:
    """Identity passthrough: the server receives each user's vector exactly,
    a (K, d) block or a (T, K, d) stack of T trials' blocks, as one float64
    array."""
    return _stack_inputs(inputs)
