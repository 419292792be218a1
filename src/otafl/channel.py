"""Uplink channel models applied to a set of simultaneous user transmissions.

The simulator is real-valued throughout: transmitters pre-correct the fading
phase, so the effective channel coefficient is the positive magnitude and all
channel symbols are real vectors.
"""

from __future__ import annotations

import math

import numpy as np

# Rayleigh scale giving E[h^2] = 1 (unit average power gain).
RAYLEIGH_UNIT_POWER_SCALE = 1.0 / math.sqrt(2.0)


def fading_mac(
    inputs: np.ndarray, magnitudes: np.ndarray | float, noise: np.ndarray | None = None
) -> np.ndarray:
    """The one multiple-access channel: sum_k h_k x_k + w.

    inputs is a (K, d) block with one transmitter's input per row, received
    as one (d,) output, and magnitudes the K transmitters' fading magnitudes
    h_k; a (T, K, d) stack of T trials' blocks takes (T, K) magnitudes and
    gives a (T, d) output. One magnitude applies to every input, and 1.0 is
    the AWGN MAC, bit for bit. Inputs are assumed phase-pre-corrected at the
    transmitters, so only the magnitudes apply. noise is i.i.d. Gaussian
    noise w of the output's shape (sample_noise draws it), or None for a
    noiseless channel.
    """
    if isinstance(magnitudes, float) and magnitudes == 1.0:
        # the unit channel: x 1.0 is exact, so it is skipped
        total = np.add.reduce(inputs, axis=-2)
    else:
        magnitudes = np.asarray(magnitudes, dtype=np.float64)
        if not magnitudes.ndim:
            magnitudes = np.broadcast_to(magnitudes, inputs.shape[:-1])
        elif magnitudes.shape != inputs.shape[:-1]:
            raise ValueError(
                f"got inputs {inputs.shape} for magnitudes of shape {magnitudes.shape}"
            )
        # h_1 x_1 + h_2 x_2 + ... added in order of k for every d >= 2
        total = np.einsum("...k,...kd->...d", magnitudes, inputs)
    if noise is not None:
        if np.shape(noise) != total.shape:
            raise ValueError(f"need channel noise of shape {total.shape}, got {np.shape(noise)}")
        total += noise
    return total


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
    if not sigma_w2 >= 0:
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
    if not scale > 0:
        raise ValueError("scale must be positive")
    shape = n_users if rows is None else (rows, n_users)
    return rng.rayleigh(scale, shape)
