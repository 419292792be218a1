"""Batched local SGD kernel shared by the trainer and the alpha pilot."""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

# Initial models are drawn N(0, 5 I_d) by default.
DEFAULT_THETA0_STD = math.sqrt(5.0)

StepFn = Callable[[int], float]


def local_pass(
    theta: np.ndarray,
    features: np.ndarray,
    targets: np.ndarray,
    etas: Sequence[float],
    rows: np.ndarray,
    lam: float,
) -> np.ndarray:
    """Run H = len(etas) ridge SGD steps for all N users at once.

    features is the (D, d) sample matrix and targets (D,). rows holds the
    (N, H) sample row ids, user n taking sample rows[n, j] at step j, or a
    (T, N, H) block of them, one (N, H) slab per trial. Step j moves each
    user's model against the per-sample gradient (x.theta - y) x + lam theta
    with size etas[j].

    theta is what the users start from, broadcast against the (..., N, d)
    samples of a step: the (d,) model every user starts from, per-user (N, d)
    models, (T, 1 or N, d) per trial, or a leading axis of S models sharing
    each row block, (S, 1 or N, d) or (S, T, 1 or N, d). Returns the models
    in that broadcast shape; each batch slice has the bits of the unbatched
    call on its own theta and rows.
    """
    if not all(eta > 0 for eta in etas):
        raise ValueError("step size must be positive")
    if not lam >= 0:
        raise ValueError("regularization weight must be non-negative")
    if features.shape[0] == 0:
        raise ValueError("cannot step on an empty shard")
    if rows.shape[-1] != len(etas) or rows.ndim not in (2, 3):
        raise ValueError(
            f"rows have shape {rows.shape}, expected (N, {len(etas)}) with at most one "
            "leading trial axis"
        )
    samples = (*rows.shape[:-1], features.shape[1])
    # theta takes one of the forms above: the samples' trailing axes, each
    # equal or 1, after at most one leading model axis S
    given = np.shape(theta)
    outer = max(len(given) - len(samples), 0)
    trailing = samples[len(samples) - len(given) + outer :]
    if outer > 1 or not all(m == n or m == 1 for m, n in zip(given[outer:], trailing)):
        raise ValueError(f"models of shape {given} do not fit samples {samples}")
    shape = (*given[:outer], *samples)
    # Leading unit axes add per-step overhead to every array operation and no
    # work, so the steps run on the broadcast shape without them.
    lead = 0
    while lead < len(shape) - 2 and shape[lead] == 1:
        lead += 1
    core = shape[lead:]
    # One gather per call, step-major so each step reads a contiguous slab.
    steps = rows.transpose(rows.ndim - 1, *range(rows.ndim - 1))
    steps = steps.reshape(len(etas), *rows.shape[:-1][1 - len(core) :])
    xs = features[steps]  # (H, [T,] N, d)
    ys = targets[steps]  # (H, [T,] N)
    # The working models are one C-contiguous block, so every step op runs
    # with the strides of the gathered (..., N, d) samples; each step updates
    # it in place through one residual and one step buffer.
    models = np.empty(core)
    models[...] = theta
    residual = np.empty(core[:-1])
    step = np.empty(core)
    for x, y, eta in zip(xs, ys, etas):
        np.einsum("...nd,...nd->...n", x, models, out=residual)
        residual -= y
        residual *= eta
        np.multiply(residual[..., None], x, out=step)
        models *= 1.0 - eta * lam
        models -= step
    return models.reshape(shape)
