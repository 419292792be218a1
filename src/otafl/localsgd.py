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
    indices: np.ndarray,
    lam: float,
) -> np.ndarray:
    """Run H = len(etas) ridge SGD steps for all N users at once.

    features is the (N, D_n, d) shard block and targets (N, D_n). Step j
    moves each user's model against the per-sample gradient
    (x.theta - y) x + lam theta with size etas[j]. Three shapes are taken:

    - indices (N, H), user n taking sample indices[n, j] at step j, and
      theta the (d,) model every user starts from or (N, d) per-user
      models; returns the (N, d) models.
    - indices (N, H) shared by a leading batch of S models: theta (S, 1, d)
      or (S, N, d); returns (S, N, d), slice s equal to the call on theta[s].
    - indices (T, N, H), one index block per batch row: theta (T, 1, d) or
      (T, N, d); returns (T, N, d), slice t equal to the call on
      (theta[t], indices[t]).
    """
    if any(eta <= 0 for eta in etas):
        raise ValueError("step size must be positive")
    if lam < 0:
        raise ValueError("regularization weight must be non-negative")
    n_users, shard_size, dim = features.shape
    if shard_size == 0:
        raise ValueError("cannot step on an empty shard")
    if indices.shape[-2:] != (n_users, len(etas)) or indices.ndim > 3:
        raise ValueError(
            f"indices have shape {indices.shape}, expected {(n_users, len(etas))} "
            "with at most one leading axis"
        )
    # One gather per call, step-major so each step reads a contiguous slab.
    users = np.arange(n_users)
    steps = np.moveaxis(indices, -1, 0) if indices.ndim == 3 else indices.T
    xs = features[users, steps]  # (H, [T,] N, d)
    ys = targets[users, steps]  # (H, [T,] N)
    if theta.ndim < 3:
        if indices.ndim == 3:
            raise ValueError("per-row indices need a (T, 1 or N, d) theta")
        subscripts = "nd,nd->n"
        theta = np.broadcast_to(theta, (n_users, dim)).astype(np.float64)
    else:
        # explicit subscripts: these keep each batch slice bit-equal to the
        # unbatched call, which flattening the batch into users does not
        subscripts = "snd,snd->sn" if indices.ndim == 3 else "nd,snd->sn"
        if indices.ndim == 3 and theta.shape[0] != indices.shape[0]:
            raise ValueError(f"{theta.shape[0]} models for {indices.shape[0]} index blocks")
        theta = np.broadcast_to(theta, (theta.shape[0], n_users, dim)).astype(np.float64)
    for x, y, eta in zip(xs, ys, etas):
        residual = np.einsum(subscripts, x, theta) - y
        theta = theta - eta * (residual[..., None] * x + lam * theta)
    return theta
