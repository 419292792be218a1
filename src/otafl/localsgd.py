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

    theta is the (d,) model every user starts from, or (N, d) per-user
    models; features is the (N, D_n, d) shard block and targets (N, D_n);
    indices is (N, H), user n taking sample indices[n, j] at step j. Step j
    moves each user's model against the per-sample gradient
    (x.theta - y) x + lam theta with size etas[j]. Returns the (N, d) models.
    """
    if any(eta <= 0 for eta in etas):
        raise ValueError("step size must be positive")
    if lam < 0:
        raise ValueError("regularization weight must be non-negative")
    n_users, shard_size, dim = features.shape
    if shard_size == 0:
        raise ValueError("cannot step on an empty shard")
    if indices.shape != (n_users, len(etas)):
        raise ValueError(f"indices have shape {indices.shape}, expected {(n_users, len(etas))}")
    # One gather per call, step-major so each step reads a contiguous (N, d) slab.
    users = np.arange(n_users)
    xs = features[users, indices.T]  # (H, N, d)
    ys = targets[users, indices.T]  # (H, N)
    theta = np.broadcast_to(theta, (n_users, dim)).astype(np.float64)
    for x, y, eta in zip(xs, ys, etas):
        residual = np.einsum("nd,nd->n", x, theta) - y
        theta = theta - eta * (residual[:, None] * x + lam * theta)
    return theta
