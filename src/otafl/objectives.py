"""Regularized linear least-squares objective and bound-constant estimation.

The per-sample loss is l(s; theta) = 0.5*(s_s . theta - s_y)^2
+ (lam/2)*||theta||^2. Its Hessian does not depend on theta, so the
smoothness and strong-convexity constants of the global objective are exact
eigenvalues of the averaged Gram matrix plus lam*I rather than sampled
curvature estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .types import ProblemConstants, as_model_vector

if TYPE_CHECKING:  # data imports this module
    from .data import ShardRows


def _shard_loss(theta: np.ndarray, features: np.ndarray, targets: np.ndarray, lam: float) -> float:
    residuals = features @ theta - targets
    return float(np.mean(0.5 * residuals * residuals) + 0.5 * lam * (theta @ theta))


def global_loss(theta, shards: ShardRows, lam: float) -> float:
    """Average over users of the per-user empirical loss."""
    theta = as_model_vector(theta, dim=shards.shape[-1])
    return float(np.mean([_shard_loss(theta, x, y, lam) for x, y in shards]))


def shard_grams(shards: ShardRows) -> tuple[np.ndarray, np.ndarray]:
    """Each shard's Gram X^T X / D_n and moment X^T y / D_n, as (N, d, d) and
    (N, d) stacks, in one pass over the shards; grams_optimum turns them into
    theta* and the Hessian."""
    n_users, size, d = shards.shape
    grams = np.empty((n_users, d, d))
    moments = np.empty((n_users, d))
    for n, (features, targets) in enumerate(shards):
        grams[n] = features.T @ features / size
        moments[n] = features.T @ targets / size
    return grams, moments


def grams_optimum(
    grams: np.ndarray, moments: np.ndarray, lam: float
) -> tuple[np.ndarray, np.ndarray]:
    """theta* and the Hessian of the global objective from shard_grams' stacks.

    solve_optimum reads theta* from here. With lam = 0 the averaged Gram
    matrix must be full rank.
    """
    hess = grams.mean(axis=0) + lam * np.eye(grams.shape[-1])
    if lam == 0:
        eigs = np.linalg.eigvalsh(hess)
        if eigs[0] <= 1e-12 * max(eigs[-1], 1.0):
            raise ValueError("singular normal equations with lam=0; add regularization")
    return np.linalg.solve(hess, moments.mean(axis=0)), hess


def solve_optimum(shards: ShardRows, lam: float) -> np.ndarray:
    """Exact minimizer theta* of the global objective: the normal equations
    of the averaged objective, from one shard_grams pass. global_loss gives
    F* = F(theta*)."""
    return grams_optimum(*shard_grams(shards), lam)[0]


def quadratic_gap(
    theta: np.ndarray, theta_star: np.ndarray, hess: np.ndarray
) -> float | np.ndarray:
    """Optimality gap F(theta) - F* of the quadratic objective, exactly.

    F is quadratic, so the gap is 0.5 (theta - theta*)^T H (theta - theta*):
    non-negative for the positive semi-definite Hessian H, and free of the
    cancellation that subtracting F* from F(theta) suffers near the optimum.

    A (T, d) block of models against (T, d) optima and (T, d, d) Hessians
    gives the (T,) gaps of its rows at once, and a (T, C, d) chunk of C
    rounds against (T, 1, d) optima and (T, 1, d, d) Hessians its (T, C)
    gaps, each with the bits of the one-row call (pinned in
    tests/test_objectives.py).
    """
    diff = (theta - theta_star)[..., None, :]
    gap = 0.5 * (diff @ hess @ np.swapaxes(diff, -1, -2))[..., 0, 0]
    return float(gap) if gap.ndim == 0 else gap


# G2 and Mn2 inflate their maxima over the probe points by this factor.
MOMENT_SAFETY = 1.1


@dataclass(frozen=True)
class ProbeBall:
    """Ball of model vectors over which the gradient-moment bounds are taken."""

    center: np.ndarray
    radius: float
    count: int = 32

    def __post_init__(self):
        object.__setattr__(self, "center", as_model_vector(self.center))
        if not self.radius >= 0:
            raise ValueError("probe radius must be non-negative")
        if self.count < 1:
            raise ValueError("probe count must be >= 1")

    def points(self, rng: np.random.Generator) -> np.ndarray:
        """Sample probe points uniformly in the ball, pinning a quarter of them
        to the shell where gradient norms peak, plus the center itself."""
        d = self.center.shape[0]
        directions = rng.standard_normal((self.count, d))
        norms = np.linalg.norm(directions, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        directions /= norms
        radii = self.radius * rng.random(self.count) ** (1.0 / d)
        radii[: self.count // 4] = self.radius
        return np.vstack([self.center, self.center + radii[:, None] * directions])


def estimate_constants(
    shards: ShardRows,
    lam: float,
    ball: ProbeBall,
    rng: np.random.Generator,
    *,
    H: int,
    P: float,
    sigma_w2: float,
    grams: tuple[np.ndarray, np.ndarray] | None = None,
) -> ProblemConstants:
    """Estimate the constants entering the convergence bounds.

    L and mu are the extreme eigenvalues of the exact (theta-independent)
    Hessian. G2 is the largest empirical second moment of per-sample gradients
    over the ball's points drawn from rng and over the users, inflated by
    MOMENT_SAFETY; Mn2 is the analogous per-user gradient variance. Gamma is
    computed exactly from the per-user closed-form optima. H, P and sigma_w2
    are passed through into the record.
    A caller that already holds shard_grams(shards) passes it as grams.
    The shards are read in one pass, one shard at a time.
    """
    if not lam > 0:
        raise ValueError("constant estimation requires lam > 0")
    probes = ball.points(rng)

    n_users, size, d = shards.shape
    held = grams is not None
    grams, moments = grams if held else (np.empty((n_users, d, d)), np.empty((n_users, d)))
    probes_t = probes.T
    reg_sq = lam * lam * np.einsum("pj,pj->p", probes, probes)
    g2 = 0.0
    mn2 = np.zeros(n_users)
    # one pass per shard; the shard read and the (D_n, p) blocks below are
    # the largest temporaries, never an (N, D_n, d) or (N, D_n, p) stack
    for n, (features, targets) in enumerate(shards):
        if not held:
            grams[n] = features.T @ features / size
            moments[n] = features.T @ targets / size
        projections = features @ probes_t
        residuals = projections - targets[:, None]
        sq_feature_norms = np.einsum("ij,ij->i", features, features)
        # mean_i || r_i x_i + lam theta ||^2 per probe, expanded to avoid (D, d) temporaries
        second_moment = (
            sq_feature_norms @ (residuals * residuals)
            + 2.0 * lam * np.einsum("ip,ip->p", residuals, projections)
        ) / size + reg_sq
        mean_grad = grams[n] @ probes_t - moments[n][:, None] + lam * probes_t
        variance = second_moment - np.einsum("jp,jp->p", mean_grad, mean_grad)
        g2 = max(g2, float(second_moment.max()))
        mn2[n] = max(float(variance.max()), 0.0)

    theta_star, hess = grams_optimum(grams, moments, lam)
    try:
        eigs = np.linalg.eigvalsh(hess)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - numerically exotic
        raise ValueError(f"eigenvalue solver failed on the objective Hessian: {exc}")
    mu, smoothness = float(eigs[0]), float(eigs[-1])

    # Gamma = F(theta*) - mean_n F_n(theta_n*). Each F_n is quadratic, so
    # F_n(theta*) - F_n(theta_n*) is exactly theta*'s gap on F_n, and Gamma
    # is their mean: no pass over the data and no cancellation against F*.
    local_hessians = grams + lam * np.eye(d)
    local_optima = np.linalg.solve(local_hessians, moments[:, :, None])[:, :, 0]
    gamma = max(float(np.mean(quadratic_gap(theta_star, local_optima, local_hessians))), 0.0)

    return ProblemConstants(
        L=smoothness,
        mu=mu,
        G2=MOMENT_SAFETY * g2,
        Mn2=MOMENT_SAFETY * mn2,
        Gamma=gamma,
        d=d,
        N=n_users,
        H=H,
        P=P,
        sigma_w2=sigma_w2,
    )
