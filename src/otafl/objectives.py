"""Regularized linear least-squares objective and bound-constant estimation.

The per-sample loss is l(s; theta) = 0.5*(s_s . theta - s_y)^2
+ (lam/2)*||theta||^2. Its Hessian does not depend on theta, so the
smoothness and strong-convexity constants of the global objective are exact
eigenvalues of the averaged Gram matrix plus lam*I rather than sampled
curvature estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .types import ProblemConstants, RegressionSample, UserShard, as_model_vector


def _sample_residual(theta, sample: RegressionSample, lam: float):
    if lam < 0:
        raise ValueError("regularization weight must be non-negative")
    theta = as_model_vector(theta, dim=sample.features.shape[0])
    return theta, sample.features @ theta - sample.target


def ridge_loss(theta, sample: RegressionSample, lam: float) -> float:
    """Per-sample loss 0.5*(s_s.theta - s_y)^2 + (lam/2)*||theta||^2."""
    theta, residual = _sample_residual(theta, sample, lam)
    return float(0.5 * residual * residual + 0.5 * lam * (theta @ theta))


def ridge_grad(theta, sample: RegressionSample, lam: float) -> np.ndarray:
    """Gradient of ridge_loss: (s_s.theta - s_y)*s_s + lam*theta."""
    theta, residual = _sample_residual(theta, sample, lam)
    return residual * sample.features + lam * theta


def _shard_loss(theta: np.ndarray, shard: UserShard, lam: float) -> float:
    residuals = shard.features @ theta - shard.targets
    return float(np.mean(0.5 * residuals * residuals) + 0.5 * lam * (theta @ theta))


def global_loss(theta, shards: Sequence[UserShard], lam: float) -> float:
    """Average over users of the per-user empirical loss."""
    if len(shards) == 0:
        raise ValueError("need at least one user shard")
    theta = as_model_vector(theta, dim=shards[0].feature_dim)
    return float(np.mean([_shard_loss(theta, shard, lam) for shard in shards]))


def global_grad(theta, shards: Sequence[UserShard], lam: float) -> np.ndarray:
    """Exact gradient of global_loss."""
    if len(shards) == 0:
        raise ValueError("need at least one user shard")
    theta = as_model_vector(theta, dim=shards[0].feature_dim)
    grads = []
    for shard in shards:
        residuals = shard.features @ theta - shard.targets
        grads.append(shard.features.T @ residuals / len(shard) + lam * theta)
    return np.mean(grads, axis=0)


def hessian(shards: Sequence[UserShard], lam: float) -> np.ndarray:
    """Hessian of the global objective: averaged Gram matrix + lam*I."""
    if len(shards) == 0:
        raise ValueError("need at least one user shard")
    d = shards[0].feature_dim
    gram = np.zeros((d, d))
    for shard in shards:
        gram += shard.features.T @ shard.features / len(shard)
    gram /= len(shards)
    return gram + lam * np.eye(d)


def solve_optimum(
    shards: Sequence[UserShard], lam: float, hess: np.ndarray | None = None
) -> tuple[np.ndarray, float]:
    """Exact minimizer of the global objective and its loss value.

    Solves the normal equations of the averaged objective. With lam = 0 the
    averaged Gram matrix must be full rank. A caller that already holds
    hessian(shards, lam) passes it as hess.
    """
    if hess is None:
        hess = hessian(shards, lam)
    if lam == 0:
        eigs = np.linalg.eigvalsh(hess)
        if eigs[0] <= 1e-12 * max(eigs[-1], 1.0):
            raise ValueError("singular normal equations with lam=0; add regularization")
    rhs = np.mean(
        [shard.features.T @ shard.targets / len(shard) for shard in shards], axis=0
    )
    theta_star = np.linalg.solve(hess, rhs)
    return theta_star, global_loss(theta_star, shards, lam)


def quadratic_gap(theta: np.ndarray, theta_star: np.ndarray, hess: np.ndarray) -> float:
    """Optimality gap F(theta) - F* of the quadratic objective, exactly.

    F is quadratic, so the gap is 0.5 (theta - theta*)^T H (theta - theta*):
    non-negative for the positive semi-definite Hessian H, and free of the
    cancellation that subtracting F* from F(theta) suffers near the optimum.
    """
    diff = theta - theta_star
    return 0.5 * float(diff @ hess @ diff)


@dataclass(frozen=True)
class ProbeBall:
    """Ball of model vectors over which the gradient-moment bounds are taken."""

    center: np.ndarray
    radius: float
    count: int = 32

    def __post_init__(self):
        object.__setattr__(self, "center", as_model_vector(self.center))
        if self.radius < 0:
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
    shards: Sequence[UserShard],
    lam: float,
    probe_region: ProbeBall | np.ndarray,
    rng: np.random.Generator | None = None,
    *,
    H: int,
    P: float,
    sigma_w2: float,
    safety: float = 1.1,
) -> ProblemConstants:
    """Estimate the constants entering the convergence bounds.

    L and mu are the extreme eigenvalues of the exact (theta-independent)
    Hessian. G2 is the largest empirical second moment of per-sample gradients
    over the probe points and users, inflated by `safety`; Mn2 is the analogous
    per-user gradient variance. Gamma is computed exactly from the per-user
    closed-form optima. H, P and sigma_w2 are passed through into the record.
    """
    if len(shards) == 0:
        raise ValueError("need at least one user shard")
    if lam <= 0:
        raise ValueError("constant estimation requires lam > 0")
    if isinstance(probe_region, ProbeBall):
        if rng is None:
            raise ValueError("a probe ball needs an rng to draw points from")
        probes = probe_region.points(rng)
    else:
        probes = np.ascontiguousarray(probe_region, dtype=np.float64)
        if probes.ndim != 2 or probes.shape[0] == 0:
            raise ValueError("probe_region must be a non-empty (n, d) array")

    n_users, d = len(shards), shards[0].feature_dim
    grams = np.empty((n_users, d, d))
    moments = np.empty((n_users, d))
    probes_t = probes.T
    reg_sq = lam * lam * np.einsum("pj,pj->p", probes, probes)
    g2 = 0.0
    mn2 = np.zeros(n_users)
    # one pass per shard (ragged shard lists work); the (D_n, p) blocks below
    # are the largest temporaries, never an (N, D_n, p) stack
    for n, shard in enumerate(shards):
        features, targets, size = shard.features, shard.targets, len(shard)
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

    eye = np.eye(d)
    hess = grams.mean(axis=0) + lam * eye
    try:
        eigs = np.linalg.eigvalsh(hess)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - numerically exotic
        raise ValueError(f"eigenvalue solver failed on the objective Hessian: {exc}")
    mu, smoothness = float(eigs[0]), float(eigs[-1])

    theta_star = np.linalg.solve(hess, moments.mean(axis=0))
    f_star = global_loss(theta_star, shards, lam)
    local_optima = np.linalg.solve(grams + lam * eye, moments[:, :, None])[:, :, 0]
    local_minima = [_shard_loss(theta, shard, lam) for theta, shard in zip(local_optima, shards)]
    gamma = max(f_star - float(np.mean(local_minima)), 0.0)

    return ProblemConstants(
        L=smoothness,
        mu=mu,
        G2=safety * g2,
        Mn2=safety * mn2,
        Gamma=gamma,
        d=d,
        N=n_users,
        H=H,
        P=P,
        sigma_w2=sigma_w2,
    )
