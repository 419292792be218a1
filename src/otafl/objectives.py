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

from . import _workers
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


def _shard_pass(shards: ShardRows, task, *scratch: tuple[int, ...]) -> None:
    """Call task(n, features, targets, *buffers) once for every shard n.

    Each worker gathers its shards, one at a time, into its own (D_n, d) and
    (D_n,) workspace and hands task buffers of the scratch shapes, so a pass
    holds one shard per worker and never an (N, D_n, ...) stack. A pass that
    offloads (the bytes it gathers, a worker's share of them per handoff)
    runs on min(cpu_count(), N) workers: the calling thread and a Worker for
    each of the rest, shards dealt in turn. Tasks write only their own shard's
    rows of the caller's outputs, so the results do not depend on the
    worker count. A worker's exception is raised from here once every
    worker has ended.
    """
    n_users, size, d = shards.shape
    features, targets, rows = shards.dataset.features, shards.dataset.targets, shards.rows
    gathered = n_users * size * (d + 1) * features.itemsize
    workers = min(_workers.cpu_count(), n_users)
    if not _workers.offloads(gathered, gathered // workers):
        workers = 1

    def work(first: int) -> None:
        x, y = np.empty((size, d)), np.empty(size)
        buffers = [np.empty(shape) for shape in scratch]
        for n in range(first, n_users, workers):
            # the shard's row ids were checked when it was built; mode="clip"
            # gathers straight into the workspace, where "raise" buffers a copy
            np.take(features, rows[n], axis=0, out=x, mode="clip")
            np.take(targets, rows[n], out=y, mode="clip")
            task(n, x, y, *buffers)

    pool = []
    try:
        for first in range(1, workers):
            pool.append(_workers.Worker())
            pool[-1].submit(work, first)
        work(0)
    finally:
        for worker in pool:
            worker.close()
    for worker in pool:
        worker.wait()


def _gram_moment(features, targets, gram, moment) -> None:
    """One shard's X^T X / D_n and X^T y / D_n, written into gram and moment."""
    size = len(targets)
    np.matmul(features.T, features, out=gram)
    gram /= size
    np.matmul(features.T, targets, out=moment)
    moment /= size


def shard_grams(shards: ShardRows) -> tuple[np.ndarray, np.ndarray]:
    """Each shard's Gram X^T X / D_n and moment X^T y / D_n, as (N, d, d) and
    (N, d) stacks, in one pass over the shards; grams_optimum turns them into
    theta* and the Hessian. A large pass runs on every CPU the process may
    use (_shard_pass), with the bits of the serial pass."""
    n_users, _, d = shards.shape
    grams = np.empty((n_users, d, d))
    moments = np.empty((n_users, d))
    _shard_pass(shards, lambda n, x, y: _gram_moment(x, y, grams[n], moments[n]))
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


def _probe_pass(
    shards: ShardRows, probes: np.ndarray, lam: float, grams: tuple | None = None
) -> np.ndarray:
    """The (N, p) second moments mean_i || (x_i . theta - y_i) x_i + lam theta ||^2
    of each shard's per-sample gradients at each of the (p, d) probe points,
    from one pass over the shards (_shard_pass). With grams, a pair of
    (N, d, d) and (N, d) outputs, the same pass writes each shard's Gram
    and moment into them too."""
    n_users, size, _ = shards.shape
    probes_t = probes.T
    n_probes = len(probes)
    reg_sq = lam * lam * np.einsum("pj,pj->p", probes, probes)
    second_moments = np.empty((n_users, n_probes))

    # the gathered shard and the (D_n, p) workspace blocks are a worker's
    # largest arrays, never an (N, D_n, d) or (N, D_n, p) stack
    def probe(n, features, targets, projections, residuals, sq_feature_norms):
        if grams is not None:
            _gram_moment(features, targets, grams[0][n], grams[1][n])
        np.matmul(features, probes_t, out=projections)
        np.subtract(projections, targets[:, None], out=residuals)
        np.einsum("ij,ij->i", features, features, out=sq_feature_norms)
        cross = np.einsum("ip,ip->p", residuals, projections)
        np.multiply(residuals, residuals, out=residuals)
        # mean_i || r_i x_i + lam theta ||^2 per probe, expanded to avoid (D, d) temporaries
        second_moments[n] = (sq_feature_norms @ residuals + 2.0 * lam * cross) / size + reg_sq

    _shard_pass(shards, probe, (size, n_probes), (size, n_probes), (size,))
    return second_moments


def _inflated_max(second_moments: np.ndarray) -> float:
    """G2: the largest of the (N, p) second moments, at least 0, inflated by
    MOMENT_SAFETY."""
    return MOMENT_SAFETY * max(float(second_moments.max()), 0.0)


def estimate_g2(shards: ShardRows, lam: float, ball: ProbeBall, rng: np.random.Generator) -> float:
    """G2 as estimate_constants gives it on the same arguments, bit for bit,
    from one pass that forms only the per-shard probe second moments: no
    Gram, no optimum, no eigenvalue."""
    if not lam > 0:
        raise ValueError("constant estimation requires lam > 0")
    return _inflated_max(_probe_pass(shards, ball.points(rng), lam))


def estimate_constants(
    shards: ShardRows,
    lam: float,
    ball: ProbeBall,
    rng: np.random.Generator,
    *,
    H: int,
    P: float,
    sigma_w2: float,
) -> ProblemConstants:
    """Estimate the constants entering the convergence bounds.

    L and mu are the extreme eigenvalues of the exact (theta-independent)
    Hessian. G2 is the largest empirical second moment of per-sample gradients
    over the ball's points drawn from rng and over the users, inflated by
    MOMENT_SAFETY; Mn2 is the analogous per-user gradient variance. Gamma is
    computed exactly from the per-user closed-form optima. H, P and sigma_w2
    are passed through into the record.
    The shards are read in one pass that forms the Grams, moments and probe
    second moments, one shard per worker at a time: a large pass runs on
    every CPU the process may use (_shard_pass). The maxima over the shards
    and each shard's Mn2 are then taken on the calling thread in shard
    order, so the record has the bits of the serial pass whatever the
    worker count.
    """
    if not lam > 0:
        raise ValueError("constant estimation requires lam > 0")
    probes = ball.points(rng)

    n_users, _, d = shards.shape
    grams, moments = np.empty((n_users, d, d)), np.empty((n_users, d))
    second_moments = _probe_pass(shards, probes, lam, (grams, moments))

    probes_t = probes.T
    mn2 = np.zeros(n_users)
    for n, second_moment in enumerate(second_moments):
        mean_grad = grams[n] @ probes_t - moments[n][:, None] + lam * probes_t
        variance = second_moment - np.einsum("jp,jp->p", mean_grad, mean_grad)
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
    # Each shard's Hessian G_n + lam I is its Gram with lam added to the
    # diagonal in place, solved and gapped one (d, d) slice at a time, so no
    # (N, d, d) temporary is made.
    np.einsum("nii->ni", grams)[...] += lam
    gaps = np.empty(n_users)
    for n, local_hessian in enumerate(grams):
        local_optimum = np.linalg.solve(local_hessian, moments[n])
        gaps[n] = quadratic_gap(theta_star, local_optimum, local_hessian)
    gamma = max(float(np.mean(gaps)), 0.0)

    return ProblemConstants(
        L=smoothness,
        mu=mu,
        G2=_inflated_max(second_moments),
        Mn2=MOMENT_SAFETY * mn2,
        Gamma=gamma,
        d=d,
        N=n_users,
        H=H,
        P=P,
        sigma_w2=sigma_w2,
    )
