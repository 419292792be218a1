import numpy as np
import pytest

from otafl.objectives import (
    ProbeBall,
    estimate_constants,
    global_grad,
    global_loss,
    hessian,
    quadratic_gap,
    ridge_grad,
    ridge_loss,
    solve_optimum,
)
from otafl.types import RegressionSample, UserShard

from conftest import make_shards


def fd_grad(f, theta, step=1e-6):
    """Central finite differences, the independent gradient oracle."""
    g = np.zeros_like(theta)
    for i in range(theta.shape[0]):
        up = theta.copy()
        down = theta.copy()
        up[i] += step
        down[i] -= step
        g[i] = (f(up) - f(down)) / (2 * step)
    return g


class TestRidgeLoss:
    def test_zero_model_zero_target(self):
        sample = RegressionSample([1.0, 2.0], 0.0)
        assert ridge_loss(np.zeros(2), sample, 0.7) == 0.0

    def test_zero_model_nonzero_target(self):
        sample = RegressionSample([1.0, 2.0], 2.0)
        assert ridge_loss(np.zeros(2), sample, 0.7) == pytest.approx(2.0)

    def test_hand_evaluated_case(self):
        # residual = 1+2-1 = 2 -> 0.5*4 = 2; regularizer 0.25*2 = 0.5
        sample = RegressionSample([1.0, 2.0], 1.0)
        assert ridge_loss(np.ones(2), sample, 0.5) == pytest.approx(2.5, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ridge_loss(np.zeros(3), RegressionSample([1.0, 2.0], 1.0), 0.5)

    def test_non_negative(self, rng):
        for _ in range(20):
            theta = rng.standard_normal(3)
            sample = RegressionSample(rng.standard_normal(3), rng.standard_normal())
            assert ridge_loss(theta, sample, 0.5) >= 0.0


class TestRidgeGrad:
    def test_zero_case(self):
        sample = RegressionSample([0.0, 0.0], 0.0)
        np.testing.assert_array_equal(ridge_grad(np.zeros(2), sample, 0.0), np.zeros(2))

    def test_pure_regularizer(self):
        sample = RegressionSample([0.0, 0.0], 0.0)
        np.testing.assert_allclose(
            ridge_grad(np.array([2.0, 0.0]), sample, 0.5), [1.0, 0.0], atol=1e-15
        )

    def test_matches_finite_differences(self, rng):
        for _ in range(100):
            theta = rng.standard_normal(4)
            sample = RegressionSample(rng.standard_normal(4), rng.standard_normal())
            lam = float(rng.uniform(0.0, 2.0))
            analytic = ridge_grad(theta, sample, lam)
            numeric = fd_grad(lambda th: ridge_loss(th, sample, lam), theta)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-7)


class TestGlobalLoss:
    def test_single_user_single_sample(self):
        shard = UserShard(1, [[1.0, 2.0]], [1.0])
        theta = np.ones(2)
        assert global_loss(theta, [shard], 0.5) == pytest.approx(
            ridge_loss(theta, RegressionSample(shard.features[0], shard.targets[0]), 0.5)
        )

    def test_identical_shards_symmetry(self, rng):
        shard = UserShard(1, rng.standard_normal((5, 3)), rng.standard_normal(5))
        twin = UserShard(2, shard.features, shard.targets)
        theta = rng.standard_normal(3)
        assert global_loss(theta, [shard, twin], 0.5) == pytest.approx(
            global_loss(theta, [shard], 0.5)
        )

    def test_zero_model_direct_summation(self, rng):
        shards = make_shards(rng)
        theta = np.zeros(shards[0].feature_dim)
        # independent oracle: explicit double sum
        expected = np.mean(
            [np.mean([0.5 * t * t for t in shard.targets]) for shard in shards]
        )
        assert global_loss(theta, shards, 0.9) == pytest.approx(expected, rel=1e-12)

    def test_empty_shards_error(self):
        with pytest.raises(ValueError):
            global_loss(np.zeros(2), [], 0.5)


def gd_minimize(shards, lam, dim, steps=200_000, lr=0.05):
    """Gradient-descent-to-stationarity oracle, independent of solve_optimum."""
    theta = np.zeros(dim)
    for _ in range(steps):
        g = global_grad(theta, shards, lam)
        theta -= lr * g
        if np.linalg.norm(g) < 1e-13:
            break
    return theta


class TestSolveOptimum:
    def test_single_sample_hand_case(self):
        shard = UserShard(1, [[1.0]], [1.0])
        theta_star, f_star = solve_optimum([shard], 1.0)
        np.testing.assert_allclose(theta_star, [0.5], atol=1e-14)
        # cross-check with the gradient-descent oracle
        oracle = gd_minimize([shard], 1.0, 1)
        np.testing.assert_allclose(theta_star, oracle, atol=1e-10)

    def test_zero_targets(self, rng):
        shard = UserShard(1, rng.standard_normal((10, 3)), np.zeros(10))
        theta_star, f_star = solve_optimum([shard], 0.5)
        np.testing.assert_allclose(theta_star, np.zeros(3), atol=1e-14)
        assert f_star == pytest.approx(0.0, abs=1e-14)

    def test_stationarity(self, rng):
        for _ in range(10):
            shards = make_shards(rng, n_users=3, per_user=20, dim=4)
            theta_star, _ = solve_optimum(shards, 0.5)
            grad_norm = np.linalg.norm(global_grad(theta_star, shards, 0.5))
            assert grad_norm <= 1e-8 * (1 + np.linalg.norm(theta_star))

    def test_unique_minimizer(self, rng):
        shards = make_shards(rng)
        theta_star, f_star = solve_optimum(shards, 0.5)
        for _ in range(20):
            delta = rng.standard_normal(theta_star.shape[0])
            delta *= rng.uniform(0.1, 2.0) / np.linalg.norm(delta)
            assert global_loss(theta_star + delta, shards, 0.5) > f_star

    def test_quadratic_gap_matches_loss_difference(self, rng):
        shards = make_shards(rng)
        hess = hessian(shards, 0.5)
        theta_star, f_star = solve_optimum(shards, 0.5, hess)
        assert quadratic_gap(theta_star, theta_star, hess) == 0.0
        for _ in range(20):
            theta = theta_star + rng.uniform(0.1, 3.0) * rng.standard_normal(theta_star.shape[0])
            gap = quadratic_gap(theta, theta_star, hess)
            assert gap > 0
            assert gap == pytest.approx(global_loss(theta, shards, 0.5) - f_star, rel=1e-9)

    def test_singular_without_regularization(self):
        shard = UserShard(1, [[1.0, 0.0], [2.0, 0.0]], [1.0, 2.0])
        with pytest.raises(ValueError, match="singular"):
            solve_optimum([shard], 0.0)


class TestEstimateConstants:
    def test_homogeneous_gamma_zero(self, rng):
        shard = make_shards(rng, n_users=1)[0]
        shards = [UserShard(i + 1, shard.features, shard.targets) for i in range(3)]
        c = estimate_constants(
            shards, 0.5, ProbeBall(np.zeros(shard.feature_dim), 2.0), rng,
            H=2, P=1.0, sigma_w2=0.0,
        )
        assert c.Gamma <= 1e-10

    def test_pure_regularizer_curvature(self, rng):
        shards = [UserShard(1, np.zeros((5, 3)), np.zeros(5))]
        c = estimate_constants(
            shards, 0.7, ProbeBall(np.zeros(3), 1.0), rng, H=1, P=1.0, sigma_w2=0.0
        )
        assert c.L == pytest.approx(0.7, rel=1e-12)
        assert c.mu == pytest.approx(0.7, rel=1e-12)

    def test_gamma_matches_bruteforce(self, rng):
        # 2-user, d=2 instance; oracle solves each user by its normal equations
        shards = make_shards(rng, n_users=2, per_user=15, dim=2, noise_std=1.0)
        lam = 0.5
        c = estimate_constants(
            shards, lam, ProbeBall(np.zeros(2), 3.0), rng, H=1, P=1.0, sigma_w2=0.0
        )
        _, f_star = solve_optimum(shards, lam)
        locals_ = []
        for shard in shards:
            gram = shard.features.T @ shard.features / len(shard) + lam * np.eye(2)
            rhs = shard.features.T @ shard.targets / len(shard)
            theta_n = np.linalg.solve(gram, rhs)
            locals_.append(global_loss(theta_n, [shard], lam))
        expected = f_star - np.mean(locals_)
        assert c.Gamma == pytest.approx(expected, rel=1e-10, abs=1e-12)

    def test_gamma_nonnegative(self, rng):
        for _ in range(5):
            shards = make_shards(rng, n_users=3, per_user=12, dim=3)
            c = estimate_constants(
                shards, 0.5, ProbeBall(np.zeros(3), 2.0), rng, H=1, P=1.0, sigma_w2=0.0
            )
            assert c.Gamma >= 0.0

    def test_curvature_bracket(self, rng):
        # smoothness / strong convexity as two-sided quadratic bracket
        shards = make_shards(rng)
        lam = 0.5
        c = estimate_constants(
            shards, lam, ProbeBall(np.zeros(5), 2.0), rng, H=1, P=1.0, sigma_w2=0.0
        )
        for _ in range(100):
            v1 = rng.standard_normal(5)
            v2 = rng.standard_normal(5)
            lhs = (
                global_loss(v1, shards, lam)
                - global_loss(v2, shards, lam)
                - (v1 - v2) @ global_grad(v2, shards, lam)
            )
            sq = np.sum((v1 - v2) ** 2)
            assert 0.5 * c.mu * sq - 1e-9 <= lhs <= 0.5 * c.L * sq + 1e-9

    def test_g2_covers_probe_gradients(self, rng):
        shards = make_shards(rng)
        ball = ProbeBall(np.zeros(5), 2.0, count=16)
        c = estimate_constants(shards, 0.5, ball, rng, H=1, P=1.0, sigma_w2=0.0)
        # spot-check: random probe points inside the ball keep the bound
        for _ in range(20):
            theta = ball.center + rng.standard_normal(5) * 0.3
            for shard in shards:
                residuals = shard.features @ theta - shard.targets
                grads = residuals[:, None] * shard.features + 0.5 * theta
                assert np.mean(np.sum(grads**2, axis=1)) <= c.G2 * 1.5

    def test_requires_positive_lambda(self, rng):
        shards = make_shards(rng)
        with pytest.raises(ValueError):
            estimate_constants(shards, 0.0, ProbeBall(np.zeros(5), 1.0), rng, H=1, P=1.0, sigma_w2=0.0)


def test_hessian_matches_fd_of_grad(rng):
    shards = make_shards(rng, dim=3)
    hess = hessian(shards, 0.5)
    theta = rng.standard_normal(3)
    for i in range(3):
        e = np.zeros(3)
        e[i] = 1e-6
        col = (global_grad(theta + e, shards, 0.5) - global_grad(theta - e, shards, 0.5)) / 2e-6
        np.testing.assert_allclose(col, hess[:, i], rtol=1e-5, atol=1e-8)
