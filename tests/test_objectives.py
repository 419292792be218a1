from fractions import Fraction

import numpy as np
import pytest

from otafl.objectives import (
    ProbeBall,
    estimate_constants,
    global_loss,
    grams_optimum,
    quadratic_gap,
    shard_grams,
    solve_optimum,
)
from otafl.data import PartitionSpec, generate_synthetic, partition
from otafl.data import Dataset

from conftest import (
    RegressionSample,
    accumulated_optimum,
    block_shards,
    global_grad,
    make_shards,
    one_shard,
    ridge_grad,
    ridge_loss,
)


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
        shard = one_shard([[1.0, 2.0]], [1.0])
        theta = np.ones(2)
        assert global_loss(theta, shard, 0.5) == pytest.approx(
            ridge_loss(theta, RegressionSample([1.0, 2.0], 1.0), 0.5)
        )

    def test_identical_shards_symmetry(self, rng):
        features, targets = rng.standard_normal((5, 3)), rng.standard_normal(5)
        twins = block_shards(np.stack([features, features]), np.stack([targets, targets]))
        theta = rng.standard_normal(3)
        assert global_loss(theta, twins, 0.5) == pytest.approx(
            global_loss(theta, one_shard(features, targets), 0.5)
        )

    def test_zero_model_direct_summation(self, rng):
        shards = make_shards(rng)
        theta = np.zeros(shards.shape[-1])
        # independent oracle: explicit double sum
        targets = shards.dataset.targets[shards.rows]
        expected = np.mean([np.mean([0.5 * t * t for t in user]) for user in targets])
        assert global_loss(theta, shards, 0.9) == pytest.approx(expected, rel=1e-12)

    def test_empty_shards_error(self):
        dataset = Dataset(np.zeros((1, 2)), np.zeros(1))
        with pytest.raises(ValueError, match="at least one user shard"):
            global_loss(np.zeros(2), dataset.shards(np.zeros((0, 1), dtype=int)), 0.5)


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
        shard = one_shard([[1.0]], [1.0])
        theta_star = solve_optimum(shard, 1.0)
        np.testing.assert_allclose(theta_star, [0.5], atol=1e-14)
        # cross-check with the gradient-descent oracle
        oracle = gd_minimize(shard, 1.0, 1)
        np.testing.assert_allclose(theta_star, oracle, atol=1e-10)

    def test_zero_targets(self, rng):
        shard = one_shard(rng.standard_normal((10, 3)), np.zeros(10))
        theta_star = solve_optimum(shard, 0.5)
        np.testing.assert_allclose(theta_star, np.zeros(3), atol=1e-14)
        assert global_loss(theta_star, shard, 0.5) == pytest.approx(0.0, abs=1e-14)

    def test_stationarity(self, rng):
        for _ in range(10):
            shards = make_shards(rng, n_users=3, per_user=20, dim=4)
            theta_star = solve_optimum(shards, 0.5)
            grad_norm = np.linalg.norm(global_grad(theta_star, shards, 0.5))
            assert grad_norm <= 1e-8 * (1 + np.linalg.norm(theta_star))

    def test_unique_minimizer(self, rng):
        shards = make_shards(rng)
        theta_star = solve_optimum(shards, 0.5)
        f_star = global_loss(theta_star, shards, 0.5)
        for _ in range(20):
            delta = rng.standard_normal(theta_star.shape[0])
            delta *= rng.uniform(0.1, 2.0) / np.linalg.norm(delta)
            assert global_loss(theta_star + delta, shards, 0.5) > f_star

    def test_quadratic_gap_matches_loss_difference(self, rng):
        shards = make_shards(rng)
        hess = grams_optimum(*shard_grams(shards), 0.5)[1]
        theta_star = solve_optimum(shards, 0.5)
        f_star = global_loss(theta_star, shards, 0.5)
        assert quadratic_gap(theta_star, theta_star, hess) == 0.0
        for _ in range(20):
            theta = theta_star + rng.uniform(0.1, 3.0) * rng.standard_normal(theta_star.shape[0])
            gap = quadratic_gap(theta, theta_star, hess)
            assert gap > 0
            assert gap == pytest.approx(global_loss(theta, shards, 0.5) - f_star, rel=1e-9)

    def test_quadratic_gap_rows_have_the_bits_of_one_row_calls(self, rng):
        # a block of trials' gaps in one call
        for n_rows, dim in ((1, 90), (7, 20), (50, 3)):
            thetas = rng.standard_normal((n_rows, dim))
            theta_stars = rng.standard_normal((n_rows, dim))
            factors = rng.standard_normal((n_rows, dim, dim))
            hessians = factors @ factors.transpose(0, 2, 1)
            gaps = quadratic_gap(thetas, theta_stars, hessians)
            assert gaps.shape == (n_rows,)
            for theta, theta_star, hess, gap in zip(thetas, theta_stars, hessians, gaps):
                diff = theta - theta_star
                assert gap == quadratic_gap(theta, theta_star, hess) == 0.5 * (diff @ hess @ diff)

    @pytest.mark.parametrize(
        "n_trials, n_rounds, dim", [(1, 64, 90), (7, 64, 20), (5, 3, 1), (50, 7, 3), (3, 64, 1)]
    )
    def test_quadratic_gap_chunk_has_the_bits_of_per_round_calls(
        self, rng, n_trials, n_rounds, dim
    ):
        # trainer.run_training measures a chunk of rounds' gaps in one call:
        # (T, C, d) models against (T, 1, d) optima and (T, 1, d, d) Hessians
        thetas = rng.standard_normal((n_trials, n_rounds, dim))
        theta_stars = rng.standard_normal((n_trials, dim))
        factors = rng.standard_normal((n_trials, dim, dim))
        hessians = factors @ factors.transpose(0, 2, 1)
        gaps = quadratic_gap(thetas, theta_stars[:, None], hessians[:, None])
        assert gaps.shape == (n_trials, n_rounds)
        for c in range(n_rounds):
            np.testing.assert_array_equal(
                gaps[:, c], quadratic_gap(thetas[:, c], theta_stars, hessians), err_msg=f"{c}"
            )

    def test_singular_without_regularization(self):
        shard = one_shard([[1.0, 0.0], [2.0, 0.0]], [1.0, 2.0])
        with pytest.raises(ValueError, match="singular"):
            solve_optimum(shard, 0.0)


class TestEstimateConstants:
    def test_homogeneous_gamma_zero(self, rng):
        shard = make_shards(rng, n_users=1)
        shards = shard.dataset.shards(shard.rows.repeat(3, axis=0))
        c = estimate_constants(
            shards, 0.5, ProbeBall(np.zeros(shard.shape[-1]), 2.0), rng,
            H=2, P=1.0, sigma_w2=0.0,
        )
        assert c.Gamma <= 1e-10

    def test_pure_regularizer_curvature(self, rng):
        shards = one_shard(np.zeros((5, 3)), np.zeros(5))
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
        f_star = global_loss(solve_optimum(shards, lam), shards, lam)
        locals_ = []
        for features, targets in shards:
            gram = features.T @ features / len(targets) + lam * np.eye(2)
            rhs = features.T @ targets / len(targets)
            theta_n = np.linalg.solve(gram, rhs)
            locals_.append(global_loss(theta_n, one_shard(features, targets), lam))
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
            for features, targets in shards:
                residuals = features @ theta - targets
                grads = residuals[:, None] * features + 0.5 * theta
                assert np.mean(np.sum(grads**2, axis=1)) <= c.G2 * 1.5

    def test_requires_positive_lambda(self, rng):
        shards = make_shards(rng)
        with pytest.raises(ValueError):
            estimate_constants(shards, 0.0, ProbeBall(np.zeros(5), 1.0), rng, H=1, P=1.0, sigma_w2=0.0)


def reference_constants(shards, lam, probes, safety=1.1):
    """The per-probe loop: three mat-vecs per probe point and shard, the
    Hessian from grams_optimum, and each user's optimum from its own solve."""
    g2 = 0.0
    mn2 = np.zeros(shards.shape[0])
    for n, (features, targets) in enumerate(shards):
        sq_feature_norms = np.einsum("ij,ij->i", features, features)
        for theta in probes:
            residuals = features @ theta - targets
            projections = features @ theta
            second_moment = float(
                np.mean(
                    residuals * residuals * sq_feature_norms
                    + 2.0 * lam * residuals * projections
                )
                + lam * lam * (theta @ theta)
            )
            mean_grad = features.T @ residuals / len(targets) + lam * theta
            g2 = max(g2, second_moment)
            mn2[n] = max(mn2[n], second_moment - float(mean_grad @ mean_grad))
    eigs = np.linalg.eigvalsh(grams_optimum(*shard_grams(shards), lam)[1])
    f_star = global_loss(solve_optimum(shards, lam), shards, lam)
    local_minima = []
    for features, targets in shards:
        d = features.shape[1]
        gram = features.T @ features / len(targets) + lam * np.eye(d)
        theta_n = np.linalg.solve(gram, features.T @ targets / len(targets))
        local_minima.append(global_loss(theta_n, one_shard(features, targets), lam))
    gamma = max(f_star - float(np.mean(local_minima)), 0.0)
    return eigs[-1], eigs[0], safety * g2, safety * mn2, gamma


class TestEstimateConstantsReference:
    """The batched estimate equals the per-probe loop up to reduction order."""

    def check(self, shards, lam, ball, seed):
        c = estimate_constants(
            shards, lam, ball, np.random.default_rng(seed), H=2, P=1.0, sigma_w2=0.1
        )
        probes = ball.points(np.random.default_rng(seed))
        expected = reference_constants(shards, lam, probes)
        for name, value, ref in zip(("L", "mu", "G2", "Mn2", "Gamma"), (
            c.L, c.mu, c.G2, c.Mn2, c.Gamma
        ), expected):
            np.testing.assert_allclose(value, ref, rtol=1e-12, atol=0, err_msg=name)
        assert c.Gamma > 0 and np.all(c.Mn2 > 0)

    def test_hand_built_block(self, rng):
        # the first shard has the largest gradients, so a max over users that
        # kept only the last shard would show
        offsets = np.arange(3)[:, None]
        shards = block_shards(
            rng.standard_normal((3, 12, 4)) + (2 - offsets)[..., None],
            rng.standard_normal((3, 12)) + offsets,
        )
        self.check(shards, 0.3, ProbeBall(rng.standard_normal(4), 1.5, count=9), seed=5)

    def test_partition_block(self, rng):
        dataset = generate_synthetic(6, 5 * 40, 0.8, rng)
        shards = dataset.shards(partition(dataset, PartitionSpec("heterogeneous", 5, 0.5), rng))
        self.check(shards, 0.5, ProbeBall(np.zeros(6), 3.0), seed=8)


def test_hessian_matches_fd_of_grad(rng):
    shards = make_shards(rng, dim=3)
    hess = grams_optimum(*shard_grams(shards), 0.5)[1]
    theta = rng.standard_normal(3)
    for i in range(3):
        e = np.zeros(3)
        e[i] = 1e-6
        col = (global_grad(theta + e, shards, 0.5) - global_grad(theta - e, shards, 0.5)) / 2e-6
        np.testing.assert_allclose(col, hess[:, i], rtol=1e-5, atol=1e-8)


class TestRowIdView:
    """A partition's row-id view, read one shard per step, gives the bits of
    the same samples held as their own dataset, one shard after another."""

    LAM = 0.4

    def instance(self):
        rng = np.random.default_rng(31)
        dataset = generate_synthetic(7, 6 * 50 + 3, 0.7, rng)
        rows = partition(dataset, PartitionSpec("heterogeneous", 6, 0.4), rng)
        return dataset.shards(rows), block_shards(dataset.features[rows], dataset.targets[rows])

    def test_grams_optimum_and_loss_are_bit_equal(self):
        view, block = self.instance()
        assert view.shape == block.shape == (6, 50, 7)
        for from_view, from_block in zip(shard_grams(view), shard_grams(block)):
            np.testing.assert_array_equal(from_view, from_block)
        # grams_optimum and solve_optimum read one shard_grams pass, with the
        # bits of the running Gram sum and separate moment pass they replace
        theta_star, hess = accumulated_optimum(block, self.LAM)
        for shards in (view, block):
            np.testing.assert_array_equal(solve_optimum(shards, self.LAM), theta_star)
            from_grams = grams_optimum(*shard_grams(shards), self.LAM)
            np.testing.assert_array_equal(from_grams[0], theta_star)
            np.testing.assert_array_equal(from_grams[1], hess)
        theta = theta_star + 0.3
        assert global_loss(theta, view, self.LAM) == global_loss(theta, block, self.LAM)
        np.testing.assert_array_equal(
            global_grad(theta, view, self.LAM), global_grad(theta, block, self.LAM)
        )

    def test_constants_are_bit_equal(self):
        view, block = self.instance()
        ball = ProbeBall(solve_optimum(block, self.LAM), 2.5, count=12)
        constants = [
            estimate_constants(
                shards, self.LAM, ball, np.random.default_rng(5), H=2, P=1.0, sigma_w2=0.1
            )
            for shards in (view, block)
        ]
        from_view, from_block = constants
        for name in ("L", "mu", "G2", "Gamma"):
            assert getattr(from_view, name) == getattr(from_block, name), name
        np.testing.assert_array_equal(from_view.Mn2, from_block.Mn2)


def exact_gamma(shards, lam) -> Fraction:
    """Gamma = F(theta*) - mean_n F_n(theta_n*) in exact rational arithmetic,
    from the residual form, for d = 2."""
    lam = Fraction(lam)
    users = [
        ([[Fraction(v) for v in row] for row in features], [Fraction(v) for v in targets])
        for features, targets in shards
    ]

    def gram_and_moment(features, targets):
        size = len(targets)
        gram = [[sum(x[a] * x[b] for x in features) / size for b in range(2)] for a in range(2)]
        moment = [sum(x[a] * y for x, y in zip(features, targets)) / size for a in range(2)]
        return gram, moment

    def solve(gram, moment):  # (gram + lam I) theta = moment, by Cramer's rule
        a, b, c, e = gram[0][0] + lam, gram[0][1], gram[1][0], gram[1][1] + lam
        det = a * e - b * c
        return [(e * moment[0] - b * moment[1]) / det, (a * moment[1] - c * moment[0]) / det]

    def loss(theta, features, targets):
        residuals = [x[0] * theta[0] + x[1] * theta[1] - y for x, y in zip(features, targets)]
        mean_sq = sum(r * r for r in residuals) / len(residuals)
        return mean_sq / 2 + lam / 2 * (theta[0] ** 2 + theta[1] ** 2)

    stats = [gram_and_moment(*user) for user in users]
    n = len(users)
    mean_gram = [[sum(g[a][b] for g, _ in stats) / n for b in range(2)] for a in range(2)]
    mean_moment = [sum(m[a] for _, m in stats) / n for a in range(2)]
    theta_star = solve(mean_gram, mean_moment)
    gaps = [
        loss(theta_star, *user) - loss(solve(*stat), *user) for user, stat in zip(users, stats)
    ]
    return sum(gaps) / n


class TestGammaIdentity:
    """Gamma is the mean over users of theta*'s gap on each quadratic F_n."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_residual_form(self, seed):
        rng = np.random.default_rng(60 + seed)
        dataset = generate_synthetic(4, 5 * 30, 0.9, rng)
        shards = dataset.shards(partition(dataset, PartitionSpec("heterogeneous", 5, 0.5), rng))
        ball = ProbeBall(np.zeros(4), 2.0, count=4)
        c = estimate_constants(shards, 0.3, ball, rng, H=1, P=1.0, sigma_w2=0.0)
        _, _, _, _, residual_form = reference_constants(shards, 0.3, ball.points(rng))
        assert c.Gamma > 0
        np.testing.assert_allclose(c.Gamma, residual_form, rtol=1e-12, atol=0)

    def test_nearly_homogeneous_with_large_losses(self):
        # three near-copies of one shard with targets around 1e3: F* is about
        # 5e5 and Gamma about 5e-8, below the rounding of F* itself, so the
        # residual form loses most digits; the identity keeps them
        rng = np.random.default_rng(3)
        base_features, base_targets = rng.standard_normal((6, 2)), rng.standard_normal(6)
        shards = block_shards(
            np.stack([base_features + 1e-6 * rng.standard_normal((6, 2)) for _ in range(3)]),
            1e3 + base_targets + 1e-6 * rng.standard_normal((3, 6)),
        )
        lam = 0.5
        c = estimate_constants(
            shards, lam, ProbeBall(np.zeros(2), 1.0), rng, H=1, P=1.0, sigma_w2=0.0
        )
        exact = exact_gamma(shards, lam)
        assert global_loss(solve_optimum(shards, lam), shards, lam) > 1e5
        assert 0 < exact < 1e-6
        assert c.Gamma >= 0.0
        assert abs(Fraction(c.Gamma) - exact) <= Fraction(1, 10**8) * exact
