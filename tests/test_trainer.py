import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import otafl.trainer as trainer_mod

from otafl.channel import fading_mac, sample_noise
from otafl.data import Dataset, PartitionSpec, generate_synthetic, partition
from otafl.localsgd import DEFAULT_THETA0_STD, KernelBlocks, check_steps
from otafl.objectives import grams_optimum, quadratic_gap, shard_grams
from otafl.precoding import AlphaSchedule, FadingPolicy, decode, precode
from otafl.trainer import (
    SCHEME_TABLE,
    RunTrace,
    StepSchedule,
    TrainerConfig,
    TrialStreams,
    draw_fading_rounds,
    run_round,
    run_training,
    step_averaged_model,
    step_final_model,
)

from conftest import (
    KERNEL_BLOCKS,
    RegressionSample,
    allocating_pass,
    block_recorder,
    checked_pass,
    global_grad,
    make_shards,
    ridge_grad,
    single_shard,
    weighted_average_model,
)


def _start(seed, dim):
    """The initial model of trial `seed`: N(0, DEFAULT_THETA0_STD^2 I_d)."""
    return np.random.default_rng(seed).normal(0.0, DEFAULT_THETA0_STD, dim)


def _streams(seed, n_users, noise_seed=None, fading_seed=None):
    """Streams of a single-scheme trial."""
    return TrialStreams(
        users=tuple(np.random.default_rng(seed * 1000 + n) for n in range(n_users)),
        noise=(np.random.default_rng(noise_seed if noise_seed is not None else seed + 1),),
        fading=(np.random.default_rng(fading_seed if fading_seed is not None else seed + 2),),
    )


def _one_trial(optimum):
    """A trial's (theta*, Hessian) as the (1, d) and (1, d, d) optima of a block."""
    return optimum[0][None], optimum[1][None]


def _plan(divisors):
    """A round's fading plan as run_round takes it: the MAC's magnitudes,
    1.0 for a user left out, and the users' gain divisors."""
    return np.where(np.isfinite(divisors), divisors, 1.0), divisors


def _divisors(ids, mags, n_users):
    """The (T, N) gain divisors of the K senders of each trial, (T, K) 1-based
    ids at magnitudes mags: +inf for a user left out."""
    divisors = np.full((ids.shape[0], n_users), np.inf)
    np.put_along_axis(divisors, ids - 1, mags, axis=1)
    return divisors


def _round(theta, shards, config, alpha, streams, round_index, optimum, indices, fading=None):
    """One round of config's one scheme as run_training makes it: the users'
    local steps from theta on the shards' samples, then run_round's
    aggregation over the channel with one round's noise from the trial's
    noise stream, for a block of one trial. fading is the round's (N,) gain
    divisors. Returns the new model, its gap and the users' transmit
    energies."""
    (scheme,) = config.schemes
    dataset, rows = shards.dataset, shards.rows
    t0 = (round_index - 1) * config.local_steps
    etas = [config.step.eta(t0 + j) for j in range(config.local_steps)]
    local_models = checked_pass(
        theta, dataset.features, dataset.targets, etas,
        np.take_along_axis(rows, indices, axis=1), config.ridge_lambda,
    )
    noise = None
    if config.sigma_w2 > 0:
        noise = sample_noise(theta.shape[-1], config.sigma_w2, streams.noise[0])[None]
    powers = np.empty((1, rows.shape[0]))
    plan = None if fading is None else _plan(fading[None])
    (new_theta,) = run_round(
        theta[None], local_models[None], scheme, config, alpha, noise, powers, plan
    )
    return new_theta, quadratic_gap(new_theta, *optimum), powers[0]


def _train(shards, config, alpha_schedule, streams, optimum, theta0):
    """run_training on one trial's shards from theta0; returns each scheme's
    trial-0 trace."""
    traces = run_training(
        shards.dataset, shards.rows[None], theta0[None], config, alpha_schedule, [streams],
        _one_trial(optimum),
    )
    return [RunTrace(*(None if field is None else field[0] for field in trace)) for trace in traces]


def _alone(config, scheme):
    """The settings of config for a run of scheme alone."""
    return replace(
        config, schemes=(scheme,), fading=config.fading if SCHEME_TABLE[scheme].fading else None
    )


def _rows(shards, indices):
    """(N, H) shard sample indices as row ids into the shards' dataset."""
    return np.take_along_axis(shards.rows, indices, axis=1)


def _indices(seed, n_users, shard_size, local_steps):
    """One round's (N, H) sample indices, drawn from the user streams of _streams(seed, N)."""
    users = _streams(seed, n_users).users
    return np.stack([rng.integers(shard_size, size=local_steps) for rng in users])


def _schedule(mu=1.0, shift=20.0, kind="final_model"):
    return StepSchedule(kind=kind, shift=shift, mu=mu)


def _optimum(shards, lam=0.5):
    return grams_optimum(*shard_grams(shards), lam)


def _sample(shards, n, i):
    """User n's sample i."""
    row = shards.rows[n, i]
    return RegressionSample(shards.dataset.features[row], shards.dataset.targets[row])


def _reference_local_models(theta0, shards, etas, user_rngs, lam):
    """Per-sample loop: one scalar index draw and one ridge_grad step at a time."""
    models = []
    n_users, shard_size = shards.rows.shape
    for n, rng in zip(range(n_users), user_rngs):
        theta = theta0
        for eta in etas:
            i = int(rng.integers(shard_size))
            theta = theta - eta * ridge_grad(theta, _sample(shards, n, i), lam)
        models.append(theta)
    return models


class TestSgdStep:
    """Steps of the batched kernel against the per-sample ridge gradient."""

    def test_fixed_point_on_zero_data(self, rng):
        theta = rng.standard_normal(3)
        indices = np.zeros((2, 2), dtype=int)
        out = checked_pass(theta, np.zeros((10, 3)), np.zeros(10), [0.1, 0.2], indices, 0.0)
        np.testing.assert_array_equal(out, np.stack([theta, theta]))

    def test_single_sample_deterministic(self, rng):
        # one step per user at a given sample is theta - eta * ridge_grad
        shards = make_shards(rng, n_users=4, per_user=6, dim=3)
        thetas = rng.standard_normal((4, 3))
        indices = rng.integers(6, size=(4, 1))
        dataset = shards.dataset
        rows = _rows(shards, indices)
        out = checked_pass(thetas, dataset.features, dataset.targets, [0.1], rows, 0.5)
        expected = [
            thetas[n] - 0.1 * ridge_grad(thetas[n], _sample(shards, n, int(indices[n, 0])), 0.5)
            for n in range(4)
        ]
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-15)

    def test_mean_step_matches_full_gradient(self, rng):
        # 10k users holding the same shard each take one step from theta
        shard = single_shard(rng, n_samples=25, dim=3)
        n_users, eta, lam = 10_000, 0.05, 0.5
        theta = rng.standard_normal(3)
        indices = rng.integers(25, size=(n_users, 1))
        dataset = shard.dataset
        steps = checked_pass(theta, dataset.features, dataset.targets, [eta], indices, lam) - theta
        expected = -eta * global_grad(theta, shard, lam)
        per_sample = np.stack(
            [-eta * ridge_grad(theta, _sample(shard, 0, i), lam) for i in range(25)]
        )
        se = per_sample.std(axis=0) / np.sqrt(n_users)
        assert np.all(np.abs(steps.mean(axis=0) - expected) <= 3 * se + 1e-12)

    # run_training and estimate_alpha_mc check their settings once per run
    def test_invalid_step_size(self):
        with pytest.raises(ValueError, match="step size"):
            check_steps([0.1, 0.0], 0.5)

    def test_negative_regularization(self):
        with pytest.raises(ValueError, match="non-negative"):
            check_steps([0.1], -1.0)

    @pytest.mark.parametrize(
        "etas, lam, match",
        [
            ([0.1, math.nan], 0.5, "step size must be positive"),
            ([math.nan], 0.5, "step size must be positive"),
            ([0.1], math.nan, "regularization weight must be non-negative"),
        ],
    )
    def test_nan_settings_rejected(self, etas, lam, match):
        with pytest.raises(ValueError, match=match):
            check_steps(etas, lam)


class TestBatchedPass:
    """A leading batch axis gives each slice the bits of an unbatched call."""

    @pytest.mark.parametrize("per_user", [False, True])
    def test_shared_indices_equal_per_model_calls(self, rng, per_user):
        shards = make_shards(rng, n_users=5, per_user=9, dim=4)
        thetas = rng.standard_normal((3, 5, 4) if per_user else (3, 1, 4))
        dataset = shards.dataset
        rows = _rows(shards, rng.integers(9, size=(5, 3)))
        etas = [0.1, 0.07, 0.05]
        out = checked_pass(thetas, dataset.features, dataset.targets, etas, rows, 0.5)
        assert out.shape == (3, 5, 4)
        for theta, models in zip(thetas, out):
            start = theta if per_user else theta[0]
            expected = checked_pass(start, dataset.features, dataset.targets, etas, rows, 0.5)
            assert np.array_equal(models, expected)

    def test_per_row_indices_equal_per_row_calls(self, rng):
        shards = make_shards(rng, n_users=5, per_user=9, dim=4)
        thetas = rng.standard_normal((4, 1, 4))
        dataset = shards.dataset
        indices = rng.integers(9, size=(4, 5, 2))
        blocks = np.stack([_rows(shards, block) for block in indices]).astype(np.uint8)
        etas = [0.1, 0.07]
        out = checked_pass(thetas, dataset.features, dataset.targets, etas, blocks, 0.5)
        assert out.shape == (4, 5, 4)
        for theta, rows, models in zip(thetas, blocks, out):
            expected = checked_pass(theta[0], dataset.features, dataset.targets, etas, rows, 0.5)
            assert np.array_equal(models, expected)

    @pytest.mark.parametrize("n_schemes, n_trials", [(3, 4), (1, 4), (3, 1), (1, 1)])
    def test_trials_and_schemes_equal_per_model_calls(self, rng, n_schemes, n_trials):
        # (S, T, 1, d) models over (T, N, H) rows: scheme s of trial t steps
        # on trial t's rows, with the bits of its own unbatched call, also
        # where S or T is 1 and the kernel drops the unit axes
        dataset = make_shards(rng, n_users=5, per_user=9, dim=4).dataset
        thetas = rng.standard_normal((n_schemes, n_trials, 1, 4))
        blocks = rng.integers(45, size=(n_trials, 5, 2)).astype(np.uint8)
        etas = [0.1, 0.07]
        out = checked_pass(thetas, dataset.features, dataset.targets, etas, blocks, 0.5)
        assert out.shape == (n_schemes, n_trials, 5, 4)
        for s, t in np.ndindex(n_schemes, n_trials):
            expected = checked_pass(
                thetas[s, t, 0], dataset.features, dataset.targets, etas, blocks[t], 0.5
            )
            assert np.array_equal(out[s, t], expected)


# Runs local_pass at fullscale_synth's block shape (S, H, T, N, d) =
# (1, 40, 2, 50, 90) and at the desk comparison's (3, 10, 5, 20, 20), and
# writes the bytes of both results to stdout.
_KERNEL_SCRIPT = """
import sys
import numpy as np
from otafl.localsgd import KernelBlocks, local_pass
rng = np.random.default_rng(3)
for s, h, t, n, d in ((1, 40, 2, 50, 90), (3, 10, 5, 20, 20)):
    features, targets = rng.standard_normal((500, d)), rng.standard_normal(500)
    rows = rng.integers(500, size=(h, t, n))
    theta = rng.standard_normal((s, t, 1, d))
    etas = [0.5 / (d + j) for j in range(h)]
    blocks = KernelBlocks(s, rows.shape, features)
    models = local_pass(theta, features, targets, etas, rows, 0.01, blocks=blocks)
    sys.stdout.buffer.write(models.tobytes())
"""


def test_kernel_bits_do_not_depend_on_the_blas_thread_count():
    # the residual is one BLAS dot per row, whose bits must not change with
    # OpenBLAS's thread count
    src = str(Path(trainer_mod.__file__).parents[1])
    results = [
        subprocess.run(
            [sys.executable, "-c", _KERNEL_SCRIPT], check=True, capture_output=True,
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads},
        ).stdout
        for threads in ("1", "2")
    ]
    assert len(results[0]) == 8 * (2 * 50 * 90 + 3 * 5 * 20 * 20)
    assert results[0] == results[1]


class TestFusedStep:
    """The kernel steps its own C-contiguous block of models in place."""

    @pytest.mark.parametrize(
        "theta_shape, rows_shape",
        [((4,), (5, 3)), ((5, 4), (5, 3)), ((2, 1, 4), (2, 5, 3)), ((3, 2, 1, 4), (2, 5, 3))],
    )
    def test_start_models_are_not_written(self, rng, theta_shape, rows_shape):
        dataset = make_shards(rng, n_users=5, per_user=9, dim=4).dataset
        theta = rng.standard_normal(theta_shape)
        before = theta.copy()
        rows = rng.integers(45, size=rows_shape)
        out = checked_pass(theta, dataset.features, dataset.targets, [0.1, 0.07, 0.05], rows, 0.5)
        assert np.array_equal(theta, before)
        assert not np.shares_memory(out, theta)

    def test_strided_start_has_the_bits_of_its_copy(self, rng):
        # run_training starts each round from the strided view thetas[:, :, i]
        # of its (S, T, R, d) history
        dataset = make_shards(rng, n_users=5, per_user=9, dim=4).dataset
        history = rng.standard_normal((3, 2, 6, 4))
        before = history.copy()
        start = history[:, :, 2, None]
        assert not start.flags.c_contiguous
        rows = rng.integers(45, size=(2, 5, 3))
        args = (dataset.features, dataset.targets, [0.1, 0.07, 0.05], rows, 0.5)
        out = checked_pass(start, *args)
        assert np.array_equal(out, checked_pass(np.ascontiguousarray(start), *args))
        assert np.array_equal(history, before)

    def test_long_pass_matches_per_user_reference(self, rng):
        # H=40 steps at d=90 on a small dataset, two trials of N=4 users
        dataset = generate_synthetic(90, 30, 0.5, rng)
        n_trials, n_users, h, lam = 2, 4, 40, 0.3
        thetas = rng.normal(0.0, DEFAULT_THETA0_STD, (n_trials, 1, 90))
        rows = rng.integers(30, size=(n_trials, n_users, h))
        etas = [0.01 / (1.0 + 0.02 * j) for j in range(h)]
        out = checked_pass(thetas, dataset.features, dataset.targets, etas, rows, lam)
        for t, n in np.ndindex(n_trials, n_users):
            theta = thetas[t, 0]
            for eta, i in zip(etas, rows[t, n]):
                x, y = dataset.features[i], dataset.targets[i]
                theta = theta - eta * ((x @ theta - y) * x + lam * theta)
            np.testing.assert_allclose(out[t, n], theta, rtol=1e-10)


class TestStepSchedules:
    def test_averaged_model_values(self):
        assert step_averaged_model(0, 1.0, 4.0) == pytest.approx(1.0)
        assert step_averaged_model(96, 4.0, 4.0) == pytest.approx(0.01)

    def test_averaged_model_halving_property(self):
        # eta_t <= 2*eta_{t+H} whenever a >= H
        a, h, mu = 12.0, 10, 0.7
        for t in range(0, 200):
            assert step_averaged_model(t, mu, a) <= 2 * step_averaged_model(t + h, mu, a)

    def test_final_model_values(self):
        assert step_final_model(0, 2.0, 1.0) == pytest.approx(1.0)
        assert step_final_model(10, 1.0, 10.0) == pytest.approx(0.1)

    def test_final_model_decreasing(self):
        etas = [step_final_model(t, 1.0, 8.0) for t in range(100)]
        assert all(a > b for a, b in zip(etas, etas[1:]))

    def test_schedule_validation(self):
        schedule = StepSchedule("final_model", shift=10.0, mu=1.0)
        schedule.validate_against(smoothness=1.2, local_steps=10)
        with pytest.raises(ValueError):
            schedule.validate_against(smoothness=2.0, local_steps=10)  # needs >= 16
        with pytest.raises(ValueError):
            StepSchedule("averaged_model", shift=10.0, mu=1.0).validate_against(1.0, 10)


    @pytest.mark.parametrize("shift, mu", [(math.nan, 1.0), (10.0, math.nan)])
    def test_nan_shift_or_mu_rejected(self, shift, mu):
        with pytest.raises(ValueError, match="shift and mu must be positive"):
            StepSchedule("final_model", shift=shift, mu=mu)


class TestTrainerConfig:
    POLICY = FadingPolicy(h_min=0.2, participants=1)

    def test_rounds_and_local_steps_must_be_positive(self):
        for local_steps, rounds in ((1, 0), (0, 1), (1, -1)):
            with pytest.raises(ValueError, match="local_steps and rounds must be >= 1"):
                TrainerConfig(
                    schemes=("noise_free_local_sgd",), local_steps=local_steps, rounds=rounds,
                    step=_schedule(),
                )

    def test_channel_settings_validation(self):
        with pytest.raises(ValueError, match="sigma_w2 must be non-negative"):
            TrainerConfig(
                schemes=("cotaf",), local_steps=1, rounds=1, step=_schedule(), sigma_w2=-1.0
            )
        with pytest.raises(ValueError, match="rayleigh_scale must be positive"):
            FadingPolicy(h_min=0.2, participants=1, rayleigh_scale=0.0)

    @pytest.mark.parametrize(
        "setting, match",
        [
            ({"ridge_lambda": math.nan}, "ridge_lambda must be non-negative, got nan"),
            ({"ridge_lambda": -1.0}, r"^ridge_lambda must be non-negative, got -1\.0$"),
            ({"sigma_w2": math.nan}, "sigma_w2 must be non-negative"),
        ],
    )
    def test_nan_settings_rejected(self, setting, match):
        with pytest.raises(ValueError, match=match):
            TrainerConfig(schemes=("cotaf",), local_steps=1, rounds=1, step=_schedule(), **setting)

    def test_non_positive_gain_rejected(self):
        for gain in (0.0, -1.5, math.nan):
            with pytest.raises(ValueError, match="non_precoded_gain must be positive"):
                TrainerConfig(
                    schemes=("non_precoded_ota",), local_steps=1, rounds=1, step=_schedule(),
                    non_precoded_gain=gain,
                )

    @pytest.mark.parametrize(
        "schemes, fading, match",
        [
            ((), None, r"^need at least one scheme$"),
            (("cotaf", "nope"), None, r"^unknown scheme 'nope'; expected one of "),
            # the policy belongs to a fading scheme, and each fading scheme needs it
            (("cotaf", "noise_free_local_sgd"), POLICY, r"^cotaf takes no FadingPolicy$"),
            (("noise_free_local_sgd", "cotaf_fading"), None,
             r"^cotaf_fading requires a FadingPolicy$"),
        ],
    )
    def test_schemes_and_fading_policy_rejected(self, schemes, fading, match):
        with pytest.raises(ValueError, match=match):
            TrainerConfig(
                schemes=schemes, local_steps=1, rounds=1, step=_schedule(), fading=fading
            )

    def test_noise_free_ignores_sigma_w2(self, rng):
        shards = make_shards(rng, n_users=3, per_user=10, dim=3)
        thetas = []
        for sigma_w2 in (0.0, 4.0):
            config = TrainerConfig(
                schemes=("noise_free_local_sgd",), local_steps=2, rounds=3, step=_schedule(),
                sigma_w2=sigma_w2,
            )
            (trace,) = _train(shards, config, None, _streams(2, 3), _optimum(shards), np.zeros(3))
            thetas.append(trace.thetas)
        np.testing.assert_array_equal(thetas[0], thetas[1])


class TestRunRound:
    def test_single_user_noise_free_equals_plain_sgd(self, rng):
        shards = single_shard(rng, n_samples=20, dim=3)
        schedule = _schedule()
        config = TrainerConfig(
            schemes=("noise_free_local_sgd",), local_steps=5, rounds=1, step=schedule
        )
        theta0 = rng.standard_normal(3)
        new_theta, gap, powers = _round(
            theta0, shards, config, None, _streams(3, 1), 1,
            _optimum(shards), _indices(3, 1, 20, 5),
        )
        etas = [schedule.eta(j) for j in range(5)]
        (reference,) = _reference_local_models(
            theta0, shards, etas, _streams(3, 1).users, config.ridge_lambda
        )
        # the kernel sums the residual dot product in another order
        np.testing.assert_allclose(new_theta, reference, rtol=1e-12)
        assert gap == quadratic_gap(new_theta, *_optimum(shards))
        assert powers.shape == (1,)

    def test_cotaf_noiseless_matches_noise_free(self, rng):
        shards = make_shards(rng, n_users=4, per_user=15, dim=3)
        schedule = _schedule()
        theta0 = rng.standard_normal(3)
        out = {}
        for scheme in ("noise_free_local_sgd", "cotaf"):
            config = TrainerConfig(schemes=(scheme,), local_steps=4, rounds=1, step=schedule)
            theta, _, _ = _round(
                theta0, shards, config, 0.37, _streams(5, 4), 1, _optimum(shards),
                _indices(5, 4, 15, 4),
            )
            out[scheme] = theta
        np.testing.assert_allclose(
            out["cotaf"], out["noise_free_local_sgd"], atol=1e-10
        )

    def test_cotaf_noise_variance(self, rng):
        # output minus the noiseless output is Gaussian with variance
        # sigma_w2 / (N^2 alpha) per coordinate
        shards = make_shards(rng, n_users=3, per_user=10, dim=8)
        schedule = _schedule()
        theta0 = rng.standard_normal(8)
        alpha, sigma_w2 = 0.9, 2.0
        clean_config = TrainerConfig(schemes=("cotaf",), local_steps=2, rounds=1, step=schedule)
        noisy_config = TrainerConfig(
            schemes=("cotaf",), local_steps=2, rounds=1, step=schedule, sigma_w2=sigma_w2
        )
        optimum = _optimum(shards)
        indices = _indices(9, 3, 10, 2)
        errs = []
        for rep in range(1500):
            clean, _, _ = _round(
                theta0, shards, clean_config, alpha, _streams(9, 3, noise_seed=1), 1,
                optimum, indices,
            )
            noisy, _, _ = _round(
                theta0, shards, noisy_config, alpha,
                _streams(9, 3, noise_seed=10_000 + rep), 1, optimum, indices,
            )
            errs.append(noisy - clean)
        var = np.concatenate(errs).var()
        target = sigma_w2 / (3**2 * alpha)
        assert abs(var - target) / target < 0.1

    def test_non_precoded_is_gain_scaled_sum(self, rng):
        # the baseline runs COTAF's codec at alpha = gain^2; its bits are those
        # of sending gain * delta and dividing the MAC output by N * gain
        n_trials, n_users, dim, sigma_w2 = 2, 5, 4, 1.3
        theta = rng.standard_normal((n_trials, dim))
        local_models = theta[:, None] + rng.standard_normal((n_trials, n_users, dim))
        for gain in (None, 0.37, 2.5, *rng.uniform(1e-3, 1e3, 20)):
            config = TrainerConfig(
                schemes=("non_precoded_ota",), local_steps=1, rounds=1, step=_schedule(),
                non_precoded_gain=gain, sigma_w2=sigma_w2,
            )
            noise = np.stack(
                [sample_noise(dim, sigma_w2, np.random.default_rng(s)) for s in range(n_trials)]
            )
            powers = np.empty((n_trials, n_users))
            new_theta = run_round(
                theta, local_models, "non_precoded_ota", config, None, noise, powers
            )
            g = 1.0 if gain is None else gain
            signals = g * (local_models - theta[:, None])
            y = signals.sum(axis=1) + noise
            np.testing.assert_array_equal(new_theta, y / (n_users * g) + theta)
            np.testing.assert_array_equal(powers, np.einsum("tkd,tkd->tk", signals, signals))

    def test_fading_round_aggregates_participants(self, rng):
        shards = make_shards(rng, n_users=5, per_user=10, dim=3)
        schedule = _schedule()
        config = TrainerConfig(
            schemes=("cotaf_fading",), local_steps=2, rounds=1, step=schedule,
            fading=FadingPolicy(h_min=0.2, participants=3),
        )
        theta0 = rng.standard_normal(3)
        streams = _streams(7, 5)
        fades = draw_fading_rounds(streams.fading[0], 5, 1, config.fading)
        participants = np.flatnonzero(np.isfinite(fades.divisors[0])) + 1
        new_theta, _, powers = _round(
            theta0, shards, config, 1.3, streams, 1, _optimum(shards),
            _indices(7, 5, 10, 2), fades.divisors[0],
        )
        assert participants.shape == (3,)
        assert np.count_nonzero(powers) == 3 and np.all(powers[participants - 1] > 0)
        # noiseless: output equals the participant average of local models
        etas = [schedule.eta(j) for j in range(2)]
        local_models = _reference_local_models(
            theta0, shards, etas, _streams(7, 5).users, config.ridge_lambda
        )
        expected = np.mean([local_models[uid - 1] for uid in participants], axis=0)
        np.testing.assert_allclose(new_theta, expected, atol=1e-10)

    def test_scheme_channel_mismatch(self):
        # a scheme gets the channel settings of its own channel only: the
        # FadingPolicy belongs to the fading MAC
        policy = FadingPolicy(h_min=0.2, participants=1)
        with pytest.raises(ValueError, match="cotaf takes no FadingPolicy"):
            TrainerConfig(
                schemes=("cotaf",), local_steps=1, rounds=1, step=_schedule(), fading=policy
            )
        with pytest.raises(ValueError, match="cotaf_fading requires a FadingPolicy"):
            TrainerConfig(schemes=("cotaf_fading",), local_steps=1, rounds=1, step=_schedule())

    def test_missing_alpha_rejected(self, rng):
        shards = make_shards(rng, n_users=2, per_user=10, dim=3)
        config = TrainerConfig(schemes=("cotaf",), local_steps=1, rounds=1, step=_schedule())
        with pytest.raises(ValueError, match="cotaf needs an alpha coefficient"):
            _round(
                np.zeros(3), shards, config, None, _streams(1, 2), 1,
                _optimum(shards), _indices(1, 2, 10, 1),
            )

    def test_missing_fading_selection_rejected(self, rng):
        shards = make_shards(rng, n_users=2, per_user=10, dim=3)
        config = TrainerConfig(
            schemes=("cotaf_fading",), local_steps=1, rounds=1, step=_schedule(),
            fading=FadingPolicy(h_min=0.2, participants=1),
        )
        with pytest.raises(ValueError, match="cotaf_fading needs the round's fading selection"):
            _round(
                np.zeros(3), shards, config, 1.0, _streams(1, 2), 1,
                _optimum(shards), _indices(1, 2, 10, 1),
            )

    def test_ragged_row_ids_rejected(self):
        # training takes equal-size shards as a (T, N, D_n) row-id block
        dataset = Dataset(np.zeros((22, 3)), np.zeros(22))
        config = TrainerConfig(
            schemes=("noise_free_local_sgd",), local_steps=1, rounds=2, step=_schedule()
        )
        ragged = np.array([np.arange(10), np.arange(10, 22)], dtype=object)
        with pytest.raises(ValueError, match=r"need a \(T, N, D_n\) block"):
            run_training(
                dataset, ragged, np.zeros((1, 3)), config, None, [_streams(1, 2)],
                (np.zeros((1, 3)), np.eye(3)[None]),
            )


class TestAffineUpdate:
    """run_round against the update theta + (sum_k h_k c_k delta_k + w) / (K s)
    with gains c_k = a*b/h_k and scale s = a*b, written out by hand."""

    N_TRIALS, N_USERS, DIM = 2, 5, 4
    POLICY = FadingPolicy(h_min=0.4, participants=3)

    @staticmethod
    def _update(theta, local_models, a, b, senders, mags, noise):
        """The update one trial and one transmitter at a time, in the codec's
        order of operations: precode, weight by h_k, sum, add w, rescale."""
        out = np.empty_like(theta)
        for t in range(theta.shape[0]):
            y = None
            for n, h in zip(senders[t], mags[t]):
                c = (a * b) / h
                term = h * (c * (local_models[t, n] - theta[t]))
                y = term if y is None else y + term
            if noise is not None:
                y = y + noise[t]
            out[t] = y / (len(senders[t]) * a * b) + theta[t]
        return out

    @pytest.mark.parametrize(
        "scheme, gain",
        [
            ("cotaf", None),
            ("cotaf_fading", None),
            ("noise_free_local_sgd", None),
            *(("non_precoded_ota", gain) for gain in (0.3, 1.0, 1.7, 3.1)),
        ],
    )
    def test_run_round_is_the_affine_update(self, scheme, gain):
        for seed in range(20):
            self._check_round(scheme, gain, np.random.default_rng(seed))

    def _check_round(self, scheme, gain, rng):
        n_trials, n_users, dim = self.N_TRIALS, self.N_USERS, self.DIM
        fading = scheme == "cotaf_fading"
        config = TrainerConfig(
            schemes=(scheme,), local_steps=1, rounds=1, step=_schedule(), sigma_w2=0.3,
            non_precoded_gain=gain, fading=self.POLICY if fading else None,
        )
        theta = rng.standard_normal((n_trials, dim))
        local_models = theta[:, None] + rng.standard_normal((n_trials, n_users, dim))
        noise = None if scheme == "noise_free_local_sgd" else rng.normal(0.0, 0.5, (n_trials, dim))
        if scheme in ("cotaf", "cotaf_fading"):
            alpha = float(rng.uniform(0.05, 5.0))
            a = math.sqrt(alpha)
        else:  # the baseline's gain, or 1 for the noise-free scheme
            alpha, a = None, 1.0 if gain is None else gain
        selection, powers = None, np.full((n_trials, n_users), np.nan)
        if fading:
            k = self.POLICY.participants
            picks = np.stack([rng.permutation(n_users)[:k] for _ in range(n_trials)])
            ids = np.sort(picks, axis=1) + 1
            mags = rng.uniform(0.41, 3.0, (n_trials, k))
            b, senders = self.POLICY.h_min, ids - 1
            selection = _plan(_divisors(ids, mags, n_users))
        else:
            b, mags = 1.0, np.ones((n_trials, n_users))
            senders = np.tile(np.arange(n_users), (n_trials, 1))
        new_theta = run_round(
            theta, local_models, scheme, config, alpha, noise, powers, selection
        )

        np.testing.assert_array_equal(
            new_theta, self._update(theta, local_models, a, b, senders, mags, noise)
        )
        sent = np.zeros((n_trials, n_users))
        for t in range(n_trials):
            for n, h in zip(senders[t], mags[t]):
                signal = ((a * b) / h) * (local_models[t, n] - theta[t])
                sent[t, n] = signal @ signal
        np.testing.assert_allclose(powers, sent, rtol=1e-13)
        if scheme == "non_precoded_ota":
            # COTAF's codec at the fixed alpha gain^2, as the baseline ran it before
            alpha_g = gain * gain
            signals = math.sqrt(alpha_g) * (local_models - theta[:, None])
            y = signals.sum(axis=1) + noise
            np.testing.assert_array_equal(new_theta, y / (n_users * math.sqrt(alpha_g)) + theta)
        if scheme == "noise_free_local_sgd":
            # theta + sum_n delta_n / N is the users' mean model up to rounding
            np.testing.assert_allclose(new_theta, local_models.mean(axis=1), rtol=1e-12)

    @pytest.mark.parametrize(
        "n_trials, n_users, k, dim",
        [(7, 20, 16, 20), (3, 40, 2, 9)],  # fading_h1's shape, and K << N
    )
    def test_fading_round_equals_its_k_sender_round(self, n_trials, n_users, k, dim):
        # the all-user round, in which a user left out sends at gain 0, has
        # the bits of a round over the K senders alone: each adds an exact
        # +-0 to the MAC's ordered sum and reads +0.0 energy
        rng = np.random.default_rng(n_users)
        policy = FadingPolicy(h_min=0.4, participants=k)
        config = TrainerConfig(
            schemes=("cotaf_fading",), local_steps=1, rounds=1, step=_schedule(), sigma_w2=0.3,
            fading=policy,
        )
        for _ in range(20):
            theta = rng.standard_normal((n_trials, dim))
            local_models = theta[:, None] + rng.standard_normal((n_trials, n_users, dim))
            noise = rng.normal(0.0, 0.5, (n_trials, dim))
            alpha = float(rng.uniform(0.05, 5.0))
            picks = np.stack([rng.permutation(n_users)[:k] for _ in range(n_trials)])
            ids = np.sort(picks, axis=1) + 1
            mags = rng.uniform(0.41, 3.0, (n_trials, k))
            plan = _plan(_divisors(ids, mags, n_users))
            powers = np.full((n_trials, n_users), np.nan)
            new_theta = run_round(
                theta, local_models, "cotaf_fading", config, alpha, noise, powers, plan
            )

            scale = math.sqrt(alpha) * policy.h_min
            deltas = np.take_along_axis(local_models, ids[..., None] - 1, axis=1) - theta[:, None]
            signals = precode(deltas, scale / mags)
            y = fading_mac(signals, mags, noise)
            np.testing.assert_array_equal(new_theta, decode(y, k * scale, theta))
            sent = np.zeros((n_trials, n_users))
            np.put_along_axis(sent, ids - 1, np.einsum("tkd,tkd->tk", signals, signals), axis=1)
            np.testing.assert_array_equal(powers, sent)
            assert not np.signbit(powers).any()

    def test_benchmark_names_are_the_codec_stages(self):
        # the codec and MAC names the benchmark spans time are the one codec's
        # stages, so no second codec can run behind them
        assert trainer_mod.fading_precode is trainer_mod.precode
        assert trainer_mod.fading_decode is trainer_mod.decode
        assert trainer_mod.awgn_mac is trainer_mod.fading_mac
        assert trainer_mod.orthogonal_noiseless is trainer_mod.fading_mac


class TestRunTraining:
    def test_user_stream_count_checked(self, rng):
        shards = make_shards(rng, n_users=3, per_user=10, dim=3)
        config = TrainerConfig(
            schemes=("noise_free_local_sgd",), local_steps=1, rounds=1, step=_schedule()
        )
        with pytest.raises(ValueError, match="need 3 user streams, got 2"):
            _train(shards, config, None, _streams(1, 2), _optimum(shards), _start(1, 3))

    def test_noise_free_run_equals_per_sample_reference(self, rng):
        # the run's up-front index draws give each round the indices that
        # one scalar draw per sample step would
        shards = make_shards(rng, n_users=3, per_user=15, dim=4)
        schedule = _schedule()
        config = TrainerConfig(
            schemes=("noise_free_local_sgd",), local_steps=4, rounds=3, step=schedule
        )
        theta = _start(6, 4)
        (trace,) = _train(shards, config, None, _streams(6, 3), _optimum(shards), theta)
        users = _streams(6, 3).users
        for r, run_theta in enumerate(trace.thetas):
            etas = [schedule.eta(r * 4 + j) for j in range(4)]
            models = _reference_local_models(theta, shards, etas, users, config.ridge_lambda)
            theta = np.mean(models, axis=0)
            np.testing.assert_allclose(run_theta, theta, rtol=1e-12)

    def test_deterministic_replay(self, rng):
        shards = make_shards(rng, n_users=3, per_user=12, dim=4)
        config = TrainerConfig(
            schemes=("cotaf",), local_steps=3, rounds=5, step=_schedule(), sigma_w2=1.0
        )
        alpha = AlphaSchedule(np.linspace(0.5, 2.0, 5))
        a, b = (
            _train(shards, config, alpha, _streams(6, 3), _optimum(shards), _start(6, 4))[0]
            for _ in range(2)
        )
        np.testing.assert_array_equal(a.thetas, b.thetas)
        np.testing.assert_array_equal(a.gaps, b.gaps)
        np.testing.assert_array_equal(a.powers, b.powers)
        assert a.fading is None and b.fading is None
        np.testing.assert_array_equal(a.waits, np.zeros(5, dtype=np.int64))
        np.testing.assert_array_equal(b.waits, a.waits)

    def test_alpha_schedule_coverage_checked(self, rng):
        shards = make_shards(rng, n_users=2, per_user=10, dim=3)
        config = TrainerConfig(schemes=("cotaf",), local_steps=2, rounds=5, step=_schedule())
        with pytest.raises(ValueError, match="covers"):
            _train(
                shards, config, AlphaSchedule(np.ones(3)), _streams(2, 2), _optimum(shards),
                _start(2, 3),
            )

    def test_noise_free_gap_mostly_decreasing(self, rng):
        # well-conditioned sanity instance: realizable least squares, where the
        # SGD gradient variance vanishes at the optimum
        shards = make_shards(rng, n_users=8, per_user=100, dim=6, noise_std=0.0)
        lam = 0.0
        eigs = np.linalg.eigvalsh(grams_optimum(*shard_grams(shards), lam)[1])
        mu, smoothness = float(eigs[0]), float(eigs[-1])
        config = TrainerConfig(
            schemes=("noise_free_local_sgd",), local_steps=10, rounds=25,
            step=StepSchedule("final_model", shift=max(8 * smoothness / mu, 10.0), mu=mu),
            ridge_lambda=lam,
        )
        theta0 = np.random.default_rng(8).normal(0.0, 5.0, 6)
        gaps = _train(
            shards, config, None, _streams(8, 8), _optimum(shards, lam), theta0
        )[0].gaps
        assert np.all(gaps >= -1e-9)
        frac_decreasing = np.mean(np.diff(gaps) <= 0)
        assert frac_decreasing >= 0.9


def _paired_streams(seed, n_users, n_schemes):
    """Streams of an n_schemes-scheme trial; scheme s gets noise and fading
    streams seeded as _streams(seed, ..., noise_seed=seed + 10 + s,
    fading_seed=seed + 20 + s) gives a single-scheme run."""
    return TrialStreams(
        users=_streams(seed, n_users).users,
        noise=tuple(np.random.default_rng(seed + 10 + s) for s in range(n_schemes)),
        fading=tuple(np.random.default_rng(seed + 20 + s) for s in range(n_schemes)),
    )


class TestPairedRuns:
    def _assert_runs_equal(self, shards, config, alpha):
        optimum, theta0 = _optimum(shards), _start(3, shards.shape[-1])
        n_schemes = len(config.schemes)
        paired = _train(
            shards, config, alpha, _paired_streams(3, 4, n_schemes), optimum, theta0
        )
        assert len(paired) == n_schemes
        for s, (scheme, trace) in enumerate(zip(config.schemes, paired)):
            streams = _streams(3, 4, noise_seed=3 + 10 + s, fading_seed=3 + 20 + s)
            (alone,) = _train(shards, _alone(config, scheme), alpha, streams, optimum, theta0)
            for field in ("thetas", "gaps", "powers", "waits"):
                assert np.array_equal(getattr(trace, field), getattr(alone, field)), field
            if alone.fading is None:
                assert trace.fading is None
            else:
                assert np.array_equal(trace.fading, alone.fading)

    def test_awgn_schemes_equal_separate_runs(self, rng):
        shards = make_shards(rng, n_users=4, per_user=15, dim=5)
        config = TrainerConfig(
            schemes=("noise_free_local_sgd", "cotaf", "non_precoded_ota"), local_steps=3,
            rounds=8, step=_schedule(), sigma_w2=0.4,
        )
        self._assert_runs_equal(shards, config, AlphaSchedule(np.linspace(0.5, 2.0, 8)))

    def test_fading_and_noise_free_equal_separate_runs(self, rng):
        shards = make_shards(rng, n_users=4, per_user=15, dim=5)
        policy = FadingPolicy(h_min=math.sqrt(math.log(1 / 0.7)), participants=3)
        config = TrainerConfig(
            schemes=("cotaf_fading", "noise_free_local_sgd"), local_steps=2, rounds=10,
            step=_schedule(), sigma_w2=0.4, fading=policy,
        )
        self._assert_runs_equal(shards, config, AlphaSchedule(np.linspace(0.5, 2.0, 10)))

    def test_kernel_settings_and_streams_must_match(self, rng):
        shards = make_shards(rng, n_users=2, per_user=10, dim=3)
        base = TrainerConfig(
            schemes=("noise_free_local_sgd",) * 2, local_steps=2, rounds=3, step=_schedule()
        )
        optimum, theta0 = _optimum(shards), _start(1, 3)
        with pytest.raises(ValueError, match="one noise and one fading stream for each of 2"):
            _train(shards, base, None, _streams(1, 2), optimum, theta0)
        with pytest.raises(ValueError, match="need at least one scheme"):
            _train(shards, replace(base, schemes=()), None, _streams(1, 2), optimum, theta0)


def _trial_block(rng, n_trials, n_users, per_user=8, dim=4):
    """A dataset, n_trials iid partitions of it as (T, N, D_n) row ids, and
    each trial's (theta*, Hessian), stacked."""
    dataset = generate_synthetic(dim, n_users * per_user, 0.5, rng)
    spec = PartitionSpec("iid")
    rows = np.stack(
        [partition(dataset, spec, n_users, np.random.default_rng(100 + t)) for t in range(n_trials)]
    )
    optima = [_optimum(dataset.shards(block)) for block in rows]
    return dataset, rows, tuple(np.stack(part) for part in zip(*optima))


class TestStackedTrials:
    # P(h > h_min) = 0.6 for each of 6 users, so fading rounds wait
    POLICY = FadingPolicy(h_min=math.sqrt(math.log(1 / 0.6)), participants=4)

    @pytest.mark.parametrize("n_trials", [1, 2, 9, 50])
    @pytest.mark.parametrize(
        "schemes",
        [
            ("noise_free_local_sgd",),
            ("cotaf",),
            ("non_precoded_ota",),
            ("cotaf_fading",),
            ("noise_free_local_sgd", "cotaf", "non_precoded_ota"),
            ("cotaf_fading", "noise_free_local_sgd"),
        ],
    )
    def test_stacked_run_equals_per_trial_loop(self, rng, n_trials, schemes):
        n_users, rounds = 6, 8
        dataset, rows, optima = _trial_block(rng, n_trials, n_users)
        config = TrainerConfig(
            schemes=schemes, local_steps=2, rounds=rounds, step=_schedule(), sigma_w2=0.4,
            fading=self.POLICY if "cotaf_fading" in schemes else None,
        )
        alpha = AlphaSchedule(np.linspace(0.5, 2.0, rounds))
        seeds = [7 * t + 1 for t in range(n_trials)]
        theta0 = np.stack([_start(seed, dataset.feature_dim) for seed in seeds])
        stacked = run_training(
            dataset, rows, theta0, config, alpha,
            [_paired_streams(seed, n_users, len(schemes)) for seed in seeds], optima,
        )
        assert len(stacked) == len(schemes)
        # the loop: each trial's runs one at a time, scheme s of trial t on
        # the streams _paired_streams gives it
        for t, seed in enumerate(seeds):
            for s, (scheme, trace) in enumerate(zip(schemes, stacked)):
                streams = _streams(
                    seed, n_users, noise_seed=seed + 10 + s, fading_seed=seed + 20 + s
                )
                (alone,) = run_training(
                    dataset, rows[t : t + 1], theta0[t : t + 1], _alone(config, scheme), alpha,
                    [streams], (optima[0][t : t + 1], optima[1][t : t + 1]),
                )
                for field in ("thetas", "gaps", "powers", "fading", "waits"):
                    got, expected = getattr(trace, field), getattr(alone, field)
                    if expected is None:
                        assert got is None, field
                    else:
                        assert np.array_equal(got[t], expected[0]), (t, scheme, field)
        for scheme, trace in zip(schemes, stacked):
            assert trace.gaps.shape == (n_trials, rounds)
            if scheme == "cotaf_fading":
                assert trace.waits.sum() > 0

    def test_writes_into_the_given_arrays_and_checks_shapes(self, rng):
        dataset, rows, optima = _trial_block(rng, 3, n_users=4)
        config = TrainerConfig(
            schemes=("noise_free_local_sgd",), local_steps=2, rounds=5, step=_schedule()
        )
        streams = [_streams(seed, 4) for seed in (1, 2, 3)]
        theta0 = np.stack([_start(seed, 4) for seed in (1, 2, 3)])
        gaps, powers = np.zeros((3, 5)), np.zeros((3, 5, 4))
        (trace,) = run_training(
            dataset, rows, theta0, config, None, streams, optima, out=[(gaps, powers)]
        )
        assert trace.gaps is gaps and trace.powers is powers
        assert np.all(gaps > 0) and np.all(powers > 0)
        with pytest.raises(ValueError, match=r"need a \(T, N, D_n\) block of shard row ids"):
            run_training(dataset, rows[0], theta0[:1], config, None, streams[:1], optima)
        with pytest.raises(ValueError, match="need streams for each of 3 trials, got 2"):
            run_training(dataset, rows, theta0, config, None, streams[:2], optima)
        with pytest.raises(ValueError, match=r"need \(T, d\) optima"):
            run_training(
                dataset, rows, theta0, config, None, streams, (optima[0][:2], optima[1][:2])
            )
        with pytest.raises(ValueError, match=r"need \(T, d\) initial models for T=3, d=4"):
            run_training(dataset, rows, theta0[:2], config, None, streams, optima)

    def test_starved_trial_is_named(self, rng, monkeypatch):
        # only the fading stream of the block's second trial starves
        monkeypatch.setattr(trainer_mod, "MAX_WAIT_REDRAWS", 20)
        dataset, rows, optima = _trial_block(rng, 3, n_users=4)
        config = TrainerConfig(
            schemes=("cotaf_fading",), local_steps=1, rounds=4, step=_schedule(),
            fading=FadingPolicy(h_min=0.5, participants=2),
        )
        streams = [_streams(seed, 4) for seed in (1, 2, 3)]
        streams[1] = TrialStreams(streams[1].users, streams[1].noise, (ScriptedFading([]),))
        with pytest.raises(RuntimeError, match=r"^trial 6, scheme cotaf_fading: round 1: "):
            run_training(
                dataset, rows, np.zeros((3, 4)), config, AlphaSchedule(np.ones(4)), streams,
                optima, first_trial=5,
            )


def _reference_fading_run(shards, config, alpha_schedule, streams, optimum, theta0):
    """Per-round fading loop from theta0: draw N magnitudes per attempt,
    redraw while fewer than K users are eligible, then precode, superpose and
    decode one participant at a time. Yields (divisors, waits, theta, gap,
    powers), with each participant's magnitude and +inf for a user left out
    as the round's divisors."""
    policy, lam, h = config.fading, config.ridge_lambda, config.local_steps
    n_users, _, dim = shards.shape
    theta = theta0
    for r in range(1, config.rounds + 1):
        etas = [config.step.eta((r - 1) * h + j) for j in range(h)]
        models = _reference_local_models(theta, shards, etas, streams.users, lam)
        waits = 0
        while True:
            mags = streams.fading[0].rayleigh(policy.rayleigh_scale, n_users)
            eligible = [n for n in range(n_users) if mags[n] > policy.h_min]
            if len(eligible) >= policy.participants:
                break
            waits += 1
        chosen = sorted(sorted(eligible, key=lambda n: -mags[n])[: policy.participants])
        alpha = alpha_schedule.values[r - 1]
        y = np.zeros(dim)
        powers = np.zeros(n_users)
        for n in chosen:
            signal = (math.sqrt(alpha) * policy.h_min / mags[n]) * (models[n] - theta)
            powers[n] = signal @ signal
            y = y + mags[n] * signal
        y = y + streams.noise[0].normal(0.0, math.sqrt(config.sigma_w2), dim)
        theta = y / (len(chosen) * math.sqrt(alpha) * policy.h_min) + theta
        gap = quadratic_gap(theta, *optimum)
        divisors = np.full(n_users, np.inf)
        divisors[chosen] = mags[chosen]
        yield divisors, waits, theta, gap, powers


class ScriptedFading:
    """A fading stream that returns scripted rows: 2.0 for every user of an
    eligible row, 0.1 for a short one; short rows once the script ends."""

    def __init__(self, eligible_rows):
        self.script = list(eligible_rows)
        self.shapes = []

    def rayleigh(self, scale, shape):
        rows, n_users = shape
        self.shapes.append(shape)
        flags, self.script = self.script[:rows], self.script[rows:]
        flags += [False] * (rows - len(flags))
        return np.where(np.array(flags)[:, None], 2.0, 0.1) * np.ones((rows, n_users))


class ScriptedRows:
    """A fading stream that returns the given N-user rows in order."""

    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=float)

    def rayleigh(self, scale, shape):
        rows, self.rows = self.rows[: shape[0]], self.rows[shape[0] :]
        return rows.reshape(shape)


class TestFadingRun:
    @pytest.mark.parametrize("chunk_rows", [3, 256])
    def test_batched_run_equals_per_round_reference(self, rng, monkeypatch, chunk_rows):
        # P(h > h_min) = 0.6 for each of 6 users, so about half the draws leave
        # fewer than K=4 users eligible and rounds wait; chunks of 3 rows put
        # waits across chunk boundaries
        monkeypatch.setattr(trainer_mod, "FADING_CHUNK_ROWS", chunk_rows)
        shards = make_shards(rng, n_users=6, per_user=12, dim=4)
        policy = FadingPolicy(h_min=math.sqrt(math.log(1 / 0.6)), participants=4)
        config = TrainerConfig(
            schemes=("cotaf_fading",), local_steps=2, rounds=20, step=_schedule(),
            sigma_w2=0.3, fading=policy,
        )
        alpha = AlphaSchedule(np.linspace(0.5, 2.0, 20))
        optimum, theta0 = _optimum(shards), _start(5, 4)
        (trace,) = _train(shards, config, alpha, _streams(5, 6), optimum, theta0)
        reference = list(
            _reference_fading_run(shards, config, alpha, _streams(5, 6), optimum, theta0)
        )
        assert len(trace.gaps) == len(reference) == 20
        for i, (divisors, waits, theta, gap, powers) in enumerate(reference):
            np.testing.assert_array_equal(trace.fading[i], divisors)
            assert trace.waits[i] == waits
            np.testing.assert_allclose(trace.thetas[i], theta, rtol=1e-12)
            assert trace.gaps[i] == pytest.approx(gap, rel=1e-12)
            np.testing.assert_allclose(trace.powers[i], powers, rtol=1e-12)
        assert trace.waits.sum() >= 5

    def test_waits_count_the_short_draws_across_chunks(self, monkeypatch):
        monkeypatch.setattr(trainer_mod, "FADING_CHUNK_ROWS", 4)
        script = [False, True, True, False, False, False, False, False, True, False, True]
        stream = ScriptedFading(script)
        policy = FadingPolicy(h_min=0.5, participants=2)
        fades = draw_fading_rounds(stream, 3, 4, policy)
        assert fades.waits.tolist() == [1, 0, 5, 1]
        # every user draws 2.0: the K = 2 ties are taken in id order
        np.testing.assert_array_equal(fades.divisors, [[2.0, 2.0, np.inf]] * 4)
        assert stream.shapes == [(4, 3)] * 3

    def test_draw_whose_weakest_of_k_is_censored_is_a_wait(self):
        # select_participants returns every draw's K strongest; a draw whose
        # weakest of them is at or below h_min is a wait, even when some
        # users clear h_min
        policy = FadingPolicy(h_min=0.5, participants=2)
        draws = [
            [0.9, 0.5, 0.1],  # weakest of K exactly at h_min
            [0.2, 0.7, 0.4],  # one user eligible
            [0.6, 0.3, 0.8],  # K users eligible: round 1
            [0.5, 0.5, 0.5],  # all at h_min
            [0.7, 0.2, 0.51],  # round 2
            [0.6, 0.9, 0.6],  # users 1 and 3 tie at the K-th magnitude: round 3
        ]
        fades = draw_fading_rounds(ScriptedRows(draws), 3, 3, policy)
        assert fades.waits.tolist() == [2, 1, 0]
        inf = np.inf
        np.testing.assert_array_equal(
            fades.divisors, [[0.6, inf, 0.8], [0.7, inf, 0.51], [0.6, 0.9, inf]]
        )
        sending = np.isfinite(fades.divisors)
        assert np.count_nonzero(sending, axis=1).tolist() == [2, 2, 2]
        assert np.all(fades.divisors[sending] > policy.h_min)

    def test_starved_round_is_named_and_draws_stay_bounded(self, monkeypatch):
        monkeypatch.setattr(trainer_mod, "MAX_WAIT_REDRAWS", 30)
        monkeypatch.setattr(trainer_mod, "FADING_CHUNK_ROWS", 8)
        policy = FadingPolicy(h_min=0.5, participants=2)
        # rounds 1 and 2 find eligible draws, round 3 never does
        stream = ScriptedFading([True, False, True])
        with pytest.raises(RuntimeError, match=r"^round 3: fading round starved"):
            draw_fading_rounds(stream, 3, 50, policy)
        assert set(stream.shapes) == {(8, 3)}
        assert len(stream.shapes) == 5  # the chunk taking the run past 30 ends it
        # a wait of exactly MAX_WAIT_REDRAWS is still served
        fades = draw_fading_rounds(ScriptedFading([False] * 30 + [True]), 3, 1, policy)
        assert fades.waits.tolist() == [30]
        # K > N can never be served: rejected up front rather than starved
        with pytest.raises(ValueError, match=r"participants must lie in \[1, 1\]"):
            draw_fading_rounds(ScriptedFading([True]), 1, 1, policy)


def _per_round_reference(dataset, rows, theta0, config, alpha_schedule, streams, optima):
    """A block of T trials run one round at a time: each round draws each
    user's H sample indices, each trial's normal(0, sigma, d) channel noise,
    and measures the round's gaps in its own call. Yields (thetas, gaps,
    powers) per round."""
    n_trials, n_users, shard_size = rows.shape
    h, dim = config.local_steps, dataset.feature_dim
    (scheme,) = config.schemes
    fades = None
    if config.fading is not None:
        fades = [
            draw_fading_rounds(trial.fading[0], n_users, config.rounds, config.fading)
            for trial in streams
        ]
    theta = theta0
    for i in range(config.rounds):
        etas = [config.step.eta(i * h + j) for j in range(h)]
        steps = np.stack([
            [rows[t, n, user.integers(shard_size, size=h)] for n, user in enumerate(trial.users)]
            for t, trial in enumerate(streams)
        ])
        local_models = checked_pass(
            theta[:, None], dataset.features, dataset.targets, etas, steps, config.ridge_lambda
        )
        noise = np.stack(
            [trial.noise[0].normal(0.0, math.sqrt(config.sigma_w2), dim) for trial in streams]
        )
        fading, powers = None, np.empty((n_trials, n_users))
        if fades is not None:
            fading = _plan(np.stack([fade.divisors[i] for fade in fades]))
        alpha = None if scheme == "non_precoded_ota" else alpha_schedule.values[i]
        theta = run_round(theta, local_models, scheme, config, alpha, noise, powers, fading)
        yield theta, quadratic_gap(theta, *optima), powers


class TestRoundChunks:
    @pytest.mark.parametrize("chunk", [3, 64])
    @pytest.mark.parametrize("scheme", ["cotaf", "non_precoded_ota", "cotaf_fading"])
    def test_chunked_run_equals_per_round_reference(self, rng, monkeypatch, chunk, scheme):
        # 20 rounds in chunks of 3 put noise draws and gap calls across
        # chunk boundaries and leave a short last chunk
        monkeypatch.setattr(trainer_mod, "ROUND_CHUNK", chunk)
        n_trials, n_users, rounds = 3, 6, 20
        dataset, rows, optima = _trial_block(rng, n_trials, n_users)
        config = TrainerConfig(
            schemes=(scheme,), local_steps=2, rounds=rounds, step=_schedule(), sigma_w2=0.4,
            fading=TestStackedTrials.POLICY if scheme == "cotaf_fading" else None,
        )
        alpha = AlphaSchedule(np.linspace(0.5, 2.0, rounds))
        seeds = [3 * t + 2 for t in range(n_trials)]
        theta0 = np.stack([_start(seed, dataset.feature_dim) for seed in seeds])
        (trace,) = run_training(
            dataset, rows, theta0, config, alpha, [_streams(seed, n_users) for seed in seeds],
            optima,
        )
        reference = _per_round_reference(
            dataset, rows, theta0, config, alpha, [_streams(seed, n_users) for seed in seeds],
            optima,
        )
        for i, (thetas, gaps, powers) in enumerate(reference):
            np.testing.assert_array_equal(trace.thetas[:, i], thetas, err_msg=f"round {i + 1}")
            np.testing.assert_array_equal(trace.gaps[:, i], gaps, err_msg=f"round {i + 1}")
            np.testing.assert_array_equal(trace.powers[:, i], powers, err_msg=f"round {i + 1}")
        assert i + 1 == rounds


class TestRunOwnedBlocks:
    """Every round of a run steps the kernel on the blocks the run allocates
    once; R = 70 rounds span two ROUND_CHUNKs."""

    @pytest.mark.parametrize(
        "schemes", [("cotaf_fading",), ("noise_free_local_sgd", "cotaf", "non_precoded_ota")]
    )
    def test_rounds_reuse_the_blocks_with_the_bits_of_the_allocating_kernel(
        self, monkeypatch, schemes
    ):
        rounds, n_trials, n_users = 70, 2, 6
        assert trainer_mod.ROUND_CHUNK < rounds < 2 * trainer_mod.ROUND_CHUNK
        dataset, rows, optima = _trial_block(np.random.default_rng(6), n_trials, n_users)
        config = TrainerConfig(
            schemes=schemes, local_steps=2, rounds=rounds, step=_schedule(), sigma_w2=0.4,
            fading=TestStackedTrials.POLICY if "cotaf_fading" in schemes else None,
        )
        theta0 = np.stack([_start(seed, dataset.feature_dim) for seed in (1, 8)])
        alpha = AlphaSchedule(np.linspace(0.5, 2.0, rounds))

        def run():
            streams = [_paired_streams(seed, n_users, len(schemes)) for seed in (1, 8)]
            return run_training(dataset, rows, theta0, config, alpha, streams, optima)

        calls = []
        monkeypatch.setattr(trainer_mod, "local_pass", block_recorder(calls))
        reused = run()
        assert len(calls) == rounds
        # (H, T, N) = (2, 2, 6) row ids of d = 4 features; S models per trial,
        # stepped without the leading unit axis when S = 1
        models = (len(schemes),) * (len(schemes) > 1) + (n_trials, n_users)
        assert {name: shape for name, (_, shape) in calls[0].items()} == {
            "ids": (2, 2, 6), "gathered": (2, 2, 6, 4), "gathered_targets": (2, 2, 6),
            "models": (*models, 4), "residual": models, "step": (*models, 4),
        }
        for name in calls[0]:
            assert len({call[name] for call in calls}) == 1, name
        monkeypatch.setattr(trainer_mod, "local_pass", allocating_pass)
        for got, expected in zip(reused, run()):
            for field in ("thetas", "gaps", "powers", "fading", "waits"):
                assert np.array_equal(getattr(got, field), getattr(expected, field)), field

    @pytest.mark.parametrize("bad", [-1, 48])
    def test_row_ids_outside_the_dataset_are_rejected_before_the_first_round(
        self, monkeypatch, bad
    ):
        dataset, rows, optima = _trial_block(np.random.default_rng(6), 2, 6)
        assert len(dataset) == 48
        rows = rows.astype(np.int64)
        rows[1, 2, 3] = bad
        config = TrainerConfig(
            schemes=("noise_free_local_sgd",), local_steps=2, rounds=3, step=_schedule()
        )
        monkeypatch.setattr(trainer_mod, "local_pass", pytest.fail)
        with pytest.raises(ValueError, match=r"^row ids must be integers in \[0, 48\)$"):
            run_training(
                dataset, rows, np.zeros((2, 4)), config, None,
                [_streams(seed, 6) for seed in (1, 8)], optima,
            )


class TestPlannedFadingRounds:
    """A fading run's rounds are drawn up front and their MAC magnitudes
    formed a chunk at a time; R = 70 rounds span two chunks."""

    N_TRIALS, N_USERS, ROUNDS = 3, 6, 70
    SEEDS = (4, 9, 13)

    def _config(self):
        return TrainerConfig(
            schemes=("cotaf_fading",), local_steps=1, rounds=self.ROUNDS, step=_schedule(),
            sigma_w2=0.4, fading=TestStackedTrials.POLICY,
        )

    def _run(self, rng, trials, **kwargs):
        """The trace of run_training on a slice of the block's trials, each
        trial on its own streams."""
        dataset, rows, optima = _trial_block(rng, self.N_TRIALS, self.N_USERS)
        theta0 = np.stack([_start(seed, dataset.feature_dim) for seed in self.SEEDS])
        alpha = AlphaSchedule(np.linspace(0.5, 2.0, self.ROUNDS))
        (trace,) = run_training(
            dataset, rows[trials], theta0[trials], self._config(), alpha,
            [_streams(self.SEEDS[t], self.N_USERS) for t in range(self.N_TRIALS)[trials]],
            (optima[0][trials], optima[1][trials]), **kwargs,
        )
        return trace

    def test_each_trial_equals_its_run_alone(self):
        assert trainer_mod.ROUND_CHUNK < self.ROUNDS < 2 * trainer_mod.ROUND_CHUNK
        block = self._run(np.random.default_rng(2), slice(None))
        for t in range(self.N_TRIALS):
            alone = self._run(np.random.default_rng(2), slice(t, t + 1))
            for field in ("thetas", "gaps", "powers", "fading", "waits"):
                expected = getattr(alone, field)[0]
                assert np.array_equal(getattr(block, field)[t], expected), (t, field)

    def test_silent_users_read_zero_energy_in_every_round(self):
        powers = np.full((self.N_TRIALS, self.ROUNDS, self.N_USERS), np.nan)
        gaps = np.empty((self.N_TRIALS, self.ROUNDS))
        trace = self._run(np.random.default_rng(3), slice(None), out=[(gaps, powers)])
        sending = np.isfinite(trace.fading)
        assert np.all(powers[sending] > 0)
        assert np.all(powers[~sending] == 0.0)
        assert np.count_nonzero(powers, axis=-1).tolist() == [[4] * self.ROUNDS] * self.N_TRIALS

    def test_censored_magnitude_in_the_second_chunk_is_named(self, monkeypatch):
        # trial 2 of the block is censored in round 67 and trial 1 in round
        # 68: the first round is named, with the trial numbered from first_trial
        trials, real = iter(range(3)), trainer_mod.draw_fading_rounds

        def censored(rng, n_users, rounds, policy):
            fades = real(rng, n_users, rounds, policy)
            t = next(trials)  # one draw per trial, in trial order
            if t in (1, 2):  # the round's second sender
                row = fades.divisors[68 - t]
                row[np.flatnonzero(np.isfinite(row))[1]] = policy.h_min
            return fades

        monkeypatch.setattr(trainer_mod, "draw_fading_rounds", censored)
        h_min = TestStackedTrials.POLICY.h_min
        with pytest.raises(
            ValueError,
            match=rf"^trial 7, scheme cotaf_fading: round 67: fading magnitude [0-9.]+ is at "
            rf"or below h_min={h_min:.6g}: a censored user does not transmit$",
        ):
            self._run(np.random.default_rng(4), slice(None), first_trial=5)

    @pytest.mark.parametrize("powers", [np.zeros((3, 70, 5)), np.zeros((3, 69, 6))])
    def test_power_block_must_be_t_r_n(self, powers):
        gaps = np.zeros((3, 70))
        with pytest.raises(
            ValueError,
            match=rf"^need a \(T, R, N\) = \(3, 70, 6\) power block, got shape "
            rf"\({powers.shape[0]}, {powers.shape[1]}, {powers.shape[2]}\)$",
        ):
            self._run(np.random.default_rng(5), slice(None), out=[(gaps, powers)])

    @pytest.mark.parametrize(
        "powers", [np.zeros((3, 70, 6), order="F"), np.zeros((3, 70, 12))[:, :, ::2]]
    )
    def test_any_power_block_layout_gets_the_c_blocks_powers(self, powers):
        expected = self._run(np.random.default_rng(5), slice(None))
        gaps = np.zeros((3, 70))
        self._run(np.random.default_rng(5), slice(None), out=[(gaps, powers)])
        assert expected.powers.flags.c_contiguous and not powers.flags.c_contiguous
        np.testing.assert_array_equal(powers, expected.powers)
        np.testing.assert_array_equal(gaps, expected.gaps)


class TestWeightedAverageModel:
    def test_single_round(self, rng):
        theta = rng.standard_normal(4)
        np.testing.assert_array_equal(weighted_average_model(theta[None, :], 5.0, 10), theta)

    def test_equal_models(self, rng):
        theta = rng.standard_normal(3)
        thetas = np.tile(theta, (5, 1))  # rounds 1..5
        np.testing.assert_allclose(weighted_average_model(thetas, 3.0, 2), theta, atol=1e-12)

    def test_weights_match_direct_summation(self, rng):
        a, h = 7.0, 3
        thetas = np.stack([rng.standard_normal(2) for _ in range(8)])  # rounds 1..8
        # independent accumulation of the weighted sum
        total_weight = 0.0
        acc = np.zeros(2)
        for r, theta in enumerate(thetas, start=1):
            w = (a + r * h) ** 2
            total_weight += w
            acc = acc + w * theta
        np.testing.assert_allclose(
            weighted_average_model(thetas, a, h), acc / total_weight, rtol=1e-12
        )

    def test_empty_history(self):
        with pytest.raises(ValueError):
            weighted_average_model(np.empty((0, 2)), 1.0, 1)
