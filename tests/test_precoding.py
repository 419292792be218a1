import itertools
import math

import numpy as np
import pytest

import otafl.precoding as precoding_mod
import otafl.trainer as trainer_mod

from otafl.channel import fading_mac, sample_noise, sample_rayleigh
from otafl.localsgd import local_pass
from otafl.objectives import ProbeBall, estimate_constants
from otafl.precoding import (
    AlphaSchedule,
    FadingPolicy,
    alpha_upper_bound_schedule,
    decode,
    estimate_alpha_mc,
    precode,
    select_participants,
)
from otafl.trainer import (
    FadingRounds,
    StepSchedule,
    TrainerConfig,
    TrialStreams,
    run_round,
    run_training,
)

from conftest import (
    RegressionSample,
    allocating_pass,
    block_recorder,
    checked_pass,
    make_shards,
    one_shard,
    ridge_grad,
)


def _config(scheme, k, h_min):
    """A one-round config of K users; cotaf_fading takes all K at h_min."""
    policy = FadingPolicy(h_min=h_min, participants=k) if scheme == "cotaf_fading" else None
    return TrainerConfig(
        schemes=(scheme,), local_steps=1, rounds=1,
        step=StepSchedule(kind="final_model", shift=20.0, mu=1.0), fading=policy,
    )


def _round(scheme, deltas, alpha, magnitudes=None, h_min=0.5):
    """The transmit energies of a noiseless round of one trial whose users
    send the (K, d) deltas; a cotaf_fading round selects all K users at the
    given magnitudes, which are both the MAC's magnitudes and the gain
    divisors. run_round computes the fading gains, so the codec's checks
    run there."""
    k, dim = deltas.shape
    config = _config(scheme, k, h_min)
    fading, powers = None, np.empty((1, k))
    if magnitudes is not None:
        mags = np.asarray(magnitudes, dtype=np.float64)[None]
        fading = (mags, mags)
    run_round(np.zeros((1, dim)), deltas[None], scheme, config, alpha, None, powers, fading)
    return powers[0]


def _drawn_round(monkeypatch, magnitudes, h_min=0.5):
    """A one-round cotaf_fading run whose draw selects all K users at the
    given magnitudes, so that run_training's censoring check meets them."""
    k = len(magnitudes)
    shards = make_shards(np.random.default_rng(0), n_users=k, per_user=4, dim=3)
    drawn = FadingRounds(np.array([magnitudes], dtype=np.float64), np.zeros(1, dtype=np.int64))
    monkeypatch.setattr(trainer_mod, "draw_fading_rounds", lambda *args: drawn)
    streams = TrialStreams(tuple(np.random.default_rng(n) for n in range(k)), (None,), (None,))
    run_training(
        shards.dataset, shards.rows[None], np.zeros((1, 3)),
        _config("cotaf_fading", k, h_min), AlphaSchedule(np.ones(1)), [streams],
        (np.zeros((1, 3)), np.eye(3)[None]),
    )


class TestPrecodeDecode:
    """COTAF's codec: gain sqrt(alpha) over the unit channel, scale N*sqrt(alpha)."""

    def test_zero_update(self):
        np.testing.assert_array_equal(precode(np.zeros((1, 3)), 2.0), np.zeros((1, 3)))

    def test_sqrt_scaling(self):
        np.testing.assert_allclose(precode(np.array([[1.0, -1.0]]), math.sqrt(4.0)), [[2.0, -2.0]])

    def test_power_identity(self, rng):
        delta = rng.standard_normal((1, 10))
        alpha = 3.7
        (out,) = precode(delta, math.sqrt(alpha))
        assert out @ out == pytest.approx(alpha * (delta[0] @ delta[0]), rel=1e-12)

    def test_invalid_alpha(self):
        # alpha enters the codec in run_round, which checks it
        for scheme, policy in (("cotaf", None), ("cotaf_fading", [1.0, 2.0])):
            for alpha in (0.0, -1.0, float("nan")):
                with pytest.raises(ValueError, match=f"{scheme} needs an alpha coefficient > 0"):
                    _round(scheme, np.ones((2, 3)), alpha, policy)

    def test_zero_received(self, rng):
        prev = rng.standard_normal(4)
        np.testing.assert_array_equal(decode(np.zeros(4), 3 * math.sqrt(1.5), prev), prev)

    def test_noiseless_average(self, rng):
        gain = math.sqrt(2.0)
        y = fading_mac(precode(np.array([[1.0], [3.0]]), gain), 1.0)
        np.testing.assert_allclose(decode(y, 2 * gain, np.zeros(1)), [2.0], atol=1e-12)

    def test_alpha_cancels_end_to_end(self, rng):
        prev = rng.standard_normal(6)
        deltas = rng.standard_normal((5, 6))
        for alpha in (1e-4, 0.3, 1.0, 47.0, 1e6):
            y = fading_mac(precode(deltas, math.sqrt(alpha)), 1.0)
            out = decode(y, 5 * math.sqrt(alpha), prev)
            np.testing.assert_allclose(out, prev + np.mean(deltas, axis=0), atol=1e-10)

    def test_equivalent_noise_variance(self, rng):
        # decoder-output noise has per-coordinate variance sigma_w2/(N^2 alpha)
        n_users, alpha, sigma_w2, d = 4, 0.6, 2.0, 50
        deltas = rng.standard_normal((n_users, d))
        signals = precode(deltas, math.sqrt(alpha))
        prev = np.zeros(d)
        scale = n_users * math.sqrt(alpha)
        clean = decode(fading_mac(signals, 1.0), scale, prev)
        errs = []
        for _ in range(10_000 // d):
            noisy = decode(fading_mac(signals, 1.0, sample_noise(d, sigma_w2, rng)), scale, prev)
            errs.append(noisy - clean)
        var = np.concatenate(errs).var()
        target = sigma_w2 / (n_users**2 * alpha)
        assert abs(var - target) / target < 0.05


class TestFadingPrecode:
    """The fading gains sqrt(alpha)*h_min/h_k, as run_round applies them."""

    def test_censored_at_threshold(self, monkeypatch):
        for magnitude in (0.5, 0.4):
            with pytest.raises(ValueError, match="at or below h_min"):
                _drawn_round(monkeypatch, [magnitude], h_min=0.5)

    def test_inverse_magnitude_scaling(self):
        # gain sqrt(1.0)*0.5/1.0 sends 2.0 as 1.0, of energy 1.0
        powers = _round("cotaf_fading", np.array([[2.0]]), 1.0, [1.0], h_min=0.5)
        np.testing.assert_array_equal(powers, [1.0])
        out = precode(np.array([[2.0], [4.0]]), np.array([0.5, 0.25]))
        np.testing.assert_array_equal(out, [[1.0], [1.0]])

    def test_energy_never_exceeds_precoded(self, rng):
        for _ in range(200):
            delta = rng.standard_normal((1, 5))
            alpha = float(rng.uniform(0.1, 5.0))
            h_min = float(rng.uniform(0.1, 1.0))
            h = float(rng.uniform(h_min * 1.0001, 4.0))
            (power,) = _round("cotaf_fading", delta, alpha, [h], h_min=h_min)
            assert power <= alpha * (delta[0] @ delta[0]) + 1e-12

    def test_block_equals_rows_and_censors_as_a_whole(self, rng, monkeypatch):
        deltas = rng.standard_normal((3, 4, 6))
        gains = rng.uniform(0.1, 2.0, (3, 4))
        block = precode(deltas, gains)
        for t, k in itertools.product(range(3), range(4)):
            np.testing.assert_array_equal(block[t, k], gains[t, k] * deltas[t, k])
        # one censored magnitude rejects the whole round
        _drawn_round(monkeypatch, [0.9, 1.4, 0.6, 2.0], h_min=0.5)
        with pytest.raises(ValueError, match="at or below h_min"):
            _drawn_round(monkeypatch, [0.9, 1.4, 0.5, 2.0], h_min=0.5)

    def test_non_positive_magnitude_rejected(self, monkeypatch):
        # h_min > 0, so the censoring check rejects a zero magnitude too
        with pytest.raises(ValueError, match="a censored user does not transmit"):
            _drawn_round(monkeypatch, [1.0, 0.0], h_min=0.5)


class TestFadingPolicy:
    @pytest.mark.parametrize(
        "setting, match",
        [
            ({"h_min": math.nan}, "h_min must be positive"),
            ({"rayleigh_scale": math.nan}, "rayleigh_scale must be positive"),
            ({"h_min": 0.0}, "h_min must be positive"),
            ({"rayleigh_scale": -1.0}, "rayleigh_scale must be positive"),
        ],
    )
    def test_non_positive_or_nan_settings_rejected(self, setting, match):
        with pytest.raises(ValueError, match=match):
            FadingPolicy(**{"h_min": 0.5, "participants": 2, **setting})


class TestSelectParticipants:
    def test_two_largest_eligible(self):
        fades = np.array([0.5, 1.2, 0.9])
        chosen = select_participants(fades, FadingPolicy(h_min=0.6, participants=2))
        assert chosen.tolist() == [False, True, True]

    def test_wait_when_too_few_eligible(self):
        # the K strongest of a short draw include a censored user, which is
        # how the caller tells that the round must wait
        fades = np.array([0.5, 0.55, 0.3])
        policy = FadingPolicy(h_min=0.6, participants=2)
        chosen = select_participants(fades, policy)
        np.testing.assert_array_equal(chosen, [True, True, False])
        assert fades[chosen].min() <= policy.h_min

    def test_block_of_draws_equals_one_draw_at_a_time(self, rng):
        policy = FadingPolicy(h_min=1.2, participants=3)  # about 1 draw in 4 is short
        draws = sample_rayleigh(7, 1.0, rng, rows=40)
        chosen = select_participants(draws, policy)
        assert chosen.shape == (40, 7)
        assert np.all(np.count_nonzero(chosen, axis=-1) == 3)
        for row, sending in zip(draws, chosen):
            np.testing.assert_array_equal(select_participants(row, policy), sending)
            # the K strongest
            assert row[sending].min() >= row[~sending].max()
        short = np.where(chosen, draws, np.inf).min(axis=-1) <= policy.h_min
        assert 0 < short.sum() < 40

    @pytest.mark.parametrize("ties", [False, True])
    def test_equals_a_stable_sort_by_decreasing_magnitude(self, rng, ties):
        # the K first of a stable argsort of -magnitudes: the users above
        # the K-th largest magnitude, then the ties at it by id
        for n_users in range(1, 8):
            for k in range(1, n_users + 1):
                policy = FadingPolicy(h_min=0.5, participants=k)
                shape = (40, n_users)
                draws = rng.integers(3, size=shape) / 2.0 if ties else rng.random(shape)
                order = np.argsort(-draws, axis=-1, kind="stable")
                expected = np.zeros(shape, dtype=bool)
                np.put_along_axis(expected, order[:, :k], True, axis=-1)
                np.testing.assert_array_equal(select_participants(draws, policy), expected)
                for row, sending in zip(draws[:4], expected):  # one draw as 1-D input
                    np.testing.assert_array_equal(select_participants(row, policy), sending)

    def test_fewer_users_than_participants_rejected(self):
        policy = FadingPolicy(h_min=0.5, participants=3)
        with pytest.raises(ValueError, match="cannot select K=3 participants from N=2 users"):
            select_participants(np.array([2.0, 3.0]), policy)
        with pytest.raises(ValueError, match="cannot select K=3 participants from N=2 users"):
            select_participants(np.ones((4, 2)), policy)

    def test_subset_uniformity_chisquare(self):
        # with i.i.d. fades and h_min=0, the top-K set is uniform over subsets
        from scipy import stats

        rng = np.random.default_rng(2024)
        policy = FadingPolicy(h_min=1e-12, participants=3)
        counts = {c: 0 for c in itertools.combinations(range(1, 7), 3)}
        n_draws = 10_000
        for _ in range(n_draws):
            fades = sample_rayleigh(6, 1.0, rng)
            chosen = select_participants(fades, policy)
            counts[tuple(np.flatnonzero(chosen) + 1)] += 1
        observed = np.array(list(counts.values()))
        chi2, p_value = stats.chisquare(observed)
        assert p_value >= 0.01, f"chi2={chi2:.1f}, p={p_value:.4f}"


class TestFadingDecode:
    """The fading decode scale K*sqrt(alpha)*h_min."""

    def test_zero_received(self, rng):
        prev = rng.standard_normal(3)
        np.testing.assert_array_equal(decode(np.zeros(3), 2 * math.sqrt(1.0) * 0.5, prev), prev)

    def test_noiseless_participant_average(self, rng):
        # channel magnitude cancels: x_n = sqrt(a) h_min/h_n * delta_n, channel applies h_n
        alpha, h_min = 0.8, 0.4
        prev = rng.standard_normal(4)
        deltas = rng.standard_normal((3, 4))
        mags = np.array([0.9, 1.4, 0.6])
        y = fading_mac(precode(deltas, (math.sqrt(alpha) * h_min) / mags), mags)
        out = decode(y, 3 * math.sqrt(alpha) * h_min, prev)
        np.testing.assert_allclose(out, prev + np.mean(deltas, axis=0), atol=1e-10)

    def test_equivalent_noise_variance(self, rng):
        # decoder-output noise has per-coordinate variance sigma_w2/(K^2 alpha h_min^2)
        k_size, alpha, h_min, sigma_w2, d = 3, 0.7, 0.5, 1.5, 50
        prev = np.zeros(d)
        errs = []
        for _ in range(10_000 // d):
            noise = rng.normal(0.0, math.sqrt(sigma_w2), d)
            errs.append(decode(noise, k_size * math.sqrt(alpha) * h_min, prev))
        var = np.concatenate(errs).var()
        target = sigma_w2 / (k_size**2 * h_min**2 * alpha)
        assert abs(var - target) / target < 0.05


class TestSubsetAveraging:
    def test_unbiased_over_all_subsets(self, rng):
        # exact enumeration: mean over C(N,K) subset averages == full average
        n_users = 5
        models = [rng.standard_normal(4) for _ in range(n_users)]
        full = np.mean(models, axis=0)
        for k in range(1, n_users + 1):
            subset_avgs = [
                np.mean([models[i] for i in subset], axis=0)
                for subset in itertools.combinations(range(n_users), k)
            ]
            np.testing.assert_allclose(np.mean(subset_avgs, axis=0), full, atol=1e-12)

    def test_subset_variance_bound(self, rng):
        # enumerated E||subset avg - full avg||^2 against the sampling bound,
        # with the per-user drift bound measured directly from the models
        n_users, eta, h = 4, 0.1, 3
        prev = rng.standard_normal(5)
        deltas = [rng.standard_normal(5) * 0.3 for _ in range(n_users)]
        models = [prev + d for d in deltas]
        full = np.mean(models, axis=0)
        g2_measured = max(float(d @ d) for d in deltas) / (eta**2 * h**2)
        for k in range(1, n_users + 1):
            sq_devs = [
                float(np.sum((np.mean([models[i] for i in s], axis=0) - full) ** 2))
                for s in itertools.combinations(range(n_users), k)
            ]
            lhs = np.mean(sq_devs)
            if k == n_users:
                assert lhs <= 1e-20
            else:
                bound = 4.0 * (n_users - k) / ((n_users - 1) * k) * eta**2 * h**2 * g2_measured
                assert lhs <= bound + 1e-12


def constant_step(eta):
    return lambda t: eta


def _per_trial_pilot(shards, lam, rounds, h, power, trials, step_fn, seed):
    """The MC pilot's schedule from a loop over trials, one unbatched kernel
    call per trial and round, the squared update norms added trial by trial."""
    dataset, (n_users, shard_size, dim) = shards.dataset, shards.shape
    ref_rng = np.random.default_rng(seed)
    sums = np.zeros((rounds, n_users))
    for _ in range(trials):
        theta = ref_rng.normal(0.0, 1.0, dim)
        draws = ref_rng.integers(shard_size, size=rounds * n_users * h).reshape(rounds, n_users, h)
        for r in range(rounds):
            etas = [step_fn(r * h + j) for j in range(h)]
            rows = np.take_along_axis(shards.rows, draws[r], axis=1)
            models = checked_pass(theta, dataset.features, dataset.targets, etas, rows, lam)
            diff = models - theta
            sums[r] += np.einsum("nd,nd->n", diff, diff)
            theta = models.mean(axis=0)
    return power / (sums.max(axis=1) / trials)


class TestEstimateAlphaMc:
    def test_single_deterministic_step_oracle(self):
        # one user, one sample, one local step, theta0 = 0:
        # update = -eta * grad(0), so alpha_1 = P / ||eta*grad(0)||^2
        features = np.array([[1.0, 2.0]])
        targets = np.array([3.0])
        shard = one_shard(features, targets)
        lam, eta, power = 0.5, 0.05, 2.0
        schedule = estimate_alpha_mc(
            shard, lam, rounds=1, local_steps=1, power=power, pilot_trials=2,
            rng=np.random.default_rng(0), step_fn=constant_step(eta), theta0_std=0.0,
        )
        g = ridge_grad(np.zeros(2), RegressionSample(features[0], targets[0]), lam)
        expected = power / float((eta * g) @ (eta * g))
        assert schedule.values[0] == pytest.approx(expected, rel=1e-12)

    def test_matches_per_sample_reference_pilot(self, rng):
        # the pilot's blocked index draws follow the round -> user -> step
        # order of one scalar draw per sample step
        shards = make_shards(rng, n_users=3, per_user=12, dim=3)
        lam, rounds, h, trials, power = 0.5, 4, 3, 2, 1.0
        step_fn = constant_step(0.05)
        schedule = estimate_alpha_mc(
            shards, lam, rounds, h, power, trials, np.random.default_rng(8),
            step_fn=step_fn, theta0_std=1.0,
        )
        ref_rng = np.random.default_rng(8)
        sums = np.zeros((rounds, 3))
        for _ in range(trials):
            theta = ref_rng.normal(0.0, 1.0, 3)
            for r in range(rounds):
                models = []
                for features, targets in shards:
                    model = theta
                    for j in range(h):
                        i = int(ref_rng.integers(len(targets)))
                        sample = RegressionSample(features[i], targets[i])
                        model = model - step_fn(r * h + j) * ridge_grad(model, sample, lam)
                    models.append(model)
                sums[r] += [(m - theta) @ (m - theta) for m in models]
                theta = np.mean(models, axis=0)
        expected = power / (sums.max(axis=1) / trials)
        np.testing.assert_allclose(schedule.values, expected, rtol=1e-12)

    @pytest.mark.parametrize("trials", [1, 3, 9])
    def test_stacked_trials_equal_a_per_trial_loop(self, rng, trials):
        # all trials advance as one block per round; each trial's draws,
        # kernel calls and accumulation must be those of a loop over trials
        shards = make_shards(rng, n_users=4, per_user=12, dim=3)
        lam, rounds, h, power = 0.5, 6, 2, 1.0
        step_fn = lambda t: 2.0 / (0.8 * (20.0 + t))
        schedule = estimate_alpha_mc(
            shards, lam, rounds, h, power, trials, np.random.default_rng(8),
            step_fn=step_fn, theta0_std=1.0,
        )
        expected = _per_trial_pilot(shards, lam, rounds, h, power, trials, step_fn, seed=8)
        np.testing.assert_array_equal(schedule.values, expected)

    @pytest.mark.parametrize("n_users", [1, 3])
    def test_round_chunks_and_one_user_equal_a_per_trial_loop(self, rng, n_users):
        # with one user and 12 trials a pairwise sum over the trials would
        # move the last bits, so the trials still add one by one
        shards = make_shards(rng, n_users=n_users, per_user=12, dim=3)
        lam, rounds, h, power, trials = 0.5, 9, 2, 1.0, 12
        step_fn = lambda t: 2.0 / (0.8 * (20.0 + t))
        schedule = estimate_alpha_mc(
            shards, lam, rounds, h, power, trials, np.random.default_rng(8),
            step_fn=step_fn, theta0_std=1.0,
        )
        expected = _per_trial_pilot(shards, lam, rounds, h, power, trials, step_fn, seed=8)
        np.testing.assert_array_equal(schedule.values, expected)

    def test_each_call_is_given_the_next_calls_rows(self, rng, monkeypatch):
        # as training does: round r steps on its own (H, T, N) row ids, the
        # pilot shard rows its draws index, and hands round r + 1's to the
        # blocks; the last round hands none
        shards = make_shards(rng, n_users=3, per_user=7, dim=3)
        rounds, h, trials = 5, 2, 4
        calls = []

        def record(*args, next_rows=None, **kwargs):
            calls.append((args[4].copy(), None if next_rows is None else next_rows.copy()))
            return local_pass(*args, next_rows=next_rows, **kwargs)

        monkeypatch.setattr(precoding_mod, "local_pass", record)
        estimate_alpha_mc(
            shards, 0.5, rounds, h, 1.0, trials, np.random.default_rng(8),
            step_fn=constant_step(0.05), theta0_std=1.0,
        )
        ref_rng = np.random.default_rng(8)
        expected = np.empty((rounds, h, trials, 3), dtype=np.int64)
        for t in range(trials):
            ref_rng.normal(0.0, 1.0, 3)
            for r, n, j in itertools.product(range(rounds), range(3), range(h)):
                expected[r, j, t, n] = shards.rows[n, ref_rng.integers(7)]
        assert len(calls) == rounds
        for r, (rows, next_rows) in enumerate(calls):
            np.testing.assert_array_equal(rows, expected[r])
            if r + 1 < rounds:
                np.testing.assert_array_equal(next_rows, calls[r + 1][0])
            else:
                assert next_rows is None

    def test_pilot_steps_on_blocks_it_allocates_once(self, rng, monkeypatch):
        # over 70 rounds every round steps on the same blocks, the kept models alias none of them, no round writes
        # into its gathered samples, and the schedule has the bits of the
        # allocating kernel's
        shards = make_shards(rng, n_users=4, per_user=12, dim=3)
        args = (shards, 0.5, 70, 2, 1.0, 2)
        kwargs = dict(step_fn=lambda t: 2.0 / (0.8 * (20.0 + t)), theta0_std=1.0)
        calls = []
        monkeypatch.setattr(precoding_mod, "local_pass", block_recorder(calls))
        reused = estimate_alpha_mc(*args, np.random.default_rng(8), **kwargs)
        assert len(calls) == 70
        # (H, T, N) = (2, 2, 4) row ids of d = 3 features; one model per trial
        assert {name: shape for name, (_, shape) in calls[0].items()} == {
            "ids": (2, 2, 4), "gathered": (2, 2, 4, 3), "gathered_targets": (2, 2, 4),
            "models": (2, 4, 3), "residual": (2, 4), "step": (2, 4, 3),
        }
        for name in calls[0]:
            assert len({call[name] for call in calls}) == 1, name
        monkeypatch.setattr(precoding_mod, "local_pass", allocating_pass)
        allocated = estimate_alpha_mc(*args, np.random.default_rng(8), **kwargs)
        np.testing.assert_array_equal(reused.values, allocated.values)

    def test_linear_in_power(self, rng):
        shards = make_shards(rng, n_users=2, per_user=10, dim=3)
        kwargs = dict(
            rounds=4, local_steps=2, pilot_trials=3,
            step_fn=constant_step(0.05), theta0_std=1.0,
        )
        a1 = estimate_alpha_mc(shards, 0.5, power=1.0, rng=np.random.default_rng(4), **kwargs)
        a2 = estimate_alpha_mc(shards, 0.5, power=2.0, rng=np.random.default_rng(4), **kwargs)
        np.testing.assert_allclose(a2.values, 2.0 * a1.values, rtol=1e-12)

    def test_alpha_grows_as_updates_shrink(self, rng):
        shards = make_shards(rng, n_users=3, per_user=25, dim=4)
        mu = 0.8
        schedule = estimate_alpha_mc(
            shards, 0.5, rounds=60, local_steps=5, power=1.0, pilot_trials=5,
            rng=np.random.default_rng(11),
            step_fn=lambda t: 2.0 / (mu * (20.0 + t)),
        )
        log_alpha = np.log(schedule.values)
        late = log_alpha[40:]
        slope = np.polyfit(np.arange(late.shape[0]), late, 1)[0]
        assert slope > 0

    def test_negative_regularization_rejected(self, rng):
        with pytest.raises(ValueError, match="non-negative"):
            estimate_alpha_mc(
                make_shards(rng, n_users=2, per_user=5, dim=3), -1.0, rounds=1, local_steps=1,
                power=1.0, pilot_trials=1, rng=np.random.default_rng(0),
                step_fn=constant_step(0.1),
            )

    @pytest.mark.parametrize("eta", [0.0, math.nan])
    def test_non_positive_or_nan_step_rejected(self, rng, eta):
        with pytest.raises(ValueError, match="step size must be positive"):
            estimate_alpha_mc(
                make_shards(rng, n_users=2, per_user=5, dim=3), 0.5, rounds=2, local_steps=2,
                power=1.0, pilot_trials=1, rng=np.random.default_rng(0),
                step_fn=constant_step(eta),
            )

    def test_zero_updates_error(self):
        shard = one_shard(np.zeros((3, 2)), np.zeros(3))
        with pytest.raises(ValueError, match="alpha undefined"):
            estimate_alpha_mc(
                shard, 0.0, rounds=1, local_steps=1, power=1.0, pilot_trials=1,
                rng=np.random.default_rng(0), step_fn=constant_step(0.1), theta0_std=0.0,
            )


class TestAlphaUpperBoundSchedule:
    def test_unit_case(self):
        schedule = alpha_upper_bound_schedule(1, constant_step(1.0), 1.0, 1.0, 1)
        assert schedule.values[0] == pytest.approx(1.0)

    def test_increasing_with_decaying_steps(self):
        schedule = alpha_upper_bound_schedule(
            3, lambda t: 1.0 / (10.0 + t), 2.0, 1.0, rounds=20
        )
        assert np.all(np.diff(schedule.values) > 0)

    def test_never_exceeds_pilot_estimate(self, rng):
        # inflated denominator: analytic alphas sit below the pilot-run alphas
        shards = make_shards(rng, n_users=3, per_user=30, dim=4, noise_std=0.5)
        lam, h, rounds = 0.5, 4, 10
        mu = 0.9
        step_fn = lambda t: 2.0 / (mu * (max(8.0 / mu, h) + t))
        theta0_std = 1.5
        mc = estimate_alpha_mc(
            shards, lam, rounds, h, 1.0, pilot_trials=40,
            rng=np.random.default_rng(5), step_fn=step_fn, theta0_std=theta0_std,
        )
        radius = 2.0 * math.sqrt(theta0_std**2 * shards.shape[-1] + 4.0)
        constants = estimate_constants(
            shards, lam, ProbeBall(np.zeros(4), radius), np.random.default_rng(6),
            H=h, P=1.0, sigma_w2=0.0,
        )
        analytic = alpha_upper_bound_schedule(h, step_fn, constants.G2, 1.0, rounds)
        assert np.all(analytic.values <= mc.values)

    def test_rejects_increasing_steps(self):
        with pytest.raises(ValueError):
            alpha_upper_bound_schedule(2, lambda t: 1.0 + t, 1.0, 1.0, 5)

    @pytest.mark.parametrize("eta", [0.0, math.nan])
    def test_rejects_non_positive_or_nan_steps(self, eta):
        with pytest.raises(ValueError, match="step_fn must be positive"):
            alpha_upper_bound_schedule(2, constant_step(eta), 1.0, 1.0, 5)

    def test_inverse_alpha_inequality_under_averaged_model_steps(self, rng):
        # pilot schedules satisfy 1/alpha_t <= 4 H^2 eta_t^2 G^2 / P at every
        # aggregation step t = rH when eta halves at most per H steps
        from otafl.trainer import step_averaged_model

        shards = make_shards(rng, n_users=3, per_user=30, dim=4, noise_std=0.5)
        lam, h, rounds, power = 0.5, 4, 12, 1.0
        mu, smoothness = 0.9, 1.2
        a = max(16.0 * smoothness / mu, float(h)) + 1.0
        step_fn = lambda t: step_averaged_model(t, mu, a)
        theta0_std = 1.5
        mc = estimate_alpha_mc(
            shards, lam, rounds, h, power, pilot_trials=30,
            rng=np.random.default_rng(15), step_fn=step_fn, theta0_std=theta0_std,
        )
        radius = 2.0 * math.sqrt(theta0_std**2 * shards.shape[-1] + 4.0)
        constants = estimate_constants(
            shards, lam, ProbeBall(np.zeros(4), radius), np.random.default_rng(16),
            H=h, P=power, sigma_w2=0.0,
        )
        for r in range(1, rounds + 1):
            t = r * h
            eta_t = step_fn(t)
            assert 1.0 / mc.values[r - 1] <= 4.0 * h**2 * eta_t**2 * constants.G2 / power


def test_alpha_schedule_json_round_trip(tmp_path):
    schedule = AlphaSchedule(np.array([0.5, 1.25, 7.0]))
    path = tmp_path / "alpha.json"
    schedule.save(path)
    loaded = AlphaSchedule.load(path)
    np.testing.assert_array_equal(loaded.values, schedule.values)
    assert path.read_text().strip() == "[0.5, 1.25, 7.0]"


def test_alpha_schedule_validation():
    with pytest.raises(ValueError):
        AlphaSchedule(np.array([1.0, -2.0]))
    with pytest.raises(ValueError):
        AlphaSchedule(np.array([]))
