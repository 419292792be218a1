import math
from dataclasses import replace

import numpy as np
import pytest

from otafl.bounds import (
    BoundInputs,
    DominanceRow,
    base_error_constant,
    bound_final_model,
    bound_final_model_fading,
    bound_weighted_average,
    channel_error_constant,
    check_shift,
    fading_channel_error_constant,
    partial_participation_penalty,
    schedule_shift,
    validate_dominance,
    weight_sum,
)
from otafl.types import ProblemConstants


def constants(**overrides):
    values = dict(
        L=1.0, mu=1.0, G2=1.0, Mn2=np.ones(1), Gamma=0.0,
        d=1, N=1, H=1, P=1.0, sigma_w2=0.0,
    )
    values.update(overrides)
    return ProblemConstants(**values)


class TestErrorConstants:
    def test_all_terms_vanish(self):
        c = constants(G2=0.0, Mn2=np.zeros(1), Gamma=0.0)
        assert base_error_constant(c) == 0.0

    def test_hand_evaluated(self):
        c = constants(H=2, G2=1.0, N=1, Mn2=np.ones(1), L=1.0, Gamma=0.0)
        assert base_error_constant(c) == pytest.approx(33.0)

    def test_heterogeneity_linear(self):
        base = base_error_constant(constants(L=1.0, Gamma=0.0))
        with_gamma = base_error_constant(constants(L=1.0, Gamma=1.0))
        assert with_gamma - base == pytest.approx(6.0)

    def test_noiseless_channel_constant_reduces(self):
        c = constants(sigma_w2=0.0)
        assert channel_error_constant(c) == base_error_constant(c)

    def test_channel_term_hand_case(self):
        c = constants(d=2, H=1, G2=1.0, sigma_w2=1.0, P=1.0, N=2, Mn2=np.ones(2))
        assert channel_error_constant(c) - base_error_constant(c) == pytest.approx(2.0)

    def test_full_participation_no_penalty(self):
        c = constants(N=4, Mn2=np.ones(4))
        assert partial_participation_penalty(c, 4) == 0.0

    def test_single_user_limit(self):
        assert partial_participation_penalty(constants(), 1) == 0.0

    def test_fading_constant_exceeds_awgn_when_attenuated(self):
        c = constants(N=4, Mn2=np.ones(4), sigma_w2=2.0)
        assert fading_channel_error_constant(c, 3, 0.5) >= channel_error_constant(c)

    @pytest.mark.parametrize("h_min", [0.0, -0.5, math.nan])
    def test_fading_constant_needs_positive_h_min(self, h_min):
        c = constants(N=4, Mn2=np.ones(4), sigma_w2=2.0)
        with pytest.raises(ValueError, match="h_min must be positive"):
            fading_channel_error_constant(c, 3, h_min)

    @pytest.mark.parametrize(
        "override, match",
        [
            ({"G2": -1.0}, "G2 must be non-negative"),
            ({"G2": math.nan}, "G2 must be non-negative"),
            ({"Mn2": np.array([-1.0])}, "Mn2 must be a 1-D array of non-negative"),
            ({"Mn2": np.array([math.nan])}, "Mn2 must be a 1-D array of non-negative"),
            ({"Gamma": -1.0}, "Gamma must be non-negative"),
            ({"Gamma": math.nan}, "Gamma must be non-negative"),
            ({"P": 0.0}, "P must be positive"),
            ({"P": math.nan}, "P must be positive"),
            ({"sigma_w2": -1.0}, "sigma_w2 must be non-negative"),
            ({"sigma_w2": math.nan}, "sigma_w2 must be non-negative"),
        ],
    )
    def test_negative_or_nan_constants_rejected(self, override, match):
        with pytest.raises(ValueError, match=match):
            constants(**override)


class TestWeightSum:
    def test_single_round(self):
        assert weight_sum(1.0, 1, 1) == pytest.approx(4.0)

    def test_direct_summation(self):
        assert weight_sum(2.0, 2, 2) == pytest.approx((2 + 2) ** 2 + (2 + 4) ** 2)

    def test_cubic_lower_bound_on_grid(self, rng):
        for _ in range(50):
            a = float(rng.uniform(0.5, 50.0))
            h = int(rng.integers(1, 20))
            rounds = int(rng.integers(1, 40))
            t = rounds * h
            assert weight_sum(a, h, rounds) >= t**3 / (3.0 * h)

    @pytest.mark.parametrize("shift", [0.0, -1.0, math.nan])
    def test_non_positive_or_nan_shift_rejected(self, shift):
        with pytest.raises(ValueError, match="shift must be positive"):
            weight_sum(shift, 1, 1)


def c_for_bounds(**overrides):
    values = dict(
        L=2.0, mu=0.5, G2=3.0, Mn2=np.array([1.0, 2.0]), Gamma=0.4,
        d=5, N=2, H=4, P=1.0, sigma_w2=2.0,
    )
    values.update(overrides)
    return ProblemConstants(**values)


GRID_BOUNDS = (
    (bound_weighted_average, "averaged_model"),
    (bound_final_model, "final_model"),
    (bound_final_model_fading, "final_model"),
)


def _grid_inputs(kind, steps, delta0=1.0):
    c = c_for_bounds()
    _, shift = schedule_shift(kind, c.L / c.mu, c.H)
    # a shift off the integers, so that weight sums round and summation order shows
    return BoundInputs(c, delta0, shift * 1.0371, total_steps=steps, participants=1, h_min=0.5)


class TestScheduleShift:
    def test_floor_and_auto_shift(self):
        assert schedule_shift("averaged_model", 2.0, 10) == (32.0, 33.0)
        assert schedule_shift("final_model", 2.0, 10) == (16.0, 16.0)
        # H dominates a small condition number
        assert schedule_shift("averaged_model", 0.5, 10) == (10.0, 11.0)
        assert schedule_shift("final_model", 0.5, 10) == (10.0, 10.0)
        with pytest.raises(ValueError, match="unknown schedule kind"):
            schedule_shift("constant", 2.0, 10)

    def test_check_against_floor(self):
        check_shift("final_model", 16.0, 2.0, 10)
        check_shift("averaged_model", 32.5, 2.0, 10)
        with pytest.raises(ValueError, match="averaged_model schedule needs shift > 32"):
            check_shift("averaged_model", 31.9, 2.0, 10)
        with pytest.raises(ValueError, match="final_model schedule needs shift >= 16"):
            check_shift("final_model", 15.9, 2.0, 10)


class TestWeightedAverageBound:
    def test_noise_term_vanishes_when_noiseless(self):
        c_noisy = c_for_bounds()
        c_clean = c_for_bounds(sigma_w2=0.0)
        shift = max(16 * c_noisy.L / c_noisy.mu, c_noisy.H) + 1
        noisy = bound_weighted_average(
            BoundInputs(c_noisy, delta0=1.0, shift=shift, total_steps=40)
        )
        clean = bound_weighted_average(
            BoundInputs(c_clean, delta0=1.0, shift=shift, total_steps=40)
        )
        assert noisy > clean
        # the difference is exactly the middle (noise) term
        rounds = 10
        s = weight_sum(shift, 4, rounds)
        noise_term = (
            16 * c_noisy.d * 40 * c_noisy.H * c_noisy.G2 * c_noisy.sigma_w2
            / (3 * c_noisy.mu * c_noisy.P * c_noisy.N**2 * s)
            * (2 * shift + 40 + c_noisy.H)
        )
        assert noisy - clean == pytest.approx(noise_term, rel=1e-12)

    def test_zero_initial_distance_kills_last_term(self):
        c = c_for_bounds(sigma_w2=0.0, G2=0.0, Mn2=np.zeros(2), Gamma=0.0)
        shift = max(16 * c.L / c.mu, c.H) + 1
        assert bound_weighted_average(
            BoundInputs(c, delta0=0.0, shift=shift, total_steps=40)
        ) == pytest.approx(0.0, abs=1e-15)

    def test_shift_precondition(self):
        c = c_for_bounds()
        with pytest.raises(ValueError, match="shift"):
            bound_weighted_average(BoundInputs(c, 1.0, shift=10.0, total_steps=40))


class TestFinalModelBound:
    def test_decreasing_in_t(self):
        c = c_for_bounds()
        shift = max(8 * c.L / c.mu, c.H)
        values = [
            bound_final_model(BoundInputs(c, 1.0, shift, total_steps=t))
            for t in (4, 40, 400, 4000, 40000)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-2 * values[0]

    def test_large_delta0_selects_second_arm(self):
        c = c_for_bounds()
        gamma = max(8 * c.L / c.mu, c.H)
        delta0 = 1e12
        t = 100
        expected = 2 * c.L * gamma * delta0 / (t + gamma)
        assert bound_final_model(
            BoundInputs(c, delta0, gamma, total_steps=t)
        ) == pytest.approx(expected, rel=1e-12)

    def test_shift_precondition(self):
        c = c_for_bounds()
        with pytest.raises(ValueError, match="shift"):
            bound_final_model(BoundInputs(c, 1.0, shift=c.H / 2, total_steps=40))

    @pytest.mark.parametrize(
        "delta0, shift, match",
        [
            (-1.0, 40.0, "delta0 must be non-negative"),
            (math.nan, 40.0, "delta0 must be non-negative"),
            (1.0, 0.0, "shift must be positive"),
            (1.0, math.nan, "shift must be positive"),
        ],
    )
    def test_negative_or_nan_inputs_rejected(self, delta0, shift, match):
        with pytest.raises(ValueError, match=match):
            BoundInputs(c_for_bounds(), delta0, shift, total_steps=40)

    def test_halving_rate(self):
        # dominant behaviour ~ 1/T: bound(2T)/bound(T) -> 1/2 for large T
        c = c_for_bounds()
        shift = max(8 * c.L / c.mu, c.H)
        t = 10_000 * c.H
        ratio = bound_final_model(
            BoundInputs(c, 1.0, shift, total_steps=2 * t)
        ) / bound_final_model(BoundInputs(c, 1.0, shift, total_steps=t))
        assert abs(ratio - 0.5) < 0.05


class TestFadingBound:
    def test_full_participation_unit_threshold_matches_awgn(self):
        c = c_for_bounds()
        shift = max(8 * c.L / c.mu, c.H)
        inputs = BoundInputs(c, 1.0, shift, total_steps=40, participants=c.N, h_min=1.0)
        assert bound_final_model_fading(inputs) == pytest.approx(
            bound_final_model(inputs), rel=1e-12
        )

    def test_fewer_participants_increase_bound(self):
        c = c_for_bounds(N=6, Mn2=np.ones(6), d=3)
        shift = max(8 * c.L / c.mu, c.H)
        # small delta0 keeps the error-constant arm of the max active
        values = [
            bound_final_model_fading(
                BoundInputs(c, 1e-6, shift, total_steps=40, participants=k, h_min=0.5)
            )
            for k in (6, 4, 2, 1)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_exceeds_awgn_bound_generally(self):
        c = c_for_bounds(N=6, Mn2=np.ones(6))
        shift = max(8 * c.L / c.mu, c.H)
        for k, h_min in ((6, 0.5), (3, 0.9), (2, 0.3)):
            inputs = BoundInputs(c, 1.0, shift, total_steps=80, participants=k, h_min=h_min)
            assert bound_final_model_fading(inputs) >= bound_final_model(inputs)

    def test_missing_fading_inputs(self):
        c = c_for_bounds()
        with pytest.raises(ValueError, match="fading"):
            bound_final_model_fading(BoundInputs(c, 1.0, c.H * 8, total_steps=40))


def brute_force_final_model(c, delta0, gamma, t):
    """Textually independent transcription used as the duplicate-formula oracle."""
    b = 8 * c.H * c.H * c.G2
    for m in c.Mn2:
        b += m / (c.N * c.N)
    b += 6 * c.L * c.Gamma
    cc = b + 4 * c.d * c.H * c.H * c.G2 * c.sigma_w2 / (c.P * c.N * c.N)
    arm1 = 4 * cc
    arm2 = c.mu * c.mu * gamma * delta0
    return 2 * c.L * (arm1 if arm1 > arm2 else arm2) / (c.mu * c.mu * (t + gamma))


class TestDominanceValidation:
    def _inputs(self):
        c = c_for_bounds()
        shift = max(8 * c.L / c.mu, c.H)
        return BoundInputs(c, delta0=1.0, shift=shift, total_steps=40)

    def test_pass_and_fail(self):
        inputs = self._inputs()
        grid = [(t, 0.9 * bound_final_model(replace(inputs, total_steps=t))) for t in (4, 8, 12)]
        report = validate_dominance(grid, bound_final_model, inputs)
        assert report.passed and len(report.rows) == 3

        bad = [(4, 1e9)] + grid[1:]
        report = validate_dominance(bad, bound_final_model, inputs)
        assert not report.passed
        assert report.violations[0].t == 4
        assert "FAIL" in report.summary()

    def test_mismatched_grid_rejected(self):
        inputs = self._inputs()
        with pytest.raises(ValueError, match="multiple of H"):
            validate_dominance([(3, 0.1)], bound_final_model, inputs)
        with pytest.raises(ValueError, match="multiple of H"):
            validate_dominance([(0, 0.1)], bound_final_model, inputs)

    @pytest.mark.parametrize("bound_fn, kind", GRID_BOUNDS)
    def test_rows_equal_a_per_row_loop(self, bound_fn, kind):
        # the rows one grid call gives, against the same rows built one bound
        # call at a time; gaps straddle the bound, so some rows fail
        inputs = _grid_inputs(kind, 40)
        rng = np.random.default_rng(5)
        steps = 4 * np.arange(1, 1001)
        scalar = [bound_fn(replace(inputs, total_steps=int(t))) for t in steps]
        gaps = np.array(scalar) * rng.uniform(0.5, 1.5, steps.size)
        report = validate_dominance(list(zip(steps, gaps)), bound_fn, inputs)
        expected = tuple(
            DominanceRow(t=int(t), mean_gap=float(gap), bound=bound, satisfied=gap <= bound)
            for t, gap, bound in zip(steps, gaps, scalar)
        )
        assert report.rows == expected
        assert 0 < len(report.violations) < len(expected)
        assert validate_dominance([], bound_fn, inputs).rows == ()

    def test_negative_control_halved_error_constant(self):
        # traces sitting just under the true bound must violate the bound
        # recomputed with the error constant halved (delta0 small keeps the
        # error-constant arm active, where the bound is linear in it)
        c = c_for_bounds()
        shift = max(8 * c.L / c.mu, c.H)
        inputs = BoundInputs(c, delta0=1e-9, shift=shift, total_steps=40)
        grid = [(t, 0.9 * bound_final_model(replace(inputs, total_steps=t))) for t in (4, 8, 12, 16)]
        halved = ProblemConstants(
            L=c.L, mu=c.mu, G2=c.G2 / 2, Mn2=c.Mn2 / 2, Gamma=c.Gamma / 2,
            d=c.d, N=c.N, H=c.H, P=c.P, sigma_w2=c.sigma_w2,
        )
        report = validate_dominance(
            grid, bound_final_model, replace(inputs, constants=halved)
        )
        assert not report.passed and len(report.violations) == len(grid)


class TestStepGrid:
    """A 1-D grid of step counts is one call, each entry with the bits of
    its own scalar call."""

    @pytest.mark.parametrize("bound_fn, kind", GRID_BOUNDS)
    @pytest.mark.parametrize("delta0", [1e-9, 1e4])  # either arm of the final-model max
    def test_grid_equals_the_per_step_loop_bit_for_bit(self, bound_fn, kind, delta0):
        steps = 4 * np.arange(1, 1001)
        inputs = _grid_inputs(kind, steps, delta0)
        grid = bound_fn(inputs)
        loop = [bound_fn(replace(inputs, total_steps=int(t))) for t in steps]
        assert all(type(value) is float for value in loop)
        assert grid.shape == (1000,) and grid.tolist() == loop

    def test_weight_sum_grid_equals_the_per_round_loop_bit_for_bit(self):
        rounds = np.arange(1, 1001)
        for shift in (33.0, 1e-3, 1234.5678):
            sums = weight_sum(shift, 4, rounds)
            assert sums.tolist() == [weight_sum(shift, 4, int(r)) for r in rounds]
        # a grid need not be sorted, and may repeat an entry
        assert weight_sum(33.0, 4, np.array([3, 1, 3])).tolist() == [
            weight_sum(33.0, 4, r) for r in (3, 1, 3)
        ]

    def test_unsorted_grid_with_repeats(self):
        steps = np.array([40, 4, 40, 12])
        for bound_fn, kind in GRID_BOUNDS:
            inputs = _grid_inputs(kind, steps)
            assert bound_fn(inputs).tolist() == [
                bound_fn(replace(inputs, total_steps=int(t))) for t in steps
            ]

    def test_a_list_is_held_as_an_array(self):
        inputs = _grid_inputs("final_model", [4, 8])
        assert isinstance(inputs.total_steps, np.ndarray)
        assert bound_final_model(inputs).tolist() == [
            bound_final_model(replace(inputs, total_steps=t)) for t in (4, 8)
        ]

    @pytest.mark.parametrize(
        "steps",
        [np.array([4, 8, 6]), np.array([4, 0]), np.array([-4]), 6, 0, np.array([[4, 8]]),
         np.array([4.0, 8.0]), 8.0],
    )
    def test_every_entry_is_checked_once_in_one_place(self, steps):
        with pytest.raises(ValueError, match="multiple of H=4"):
            _grid_inputs("final_model", steps)


def test_final_model_bound_matches_independent_script(rng):
    for _ in range(50):
        n = int(rng.integers(1, 6))
        c = ProblemConstants(
            L=float(rng.uniform(1.0, 5.0)),
            mu=float(rng.uniform(0.1, 1.0)),
            G2=float(rng.uniform(0.0, 10.0)),
            Mn2=rng.uniform(0.0, 5.0, n),
            Gamma=float(rng.uniform(0.0, 2.0)),
            d=int(rng.integers(1, 50)),
            N=n,
            H=int(rng.integers(1, 10)),
            P=float(rng.uniform(0.5, 4.0)),
            sigma_w2=float(rng.uniform(0.0, 5.0)),
        )
        gamma = max(8 * c.L / c.mu, c.H) * float(rng.uniform(1.0, 3.0))
        delta0 = float(rng.uniform(0.0, 100.0))
        t = int(rng.integers(1, 100)) * c.H
        ours = bound_final_model(BoundInputs(c, delta0, gamma, total_steps=t))
        oracle = brute_force_final_model(c, delta0, gamma, t)
        assert math.isclose(ours, oracle, rel_tol=1e-12)
        assert ours >= 0.0
