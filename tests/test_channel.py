import numpy as np
import pytest

from otafl.channel import fading_mac, sample_noise, sample_rayleigh


class TestAwgnMac:
    """The AWGN MAC is fading_mac over the unit channel, magnitude 1.0."""

    def test_noiseless_superposition(self, rng):
        out = fading_mac(np.array([[1.0], [2.0]]), 1.0)
        np.testing.assert_array_equal(out, [3.0])

    def test_noiseless_exact_sum(self, rng):
        inputs = rng.standard_normal((7, 16))
        out = fading_mac(inputs, 1.0)
        np.testing.assert_allclose(out, np.sum(inputs, axis=0), atol=1e-12)

    def test_length_mismatch(self, rng):
        with pytest.raises(ValueError, match=r"need channel noise of shape \(2, 3\), got \(3,\)"):
            fading_mac(np.zeros((2, 4, 3)), 1.0, np.zeros(3))

    def test_noise_variance(self, rng):
        sigma_w2 = 0.7
        inputs = np.stack([np.ones(1000), 2 * np.ones(1000)])
        samples = []
        for _ in range(100):
            out = fading_mac(inputs, 1.0, sample_noise(1000, sigma_w2, rng))
            samples.append(out - 3.0)
        var = np.concatenate(samples).var()
        assert abs(var - sigma_w2) / sigma_w2 < 0.05

    def test_noise_independent_across_rounds(self, rng):
        draws = np.array(
            [fading_mac(np.zeros((1, 1)), 1.0, sample_noise(1, 1.0, rng))[0] for _ in range(10_000)]
        )
        lag1 = np.corrcoef(draws[:-1], draws[1:])[0, 1]
        assert abs(lag1) < 0.02


class TestFadingMac:
    def test_unit_fading_matches_awgn_bit_exactly(self):
        # unit magnitudes, one per input or one for all, give the AWGN MAC:
        # the plain sum of the inputs plus the noise
        inputs = np.random.default_rng(1).standard_normal((3, 8))
        noise = sample_noise(8, 0.5, np.random.default_rng(2))
        awgn = inputs.sum(axis=0) + noise
        np.testing.assert_array_equal(fading_mac(inputs, np.ones(3), noise), awgn)
        np.testing.assert_array_equal(fading_mac(inputs, 1.0, noise), awgn)

    def test_scalar_scaling(self, rng):
        out = fading_mac(np.array([[1.0, 1.0]]), np.array([2.0]))
        np.testing.assert_array_equal(out, [2.0, 2.0])

    def test_random_case_recomputed_with_logged_noise(self, rng):
        inputs = rng.standard_normal((4, 6))
        mags = rng.uniform(0.5, 2.0, 4)
        out = fading_mac(inputs, mags, sample_noise(6, 0.3, np.random.default_rng(77)))
        # replay the identical noise stream to recover the logged draw
        logged_noise = np.random.default_rng(77).normal(0.0, np.sqrt(0.3), 6)
        expected = sum(m * x for m, x in zip(mags, inputs)) + logged_noise
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_length_mismatch(self, rng):
        with pytest.raises(ValueError, match=r"got inputs \(1, 3\) for magnitudes of shape \(2,\)"):
            fading_mac(np.zeros((1, 3)), np.ones(2))


class TestSampleRayleigh:
    def test_mean_matches_rayleigh_moment(self, rng):
        scale = 0.8
        mags = sample_rayleigh(100_000, scale, rng)
        expected = scale * np.sqrt(np.pi / 2)
        assert abs(mags.mean() - expected) / expected < 0.02

    def test_all_positive(self, rng):
        mags = sample_rayleigh(10_000, 1.0, rng)
        assert np.all(mags > 0)

    def test_deterministic(self):
        a = sample_rayleigh(10, 1.0, np.random.default_rng(3))
        b = sample_rayleigh(10, 1.0, np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)


class TestWeightedSum:
    def test_adds_h_k_x_k_in_order_of_k(self):
        # for d >= 2 the MAC's sum has the bits of a loop adding one
        # transmitter's h_k * x_k at a time, for one block or a stack of them
        rng = np.random.default_rng(21)
        for _ in range(300):
            lead = tuple(int(n) for n in rng.integers(1, 4, size=rng.integers(0, 3)))
            k, d = int(rng.integers(1, 40)), int(rng.integers(2, 50))
            inputs = rng.standard_normal((*lead, k, d)) * rng.uniform(0.1, 100.0)
            mags = rng.uniform(0.1, 3.0, (*lead, k))
            # a user left out of a fading round sends +-0 at magnitude 1.0,
            # an exact +-0 term that leaves the ordered sum as it is
            silent = rng.random((*lead, k)) < rng.uniform(0.0, 0.9)
            inputs[silent] = np.where(rng.random((*lead, k, d)) < 0.5, -0.0, 0.0)[silent]
            mags[silent] = 1.0
            expected = mags[..., 0, None] * inputs[..., 0, :]
            for j in range(1, k):
                expected = expected + mags[..., j, None] * inputs[..., j, :]
            np.testing.assert_array_equal(fading_mac(inputs, mags), expected)


class TestSampleNoise:
    def test_sized_draw_is_rows_of_one_round_draws(self):
        block = sample_noise(5, 0.3, np.random.default_rng(4), rows=3)
        rng = np.random.default_rng(4)
        rounds = np.stack([sample_noise(5, 0.3, rng) for _ in range(3)])
        assert block.shape == (3, 5)
        np.testing.assert_array_equal(block, rounds)

    def test_settings_checked(self, rng):
        with pytest.raises(ValueError, match="sigma_w2 must be non-negative"):
            sample_noise(3, -0.1, rng)
        with pytest.raises(ValueError, match="dim must be >= 1"):
            sample_noise(0, 1.0, rng)


def test_channel_kind_validation(rng):
    # sigma_w2 and rayleigh_scale are checked by TrainerConfig and FadingPolicy
    # (tests/test_trainer.py::TestTrainerConfig); a zero fading magnitude is
    # rejected by the censoring check of a fading round's plan
    # (tests/test_precoding.py::TestFadingPrecode)
    for scale in (0.0, -1.0):
        with pytest.raises(ValueError, match="scale must be positive"):
            sample_rayleigh(3, scale, rng)
    with pytest.raises(ValueError, match="n_users must be >= 1"):
        sample_rayleigh(0, 1.0, rng)
