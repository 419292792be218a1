import numpy as np
import pytest

from otafl.channel import (
    awgn_mac,
    fading_mac,
    orthogonal_noiseless,
    sample_noise,
    sample_rayleigh,
)


class TestAwgnMac:
    def test_noiseless_superposition(self, rng):
        out = awgn_mac([np.array([1.0]), np.array([2.0])])
        np.testing.assert_array_equal(out, [3.0])

    def test_noiseless_exact_sum(self, rng):
        inputs = [rng.standard_normal(16) for _ in range(7)]
        out = awgn_mac(inputs)
        np.testing.assert_allclose(out, np.sum(inputs, axis=0), atol=1e-12)
        # a (K, d) block is the same input as the list of its rows
        np.testing.assert_array_equal(awgn_mac(np.stack(inputs)), out)

    def test_empty_inputs(self):
        # the output length comes from the inputs, so a round needs one
        with pytest.raises(ValueError, match="at least one input"):
            awgn_mac([], np.zeros(3))

    def test_length_mismatch(self, rng):
        with pytest.raises(ValueError):
            awgn_mac([np.zeros(2), np.zeros(3)])
        with pytest.raises(ValueError, match=r"need channel noise of shape \(2, 3\), got \(3,\)"):
            awgn_mac(np.zeros((2, 4, 3)), np.zeros(3))

    def test_noise_variance(self, rng):
        sigma_w2 = 0.7
        inputs = [np.ones(1000), 2 * np.ones(1000)]
        samples = []
        for _ in range(100):
            out = awgn_mac(inputs, sample_noise(1000, sigma_w2, rng))
            samples.append(out - 3.0)
        var = np.concatenate(samples).var()
        assert abs(var - sigma_w2) / sigma_w2 < 0.05

    def test_noise_independent_across_rounds(self, rng):
        draws = np.array([awgn_mac([np.zeros(1)], sample_noise(1, 1.0, rng))[0] for _ in range(10_000)])
        lag1 = np.corrcoef(draws[:-1], draws[1:])[0, 1]
        assert abs(lag1) < 0.02


class TestFadingMac:
    def test_unit_fading_matches_awgn_bit_exactly(self):
        inputs = [np.random.default_rng(1).standard_normal(8) for _ in range(3)]
        noise = sample_noise(8, 0.5, np.random.default_rng(2))
        a = fading_mac(inputs, np.ones(3), noise)
        b = awgn_mac(inputs, noise)
        np.testing.assert_array_equal(a, b)

    def test_scalar_scaling(self, rng):
        out = fading_mac([np.array([1.0, 1.0])], np.array([2.0]))
        np.testing.assert_array_equal(out, [2.0, 2.0])

    def test_random_case_recomputed_with_logged_noise(self, rng):
        inputs = [rng.standard_normal(6) for _ in range(4)]
        mags = rng.uniform(0.5, 2.0, 4)
        out = fading_mac(inputs, mags, sample_noise(6, 0.3, np.random.default_rng(77)))
        # replay the identical noise stream to recover the logged draw
        logged_noise = np.random.default_rng(77).normal(0.0, np.sqrt(0.3), 6)
        expected = sum(m * x for m, x in zip(mags, inputs)) + logged_noise
        np.testing.assert_allclose(out, expected, atol=1e-12)
        block_out = fading_mac(np.stack(inputs), mags, logged_noise)
        np.testing.assert_array_equal(block_out, out)

    def test_length_mismatch(self, rng):
        with pytest.raises(ValueError):
            fading_mac([np.zeros(3)], np.ones(2))


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


def test_orthogonal_noiseless_identity(rng):
    # a (T, K, d) stack passes as one float64 array, uncopied
    inputs = rng.standard_normal((2, 3, 4))
    assert orthogonal_noiseless(inputs) is inputs
    np.testing.assert_array_equal(orthogonal_noiseless(inputs[0]), inputs[0])
    out = orthogonal_noiseless(np.arange(6, dtype=np.float32).reshape(2, 3))
    assert out.dtype == np.float64
    np.testing.assert_array_equal(out, np.arange(6).reshape(2, 3))


def test_channel_kind_validation():
    # sigma_w2 and rayleigh_scale are checked by TrainerConfig and FadingPolicy
    # (tests/test_trainer.py::TestTrainerConfig)
    with pytest.raises(ValueError, match="strictly positive"):
        fading_mac([np.zeros(1)], np.array([0.0]))
