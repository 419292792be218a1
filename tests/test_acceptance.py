"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines. Heavy Monte Carlo runs are shared through session fixtures.
"""

import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from otafl import harness
from otafl.bounds import (
    BoundInputs,
    bound_final_model,
    bound_final_model_fading,
    bound_weighted_average,
    validate_dominance,
)
from otafl.channel import fading_mac, sample_noise, sample_rayleigh
from otafl.data import partition
from otafl.objectives import global_loss, grams_optimum, shard_grams, solve_optimum
from otafl.precoding import FadingPolicy, decode, precode, select_participants
from otafl.rng import stream_generator
from otafl.trainer import run_training
from otafl.types import ProblemConstants

from conftest import RegressionSample, global_grad, ridge_grad, ridge_loss, weighted_average_model

DATA_DIR = Path(__file__).parent / "data"
SEED = 20260810


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {name} ({detail})"


def desk_doc(snr_db, scheme="cotaf", trials=50, rounds=200, seed=SEED):
    return {
        "seed": seed,
        "trials": trials,
        "users": 20,
        "dataset": {"kind": "synthetic", "dim": 20, "total_samples": 10000, "noise_std": 1.0},
        "partition": {"mode": "iid"},
        "trainer": {
            "scheme": scheme,
            "local_steps": 10,
            "rounds": rounds,
            "schedule": {"kind": "final_model", "shift": "auto"},
        },
        "channel": {"kind": "awgn_mac", "snr_db": snr_db},
        "alpha": {"source": "mc_pilot", "fraction": 0.2, "pilot_trials": 10},
    }


@pytest.fixture(scope="session")
def desk_minus6():
    """Desk-scale run at SNR -6 dB for all three non-fading schemes."""
    config = harness.parse_config(desk_doc(-6.0))
    start = time.time()
    result = harness.simulate_trials(
        config, ["noise_free_local_sgd", "cotaf", "non_precoded_ota"]
    )
    return config, result, time.time() - start


@pytest.fixture(scope="session")
def desk_plus6():
    config = harness.parse_config(desk_doc(6.0))
    start = time.time()
    result = harness.simulate_trials(config, ["cotaf"])
    return config, result, time.time() - start


def test_criterion_01_noiseless_collapse():
    start = time.time()
    config = harness.parse_config(
        {**desk_doc(None, trials=1, rounds=50), "channel": {"kind": "awgn_mac", "snr_db": None}}
    )
    resolved = harness.resolve(config, ["cotaf"])
    rows = partition(
        resolved.dataset, config.partition_spec, stream_generator(SEED, "trial0/partition")
    )
    shards = resolved.dataset.shards(rows)
    theta_star, hess = grams_optimum(*shard_grams(shards), config.trainer.ridge_lambda)
    theta0 = harness.initial_model_for_trial(config, 0, resolved.dataset.feature_dim)
    iterates = {}
    for scheme in ("cotaf", "noise_free_local_sgd"):
        iterates[scheme] = run_training(
            resolved.dataset,
            rows[None],
            theta0[None],
            [harness._trainer_config(resolved, scheme)],
            resolved.alpha_schedule,
            [harness.trial_streams(config, 0, [scheme])],
            (theta_star[None], hess[None]),
        )[0].thetas[0]
    worst = float(np.max(np.abs(iterates["cotaf"] - iterates["noise_free_local_sgd"])))
    elapsed = time.time() - start
    report(
        1,
        "noiseless collapse: zero-noise COTAF equals noise-free local SGD",
        worst <= 1e-10 and elapsed < 10,
        f"max |coord diff| {worst:.2e} over 50 rounds, {elapsed:.1f}s",
    )


def test_criterion_02_rate_check(desk_minus6):
    _, result, elapsed = desk_minus6
    gaps = result.schemes["cotaf"].gaps.mean(axis=0)
    t = result.t_grid
    slope = float(np.polyfit(np.log(t[99:200]), np.log(gaps[99:200]), 1)[0])
    report(
        2,
        "rate check: log-log slope of the mean gap over rounds 100-200",
        -1.3 <= slope <= -0.7 and elapsed < 300,
        f"slope {slope:.3f}, shared run {elapsed:.0f}s",
    )


def test_criterion_03_error_floor_separation(desk_minus6):
    _, result, _ = desk_minus6
    thresholds = json.loads((DATA_DIR / "error_floor_pilot.json").read_text())[
        "frozen_thresholds"
    ]
    order = ["noise_free_local_sgd", "cotaf", "non_precoded_ota"]
    rep = harness.analyze_comparison(result, order)
    pair = [p for p in rep.pairs if p.second == "non_precoded_ota"][0]
    ok = (
        rep.ordering_ok()
        and pair.z > thresholds["min_z_non_precoded_vs_cotaf"]
        and rep.plateau_ratios["non_precoded_ota"] >= thresholds["min_plateau_ratio_non_precoded"]
        and rep.plateau_ratios["cotaf"] <= thresholds["max_plateau_ratio_cotaf"]
    )
    report(
        3,
        "error-floor separation: ordering, 3-sigma gap, plateau flags",
        ok,
        "gaps {:.2e} <= {:.2e} <= {:.2e}; z {:.1f}; ratios np {:.2f} cotaf {:.2f}".format(
            rep.final_mean_gaps["noise_free_local_sgd"],
            rep.final_mean_gaps["cotaf"],
            rep.final_mean_gaps["non_precoded_ota"],
            pair.z,
            rep.plateau_ratios["non_precoded_ota"],
            rep.plateau_ratios["cotaf"],
        ),
    )


def test_criterion_04_bound_dominance(desk_minus6, desk_plus6):
    details = []
    ok = True
    for config, result, elapsed in (desk_minus6[:3], desk_plus6[:3]):
        inputs = harness.estimate_bound_inputs(config, kind="final_model")
        gaps = result.schemes["cotaf"].gaps.mean(axis=0)
        rep = validate_dominance(
            list(zip(result.t_grid, gaps)), bound_final_model, inputs
        )
        snr = config.channel.snr_db
        ok = ok and rep.passed and elapsed < 300
        margin = min(row.bound / row.mean_gap for row in rep.rows)
        details.append(f"{snr:+.0f}dB min bound/gap {margin:.3g}")
    report(4, "final-model bound dominates every round at both SNRs", ok, "; ".join(details))


def test_weighted_average_bound_final_round():
    # secondary check: the weighted-average-model bound at the final round
    doc = desk_doc(-6.0, trials=20, rounds=100)
    doc["trainer"]["schedule"] = {"kind": "averaged_model", "shift": "auto"}
    config = harness.parse_config(doc)
    resolved = harness.resolve(config, ["cotaf"])
    a = resolved.schedule.shift
    h = config.trainer.local_steps
    gaps = []
    for trial in range(config.trials):
        rows = partition(
            resolved.dataset,
            config.partition_spec,
            stream_generator(SEED, f"trial{trial}/partition"),
        )
        shards = resolved.dataset.shards(rows)
        theta_star, hess = grams_optimum(*shard_grams(shards), config.trainer.ridge_lambda)
        f_star = global_loss(theta_star, shards, config.trainer.ridge_lambda)
        theta0 = harness.initial_model_for_trial(config, trial, resolved.dataset.feature_dim)
        (trace,) = run_training(
            resolved.dataset,
            rows[None],
            theta0[None],
            [harness._trainer_config(resolved, "cotaf")],
            resolved.alpha_schedule,
            [harness.trial_streams(config, trial, ["cotaf"])],
            (theta_star[None], hess[None]),
        )
        averaged = weighted_average_model(trace.thetas[0], a, h)
        gaps.append(global_loss(averaged, shards, config.trainer.ridge_lambda) - f_star)
    mean_gap = float(np.mean(gaps))
    inputs = harness.estimate_bound_inputs(config, kind="averaged_model")
    bound = bound_weighted_average(inputs)
    print(
        f"[secondary] weighted-average bound at T={inputs.total_steps}: "
        f"gap {mean_gap:.3e} <= bound {bound:.3e}"
    )
    assert mean_gap <= bound


def test_criterion_05_equivalent_noise_law(desk_minus6):
    start = time.time()
    config, result, _ = desk_minus6
    resolved = result.resolved
    sigma_w2 = resolved.sigma_w2
    n_users, d = config.users, 20
    rng = np.random.default_rng(555)
    details = []
    ok = True
    for round_index in (1, 10, 100):
        alpha = resolved.alpha_schedule.values[round_index - 1]
        deltas = np.stack([rng.standard_normal(d) for _ in range(n_users)])
        signals = precode(deltas, math.sqrt(alpha))
        prev = np.zeros(d)
        scale = n_users * math.sqrt(alpha)
        clean = decode(fading_mac(signals, 1.0), scale, prev)
        errs = np.empty((10_000, d))
        for i in range(10_000):
            noise = sample_noise(d, sigma_w2, rng)
            errs[i] = decode(fading_mac(signals, 1.0, noise), scale, prev) - clean
        var = float(errs.var())
        target = sigma_w2 / (n_users**2 * alpha)
        rel = abs(var - target) / target
        ok = ok and rel < 0.05
        details.append(f"r{round_index}: rel err {rel:.3f}")
    elapsed = time.time() - start
    ok = ok and elapsed < 30
    report(5, "equivalent-noise law: decode noise variance sigma^2/(N^2 alpha)", ok,
           "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_06_power_constraint():
    # measured at SNR +6 dB; at -6 dB the noise-free pilot underestimates the
    # noisy-run update energy in the transient rounds (see docs in README)
    start = time.time()
    config = harness.parse_config(desk_doc(6.0, trials=200, rounds=50))
    result = harness.simulate_trials(config, ["cotaf"])
    per_user_mean = result.schemes["cotaf"].power_per_user.mean(axis=0)  # (R, N)
    worst = float(per_user_mean.max())
    elapsed = time.time() - start
    report(
        6,
        "power constraint: per-round mean transmit energy <= 1.05 P",
        worst <= 1.05 * harness.POWER and elapsed < 120,
        f"max per-(round,user) mean power {worst:.3f}, 200 trials, {elapsed:.0f}s",
    )


def test_criterion_07a_participant_uniformity():
    from scipy import stats

    rng = np.random.default_rng(2024)
    policy = FadingPolicy(h_min=1e-12, participants=3)
    counts = {c: 0 for c in itertools.combinations(range(1, 7), 3)}
    for _ in range(10_000):
        chosen = select_participants(sample_rayleigh(6, 1.0, rng), policy)
        counts[tuple(chosen)] += 1
    chi2, p_value = stats.chisquare(np.array(list(counts.values())))
    report(
        7,
        "fading (a): participant subsets uniform over all C(6,3)=20 subsets",
        p_value >= 0.01,
        f"chi2 {chi2:.1f}, p {p_value:.3f}",
    )


def test_criterion_07b_subset_unbiasedness():
    rng = np.random.default_rng(99)
    n_users = 5
    models = [rng.standard_normal(6) for _ in range(n_users)]
    full = np.mean(models, axis=0)
    worst = 0.0
    for k in range(1, n_users + 1):
        subset_avgs = [
            np.mean([models[i] for i in s], axis=0)
            for s in itertools.combinations(range(n_users), k)
        ]
        worst = max(worst, float(np.max(np.abs(np.mean(subset_avgs, axis=0) - full))))
    report(
        7,
        "fading (b): enumerated subset averaging is unbiased for K=1..5",
        worst <= 1e-12,
        f"max |deviation| {worst:.2e}",
    )


def test_criterion_07c_fading_bound_dominance():
    start = time.time()
    config = harness.parse_config(
        {
            **desk_doc(-6.0, scheme="cotaf_fading"),
            "channel": {
                "kind": "fading_mac",
                "snr_db": -6.0,
                "participants": 16,
                "eligibility": 0.8,
            },
        }
    )
    result = harness.simulate_trials(config, ["cotaf_fading"])
    gaps = result.schemes["cotaf_fading"].gaps.mean(axis=0)
    inputs = harness.estimate_bound_inputs(config, kind="final_model")
    rep = validate_dominance(
        list(zip(result.t_grid, gaps)), bound_final_model_fading, inputs
    )
    elapsed = time.time() - start
    margin = min(row.bound / row.mean_gap for row in rep.rows)
    report(
        7,
        "fading (c): fading bound dominates a desk-scale Rayleigh run",
        rep.passed and elapsed < 300,
        f"K={inputs.participants}, h_min {inputs.h_min:.3f}, min bound/gap {margin:.3g}, {elapsed:.0f}s",
    )


def test_criterion_08_user_scaling():
    start = time.time()

    def config_for(users):
        return harness.parse_config(
            {
                "seed": 424242,
                "trials": 30,
                "users": users,
                "dataset": {"kind": "synthetic", "dim": 20, "total_samples": 4000, "noise_std": 1.0},
                "partition": {"mode": "iid"},
                "trainer": {
                    "scheme": "cotaf",
                    "local_steps": 10,
                    "rounds": 150,
                    "schedule": {"kind": "final_model", "shift": "auto"},
                },
                "channel": {"kind": "awgn_mac", "snr_db": -6.0},
                "alpha": {"source": "mc_pilot", "fraction": 0.2, "pilot_trials": 10},
            }
        )

    few = harness.simulate_trials(config_for(10), ["cotaf"]).schemes["cotaf"].gaps[:, -1]
    many = harness.simulate_trials(config_for(40), ["cotaf"]).schemes["cotaf"].gaps[:, -1]
    diff = few - many
    se = float(diff.std(ddof=1) / math.sqrt(diff.shape[0]))
    elapsed = time.time() - start
    ok = many.mean() < few.mean() and diff.mean() > 2 * se and elapsed < 600
    report(
        8,
        "user scaling: N=40 beats N=10 at the same sample budget",
        ok,
        f"gap N=10 {few.mean():.3e}, N=40 {many.mean():.3e}, paired z {diff.mean()/se:.1f}, {elapsed:.0f}s",
    )


# --- criterion 9: independent single-purpose transcriptions of every formula ---


def oracle_b(L, G2, Mn2, Gamma, N, H):
    total = 8.0 * H * H * G2
    acc = 0.0
    for m in Mn2:
        acc = acc + m
    return total + acc / (N * N) + 6.0 * L * Gamma


def oracle_c(L, G2, Mn2, Gamma, N, H, d, P, sigma_w2):
    return oracle_b(L, G2, Mn2, Gamma, N, H) + 4.0 * d * H * H * G2 * sigma_w2 / (P * N * N)


def oracle_c_tilde(L, G2, Mn2, Gamma, N, H, d, P, sigma_w2, K, h_min):
    extra = 4.0 * d * H * H * G2 * sigma_w2 / (P * K * K * h_min * h_min)
    return oracle_b(L, G2, Mn2, Gamma, N, H) + extra


def oracle_d(G2, N, H, K):
    if N == 1:
        return 0.0
    return 4.0 * (N - K) / (K * (N - 1.0)) * H * H * G2


def oracle_s_r(a, H, R):
    s = 0.0
    for r in range(1, R + 1):
        term = a + r * H
        s = s + term * term
    return s


def oracle_bound_averaged(L, mu, G2, Mn2, Gamma, N, H, d, P, sigma_w2, a, T, delta0):
    R = T // H
    s = oracle_s_r(a, H, R)
    b = oracle_b(L, G2, Mn2, Gamma, N, H)
    first = 4.0 * (T + R) / (3.0 * mu * s) * (2.0 * a + H + R - 1.0) * b
    second = 16.0 * d * T * H * G2 * sigma_w2 / (3.0 * mu * P * N * N * s) * (2.0 * a + T + H)
    third = mu * a * a * a / (6.0 * s) * delta0
    return first + second + third


def oracle_bound_final(L, mu, G2, Mn2, Gamma, N, H, d, P, sigma_w2, gamma, T, delta0):
    c = oracle_c(L, G2, Mn2, Gamma, N, H, d, P, sigma_w2)
    top = 4.0 * c
    alt = mu * mu * gamma * delta0
    if alt > top:
        top = alt
    return 2.0 * L * top / (mu * mu * (T + gamma))


def oracle_bound_fading(L, mu, G2, Mn2, Gamma, N, H, d, P, sigma_w2, gamma, T, delta0, K, h_min):
    c = oracle_c_tilde(L, G2, Mn2, Gamma, N, H, d, P, sigma_w2, K, h_min)
    c = c + oracle_d(G2, N, H, K)
    top = 4.0 * c
    alt = mu * mu * gamma * delta0
    if alt > top:
        top = alt
    return 2.0 * L * top / (mu * mu * (T + gamma))


def test_criterion_09_formula_oracles():
    from otafl.bounds import (
        base_error_constant,
        channel_error_constant,
        fading_channel_error_constant,
        partial_participation_penalty,
        weight_sum,
    )

    start = time.time()
    rng = np.random.default_rng(31337)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 8))
        c = ProblemConstants(
            L=float(rng.uniform(1.0, 5.0)),
            mu=float(rng.uniform(0.05, 1.0)),
            G2=float(rng.uniform(0.0, 20.0)),
            Mn2=rng.uniform(0.0, 10.0, n),
            Gamma=float(rng.uniform(0.0, 3.0)),
            d=int(rng.integers(1, 100)),
            N=n,
            H=int(rng.integers(1, 12)),
            P=float(rng.uniform(0.25, 4.0)),
            sigma_w2=float(rng.uniform(0.0, 8.0)),
        )
        k = int(rng.integers(1, n + 1))
        h_min = float(rng.uniform(0.1, 1.0))
        rounds = int(rng.integers(1, 60))
        t = rounds * c.H
        delta0 = float(rng.uniform(0.0, 200.0))
        a = max(16 * c.L / c.mu, c.H) * float(rng.uniform(1.01, 4.0))
        gamma = max(8 * c.L / c.mu, c.H) * float(rng.uniform(1.0, 4.0))
        args = (c.L, c.G2, list(c.Mn2), c.Gamma, c.N, c.H)
        chan = (c.d, c.P, c.sigma_w2)

        def rel(x, y):
            scale = max(abs(x), abs(y), 1e-300)
            return abs(x - y) / scale

        worst = max(worst, rel(base_error_constant(c), oracle_b(*args)))
        worst = max(worst, rel(channel_error_constant(c), oracle_c(*args, *chan)))
        worst = max(
            worst,
            rel(
                fading_channel_error_constant(c, k, h_min),
                oracle_c_tilde(*args, *chan, k, h_min),
            ),
        )
        worst = max(
            worst, rel(partial_participation_penalty(c, k), oracle_d(c.G2, c.N, c.H, k))
        )
        worst = max(worst, rel(weight_sum(a, c.H, rounds), oracle_s_r(a, c.H, rounds)))
        worst = max(
            worst,
            rel(
                bound_weighted_average(BoundInputs(c, delta0, a, t)),
                oracle_bound_averaged(c.L, c.mu, *args[1:], *chan, a, t, delta0),
            ),
        )
        worst = max(
            worst,
            rel(
                bound_final_model(BoundInputs(c, delta0, gamma, t)),
                oracle_bound_final(c.L, c.mu, *args[1:], *chan, gamma, t, delta0),
            ),
        )
        worst = max(
            worst,
            rel(
                bound_final_model_fading(
                    BoundInputs(c, delta0, gamma, t, participants=k, h_min=h_min)
                ),
                oracle_bound_fading(c.L, c.mu, *args[1:], *chan, gamma, t, delta0, k, h_min),
            ),
        )
    elapsed = time.time() - start
    report(
        9,
        "formula oracles: all constants and bounds match the independent script",
        worst <= 1e-12 and elapsed < 5,
        f"worst relative error {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_10_gradient_and_optimum():
    start = time.time()
    rng = np.random.default_rng(777)
    worst_rel = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 8))
        theta = rng.standard_normal(dim)
        sample = RegressionSample(rng.standard_normal(dim), rng.standard_normal())
        lam = float(rng.uniform(0.0, 2.0))
        analytic = ridge_grad(theta, sample, lam)
        numeric = np.zeros(dim)
        for i in range(dim):
            up, down = theta.copy(), theta.copy()
            up[i] += 1e-6
            down[i] -= 1e-6
            numeric[i] = (ridge_loss(up, sample, lam) - ridge_loss(down, sample, lam)) / 2e-6
        scale = max(np.linalg.norm(analytic), 1e-6)
        worst_rel = max(worst_rel, float(np.linalg.norm(analytic - numeric) / scale))

    worst_stationarity = 0.0
    for i in range(10):
        inst_rng = np.random.default_rng(1000 + i)
        from otafl.data import PartitionSpec, generate_synthetic

        dataset = generate_synthetic(6, 240, 1.0, inst_rng)
        shards = dataset.shards(partition(dataset, PartitionSpec("iid", 4), inst_rng))
        theta_star = solve_optimum(shards, 0.5)
        resid = np.linalg.norm(global_grad(theta_star, shards, 0.5))
        worst_stationarity = max(
            worst_stationarity, resid / (1.0 + np.linalg.norm(theta_star))
        )
    elapsed = time.time() - start
    report(
        10,
        "gradient and optimum checks",
        worst_rel <= 1e-5 and worst_stationarity <= 1e-8 and elapsed < 10,
        f"fd rel err {worst_rel:.2e}; stationarity {worst_stationarity:.2e}; {elapsed:.1f}s",
    )
