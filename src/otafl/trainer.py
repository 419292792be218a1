"""Round orchestration: local SGD at every user, transmission over the channel,
server-side aggregation, and derived model sequences.

Time indexing: the global SGD-step counter t starts at 0 and is shared by all
users; communication happens after every block of H steps, i.e. round r spans
steps (r-1)H .. rH-1 and the server aggregates at t = rH.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .bounds import SCHEDULE_KINDS, check_shift
from .channel import (
    awgn_mac,
    fading_mac,
    orthogonal_noiseless,
    sample_rayleigh,
)
from .localsgd import DEFAULT_THETA0_STD, local_pass
from .objectives import global_loss  # noqa: F401  (perfbench/spans.py times trainer.global_loss)
from .objectives import quadratic_gap
from .precoding import (
    AlphaSchedule,
    FadingPolicy,
    decode,
    fading_decode,
    fading_precode,
    precode,
    select_participants,
)
from .types import ShardBlock, UserShard

CHANNEL_KINDS = ("noiseless_orthogonal", "awgn_mac", "fading_mac")


@dataclass(frozen=True)
class SchemeSpec:
    """What a scheme runs over and what it needs besides data and streams."""

    channels: tuple[str, ...]  # config channel kinds the scheme runs over
    needs_alpha: bool  # precoded: scaled by a per-round alpha schedule
    fading: bool  # K of N users participate under a FadingPolicy


# Each scheme brings its own channel: the OTA schemes the AWGN MAC, the
# fading extension the Rayleigh MAC, and the error-free baseline none at all.
SCHEME_TABLE = {
    "cotaf": SchemeSpec(("awgn_mac",), needs_alpha=True, fading=False),
    "cotaf_fading": SchemeSpec(("fading_mac",), needs_alpha=True, fading=True),
    "non_precoded_ota": SchemeSpec(("awgn_mac",), needs_alpha=False, fading=False),
    "noise_free_local_sgd": SchemeSpec(CHANNEL_KINDS, needs_alpha=False, fading=False),
}
SCHEMES = tuple(SCHEME_TABLE)


def scheme_spec(scheme: str, channel_kind: str | None = None) -> SchemeSpec:
    """The table row of a scheme; raises if it does not run over channel_kind."""
    if scheme not in SCHEME_TABLE:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    spec = SCHEME_TABLE[scheme]
    if channel_kind is not None and channel_kind not in spec.channels:
        kinds = " or ".join(repr(kind) for kind in spec.channels)
        raise ValueError(f"scheme {scheme} needs channel kind {kinds}, got {channel_kind!r}")
    return spec


# A fading round is re-drawn while fewer than K users are eligible; a round
# that needs more redraws than this is misconfigured (h_min far too high).
MAX_WAIT_REDRAWS = 100_000
# Fading draws are made this many rows at a time, at most; a chunk is freed
# once its eligible rows are selected.
FADING_CHUNK_ROWS = 256


def step_averaged_model(t: int, mu: float, a: float) -> float:
    """Decaying step size 4/(mu*(a+t)) used when the deliverable is the
    weighted-average model; bounds.schedule_shift gives the floor on a."""
    return 4.0 / (mu * (a + t))


def step_final_model(t: int, mu: float, gamma: float) -> float:
    """Decaying step size 2/(mu*(gamma+t)) used when the deliverable is the
    final (instantaneous) model; bounds.schedule_shift gives the floor on gamma."""
    return 2.0 / (mu * (gamma + t))


@dataclass(frozen=True)
class StepSchedule:
    """Resolved step-size schedule: kind, shift parameter, and mu."""

    kind: str  # "averaged_model" | "final_model"
    shift: float
    mu: float

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.shift <= 0 or self.mu <= 0:
            raise ValueError("shift and mu must be positive")

    def eta(self, t: int | np.ndarray) -> float | np.ndarray:
        """Step size at global step t, or at each step of an integer array."""
        if self.kind == "averaged_model":
            return step_averaged_model(t, self.mu, self.shift)
        return step_final_model(t, self.mu, self.shift)

    def validate_against(self, smoothness: float, local_steps: int) -> None:
        """Enforce the shift lower bound given the smoothness constant L."""
        check_shift(self.kind, self.shift, smoothness / self.mu, local_steps)


@dataclass(frozen=True)
class TrainerConfig:
    """Everything one training run needs besides data and streams.

    sigma_w2 is the noise variance per coordinate of the scheme's MAC; the
    noise-free baseline ignores it. A fading scheme takes a FadingPolicy,
    which also holds the Rayleigh scale of its channel.
    """

    scheme: str
    local_steps: int
    rounds: int
    step: StepSchedule
    ridge_lambda: float = 0.5
    theta0_std: float = DEFAULT_THETA0_STD
    power: float = 1.0
    non_precoded_gain: float | None = None
    sigma_w2: float = 0.0
    fading: FadingPolicy | None = None

    def __post_init__(self):
        spec = scheme_spec(self.scheme)
        if self.local_steps < 1 or self.rounds < 0:
            raise ValueError("local_steps must be >= 1 and rounds >= 0")
        if self.ridge_lambda < 0 or self.theta0_std < 0 or self.power <= 0:
            raise ValueError("invalid ridge_lambda / theta0_std / power")
        if self.sigma_w2 < 0:
            raise ValueError("sigma_w2 must be non-negative")
        if spec.fading != (self.fading is not None):
            need = "requires a" if spec.fading else "takes no"
            raise ValueError(f"{self.scheme} {need} FadingPolicy")

    @property
    def gain(self) -> float:
        """Amplitude gain of the non-precoded baseline (default sqrt(power))."""
        return math.sqrt(self.power) if self.non_precoded_gain is None else self.non_precoded_gain


@dataclass(frozen=True)
class TrialStreams:
    """Random streams of one trial's paired training runs.

    `users` holds one generator per user for SGD index sampling and `init`
    draws the initial model; all schemes of the trial share both. `noise`
    and `fading` feed the channel and hold one stream per scheme, in the
    order of the schemes' configs.
    """

    init: np.random.Generator
    users: tuple[np.random.Generator, ...]
    noise: tuple[np.random.Generator | None, ...]
    fading: tuple[np.random.Generator | None, ...]


def _transmit_powers(signals: np.ndarray) -> np.ndarray:
    """Energy of each row of a (K, d) block of channel inputs."""
    return np.einsum("kd,kd->k", signals, signals)


def _draw_indices(users: Sequence[np.random.Generator], shard_size: int, count: int) -> np.ndarray:
    """(N, count) sample indices, row n from user n's stream.

    One sized draw per user gives the same values as count scalar draws, so
    drawing a whole run up front consumes each stream as step-by-step
    sampling would.
    """
    return np.stack([rng.integers(shard_size, size=count) for rng in users])


class FadingRounds(NamedTuple):
    """Fading rounds selected up front, one row per round: the K participants
    (sorted 1-based ids), their fading magnitudes, and the redraws the round
    waited for."""

    participants: np.ndarray  # (R, K)
    magnitudes: np.ndarray  # (R, K)
    waits: np.ndarray  # (R,)


class RunTrace(NamedTuple):
    """One training run, one row per round: the global model after the round,
    its gap F(theta) - F*, each user's transmit energy (0 for a user that
    stayed silent), the K participants (None when all N users transmit) and
    the fading redraws the round waited for."""

    thetas: np.ndarray  # (R, d)
    gaps: np.ndarray  # (R,)
    powers: np.ndarray  # (R, N)
    participants: np.ndarray | None  # (R, K)
    waits: np.ndarray  # (R,)


def draw_fading_rounds(
    rng: np.random.Generator, n_users: int, rounds: int, policy: FadingPolicy
) -> FadingRounds:
    """Select a run's `rounds` fading rounds from one stream of N-user Rayleigh draws.

    Round r takes the r-th draw with at least K users above h_min; the short
    draws before it are its waits. This is what re-drawing each round until
    K users are eligible gives, since sized draws consume the stream as
    one-round draws do (pinned in tests/test_rng.py). Draws come in chunks of
    at most FADING_CHUNK_ROWS rows, and only the selection from the eligible
    ones is kept, so memory stays O(rounds * K) however many draws are
    short. A round that needs more than MAX_WAIT_REDRAWS redraws raises,
    naming the round.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if policy.participants > n_users:
        raise ValueError(f"participants must lie in [1, {n_users}]")
    chunk = min(rounds, FADING_CHUNK_ROWS)
    ids, magnitudes, waits = [], [], []
    run = 0  # short draws since the last eligible one
    while len(waits) < rounds:
        draws = sample_rayleigh(n_users, policy.rayleigh_scale, rng, rows=chunk)
        chosen = select_participants(draws, policy)
        strongest = np.take_along_axis(draws, chosen - 1, axis=-1)
        rows = np.flatnonzero(strongest.min(axis=-1) > policy.h_min)[: rounds - len(waits)]
        # short draws before each eligible draw, and after the last one
        gaps = np.diff(rows, prepend=-1, append=chunk) - 1
        gaps[0] += run
        if len(waits) + rows.size == rounds:
            gaps = gaps[:-1]  # the draws after the last round go unused
        starved = np.flatnonzero(gaps > MAX_WAIT_REDRAWS)
        if starved.size:
            raise RuntimeError(
                f"round {len(waits) + int(starved[0]) + 1}: fading round starved: "
                "h_min leaves fewer than K users eligible"
            )
        run = int(gaps[-1])
        waits.extend(gaps[: rows.size].tolist())
        ids.append(chosen[rows])
        magnitudes.append(strongest[rows])
    return FadingRounds(
        np.concatenate(ids), np.concatenate(magnitudes), np.asarray(waits, dtype=np.int64)
    )


def run_round(
    global_theta: np.ndarray,
    local_models: np.ndarray,
    config: TrainerConfig,
    alpha: float | None,
    noise: np.random.Generator | None,
    optimum: tuple[np.ndarray, np.ndarray],
    fading: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, float, np.ndarray]:
    """Aggregate one round of one scheme over its channel.

    local_models holds the (N, d) models the users reached from the
    broadcast global_theta by the round's local steps. Returns the new
    global model, its gap and the (N,) transmit energies.

    optimum is the pair (theta*, Hessian) the gap is measured against.
    alpha is the round's precoding coefficient, which only the precoded
    schemes use; noise is the scheme's channel-noise stream. fading is the
    round's row of FadingRounds (participants, their magnitudes), which only
    cotaf_fading uses.
    """
    if SCHEME_TABLE[config.scheme].needs_alpha and alpha is None:
        raise ValueError(f"{config.scheme} needs an alpha coefficient")
    if config.scheme == "cotaf_fading" and fading is None:
        raise ValueError("cotaf_fading needs the round's fading selection")
    n_users = local_models.shape[0]
    deltas = local_models - global_theta

    if config.scheme == "noise_free_local_sgd":
        received = orthogonal_noiseless(local_models)
        new_theta = np.mean(received, axis=0)
        powers = _transmit_powers(deltas)
    elif config.scheme == "cotaf":
        signals = precode(deltas, alpha)
        y = awgn_mac(signals, config.sigma_w2, noise, dim=global_theta.shape[0])
        new_theta = decode(y, n_users, alpha, global_theta)
        powers = _transmit_powers(signals)
    elif config.scheme == "non_precoded_ota":
        gain = config.gain
        signals = gain * deltas
        y = awgn_mac(signals, config.sigma_w2, noise, dim=global_theta.shape[0])
        new_theta = y / (n_users * gain) + global_theta
        powers = _transmit_powers(signals)
    elif config.scheme == "cotaf_fading":
        policy = config.fading
        ids, magnitudes = fading
        rows = ids - 1
        signals = fading_precode(deltas[rows], alpha, magnitudes, policy.h_min)
        assert signals is not None  # selected users all exceed h_min
        y = fading_mac(signals, magnitudes, config.sigma_w2, noise)
        new_theta = fading_decode(y, rows.shape[0], alpha, policy.h_min, global_theta)
        powers = np.zeros(n_users)
        powers[rows] = _transmit_powers(signals)

    return new_theta, quadratic_gap(new_theta, *optimum), powers


# Paired runs share the kernel, so their configs must agree on these.
_KERNEL_FIELDS = ("local_steps", "rounds", "step", "ridge_lambda", "theta0_std")


def run_training(
    shards: Sequence[UserShard],
    configs: Sequence[TrainerConfig],
    alpha_schedule: AlphaSchedule | None,
    streams: TrialStreams,
    optimum: tuple[np.ndarray, np.ndarray],
) -> list[RunTrace]:
    """Paired training runs of one trial, one per config: a shared Gaussian
    initial model, then `rounds` communication rounds.

    The schemes share the initial model and every user's sample indices, so
    each round makes one local_pass on the (S, N, d) block of their models,
    and each scheme then aggregates its own slice over its own channel with
    its own noise and fading stream. Run s equals a run of configs[s] alone,
    bit for bit. optimum is the pair (theta*, Hessian) of the global
    objective on shards, against which each round's gap is measured.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("need at least one trainer config")
    first = configs[0]
    for name in _KERNEL_FIELDS:
        if any(getattr(config, name) != getattr(first, name) for config in configs):
            raise ValueError(f"paired runs must share {name}")
    needs_alpha = [SCHEME_TABLE[config.scheme].needs_alpha for config in configs]
    if any(needs_alpha):
        if alpha_schedule is None:
            raise ValueError(f"{configs[needs_alpha.index(True)].scheme} needs an alpha schedule")
        if alpha_schedule.rounds < first.rounds:
            raise ValueError(
                f"alpha schedule covers {alpha_schedule.rounds} rounds, need {first.rounds}"
            )

    block = ShardBlock.of(shards)
    n_users, shard_size, dim = block.features.shape
    if len(streams.users) != n_users:
        raise ValueError(f"need {n_users} user streams, got {len(streams.users)}")
    n_runs = len(configs)
    if len(streams.noise) != n_runs or len(streams.fading) != n_runs:
        raise ValueError(f"need one noise and one fading stream for each of {n_runs} schemes")
    h, rounds = first.local_steps, first.rounds
    theta = np.broadcast_to(streams.init.normal(0.0, first.theta0_std, dim), (n_runs, dim))
    indices = _draw_indices(streams.users, shard_size, rounds * h)
    fades = [None] * n_runs
    for s, config in enumerate(configs):
        if config.fading is not None and rounds > 0:
            try:
                fades[s] = draw_fading_rounds(streams.fading[s], n_users, rounds, config.fading)
            except Exception as exc:
                raise RuntimeError(f"scheme {config.scheme}: {exc}") from exc
    etas = first.step.eta(np.arange(rounds * h))  # the run's R*H step sizes
    alphas = alpha_schedule.values.tolist() if any(needs_alpha) else None
    thetas = np.empty((n_runs, rounds, dim))
    gaps = np.empty((n_runs, rounds))
    powers = np.empty((n_runs, rounds, n_users))
    for i in range(rounds):
        r = i + 1
        # a single scheme keeps to the unbatched kernel, a (d,) start and
        # (N, d) models, whose per-call cost the batched path would raise
        local_models = local_pass(
            theta[0] if n_runs == 1 else theta[:, None, :], block.features, block.targets,
            etas[i * h : r * h], indices[:, i * h : r * h], first.ridge_lambda,
        ).reshape(n_runs, n_users, dim)
        for s, config in enumerate(configs):
            fade = fades[s]
            try:
                thetas[s, i], gaps[s, i], powers[s, i] = run_round(
                    theta[s], local_models[s], config, alphas[i] if needs_alpha[s] else None,
                    streams.noise[s], optimum,
                    None if fade is None else (fade.participants[i], fade.magnitudes[i]),
                )
            except Exception as exc:
                raise RuntimeError(f"scheme {config.scheme}: round {r}: {exc}") from exc
        theta = thetas[:, i]
    return [
        RunTrace(thetas[s], gaps[s], powers[s], None, np.zeros(rounds, dtype=np.int64))
        if fade is None
        else RunTrace(thetas[s], gaps[s], powers[s], fade.participants, fade.waits)
        for s, fade in enumerate(fades)
    ]


def weighted_average_model(thetas: np.ndarray, a: float, local_steps: int) -> np.ndarray:
    """Weighted average of an (R, d) block of per-round global models, row i
    being round r = i+1, with weights (a + r*H)^2."""
    if len(thetas) == 0:
        raise ValueError("thetas must be non-empty")
    weights = (a + local_steps * np.arange(1, len(thetas) + 1)) ** 2
    return (weights[:, None] * thetas).sum(axis=0) / weights.sum()
