"""Round orchestration: local SGD at every user, transmission over the channel,
server-side aggregation, and derived model sequences.

Time indexing: the global SGD-step counter t starts at 0 and is shared by all
users; communication happens after every block of H steps, i.e. round r spans
steps (r-1)H .. rH-1 and the server aggregates at t = rH.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .bounds import SCHEDULE_KINDS, check_shift
from .channel import fading_mac, sample_noise, sample_rayleigh
from .data import Dataset, check_row_ids
from .localsgd import KernelBlocks, check_steps, local_pass
from .objectives import global_loss  # noqa: F401  (perfbench/spans.py times trainer.global_loss)
from .objectives import quadratic_gap
from .precoding import AlphaSchedule, FadingPolicy, decode, precode, select_participants

# perfbench/spans.py times the codec and the MAC under these names too
fading_precode, fading_decode = precode, decode
awgn_mac = orthogonal_noiseless = fading_mac

CHANNEL_KINDS = ("noiseless_orthogonal", "awgn_mac", "fading_mac")


@dataclass(frozen=True)
class SchemeSpec:
    """What a scheme runs over, and its codec.

    Every scheme aggregates a round as theta + (sum_k h_k c_k delta_k + w) / (K s)
    over its K transmitters, with gains c_k = a*b/h_k and scale s = a*b.
    """

    channels: tuple[str, ...]  # config channel kinds the scheme runs over
    needs_alpha: bool  # precoded: scaled by a per-round alpha schedule
    amplitude: Callable[[float | None, TrainerConfig], float]  # a, from alpha_r and the config
    # K of N users under a FadingPolicy, with b = h_min and h their
    # magnitudes; otherwise all N users, with b = h = 1
    fading: bool
    noisy: bool  # w is the MAC's noise; else w = 0


# The amplitude a of each scheme's updates. The non-precoded baseline is
# COTAF at the fixed alpha gain^2, since sqrt(gain * gain) == gain.
def _sqrt_alpha(alpha: float, config: TrainerConfig) -> float:
    return math.sqrt(alpha)


def _gain(alpha: None, config: TrainerConfig) -> float:
    return config.gain


def _unit(alpha: None, config: TrainerConfig) -> float:
    return 1.0


# Each scheme brings its own channel: the OTA schemes the AWGN MAC, the
# fading extension the Rayleigh MAC, and the error-free baseline none at all.
SCHEME_TABLE = {
    "cotaf": SchemeSpec(("awgn_mac",), True, _sqrt_alpha, fading=False, noisy=True),
    "cotaf_fading": SchemeSpec(("fading_mac",), True, _sqrt_alpha, fading=True, noisy=True),
    "non_precoded_ota": SchemeSpec(("awgn_mac",), False, _gain, fading=False, noisy=True),
    "noise_free_local_sgd": SchemeSpec(CHANNEL_KINDS, False, _unit, fading=False, noisy=False),
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
# Training draws its channel noise, and measures its gaps, this many rounds
# at a time, at most.
ROUND_CHUNK = 64


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
        if not (self.shift > 0 and self.mu > 0):
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
    """Everything one training run needs besides data, initial models and streams.

    sigma_w2 is the noise variance per coordinate of the scheme's MAC; the
    noise-free baseline ignores it. A fading scheme takes a FadingPolicy,
    which also holds the Rayleigh scale of its channel.
    """

    scheme: str
    local_steps: int
    rounds: int
    step: StepSchedule
    ridge_lambda: float = 0.5
    power: float = 1.0
    non_precoded_gain: float | None = None
    sigma_w2: float = 0.0
    fading: FadingPolicy | None = None

    def __post_init__(self):
        spec = scheme_spec(self.scheme)
        if self.local_steps < 1 or self.rounds < 1:
            raise ValueError("local_steps and rounds must be >= 1")
        if not (self.ridge_lambda >= 0 and self.power > 0):
            raise ValueError("invalid ridge_lambda / power")
        if not self.sigma_w2 >= 0:
            raise ValueError("sigma_w2 must be non-negative")
        if self.non_precoded_gain is not None and not self.non_precoded_gain > 0:
            raise ValueError(f"non_precoded_gain must be positive, got {self.non_precoded_gain}")
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

    `users` holds one generator per user for SGD index sampling, which all
    schemes of the trial share. `noise` and `fading` feed the channel and
    hold one stream per scheme, in the order of the schemes' configs.
    """

    users: tuple[np.random.Generator, ...]
    noise: tuple[np.random.Generator | None, ...]
    fading: tuple[np.random.Generator | None, ...]


class FadingRounds(NamedTuple):
    """Fading rounds selected up front, one row per round: the K participants
    (sorted 1-based ids), their fading magnitudes, and the redraws the round
    waited for. A block of trials stacks them on a leading trial axis."""

    participants: np.ndarray  # (R, K)
    magnitudes: np.ndarray  # (R, K)
    waits: np.ndarray  # (R,)


class RunTrace(NamedTuple):
    """The training runs of one scheme over T trials, one row per trial and
    round: the global model after the round, its gap F(theta) - F*, each
    user's transmit energy (0 for a user that stayed silent), the K
    participants (None when all N users transmit) and the fading redraws the
    round waited for."""

    thetas: np.ndarray  # (T, R, d)
    gaps: np.ndarray  # (T, R)
    powers: np.ndarray  # (T, R, N)
    participants: np.ndarray | None  # (T, R, K)
    waits: np.ndarray  # (T, R)


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
    short = n_users - policy.participants  # a draw's K-th largest magnitude sits here
    ids, magnitudes, waits = [], [], []
    run = 0  # short draws since the last eligible one
    while len(waits) < rounds:
        draws = sample_rayleigh(n_users, policy.rayleigh_scale, rng, rows=chunk)
        # a draw is eligible when the weakest of its K strongest clears h_min
        kth = np.partition(draws, short, axis=-1)[:, short]
        rows = np.flatnonzero(kth > policy.h_min)[: rounds - len(waits)]
        eligible = draws[rows]
        chosen = select_participants(eligible, policy)
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
        ids.append(chosen)
        magnitudes.append(np.take_along_axis(eligible, chosen - 1, axis=-1))
    return FadingRounds(
        np.concatenate(ids), np.concatenate(magnitudes), np.asarray(waits, dtype=np.int64)
    )


def plan_fading_rounds(
    fades: FadingRounds, lo: int, hi: int, n_users: int, config: TrainerConfig, first_trial: int = 0
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Rounds lo+1..hi of T trials' fading runs, as run_round takes them.

    fades holds the trials' (T, R, K) selections. Each round's plan is a
    tuple of (T, K) blocks: the senders' flat row ids t*N + id - 1 into the
    round's (T*N, d) block of local models, their magnitudes, and the flat
    slots t*R*N + r*N + id - 1 of their energies in the run's C-contiguous
    (T, R, N) power block. A magnitude at or below h_min raises, since a
    censored user does not transmit; the error names the scheme, the round
    and the trial, numbering the block's trials from first_trial.
    """
    n_trials, rounds = fades.waits.shape
    # round-major (C, T, K) blocks, so that each round's rows are contiguous
    magnitudes = np.ascontiguousarray(fades.magnitudes[:, lo:hi].transpose(1, 0, 2))
    floor = config.fading.h_min
    censored = np.argwhere(~(magnitudes > floor))  # in round, then trial order
    if censored.size:
        r, t = censored[0, :2]
        raise ValueError(
            f"trial {first_trial + t}, scheme {config.scheme}: round {lo + r + 1}: "
            f"fading magnitude {magnitudes[r, t].min():.6g} is at or below h_min={floor:.6g}: "
            "a censored user does not transmit"
        )
    ids = fades.participants[:, lo:hi].transpose(1, 0, 2) - 1
    trial_rows = np.arange(n_trials)[:, None] * n_users
    senders = np.add(ids, trial_rows, order="C")
    slots = np.add(
        ids, trial_rows * rounds + np.arange(lo, hi)[:, None, None] * n_users, order="C"
    )
    return list(zip(senders, magnitudes, slots))


def run_round(
    global_theta: np.ndarray,
    local_models: np.ndarray,
    config: TrainerConfig,
    alpha: float | None,
    noise: np.ndarray | None,
    powers: np.ndarray,
    fading: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Aggregate one round of one scheme over its channel, for T trials at once.

    local_models holds each trial's (N, d) models, a (T, N, d) block, which
    the users reached from the trial's broadcast row of the (T, d)
    global_theta by the round's local steps. Returns the new (T, d) global
    models and writes each transmitter's energy into powers: the round's
    (T, N) energies, or for a fading round the C-contiguous power block
    that its plan's flat slots index, whose silent users the caller has
    set to 0.

    alpha is the round's precoding coefficient, which only the precoded
    schemes use. noise is the (T, d) noise of the scheme's MAC output, one
    row per trial, or None for a noiseless channel. fading is the round's
    plan from plan_fading_rounds, (T, K) sender rows, magnitudes and power
    slots, which only the fading scheme uses.

    Every scheme runs the codec of its SCHEME_TABLE row: its K transmitters
    precode their updates delta_k by c_k = a*b/h_k, the MAC sums
    h_k*c_k*delta_k plus the noise w, and the decoder adds that sum over
    K*a*b to global_theta.
    """
    spec = SCHEME_TABLE[config.scheme]
    if spec.needs_alpha and not (alpha is not None and alpha > 0):
        raise ValueError(f"{config.scheme} needs an alpha coefficient > 0, got {alpha}")
    amplitude = spec.amplitude(alpha, config)
    if spec.fading:
        if fading is None:
            raise ValueError(f"{config.scheme} needs the round's fading selection")
        senders, magnitudes, slots = fading
        floor = config.fading.h_min
        deltas = local_models.reshape(-1, local_models.shape[-1]).take(senders, axis=0)
        deltas -= global_theta[:, None]
    else:  # all N users over the unit channel
        magnitudes, floor = 1.0, 1.0
        deltas = local_models - global_theta[:, None]
    signals = precode(deltas, (amplitude * floor) / magnitudes)
    y = fading_mac(signals, magnitudes, noise)
    new_theta = decode(y, deltas.shape[1] * amplitude * floor, global_theta)
    if spec.fading:  # each sender's energy
        powers.put(slots, np.einsum("tkd,tkd->tk", signals, signals))
    else:
        np.einsum("tkd,tkd->tk", signals, signals, out=powers)
    return new_theta


# Paired runs share the kernel, so their configs must agree on these.
_KERNEL_FIELDS = ("local_steps", "rounds", "step", "ridge_lambda")


def run_training(
    dataset: Dataset,
    rows: np.ndarray,
    theta0: np.ndarray,
    configs: Sequence[TrainerConfig],
    alpha_schedule: AlphaSchedule | None,
    streams: Sequence[TrialStreams],
    optima: tuple[np.ndarray, np.ndarray],
    *,
    out: Sequence[tuple[np.ndarray, np.ndarray]] | None = None,
    first_trial: int = 0,
) -> list[RunTrace]:
    """Paired training runs of a block of T trials, one per config: `rounds`
    communication rounds from each trial's initial model.

    rows holds each trial's (N, D_n) shard row ids into dataset, a
    (T, N, D_n) block, theta0 the trials' (T, d) initial models and streams
    the T trials' streams. A trial's schemes share its initial model and its
    users' sample indices, so each round makes one local_pass on the
    (S, T, N, d) block of all models, gathering user n's samples of trial t
    from the dataset by row id rows[t, n, i] into the run's KernelBlocks.
    Each scheme then aggregates its T trials over its own channel, each
    trial with its own noise and fading stream. optima is the pair of (T, d)
    optima theta* and (T, d, d) Hessians of the trials' global objectives,
    against which each round's gaps are measured. The rounds run in chunks
    of ROUND_CHUNK: a chunk's channel noise is drawn before it, and its
    gaps are measured in one call after it, so a round does only the work
    that depends on the models.

    Returns one RunTrace per config; trial t of run s equals a run of
    configs[s] alone on trial t, bit for bit. out gives each config's
    (T, R) gap and (T, R, N) power arrays to write into (new ones by
    default), which spares the caller a copy of them. Errors name the
    trial, numbering the block's trials from first_trial.
    """
    configs, streams = list(configs), list(streams)
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

    if rows.ndim != 3:
        raise ValueError(f"need a (T, N, D_n) block of shard row ids, got shape {rows.shape}")
    n_trials, n_users, shard_size = rows.shape
    dim, n_runs = dataset.feature_dim, len(configs)
    check_row_ids(rows, len(dataset))  # the kernel gathers them unchecked
    if len(streams) != n_trials:
        raise ValueError(f"need streams for each of {n_trials} trials, got {len(streams)}")
    for trial in streams:
        if len(trial.users) != n_users:
            raise ValueError(f"need {n_users} user streams, got {len(trial.users)}")
        if len(trial.noise) != n_runs or len(trial.fading) != n_runs:
            raise ValueError(f"need one noise and one fading stream for each of {n_runs} schemes")
    if optima[0].shape != (n_trials, dim) or optima[1].shape != (n_trials, dim, dim):
        raise ValueError(f"need (T, d) optima and (T, d, d) Hessians for T={n_trials}, d={dim}")
    theta0 = np.ascontiguousarray(theta0, dtype=np.float64)
    if theta0.shape != (n_trials, dim):
        raise ValueError(
            f"need (T, d) initial models for T={n_trials}, d={dim}, got {theta0.shape}"
        )
    h, rounds = first.local_steps, first.rounds
    theta = np.broadcast_to(theta0, (n_runs, n_trials, dim))
    # The row ids of every trial's R*H sample steps, in the dtype of rows and
    # step-major as the kernel gathers them: user n of trial t takes shard
    # sample rows[t, n, i] for each index i of its stream. One sized draw per
    # user gives the values of R*H scalar draws, so the stream is consumed as
    # step-by-step sampling would.
    steps = np.empty((rounds * h, n_trials, n_users), dtype=rows.dtype)
    for t, trial in enumerate(streams):
        for n, user in enumerate(trial.users):
            steps[:, t, n] = rows[t, n, user.integers(shard_size, size=rounds * h)]
    steps = steps.reshape(rounds, h, n_trials, n_users)  # each round's (H, T, N) ids
    fades = [
        None
        if config.fading is None
        else FadingRounds(
            np.empty((n_trials, rounds, config.fading.participants), dtype=np.int64),
            np.empty((n_trials, rounds, config.fading.participants)),
            np.empty((n_trials, rounds), dtype=np.int64),
        )
        for config in configs
    ]
    for t, trial in enumerate(streams):  # trial by trial, so the first failing trial is named
        for s, config in enumerate(configs):
            if fades[s] is None:
                continue
            try:
                drawn = draw_fading_rounds(trial.fading[s], n_users, rounds, config.fading)
            except Exception as exc:
                raise RuntimeError(
                    f"trial {first_trial + t}, scheme {config.scheme}: {exc}"
                ) from exc
            for field, value in zip(fades[s], drawn):
                field[t] = value
    if out is None:
        out = [
            (np.empty((n_trials, rounds)), np.empty((n_trials, rounds, n_users))) for _ in configs
        ]
    for _, powers in out:
        if powers.shape != (n_trials, rounds, n_users) or not powers.flags.c_contiguous:
            raise ValueError(
                f"need a C-contiguous (T, R, N) = {(n_trials, rounds, n_users)} power block, "
                f"got shape {powers.shape}"
            )
    etas = first.step.eta(np.arange(rounds * h)).reshape(rounds, h)  # each round's H
    check_steps(etas, first.ridge_lambda)
    alphas = alpha_schedule.values.tolist() if any(needs_alpha) else None
    # Each noisy scheme's noise, drawn per trial a chunk of rounds at a time:
    # one sized draw consumes the stream as per-round draws would.
    noise = [
        np.empty((n_trials, min(rounds, ROUND_CHUNK), dim))
        if config.sigma_w2 > 0 and SCHEME_TABLE[config.scheme].noisy
        else None
        for config in configs
    ]
    # each trial's optimum against the trial's chunk of models
    theta_stars, hessians = optima[0][:, None], optima[1][:, None]
    thetas = np.empty((n_runs, n_trials, rounds, dim))
    last = first_trial + n_trials - 1
    label = f"trial {last}" if n_trials == 1 else f"trials {first_trial}-{last}"
    # One set of kernel blocks for every round. If their gathers offload, a
    # worker gathers round i + 1 while round i steps, and ends with the rounds.
    with KernelBlocks(n_runs, steps.shape[1:], dataset.features) as blocks:
        for lo in range(0, rounds, ROUND_CHUNK):
            hi = min(lo + ROUND_CHUNK, rounds)
            # the chunk's step sizes as Python floats, which the kernel's
            # scalar arithmetic takes faster than numpy scalars
            chunk_etas = etas[lo:hi].tolist()
            plans = [None] * n_runs
            for s, config in enumerate(configs):
                if noise[s] is not None:
                    for t, trial in enumerate(streams):
                        noise[s][t, : hi - lo] = sample_noise(
                            dim, config.sigma_w2, trial.noise[s], rows=hi - lo
                        )
                if fades[s] is not None:
                    out[s][1][:, lo:hi] = 0.0  # the users left out stay silent
                    plans[s] = plan_fading_rounds(fades[s], lo, hi, n_users, config, first_trial)
            for i in range(lo, hi):
                local_models = local_pass(
                    theta[:, :, None], dataset.features, dataset.targets, chunk_etas[i - lo],
                    steps[i], first.ridge_lambda, blocks=blocks,
                    next_rows=steps[i + 1] if i + 1 < rounds else None,
                )
                for s, config in enumerate(configs):
                    plan, (_, powers) = plans[s], out[s]
                    try:
                        thetas[s, :, i] = run_round(
                            theta[s], local_models[s], config,
                            alphas[i] if needs_alpha[s] else None,
                            None if noise[s] is None else noise[s][:, i - lo],
                            powers[:, i] if plan is None else powers,
                            None if plan is None else plan[i - lo],
                        )
                    except Exception as exc:
                        raise RuntimeError(
                            f"{label}, scheme {config.scheme}: round {i + 1}: {exc}"
                        ) from exc
                theta = thetas[:, :, i]
            for s, (gaps, _) in enumerate(out):
                gaps[:, lo:hi] = quadratic_gap(thetas[s, :, lo:hi], theta_stars, hessians)
    return [
        RunTrace(thetas[s], gaps, powers, None, np.zeros((n_trials, rounds), dtype=np.int64))
        if fade is None
        else RunTrace(thetas[s], gaps, powers, fade.participants, fade.waits)
        for s, (fade, (gaps, powers)) in enumerate(zip(fades, out))
    ]
