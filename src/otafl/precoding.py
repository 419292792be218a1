"""COTAF codec: time-varying power precoding and server-side scaling.

Each round-r coefficient alpha_r normalizes the transmit power: it is the
power budget P divided by the maximal (over users) expected squared norm of
the model update sent that round. Users transmit sqrt(alpha_r) times their
update; the server divides the channel output by N*sqrt(alpha_r), so alpha
cancels on the signal and shrinks the effective noise as updates shrink.

The fading extension inverts the channel magnitude at the transmitter,
censors users whose fading falls below a threshold h_min, and selects a fixed
number of participants per round by channel quality.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel import RAYLEIGH_UNIT_POWER_SCALE
from .data import ShardRows
from .localsgd import DEFAULT_THETA0_STD, KernelBlocks, StepFn, check_steps, local_pass


@dataclass(frozen=True)
class AlphaSchedule:
    """Per-round precoding coefficients, positive and finite: values[r - 1] is
    round r's alpha."""

    values: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if values.ndim != 1 or values.shape[0] == 0:
            raise ValueError("alpha schedule must be a non-empty 1-D array")
        if not np.all(np.isfinite(values)) or np.any(values <= 0):
            raise ValueError("alpha values must be positive and finite")
        object.__setattr__(self, "values", values)

    @property
    def rounds(self) -> int:
        return self.values.shape[0]

    def save(self, path) -> None:
        """Write the values as one JSON list; load reads them back exactly."""
        Path(path).write_text(json.dumps(self.values.tolist()) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path) -> "AlphaSchedule":
        return cls(json.loads(Path(path).read_text(encoding="utf-8")))


@dataclass(frozen=True)
class FadingPolicy:
    """Censoring threshold, target participant count and Rayleigh scale of the
    fading rounds."""

    h_min: float
    participants: int
    rayleigh_scale: float = RAYLEIGH_UNIT_POWER_SCALE

    def __post_init__(self):
        if not self.rayleigh_scale > 0:
            raise ValueError("rayleigh_scale must be positive")
        if not self.h_min > 0:
            raise ValueError("h_min must be positive")
        if self.participants < 1:
            raise ValueError("participants must be >= 1")


def precode(deltas: np.ndarray, gains: np.ndarray | float) -> np.ndarray:
    """The transmitted signals gains * deltas of a (..., K, d) block of
    updates: one gain for every user, or a (..., K) block of them.

    A user's transmit energy is its gain squared times ||delta||^2.
    """
    if isinstance(gains, np.ndarray):
        # filled from the gains, then scaled in place: a broadcast multiply
        # runs its inner loop once per user row
        signals = np.empty_like(deltas)
        np.copyto(signals, gains[..., None])
        signals *= deltas
        return signals
    return gains * deltas


def decode(y: np.ndarray, scale: float, theta_prev: np.ndarray) -> np.ndarray:
    """The new global model y / scale + theta_prev from the MAC output y,
    for (d,) rows or per-trial (T, d) ones.

    With scale K*a*b, this undoes the gain a*b/h_k of each of the K
    transmitters and the channel's h_k, so a noiseless round gives the
    exact average of the transmitters' local models.
    """
    return y / scale + theta_prev


def select_participants(magnitudes: np.ndarray, policy: FadingPolicy) -> np.ndarray:
    """Pick the participants by opportunistic carrier sensing.

    Users whose magnitude exceeds h_min contend with a backoff decreasing in
    channel quality, so the strongest K eligible users transmit. magnitudes
    holds N fading magnitudes per draw, users on the last axis, for one draw
    or a block of them; the result is each draw's K strongest users as
    sorted 1-based ids, shaped (..., K). A draw has K eligible users exactly
    when the weakest of its K strongest exceeds h_min, which the caller
    checks (draw_fading_rounds re-draws the round otherwise).
    """
    magnitudes = np.asarray(magnitudes)
    n_users, k = magnitudes.shape[-1], policy.participants
    if n_users < k:
        raise ValueError(f"cannot select K={k} participants from N={n_users} users")
    # With K users above h_min, the K strongest of all are the K strongest
    # eligible: the users above the K-th largest magnitude, then those tied
    # with it in id order, as a stable sort by decreasing magnitude takes them.
    kth = np.partition(magnitudes, n_users - k, axis=-1)[..., n_users - k, None]
    chosen = magnitudes > kth
    ties = magnitudes == kth
    room = k - np.count_nonzero(chosen, axis=-1, keepdims=True)
    chosen |= ties & (np.cumsum(ties, axis=-1) <= room)
    return np.nonzero(chosen)[-1].reshape(*magnitudes.shape[:-1], k) + 1


def estimate_alpha_mc(
    pilot_shards: ShardRows,
    lam: float,
    rounds: int,
    local_steps: int,
    power: float,
    pilot_trials: int,
    rng: np.random.Generator,
    *,
    step_fn: StepFn,
    theta0_std: float = DEFAULT_THETA0_STD,
) -> AlphaSchedule:
    """Estimate the precoding schedule by noise-free pilot runs.

    Runs noise-free local SGD on the pilot shards for pilot_trials trials
    (fresh Gaussian initialization each trial) and sets, per round,
    alpha_r = power / max over users of the trial-mean squared update norm.
    """
    if pilot_trials < 1:
        raise ValueError("pilot_trials must be >= 1")
    if rounds < 1 or local_steps < 1:
        raise ValueError("rounds and local_steps must be >= 1")
    if not power > 0:
        raise ValueError("power must be positive")

    dataset, shard_rows = pilot_shards.dataset, pilot_shards.rows
    n_users, shard_size, dim = pilot_shards.shape
    etas = [
        [step_fn((r - 1) * local_steps + j) for j in range(local_steps)]
        for r in range(1, rounds + 1)
    ]
    check_steps(etas, lam)
    # Every trial's draws up front, in the order trial by trial sampling takes
    # them: the initial model, then one draw in round -> user -> step order.
    # Each trial's draws are mapped at once to dataset row ids, step-major per
    # round as the kernel gathers them, in the smallest dtype that fits a row
    # id of the dataset, as training holds them.
    thetas = np.empty((pilot_trials, 1, dim))
    steps = np.empty(
        (rounds, local_steps, pilot_trials, n_users), dtype=np.min_scalar_type(len(dataset) - 1)
    )
    users = np.arange(n_users)[:, None]  # each draw's user, over rounds and steps
    for t in range(pilot_trials):
        thetas[t, 0] = rng.normal(0.0, theta0_std, dim)
        draws = rng.integers(shard_size, size=(rounds, n_users, local_steps))
        steps[:, :, t] = shard_rows[users, draws].transpose(0, 2, 1)

    # All trials advance as one (T, N, d) block per round in one set of kernel
    # blocks. Each call is given the next round's row ids, as training does,
    # so that the blocks' worker, if they offload, gathers them while the
    # round steps.
    sums = np.empty((rounds, n_users))
    with KernelBlocks(1, steps.shape[1:], dataset.features) as blocks:
        for r in range(rounds):
            (local_models,) = local_pass(
                thetas[None], dataset.features, dataset.targets, etas[r], steps[r], lam,
                blocks=blocks, next_rows=steps[r + 1] if r + 1 < rounds else None,
            )
            diff = local_models - thetas
            sq = np.einsum("tnd,tnd->tn", diff, diff)
            # a running sum adds trial by trial, the order of a per-trial loop
            # (sum(axis=0) would reduce one user's trials pairwise)
            sums[r] = sq.cumsum(axis=0)[-1]
            # the users' mean model, with mean()'s bits and without its wrapper
            thetas = np.add.reduce(local_models, axis=1, keepdims=True) / n_users

    max_mean = sums.max(axis=1) / pilot_trials
    zero_rounds = np.flatnonzero(max_mean == 0)
    if zero_rounds.size:
        raise ValueError(
            f"all pilot updates are zero at round {int(zero_rounds[0]) + 1}; alpha undefined"
        )
    return AlphaSchedule(power / max_mean)


def alpha_upper_bound_schedule(
    local_steps: int, step_fn: StepFn, g2: float, power: float, rounds: int
) -> AlphaSchedule:
    """Analytic schedule alpha_r = P / (H^2 eta_{(r-1)H}^2 G^2).

    The denominator upper-bounds the expected squared update norm whenever G^2
    bounds the stochastic gradient second moment, so these alphas never exceed
    the pilot-estimated ones on the same run.
    """
    if local_steps < 1 or rounds < 1:
        raise ValueError("local_steps and rounds must be >= 1")
    if not g2 > 0:
        raise ValueError("g2 must be positive")
    if not power > 0:
        raise ValueError("power must be positive")
    etas = np.asarray([step_fn((r - 1) * local_steps) for r in range(1, rounds + 1)])
    if not np.all(etas > 0) or np.any(np.diff(etas) > 0):
        raise ValueError("step_fn must be positive and non-increasing")
    return AlphaSchedule(power / (local_steps**2 * etas**2 * g2))
