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
from .localsgd import DEFAULT_THETA0_STD, StepFn, local_pass

# Pilot rounds whose dataset row ids are mapped from their draws at once.
PILOT_ROUND_CHUNK = 16


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
        if self.rayleigh_scale <= 0:
            raise ValueError("rayleigh_scale must be positive")
        if self.h_min <= 0:
            raise ValueError("h_min must be positive")
        if self.participants < 1:
            raise ValueError("participants must be >= 1")


def precode(deltas: np.ndarray, gains: np.ndarray | float) -> np.ndarray:
    """The transmitted signals gains * deltas of a (..., K, d) block of
    updates: one gain for every user, or a (..., K) block of them.

    A user's transmit energy is its gain squared times ||delta||^2.
    """
    if np.isscalar(gains):
        return gains * deltas
    return np.asarray(gains)[..., None] * deltas


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
    # with K users above h_min, the K strongest of all are the K strongest eligible
    order = np.argsort(-magnitudes, axis=-1, kind="stable")
    return np.sort(order[..., :k], axis=-1) + 1


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
    if power <= 0:
        raise ValueError("power must be positive")

    dataset, shard_rows = pilot_shards.dataset, pilot_shards.rows
    n_users, shard_size, dim = pilot_shards.shape
    etas = [
        [step_fn((r - 1) * local_steps + j) for j in range(local_steps)]
        for r in range(1, rounds + 1)
    ]
    # Every trial's draws up front, in the order trial by trial sampling takes
    # them: the initial model, then one draw in round -> user -> step order.
    # The indices are held in the smallest dtype that fits a shard index.
    thetas = np.empty((pilot_trials, 1, dim))
    draws = np.empty(
        (pilot_trials, rounds, n_users, local_steps), dtype=np.min_scalar_type(shard_size - 1)
    )
    for t in range(pilot_trials):
        thetas[t, 0] = rng.normal(0.0, theta0_std, dim)
        draws[t] = rng.integers(shard_size, size=draws[t].size).reshape(draws.shape[1:])

    # All trials advance as one (T, N, d) block per round, stepping on the
    # round's (T, N, H) shard indices mapped to dataset row ids, as training
    # does. The row ids of a chunk of rounds are one take from the flat shard
    # rows, so the draws are cast once per chunk and only the chunk is held
    # as intp.
    flat_rows = shard_rows.ravel()
    offsets = np.arange(n_users)[:, None] * shard_size  # user n's first flat index
    sums = np.empty((rounds, n_users))
    for lo in range(0, rounds, PILOT_ROUND_CHUNK):
        chunk = flat_rows.take(draws[:, lo : lo + PILOT_ROUND_CHUNK] + offsets)  # (T, C, N, H)
        for r in range(lo, lo + chunk.shape[1]):
            local_models = local_pass(
                thetas, dataset.features, dataset.targets, etas[r], chunk[:, r - lo], lam
            )
            diff = local_models - thetas
            sq = np.einsum("tnd,tnd->tn", diff, diff)
            # a running sum adds trial by trial, the order of a per-trial loop
            # (sum(axis=0) would reduce one user's trials pairwise)
            sums[r] = sq.cumsum(axis=0)[-1]
            thetas = local_models.mean(axis=1, keepdims=True)

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
    if g2 <= 0:
        raise ValueError("g2 must be positive")
    if power <= 0:
        raise ValueError("power must be positive")
    etas = np.asarray([step_fn((r - 1) * local_steps) for r in range(1, rounds + 1)])
    if np.any(etas <= 0) or np.any(np.diff(etas) > 0):
        raise ValueError("step_fn must be positive and non-increasing")
    return AlphaSchedule(power / (local_steps**2 * etas**2 * g2))
