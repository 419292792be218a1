"""Closed-form convergence-bound calculators and trace-dominance validation.

Three bounds on the expected optimality gap after T = R*H SGD steps:

* weighted-average bound — for the weighted average of the per-round global
  models under the 4/(mu*(a+t)) schedule;
* final-model bound — for the instantaneous global model under the
  2/(mu*(gamma+t)) schedule over the additive-noise MAC;
* fading final-model bound — the same quantity when only K of N users,
  censored at fading threshold h_min, participate per round.

All formulas are exact closed forms of the problem constants; the dominance
validator checks a Monte Carlo mean-gap curve against a bound round by round.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .types import ProblemConstants

logger = logging.getLogger(__name__)


def base_error_constant(c: ProblemConstants) -> float:
    """Noise-free error constant: local drift + gradient variance + heterogeneity.

    8*H^2*G^2 + (1/N^2)*sum(Mn2) + 6*L*Gamma
    """
    return 8.0 * c.H**2 * c.G2 + float(np.sum(c.Mn2)) / c.N**2 + 6.0 * c.L * c.Gamma


def channel_error_constant(c: ProblemConstants) -> float:
    """Error constant including channel noise: base + 4*d*H^2*G^2*sigma_w2/(P*N^2)."""
    return base_error_constant(c) + 4.0 * c.d * c.H**2 * c.G2 * c.sigma_w2 / (c.P * c.N**2)


def fading_channel_error_constant(
    c: ProblemConstants, participants: int, h_min: float
) -> float:
    """Fading counterpart: base + 4*d*H^2*G^2*sigma_w2/(P*K^2*h_min^2)."""
    if not (1 <= participants <= c.N):
        raise ValueError(f"participants must lie in [1, N={c.N}]")
    if not h_min > 0:
        raise ValueError("h_min must be positive")
    return base_error_constant(c) + 4.0 * c.d * c.H**2 * c.G2 * c.sigma_w2 / (
        c.P * participants**2 * h_min**2
    )


def partial_participation_penalty(c: ProblemConstants, participants: int) -> float:
    """Penalty for aggregating K of N users: 4*(N-K)/(K*(N-1)) * H^2 * G^2."""
    if not (1 <= participants <= c.N):
        raise ValueError(f"participants must lie in [1, N={c.N}]")
    if c.N == 1:
        logger.info("partial_participation_penalty: N=1, defining the penalty as 0")
        return 0.0
    return 4.0 * (c.N - participants) / (participants * (c.N - 1)) * c.H**2 * c.G2


SCHEDULE_KINDS = ("averaged_model", "final_model")


def schedule_shift(kind: str, ratio: float, local_steps: int) -> tuple[float, float]:
    """Shift floor and auto shift of a step schedule kind, given L/mu and H.

    The averaged-model schedule 4/(mu*(a+t)) needs a > max(16*L/mu, H) and
    takes the floor plus 1 as its auto shift; the final-model schedule
    2/(mu*(gamma+t)) needs gamma >= max(8*L/mu, H) and takes the floor itself.
    """
    if kind == "averaged_model":
        floor = max(16.0 * ratio, float(local_steps))
        return floor, floor + 1.0
    if kind == "final_model":
        floor = max(8.0 * ratio, float(local_steps))
        return floor, floor
    raise ValueError(f"unknown schedule kind {kind!r}")


def check_shift(kind: str, shift: float, ratio: float, local_steps: int) -> None:
    """Raise unless shift clears the floor of its schedule kind.

    A 1e-9 relative tolerance absorbs summation-order noise in L/mu.
    """
    floor, _ = schedule_shift(kind, ratio, local_steps)
    low = floor * (1.0 - 1e-9)
    if kind == "averaged_model" and not shift > low:
        raise ValueError(f"{kind} schedule needs shift > {floor:.6g}, got {shift:.6g}")
    if kind == "final_model" and shift < low:
        raise ValueError(f"{kind} schedule needs shift >= {floor:.6g}, got {shift:.6g}")


def weight_sum(shift: float, local_steps: int, rounds: int | np.ndarray) -> float | np.ndarray:
    """Sum of the averaging weights (shift + r*H)^2 over rounds r = 1..R.

    Always at least T^3/(3H) with T = R*H. A 1-D grid of R gives one sum per
    entry, each an np.sum over a prefix of one terms array: the scalar bits.
    """
    if not shift > 0:
        raise ValueError("shift must be positive")
    rounds = np.asarray(rounds)
    terms = (shift + np.arange(1, rounds.max(initial=0) + 1, dtype=np.float64) * local_steps) ** 2
    sums = np.array([np.sum(terms[: max(n, 0)]) for n in rounds.ravel()])
    return float(sums[0]) if rounds.ndim == 0 else sums


def check_total_steps(total_steps, h: int) -> np.ndarray:
    """total_steps as an array, if it is a positive multiple of H = h or a 1-D grid of them."""
    steps = np.asarray(total_steps)
    if steps.ndim > 1 or steps.dtype.kind not in "iu" or np.any((steps < h) | (steps % h != 0)):
        raise ValueError(
            f"total_steps must be a positive multiple of H={h}, or a 1-D grid of them; got {steps}"
        )
    return steps


@dataclass(frozen=True)
class BoundInputs:
    """Everything a bound evaluation needs besides the formula itself."""

    constants: ProblemConstants
    delta0: float  # (expected) squared distance of the initial model from optimum
    shift: float  # schedule shift: a (averaged-model) or gamma (final-model)
    total_steps: int | np.ndarray  # T = R*H, or a 1-D grid of them
    participants: int | None = None  # K, fading bound only
    h_min: float | None = None  # fading bound only

    def __post_init__(self):
        if not self.delta0 >= 0:
            raise ValueError("delta0 must be non-negative")
        steps = check_total_steps(self.total_steps, self.constants.H)
        if steps.ndim:  # a grid is held as an array, so the bounds broadcast over it
            object.__setattr__(self, "total_steps", steps)
        if not self.shift > 0:
            raise ValueError("shift must be positive")


BoundFn = Callable[[BoundInputs], float | np.ndarray]


def bound_weighted_average(inputs: BoundInputs) -> float | np.ndarray:
    """Bound on the expected gap of the weighted-average model after T steps."""
    c = inputs.constants
    a, t_total = inputs.shift, inputs.total_steps
    check_shift("averaged_model", a, c.L / c.mu, c.H)
    rounds = t_total // c.H
    s = weight_sum(a, c.H, rounds)
    b = base_error_constant(c)
    term_drift = 4.0 * (t_total + rounds) / (3.0 * c.mu * s) * (2.0 * a + c.H + rounds - 1.0) * b
    term_noise = (
        16.0
        * c.d
        * t_total
        * c.H
        * c.G2
        * c.sigma_w2
        / (3.0 * c.mu * c.P * c.N**2 * s)
        * (2.0 * a + t_total + c.H)
    )
    term_init = c.mu * a**3 / (6.0 * s) * inputs.delta0
    return term_drift + term_noise + term_init


def _final_model_bound(inputs: BoundInputs, error_constant: float) -> float | np.ndarray:
    c = inputs.constants
    gamma, t_total = inputs.shift, inputs.total_steps
    check_shift("final_model", gamma, c.L / c.mu, c.H)
    numerator = 2.0 * c.L * max(4.0 * error_constant, c.mu**2 * gamma * inputs.delta0)
    return numerator / (c.mu**2 * (t_total + gamma))


def bound_final_model(inputs: BoundInputs) -> float | np.ndarray:
    """Bound on the expected gap of the instantaneous model after T steps."""
    return _final_model_bound(inputs, channel_error_constant(inputs.constants))


def bound_final_model_fading(inputs: BoundInputs) -> float | np.ndarray:
    """Final-model bound when K of N users participate over a fading channel."""
    if inputs.participants is None or inputs.h_min is None:
        raise ValueError("fading bound needs participants and h_min")
    c = inputs.constants
    total = fading_channel_error_constant(
        c, inputs.participants, inputs.h_min
    ) + partial_participation_penalty(c, inputs.participants)
    return _final_model_bound(inputs, total)


@dataclass(frozen=True)
class DominanceRow:
    t: int
    mean_gap: float
    bound: float
    satisfied: bool


@dataclass(frozen=True)
class DominanceReport:
    rows: tuple[DominanceRow, ...]

    @property
    def passed(self) -> bool:
        return all(row.satisfied for row in self.rows)

    @property
    def violations(self) -> tuple[DominanceRow, ...]:
        return tuple(row for row in self.rows if not row.satisfied)

    def summary(self) -> str:
        status = "PASS" if self.passed else f"FAIL ({len(self.violations)} rounds)"
        margin = min((row.bound / row.mean_gap for row in self.rows if row.mean_gap > 0), default=float("inf"))
        return f"dominance {status}; tightest bound/gap ratio {margin:.3g} over {len(self.rows)} rounds"


def validate_dominance(
    round_gaps: Sequence[tuple[int, float]],
    bound_fn: BoundFn,
    inputs: BoundInputs,
) -> DominanceReport:
    """Check a per-round Monte Carlo mean-gap curve against a bound.

    `round_gaps` is a sequence of (t, mean_gap) pairs with t the global step
    count at each communication round (a positive multiple of H); the bound
    is evaluated once over the whole grid of t.
    """
    pairs = [(int(t), float(gap)) for t, gap in round_gaps]
    steps = np.array([t for t, _ in pairs], dtype=np.int64)
    bounds = bound_fn(replace(inputs, total_steps=steps)).tolist()
    rows = [DominanceRow(t, gap, bound, gap <= bound) for (t, gap), bound in zip(pairs, bounds)]
    return DominanceReport(rows=tuple(rows))
