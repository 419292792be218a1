"""Batched local SGD kernel shared by the trainer and the alpha pilot."""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

# Initial models are drawn N(0, 5 I_d) by default.
DEFAULT_THETA0_STD = math.sqrt(5.0)

StepFn = Callable[[int], float]


def check_steps(etas: Sequence[float] | np.ndarray, lam: float) -> None:
    """Raise unless every step size is positive and lam is non-negative."""
    if not np.all(np.asarray(etas) > 0):
        raise ValueError("step size must be positive")
    if not lam >= 0:
        raise ValueError("regularization weight must be non-negative")


class KernelBlocks:
    """The working blocks of local_pass, made once per run and reused by every
    call: the call's (H, T, N) row ids as intp, its gathered (H, T, N, d)
    samples and (H, T, N) targets, the (S, T, N, d) models of n_models = S
    models per trial, the (S, T, N) residual and an (S, T, N, d) step
    buffer. A call leaves the gathered samples as it gathered them.

    ids_shape is the (H, T, N) shape of each call's step-major row ids.
    """

    def __init__(self, n_models: int, ids_shape: tuple[int, int, int], dim: int):
        shape = (n_models, *ids_shape[1:], dim)
        # Leading unit axes add per-step overhead to every array operation and
        # no work, so the steps run on the broadcast shape without them.
        core = shape
        while len(core) > 2 and core[0] == 1:
            core = core[1:]
        step_shape = core if n_models == 1 else core[1:]
        # A call gathers into the (H, T, N, d) block and steps on views of it
        # without the unit axes.
        self.ids = np.empty(ids_shape, dtype=np.intp)
        self.gathered = np.empty((*ids_shape, dim))
        self.gathered_targets = np.empty(ids_shape)
        self.samples = self.gathered.reshape(ids_shape[0], *step_shape)
        self.targets = self.gathered_targets.reshape(ids_shape[0], *step_shape[:-1])
        # The working models are one C-contiguous block, so every step op runs
        # with the strides of the gathered samples.
        self.models = np.empty(core)
        self.result = self.models.reshape(shape)
        self.residual = np.empty(core[:-1])
        self.step = np.empty(core)


def local_pass(
    theta: np.ndarray,
    features: np.ndarray,
    targets: np.ndarray,
    etas: Sequence[float],
    rows: np.ndarray,
    lam: float,
    *,
    blocks: KernelBlocks,
) -> np.ndarray:
    """Run H = len(etas) ridge SGD steps for S models of each of the N users
    of T trials at once.

    features is the (D, d) sample matrix and targets (D,). rows holds the
    call's step-major (H, T, N) integer row ids, user n of trial t taking
    sample rows[j, t, n] at step j. theta holds the (S, T, 1, d) models the
    users start from (or any shape that broadcasts to (S, T, N, d)). Step j
    moves each user's model against the per-sample gradient
    (x.theta - y) x + lam theta with size etas[j]. Returns the (S, T, N, d)
    models; each (s, t) slice has the bits of a call with S = T = 1 on its
    own theta and rows.

    blocks are the run's KernelBlocks, made for S and the rows' shape, and
    the returned models are their own, which the next call overwrites. The
    caller has checked the ids against [0, D), since they are gathered with
    mode "clip", which does not check them, and the step sizes and lam
    (check_steps).
    """
    ids = blocks.ids
    ids[...] = rows
    np.take(features, ids, axis=0, out=blocks.gathered, mode="clip")
    np.take(targets, ids, axis=0, out=blocks.gathered_targets, mode="clip")
    models, residual, step = blocks.models, blocks.residual, blocks.step
    column = residual[..., None]
    models[...] = theta
    # each step updates the models in place through one residual and the step
    # buffer: vecdot runs one BLAS dot per row, and filling the step buffer
    # from the residual, then scaling it by the samples in place, costs less
    # than one broadcast multiply, whose inner loop runs once per row
    for x, y, eta in zip(blocks.samples, blocks.targets, etas):
        np.vecdot(x, models, out=residual)
        residual -= y
        residual *= eta
        step[...] = column
        step *= x
        models *= 1.0 - eta * lam
        models -= step
    return blocks.result
