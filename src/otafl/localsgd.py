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
    """The working blocks of local_pass, made once for the shapes of a run's
    calls and reused by every call: the call's (H, ..., N) row ids as intp,
    its gathered (H, ..., N, d) samples and (H, ..., N) targets, the models,
    the residual, and a step buffer when the models have a leading axis the
    samples lack (S models sharing each sample block). Otherwise a step
    overwrites its own sample slab, which the call reads no more.

    theta_shape is the shape of the models each call starts from, in one of
    local_pass's forms, and ids_shape that of each call's (H, ..., N)
    step-major sample row ids.
    """

    def __init__(self, theta_shape: tuple[int, ...], ids_shape: tuple[int, ...], dim: int):
        samples = (*ids_shape[1:], dim)
        # theta takes one of local_pass's forms: the samples' trailing axes,
        # each equal or 1, after at most one leading model axis S
        given = tuple(theta_shape)
        outer = max(len(given) - len(samples), 0)
        trailing = samples[len(samples) - len(given) + outer :]
        if outer > 1 or not all(m == n or m == 1 for m, n in zip(given[outer:], trailing)):
            raise ValueError(f"models of shape {given} do not fit samples {samples}")
        shape = (*given[:outer], *samples)
        # Leading unit axes add per-step overhead to every array operation and
        # no work, so the steps run on the broadcast shape without them.
        lead = 0
        while lead < len(shape) - 2 and shape[lead] == 1:
            lead += 1
        core = shape[lead:]
        step_shape = samples[max(len(samples) - len(core), 0) :]
        # A call gathers into the (H, ..., N, d) block and steps on views of
        # it without the unit axes.
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
        self.step = None if core == step_shape else np.empty(core)


def local_pass(
    theta: np.ndarray,
    features: np.ndarray,
    targets: np.ndarray,
    etas: Sequence[float],
    rows: np.ndarray,
    lam: float,
    *,
    blocks: KernelBlocks | None = None,
) -> np.ndarray:
    """Run H = len(etas) ridge SGD steps for all N users at once.

    features is the (D, d) sample matrix and targets (D,). rows holds the
    (N, H) sample row ids, user n taking sample rows[n, j] at step j, or a
    (T, N, H) block of them, one (N, H) slab per trial. Step j moves each
    user's model against the per-sample gradient (x.theta - y) x + lam theta
    with size etas[j].

    theta is what the users start from, broadcast against the (..., N, d)
    samples of a step: the (d,) model every user starts from, per-user (N, d)
    models, (T, 1 or N, d) per trial, or a leading axis of S models sharing
    each row block, (S, 1 or N, d) or (S, T, 1 or N, d). Returns the models
    in that broadcast shape; each batch slice has the bits of the unbatched
    call on its own theta and rows.

    A run that calls the kernel round after round passes its KernelBlocks,
    made for theta's shape and the rows', and then rows are the call's
    step-major (H, ..., N) integer row ids. The caller has checked the ids
    against [0, D), since they are gathered with mode "clip", which does not
    check them, and the step sizes and lam (check_steps). The returned models
    are the blocks' own, which the next call overwrites.
    """
    if blocks is None:
        check_steps(etas, lam)
        if features.shape[0] == 0:
            raise ValueError("cannot step on an empty shard")
        if rows.shape[-1] != len(etas) or rows.ndim not in (2, 3):
            raise ValueError(
                f"rows have shape {rows.shape}, expected (N, {len(etas)}) with at most one "
                "leading trial axis"
            )
        ids = np.moveaxis(rows, -1, 0)  # step-major, so each step reads a contiguous slab
        blocks = KernelBlocks(np.shape(theta), ids.shape, features.shape[1])
        mode = "raise"
    else:
        ids = blocks.ids
        ids[...] = rows
        mode = "clip"
    np.take(features, ids, axis=0, out=blocks.gathered, mode=mode)
    np.take(targets, ids, axis=0, out=blocks.gathered_targets, mode=mode)
    models, residual, step = blocks.models, blocks.residual, blocks.step
    models[...] = theta
    # each step updates the models in place through one residual and the step
    for x, y, eta in zip(blocks.samples, blocks.targets, etas):
        np.einsum("...nd,...nd->...n", x, models, out=residual)
        residual -= y
        residual *= eta
        update = x if step is None else step
        np.multiply(residual[..., None], x, out=update)
        models *= 1.0 - eta * lam
        models -= update
    return blocks.result
