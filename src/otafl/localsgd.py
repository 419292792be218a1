"""Batched local SGD kernel shared by the trainer and the alpha pilot."""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from . import _workers

# Initial models are drawn N(0, 5 I_d) by default.
DEFAULT_THETA0_STD = math.sqrt(5.0)

StepFn = Callable[[int], float]


def check_steps(etas: Sequence[float] | np.ndarray, lam: float) -> None:
    """Raise unless every step size is positive and lam is non-negative."""
    if not np.all(np.asarray(etas) > 0):
        raise ValueError("step size must be positive")
    if not lam >= 0:
        raise ValueError("regularization weight must be non-negative")


def _gather(features, targets, ids, samples, sample_targets) -> None:
    """Gather rows ids of features and targets into samples and
    sample_targets by the ndarray methods, without np.take's wrapper. Mode
    "clip" writes straight into out, where "raise" buffers a copy. Only
    numpy runs here, so a Worker may run it."""
    features.take(ids, axis=0, out=samples, mode="clip")
    targets.take(ids, axis=0, out=sample_targets, mode="clip")


def spare_slot(ids_shape: tuple[int, int, int], features: np.ndarray) -> bool:
    """Whether KernelBlocks for (H, T, N) row ids into these (D, d) features
    hold a spare slot: whether gathers of a call's samples and targets offload."""
    return _workers.offloads(features.nbytes, 8 * math.prod(ids_shape) * (features.shape[1] + 1))


class KernelBlocks:
    """The working blocks of local_pass, made once per run and reused by every
    call: the call's (H, T, N) row ids as intp, its gathered (H, T, N, d)
    samples and (H, T, N) targets, the (S, T, N, d) models of n_models = S
    models per trial, the (S, T, N) residual and an (S, T, N, d) step
    buffer. A call leaves the gathered samples as it gathered them.

    ids_shape is the (H, T, N) shape of each call's step-major row ids into
    the run's (D, d) features.

    If the gathers offload (spare_slot), the blocks hold a spare slot, which
    a Worker fills with the next call's rows while a call steps. The next
    call takes the slot over if it holds its rows of the same features and
    targets, and gathers its own otherwise: no call steps on another's
    samples. The worker starts with the first handoff and ends with
    close(), which leaving a `with` block of the blocks calls, also when it
    raises.
    """

    def __init__(self, n_models: int, ids_shape: tuple[int, int, int], features: np.ndarray):
        dim = features.shape[1]
        shape = (n_models, *ids_shape[1:], dim)
        # Leading unit axes add per-step overhead to every array operation and
        # no work, so the steps run on the broadcast shape without them.
        core = shape
        while len(core) > 2 and core[0] == 1:
            core = core[1:]
        step_shape = core if n_models == 1 else core[1:]

        def slot():
            # A call gathers into the (H, T, N, d) block and steps on views of
            # it without the unit axes.
            ids, gathered = np.empty(ids_shape, dtype=np.intp), np.empty((*ids_shape, dim))
            gathered_targets = np.empty(ids_shape)
            samples = gathered.reshape(ids_shape[0], *step_shape)
            targets = gathered_targets.reshape(ids_shape[0], *step_shape[:-1])
            return ids, gathered, gathered_targets, samples, targets

        self.ids, self.gathered, self.gathered_targets, self.samples, self.targets = slot()
        self._spare = slot() if spare_slot(ids_shape, features) else None
        self._worker = self._source = None  # the pending gather's (features, targets)
        # The working models are one C-contiguous block, so every step op runs
        # with the strides of the gathered samples.
        self.models = np.empty(core)
        self.result = self.models.reshape(shape)
        self.residual = np.empty(core[:-1])
        self.step = np.empty(core)

    def __enter__(self) -> KernelBlocks:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """End the gather worker, if one started, once its gather has ended.
        A gather that no call took over is dropped, with its exception."""
        worker, self._worker, self._source = self._worker, None, None
        if worker is not None:
            worker.close()

    def gather(self, features, targets, rows, next_rows=None) -> None:
        """Hold the samples and targets of rows, then, with a spare slot,
        start gathering next_rows (if given) into it. A failed gather
        of the worker raises its exception here, unchanged."""
        if not (self._source is not None and self._take_over(features, targets, rows)):
            self.ids[...] = rows
            _gather(features, targets, self.ids, self.gathered, self.gathered_targets)
        if next_rows is None or self._spare is None:
            return
        ids, gathered, gathered_targets = self._spare[:3]
        ids[...] = next_rows
        if self._worker is None:
            self._worker = _workers.Worker()
        self._worker.submit(_gather, features, targets, ids, gathered, gathered_targets)
        self._source = features, targets

    def _take_over(self, features, targets, rows) -> bool:
        """Whether the pending gather of the worker was of rows of features
        and targets; if it was, its spare slot becomes the call's."""
        source, self._source = self._source, None
        self._worker.wait()
        spare = self._spare
        same = source[0] is features and source[1] is targets and spare[0].shape == np.shape(rows)
        if not (same and (spare[0] == rows).all()):
            return False
        self._spare = self.ids, self.gathered, self.gathered_targets, self.samples, self.targets
        self.ids, self.gathered, self.gathered_targets, self.samples, self.targets = spare
        return True


def local_pass(
    theta: np.ndarray,
    features: np.ndarray,
    targets: np.ndarray,
    etas: Sequence[float],
    rows: np.ndarray,
    lam: float,
    *,
    blocks: KernelBlocks,
    next_rows: np.ndarray | None = None,
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

    blocks are the run's KernelBlocks, made for S, the rows' shape and the
    features, and the returned models are their own, which the next call
    overwrites. The caller has checked the ids against [0, D), since they
    are gathered with mode "clip", which does not check them, and the step
    sizes and lam (check_steps).

    next_rows are the next call's rows, if the caller knows them: blocks
    with a spare slot gather them on their worker while this call steps.
    The next call steps on the same bits either way.
    """
    blocks.gather(features, targets, rows, next_rows)
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
