"""Deterministic random-stream management.

Every stochastic component of a simulation (data generation, per-user SGD
sampling, channel noise, fading) owns a named stream derived from a single
experiment seed. Replaying with the same seed reproduces every draw
bit-exactly, and distinct streams are statistically independent.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF


def _label_id(label: str) -> int:
    """Stable 64-bit id for a stream label (independent of hash randomization)."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def stream_generator(seed: int, label: str) -> np.random.Generator:
    """A generator at the start of the stream named label under seed.

    Each call starts the stream afresh, so a logical consumer must own its
    label: two components must never share one stream.
    """
    entropy = (seed & _MASK64, _label_id(label))
    return np.random.default_rng(np.random.SeedSequence(entropy))
