"""Deterministic random streams built on the counter-based Philox generator."""

from __future__ import annotations

import numpy as np

__all__ = ["rng_from"]


def rng_from(seed: int, *stream: int) -> np.random.Generator:
    """Return the generator for the stream keyed by ``(seed, *stream)``.

    Philox is a counter-based generator, so streams with distinct keys are
    independent and each one is reproducible bit-for-bit from its key alone.
    Trial-level streams can therefore be created in any order, or in
    parallel, without changing the numbers any of them produce.
    """
    if int(seed) < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    key = np.random.SeedSequence(int(seed), spawn_key=tuple(int(s) for s in stream))
    return np.random.Generator(np.random.Philox(key))
