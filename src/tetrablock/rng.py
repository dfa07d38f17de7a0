"""Seed plumbing shared by every randomized routine.

All randomness flows through ``numpy.random.Generator``.  Trial loops
such as ``falsify_spectral_set`` derive one child seed per trial with
``numpy.random.SeedSequence.spawn`` so that trial k is reproducible on
its own and insensitive to how many trials run before it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["as_generator"]


def as_generator(seed) -> np.random.Generator:
    """Coerce an int, SeedSequence, Generator, or None to a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
