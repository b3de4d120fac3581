"""Deterministic random-stream management.

All stochastic operations in this package accept a ``seed`` that may be a
plain integer, a tuple of integers (a seed *path* such as
``(master_seed, replicate)``), a ``numpy.random.SeedSequence``, or an
already-built ``numpy.random.Generator``.  Distinct paths yield
statistically independent PCG64 streams, which is what makes replicate
generation order-independent and safe to parallelise.
"""

from __future__ import annotations

import numpy as np

__all__ = ["substream"]


def substream(seed, *path: int) -> np.random.Generator:
    """Return an independent PCG64 generator for ``seed`` plus a key path.

    ``substream(7)`` and ``substream(7, 0)`` are different streams;
    ``substream((7, 0))`` equals ``substream(7, 0)``.  Passing a
    ``Generator`` returns it unchanged (no path may be appended then).
    """
    if isinstance(seed, np.random.Generator):
        if path:
            raise ValueError("cannot extend the path of a built Generator")
        return seed
    if isinstance(seed, np.random.SeedSequence):
        if path:
            raise ValueError("cannot extend the path of a SeedSequence")
        return np.random.default_rng(seed)
    if isinstance(seed, (int, np.integer)):
        keys = (int(seed), *map(int, path))
    else:
        keys = (*map(int, seed), *map(int, path))
    # SeedSequence zero-pads short entropy up to its pool size, which
    # would alias (7,) with (7, 0); a leading length word keeps every
    # distinct path on a distinct stream.
    return np.random.default_rng(np.random.SeedSequence((len(keys), *keys)))
