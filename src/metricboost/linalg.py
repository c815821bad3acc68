"""The seeded RNGs used everywhere, and the finite-matrix check on W.

All numeric state in this package is plain numpy float64 arrays: matrices are
2-D row-major, vectors 1-D. Computation uses numpy directly; this module holds
only what needs one definition: the generator construction that makes runs
reproducible, and `as_matrix`, which validates a model's embedding matrix.
"""

import numpy as np

from .errors import InvalidArgument


def make_rng(seed):
    """Seeded deterministic generator (PCG64).

    PCG64 produces identical uniform / standard-normal streams for a given
    seed on every platform, which the reproducibility guarantees depend on.
    """
    return np.random.Generator(np.random.PCG64(seed))


def make_child_rng(seed, stream):
    """Independent deterministic stream derived from (seed, stream).

    Used where one component must not perturb another's draw sequence, e.g.
    the regressor bank is seeded off-stream so that enabling it leaves the
    main training draws untouched.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, stream))))


def as_matrix(data):
    """Validate and return a finite float64 2-D array."""
    m = np.asarray(data, dtype=np.float64)
    if m.ndim != 2:
        raise InvalidArgument(f"matrix must be 2-D, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidArgument("matrix contains non-finite entries")
    return m
