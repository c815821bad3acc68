"""The seeded RNGs, the finite-matrix check on W, and the two-core split.

All numeric state in this package is plain numpy float64 arrays: matrices are
2-D row-major, vectors 1-D. Computation uses numpy directly; this module holds
only what needs one definition: the generator construction that makes runs
reproducible, `as_matrix`, which validates a model's embedding matrix, and
the split of large work over two cores.

`run_halves(fn, count)` splits range(count) into two halves: the caller runs
the first, and one helper thread the second. The helper's executor is made at
import, and its thread starts on the first split. The worker count is read
once, at import, from what the process can see, and is not configurable. It
is 2 when the loaded BLAS is OpenBLAS running one thread (a threaded BLAS
already uses the cores, and splitting on top of it measured slower) and the
CPU affinity mask (`os.cpu_count()` where there is no mask) holds at least
two CPUs, and 1 otherwise. With one worker the
caller runs everything and no thread is started. A half must only call
numpy and write to memory the other half does not touch; `matmul` and the
Recall@K block sweep are the two users.
`matmul(A, B)` splits A's rows into halves and writes each into one
preallocated output. It relies on the BLAS computing each output row of a
product the same way whichever rows it is given with, so the result equals
`A @ B` bit for bit; products whose width is not a multiple of `_PART_COLS`
break that premise and run whole. A half gets at least `_PART_MACS`
multiply-adds; smaller products run whole.
"""

from concurrent.futures import ThreadPoolExecutor, wait
import contextvars
import ctypes
import os

import numpy as np

from .errors import InvalidArgument

# Fewest multiply-adds (rows x inner x columns) a half of a split product
# gets; smaller products run whole. With one BLAS thread on 2 vCPUs, inside
# a training loop, waking the helper thread costs more than it saves up to
# 64 x 512 @ 512 x 512 (16.8M; training steps 8-15% slower when split),
# while the 200- to 2000-row products of init and eval gain. A product is
# cut in two and no finer: OpenBLAS packs all of B again for each part, and
# the 512 x 1000 @ 1000 x 512 gradient product of init took 9.6-10.8 ms in
# 15 parts against 7.8-8.8 ms in 2 (one BLAS thread, 2 vCPUs). Halves of at
# least 1M also stay clear of OpenBLAS's small-matrix kernels, which round
# differently from the whole product.
_PART_MACS = 1 << 24
_PART_ROWS = 8  # fewest rows of a half: numpy hands one-row products to gemv
# Only products whose width is a multiple of this are split. OpenBLAS 0.3.31
# on an AVX-512 core computes a row of a product more than 192 columns wide
# differently after a row split unless the width is a multiple of 8.
_PART_COLS = 8


def _check_seed(seed):
    if seed < 0:
        raise InvalidArgument(f"seed must be an integer >= 0, got {seed}")


def make_rng(seed):
    """Seeded deterministic generator (PCG64); the seed must be >= 0.

    PCG64 produces identical uniform / standard-normal streams for a given
    seed on every platform, which the reproducibility guarantees depend on.
    """
    _check_seed(seed)
    return np.random.Generator(np.random.PCG64(seed))


def make_child_rng(seed, stream):
    """Independent deterministic stream derived from (seed, stream).

    Used where one component must not perturb another's draw sequence, e.g.
    the regressor bank is seeded off-stream so that enabling it leaves the
    main training draws untouched.
    """
    _check_seed(seed)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, stream))))


def as_matrix(data):
    """Validate and return a finite float64 2-D array."""
    m = np.asarray(data, dtype=np.float64)
    if m.ndim != 2:
        raise InvalidArgument(f"matrix must be 2-D, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidArgument("matrix contains non-finite entries")
    return m


def _blas_threads():
    """Thread count of the loaded OpenBLAS, None where it cannot be read."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _worker_count():
    if _blas_threads() != 1:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, 2)  # only 2 vCPUs were measured


_WORKERS = _worker_count()


def _new_pool():
    """The helper: a one-thread executor, whose thread starts on its first
    submit. Made at import and again in a forked child, which has none of
    the parent's threads."""
    global _pool
    _pool = ThreadPoolExecutor(1, thread_name_prefix="metricboost")


_new_pool()
os.register_at_fork(after_in_child=_new_pool)


def workers():
    """Threads a split may use, the caller included: 1 or 2."""
    return _WORKERS


def run_halves(fn, count):
    """Call fn(half, lo, hi) over range(count): half 0 on the caller, half 1
    on the helper thread.

    With one worker, or count < 2, the caller runs fn(0, 0, count) alone.
    Otherwise the helper is handed fn(1, count // 2, count) and the caller
    runs fn(0, 0, count // 2), both in the caller's context variables
    (np.errstate among them). A helper that has not started its half by
    then loses nothing: the caller cancels it and runs half 1 itself.
    Returns once both halves have finished; half 0's exception is re-raised
    ahead of half 1's.
    """
    if _WORKERS < 2 or count < 2:
        fn(0, 0, count)
        return
    mid = count // 2
    # The helper runs in a copy of the caller's context, so that the
    # caller's np.errstate holds in both halves.
    helper = _pool.submit(contextvars.copy_context().run, fn, 1, mid, count)
    try:
        fn(0, 0, mid)
    finally:
        if not helper.cancel():
            wait((helper,))
    if helper.cancelled():
        fn(1, mid, count)
    else:
        helper.result()


def matmul(A, B):
    """A @ B for 2-D A and B; large products are split into two halves of rows."""
    n, k = A.shape
    m = B.shape[1]
    if min(_WORKERS, n // _PART_ROWS, n * k * m // _PART_MACS) < 2 or m % _PART_COLS:
        return A @ B
    out = np.empty((n, m), dtype=np.result_type(A, B))

    def half(_, lo, hi):
        np.matmul(A[lo:hi], B, out=out[lo:hi])

    run_halves(half, n)
    return out
