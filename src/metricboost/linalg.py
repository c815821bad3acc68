"""The seeded RNGs, the finite-matrix check on W, and the two-core split.

All numeric state in this package is plain numpy float64 arrays: matrices are
2-D row-major, vectors 1-D. Computation uses numpy directly; this module holds
only what needs one definition: the generator construction that makes runs
reproducible, `as_matrix`, which validates a model's embedding matrix, and
the split of large work over the cores the process may run on.

`run_parts(fn, count)` calls fn for each of `count` parts: the caller and a
lazily created pool of `workers() - 1` threads claim the parts one by one.
The worker count is read once, at import, from what the process can see,
and is not configurable. It is 1 unless the loaded BLAS is OpenBLAS running
one thread (a threaded BLAS already uses the cores, and splitting on top of
it measured slower); otherwise it is the size of the CPU affinity mask
(`os.cpu_count()` where there is no mask), capped at `_MAX_WORKERS`. With
one worker every part runs on the caller and no thread is started. A part
must only call numpy and write to memory no other part touches; `matmul`
and the Recall@K block sweep are the two users. `matmul(A, B)` splits A's
rows into at most one contiguous part per worker (the BLAS packs the whole
of B again for every part, so more parts cost more) and writes each into
one preallocated output. It relies on the BLAS computing each output row of
a product the same way whichever rows it is given with, so the result
equals `A @ B` bit for bit; products whose width is not a multiple of
`_PART_COLS` break that premise and run whole. A part gets at least
`_PART_MACS` multiply-adds; smaller products run whole.
"""

from concurrent.futures import ThreadPoolExecutor, wait
import ctypes
import os
import threading

import numpy as np

from .errors import InvalidArgument

# Fewest multiply-adds (rows x inner x columns) a part of a split product
# gets; smaller products run whole. With one BLAS thread on 2 vCPUs, inside
# a training loop, waking the pool thread costs more than it saves up to
# 64 x 512 @ 512 x 512 (16.8M; training steps 8-15% slower when split),
# while the 200- to 2000-row products of init and eval gain. A product has
# at most one part per worker: OpenBLAS packs all of B again for each part,
# and the 512 x 1000 @ 1000 x 512 gradient product of init took 9.6-10.8 ms
# in 15 parts against 7.8-8.8 ms in 2 (one BLAS thread, 2 vCPUs). A pool
# thread that starts late loses nothing: the caller claims its part too.
# Parts of at least 1M also stay clear of OpenBLAS's small-matrix kernels,
# which round differently from the whole product.
_PART_MACS = 1 << 24
_PART_ROWS = 8  # fewest rows of a part: numpy hands one-row products to gemv
# Only products whose width is a multiple of this are split. OpenBLAS 0.3.31
# on an AVX-512 core computes a row of a product more than 192 columns wide
# differently after a row split unless the width is a multiple of 8.
_PART_COLS = 8
# Most threads a split uses, the caller included. Only 2 vCPUs were
# measured; each thread of the Recall@K sweep holds a 256 x N score buffer.
_MAX_WORKERS = 2


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
    return min(cpus, _MAX_WORKERS)


_WORKERS = _worker_count()
_pool = None  # ThreadPoolExecutor of _WORKERS - 1 threads, created on first use
_pool_lock = threading.Lock()


def _drop_pool():
    global _pool
    _pool = None  # a forked child has none of the parent's threads


os.register_at_fork(after_in_child=_drop_pool)


def workers():
    """Threads a split may use, the caller included."""
    return _WORKERS


def _executor():
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_WORKERS - 1, thread_name_prefix="metricboost")
        return _pool


def run_parts(fn, count):
    """Call fn(part, slot) once for each part in range(count), on up to
    workers() threads.

    `slot` names the thread: 0 is the caller, 1 .. min(workers(), count) - 1
    are pool threads. Threads claim parts in increasing order from one shared
    counter, so a pool thread that starts late takes fewer parts and the
    caller never waits for work nobody has begun. Returns once every part
    has finished; if parts raised, the exception of the lowest such part is
    then re-raised unchanged.
    """
    threads = min(_WORKERS, count)
    if threads <= 1:
        for part in range(count):
            fn(part, 0)
        return
    lock = threading.Lock()
    claims = {"next": 0}
    errors = []

    def work(slot):
        while True:
            with lock:
                part = claims["next"]
                claims["next"] += 1
            if part >= count:
                return
            try:
                fn(part, slot)
            except Exception as exc:  # raised by the caller once every part is done
                errors.append((part, exc))

    pool = _executor()
    futures = [pool.submit(work, slot) for slot in range(1, threads)]
    try:
        work(0)
    finally:
        with lock:
            claims["next"] = count  # after an interrupt, start no further part
        wait(futures)
    if errors:
        raise min(errors, key=lambda e: e[0])[1]


def matmul(A, B):
    """A @ B for 2-D A and B; large products are split by rows, one part per worker."""
    n, k = A.shape
    m = B.shape[1]
    parts = min(_WORKERS, n // _PART_ROWS, n * k * m // _PART_MACS)
    if parts < 2 or m % _PART_COLS:
        return A @ B
    out = np.empty((n, m), dtype=np.result_type(A, B))
    bounds = [n * i // parts for i in range(parts + 1)]

    def part(i, _):
        lo, hi = bounds[i], bounds[i + 1]
        np.matmul(A[lo:hi], B, out=out[lo:hi])

    run_parts(part, parts)
    return out
