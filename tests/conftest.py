import pytest

from metricboost import linalg


@pytest.fixture
def set_workers(monkeypatch):
    """set_workers(count): linalg's worker count, with a new pool for it.

    The package reads the count once and sizes its pool from it, so a test
    that changes the count also drops the pool; pools made here are shut
    down when the test ends.
    """
    original = linalg._pool

    def shut_down_own_pool():
        if linalg._pool is not None and linalg._pool is not original:
            linalg._pool.shutdown()

    def set_(count):
        shut_down_own_pool()
        monkeypatch.setattr(linalg, "_WORKERS", count)
        monkeypatch.setattr(linalg, "_pool", None)

    yield set_
    shut_down_own_pool()


@pytest.fixture
def across_workers(monkeypatch, set_workers):
    """run(fn) -> [fn() with linalg's worker count at 1, 2 and 3].

    One worker runs the serial path; two and three split a product into one
    part per worker, with parts of different sizes. Products split from
    2 x 4.2M multiply-adds instead of 2 x 16.8M, so that batches of 64 rows
    at h = d = 512 are split too; parts that size stay above OpenBLAS's
    small-matrix kernels.
    """
    monkeypatch.setattr(linalg, "_PART_MACS", 1 << 22)

    def run(fn):
        results = []
        for count in (1, 2, 3):
            set_workers(count)
            results.append(fn())
        return results
    return run
