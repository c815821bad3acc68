import pytest

from metricboost import linalg


@pytest.fixture
def set_workers(monkeypatch):
    """set_workers(count): linalg's worker count, 1 or 2, for this test."""
    return lambda count: monkeypatch.setattr(linalg, "_WORKERS", count)


@pytest.fixture
def across_workers(monkeypatch, set_workers):
    """run(fn) -> [fn() with linalg's worker count at 1 and 2].

    One worker runs the serial path; two split a product into halves.
    Products split from 2 x 4.2M multiply-adds instead of 2 x 16.8M, so that
    batches of 64 rows at h = d = 512 are split too; halves that size stay
    above OpenBLAS's small-matrix kernels.
    """
    monkeypatch.setattr(linalg, "_PART_MACS", 1 << 22)

    def run(fn):
        results = []
        for count in (1, 2):
            set_workers(count)
            results.append(fn())
        return results
    return run
