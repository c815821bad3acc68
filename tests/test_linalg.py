import numpy as np

from metricboost.linalg import make_child_rng, make_rng


class TestRng:
    def test_identical_streams(self):
        a = make_rng(1234).standard_normal(100)
        b = make_rng(1234).standard_normal(100)
        assert a.tobytes() == b.tobytes()

    def test_different_seeds_differ(self):
        a = make_rng(1).standard_normal(10)
        b = make_rng(2).standard_normal(10)
        assert not np.array_equal(a, b)

    def test_child_stream_is_independent(self):
        main = make_rng(7).standard_normal(8)
        child = make_child_rng(7, 1).standard_normal(8)
        assert not np.array_equal(main, child)
        again = make_child_rng(7, 1).standard_normal(8)
        assert child.tobytes() == again.tobytes()
