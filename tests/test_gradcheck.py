from pathlib import Path

import numpy as np
import pytest

from metricboost.cli import main
from metricboost.ensemble import init_model, proportional_partition
from metricboost.errors import InvalidArgument
from metricboost.gradcheck import (
    central_diff,
    check_gradient,
    rel_error,
    run_suites,
)
from metricboost.linalg import make_rng


class TestHarness:
    def test_central_diff_on_quadratic(self):
        f = lambda x: float(np.sum(x * x))
        x = np.array([1.0, -2.0, 3.0])
        np.testing.assert_allclose(central_diff(f, x), 2 * x, atol=1e-6)

    def test_rel_error_scale(self):
        assert rel_error(np.array([1.0]), np.array([1.0])) == 0.0
        assert rel_error(np.array([2.0]), np.array([1.0])) == pytest.approx(0.5)

    def test_detects_injected_sign_bug(self):
        # Self-test: a sign-flipped analytic gradient must fail loudly.
        f = lambda x: float(np.sum(x * x))
        x = np.array([1.0, 2.0])
        good = 2 * x
        assert check_gradient(f, good, x) < 1e-8
        assert check_gradient(f, -good, x) > 1.0

    def test_central_diff_restores_x_bit_for_bit(self):
        x = make_rng(0).standard_normal((3, 4))
        before = x.tobytes()
        central_diff(lambda v: float(np.sum(np.sin(v))), x)
        assert x.tobytes() == before

    def test_central_diff_restores_x_when_f_raises(self):
        x = make_rng(1).standard_normal((3, 4))
        before = x.tobytes()
        calls = []

        def f(v):
            calls.append(v.copy())
            if len(calls) == 4:  # entry 1, moved down by h
                raise RuntimeError("objective failed")
            return float(np.sum(v))

        with pytest.raises(RuntimeError, match="objective failed"):
            central_diff(f, x)
        assert x.tobytes() == before
        assert calls[3].ravel()[1] != x.ravel()[1]

    def test_central_diff_refuses_non_contiguous_view(self):
        X = np.zeros((3, 4))
        with pytest.raises(InvalidArgument, match="C-contiguous"):
            central_diff(lambda v: 0.0, X[:, ::2])

    def test_objective_reading_the_model_detects_sign_bug(self):
        # The objective ignores its argument and reads model.W through the
        # model: the perturbation must reach the live array.
        rng = make_rng(2)
        model = init_model(rng, 5, proportional_partition(6, 2))
        X = rng.standard_normal((4, 5))
        obj = lambda _: float(np.sum(model.forward_batch(X) ** 2))
        good = 2.0 * X.T @ model.forward_batch(X)
        assert check_gradient(obj, good, model.W) < 1e-6
        assert check_gradient(obj, -good, model.W) > 1.0

    def test_unknown_module_rejected(self):
        with pytest.raises(InvalidArgument):
            run_suites(modules=("quantum",))


class TestSuites:
    def test_module_filter(self):
        results = run_suites(modules=("losses",), seed=1)
        assert results and all(r.module == "losses" for r in results)

    def test_all_pass_on_fresh_build(self, capsys):
        # `metricboost gradcheck --seed 3` prints its golden report byte for
        # byte: every check of every module passes with the same errors.
        assert main(["gradcheck", "--seed", "3"]) == 0
        golden = (Path(__file__).parent / "data" / "golden_gradcheck.txt").read_text()
        assert capsys.readouterr().out == golden
