from pathlib import Path

import numpy as np
import pytest

from metricboost.cli import main
from metricboost.errors import InvalidArgument
from metricboost.gradcheck import (
    central_diff,
    check_gradient,
    rel_error,
    run_suites,
)


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
