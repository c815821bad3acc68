import math

import numpy as np
import pytest

from metricboost.errors import InvalidArgument
from metricboost.linalg import make_rng
from metricboost.losses import (
    LossSpec,
    boosting_weight_vec,
    pair_loss,
    pair_loss_vec,
    triplet_loss_vec,
)
from oracles import central_difference, two_pass_pair_loss


def sigmoid(z):
    return 1.0 / (1.0 + math.exp(-z))


class TestDefaults:
    def test_constants_pinned(self):
        spec = LossSpec()
        assert spec.beta1 == 2.0
        assert spec.beta2 == 0.5
        assert spec.margin_contrastive == 0.5
        assert spec.margin_triplet == 0.01
        assert spec.cost_pos == 1.0
        assert spec.cost_neg == 25.0

    def test_invalid_specs(self):
        with pytest.raises(InvalidArgument):
            LossSpec(kind="hinge")
        with pytest.raises(InvalidArgument):
            LossSpec(beta1=0.0)
        with pytest.raises(InvalidArgument):
            LossSpec(margin_triplet=-0.1)
        with pytest.raises(InvalidArgument):
            LossSpec(cost_neg=0.0)


class TestBinomialDeviance:
    def test_spot_value_ln2(self):
        loss, dloss = pair_loss(LossSpec(), 0.5, 1)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)
        assert dloss == pytest.approx(-1.0, abs=1e-12)

    def test_negative_pair_derivative(self):
        # y=0 at s=beta2: |dloss| = cost_neg * beta1 * sigmoid(0) = 25
        _, dloss = pair_loss(LossSpec(), 0.5, 0)
        assert dloss == pytest.approx(25.0, abs=1e-12)

    def test_large_score_stability(self):
        spec = LossSpec()
        # z = 25 * 2 * (s - 0.5) for y=0 can exceed 80; must not overflow.
        loss, dloss = pair_loss(spec, 0.999999, 0)
        assert np.isfinite(loss) and np.isfinite(dloss)
        loss2, _ = pair_loss(spec, -1.0, 0)
        assert loss2 == pytest.approx(0.0, abs=1e-12)

    def test_monotonicity(self):
        spec = LossSpec()
        s = np.linspace(-1.0, 1.0, 1000)
        pos, _ = pair_loss_vec(spec, s, np.ones(1000, dtype=int))
        neg, _ = pair_loss_vec(spec, s, np.zeros(1000, dtype=int))
        assert np.all(np.diff(pos) < 0.0)  # decreasing in s for y=1
        assert np.all(np.diff(neg) > 0.0)  # increasing in s for y=0


class TestOnePassMatchesTwoPass:
    """The one-pass binomial deviance computes exp(-|z|) and 1 + e once;
    every loss and derivative bit must equal the softplus/sigmoid form."""

    @staticmethod
    def assert_bytes_equal(spec, s, y):
        with np.errstate(over="ignore", invalid="ignore"):
            got = pair_loss_vec(spec, s, y)
            want = two_pass_pair_loss(spec, s, y)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()

    def test_random_scores_both_labels(self):
        rng = make_rng(11)
        s = rng.uniform(-1.0, 1.0, size=(2016, 3))
        y = rng.integers(0, 2, size=(2016, 1))
        for spec in (LossSpec(), LossSpec(beta1=3.5, beta2=-0.2, cost_pos=2.0, cost_neg=7.0)):
            for labels in (y, np.zeros_like(y), np.ones_like(y)):
                self.assert_bytes_equal(spec, s, labels)

    def test_score_at_beta2_gives_signed_zero_z(self):
        # z is -0.0 for y=1 and +0.0 for y=0; both take the z >= 0 branch.
        spec = LossSpec()
        self.assert_bytes_equal(spec, np.full(2, spec.beta2), np.array([1, 0]))

    def test_exp_underflows_to_zero(self):
        spec = LossSpec(beta1=1e3, cost_pos=1e3, cost_neg=1e3)
        s = np.array([-1.0, -0.5, 0.9, 1.0, -1.0, -0.5, 0.9, 1.0])
        y = np.array([1, 1, 1, 1, 0, 0, 0, 0])
        assert np.all(np.exp(-np.abs(1e6 * (s - spec.beta2))) == 0.0)
        self.assert_bytes_equal(spec, s, y)

    def test_infinite_dz_ds(self):
        spec = LossSpec(beta1=1e300, cost_neg=1e10)
        s = np.array([-1.0, 0.4, 0.5, 0.6, 1.0] * 2)
        y = np.repeat([0, 1], 5)
        assert np.isinf(spec.beta1 * spec.cost_neg)
        self.assert_bytes_equal(spec, s, y)


class TestContrastive:
    def test_inside_margin(self):
        loss, dloss = pair_loss(LossSpec(kind="contrastive"), 0.3, 0)
        assert (loss, dloss) == (0.0, 0.0)

    def test_perfect_positive(self):
        loss, dloss = pair_loss(LossSpec(kind="contrastive"), 1.0, 1)
        assert (loss, dloss) == (0.0, 0.0)

    def test_hinge_active(self):
        loss, dloss = pair_loss(LossSpec(kind="contrastive"), 0.8, 0)
        assert loss == pytest.approx(0.3)
        assert dloss == 1.0

    def test_hinge_boundary_inactive(self):
        _, dloss = pair_loss(LossSpec(kind="contrastive"), 0.5, 0)
        assert dloss == 0.0

    def test_triplet_kind_rejected(self):
        with pytest.raises(InvalidArgument):
            pair_loss(LossSpec(kind="triplet"), 0.5, 1)


class TestTriplet:
    def test_margin_satisfied(self):
        out = triplet_loss_vec(LossSpec(kind="triplet"), [0.9, 0.5], [0.1, 0.48])
        for arr in out:
            np.testing.assert_array_equal(arr, [0.0, 0.0])

    def test_violated(self):
        loss, dp, dn = triplet_loss_vec(LossSpec(kind="triplet"), [0.1, 0.5], [0.9, 0.5])
        np.testing.assert_allclose(loss, [0.81, 0.01])
        np.testing.assert_array_equal(dp, [-1.0, -1.0])
        np.testing.assert_array_equal(dn, [1.0, 1.0])

    def test_boundary_inactive(self):
        spec = LossSpec(kind="triplet", margin_triplet=0.0)
        for arr in triplet_loss_vec(spec, [0.5, -0.2], [0.5, -0.2]):
            np.testing.assert_array_equal(arr, [0.0, 0.0])


class TestDerivativesAgainstFiniteDifferences:
    """dloss_ds must match central differences away from hinge kinks."""

    def test_pair_losses(self):
        rng = make_rng(3)
        for kind in ("binomial_deviance", "contrastive"):
            spec = LossSpec(kind=kind)
            checked = 0
            while checked < 100:
                s = float(rng.uniform(-0.99, 0.99))
                y = int(rng.integers(0, 2))
                if kind == "contrastive" and abs(s - spec.margin_contrastive) < 0.01:
                    continue
                _, analytic = pair_loss(spec, s, y)
                fd = central_difference(lambda x: pair_loss(spec, x, y)[0], s)
                assert abs(analytic - fd) <= 1e-6 * max(1.0, abs(fd)), (kind, s, y)
                checked += 1

    def test_triplet(self):
        rng = make_rng(4)
        spec = LossSpec(kind="triplet")
        checked = 0
        while checked < 100:
            sp = float(rng.uniform(-0.99, 0.99))
            sn = float(rng.uniform(-0.99, 0.99))
            if abs(sn - sp + spec.margin_triplet) < 0.01:
                continue
            _, dp, dn = triplet_loss_vec(spec, sp, sn)
            fd_p = central_difference(lambda x: triplet_loss_vec(spec, x, sn)[0], sp)
            fd_n = central_difference(lambda x: triplet_loss_vec(spec, sp, x)[0], sn)
            assert abs(dp - fd_p) <= 1e-6
            assert abs(dn - fd_n) <= 1e-6
            checked += 1


class TestBoostingWeight:
    def test_positive_pair_at_beta2(self):
        w = boosting_weight_vec(LossSpec(), s=np.array([0.5]), y=np.array([1]))
        np.testing.assert_allclose(w, [1.0])

    def test_negative_pair_at_beta2(self):
        w = boosting_weight_vec(LossSpec(), s=np.array([0.5]), y=np.array([0]))
        np.testing.assert_allclose(w, [25.0])

    def test_perfect_positive_weight(self):
        # Frozen from the finite-difference oracle: |dloss/ds| at s=1, y=1 is
        # beta1 * sigmoid(-beta1 * (1 - beta2)) = 2 * sigmoid(-1).
        fd = abs(central_difference(lambda x: pair_loss(LossSpec(), x, 1)[0], 1.0))
        expected = 2.0 * sigmoid(-1.0)
        assert fd == pytest.approx(expected, rel=1e-9)
        w = boosting_weight_vec(LossSpec(), s=np.array([1.0]), y=np.array([1]))
        np.testing.assert_allclose(w, [expected])

    def test_triplet_weight_binary(self):
        spec = LossSpec(kind="triplet")
        w = boosting_weight_vec(spec, s_pos=np.array([0.1, 0.9]), s_neg=np.array([0.9, 0.1]))
        np.testing.assert_array_equal(w, [1.0, 0.0])

    def test_nonnegative_everywhere(self):
        rng = make_rng(5)
        for kind in ("binomial_deviance", "contrastive"):
            spec = LossSpec(kind=kind)
            w = boosting_weight_vec(
                spec, s=rng.uniform(-1, 1, size=200), y=rng.integers(0, 2, size=200)
            )
            assert np.all(w >= 0.0)
