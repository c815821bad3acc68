import copy
import itertools
import tracemalloc

import numpy as np
import pytest

from metricboost.diversity import (
    RegressorBank,
    activation_loss,
    adversarial_loss,
    init_regressor,
    Regressor,
)
from metricboost.ensemble import (
    EnsembleModel,
    GroupPartition,
    init_model,
    preset_partition,
    proportional_partition,
)
from metricboost.errors import InvalidArgument
from metricboost.linalg import make_rng
from metricboost.trainer import init_solver

from oracles import full_activation_loss, full_adversarial_loss


def _witness_model():
    """Block-diagonal W: group 1 reads inputs 0..3, group 2 reads 4..7.

    Columns are unit vectors, so the weight penalty is exactly zero; inputs
    living in one block activate exactly one group.
    """
    W = np.zeros((8, 4))
    W[0, 0] = 1.0
    W[1, 1] = 1.0
    W[4, 2] = 1.0
    W[5, 3] = 1.0
    return EnsembleModel(W, GroupPartition((2, 2)))


class TestActivationLoss:
    def test_witness_is_zero(self):
        model = _witness_model()
        X = np.zeros((4, 8))
        X[0, 0] = 1.0  # activates group 1 only
        X[1, 1] = 2.0
        X[2, 4] = -1.0  # activates group 2 only
        X[3, 5] = 3.0
        res = activation_loss(model, X, lambda_w=5.0)
        assert res.loss == pytest.approx(0.0, abs=1e-15)
        assert res.sup_term == 0.0
        assert res.weight_term == 0.0
        np.testing.assert_allclose(res.grad_W, 0.0, atol=1e-15)

    def test_nonzero_when_cross_activated(self):
        model = _witness_model()
        X = np.zeros((1, 8))
        X[0, 0] = 1.0
        X[0, 4] = 1.0  # both groups active
        res = activation_loss(model, X, lambda_w=0.0)
        assert res.sup_term > 0.0

    def test_zero_matrix_shows_weight_penalty(self):
        part = GroupPartition((2, 2))
        model = EnsembleModel(np.zeros((3, 4)), part)
        lam = 2.5
        res = activation_loss(model, np.ones((2, 3)), lam)
        assert res.sup_term == 0.0
        assert res.weight_term == pytest.approx(4.0)  # d columns, (0 - 1)^2 each
        assert res.loss == pytest.approx(lam * 4.0)

    def test_empty_batch_rejected(self):
        model = _witness_model()
        with pytest.raises(InvalidArgument):
            activation_loss(model, np.zeros((0, 8)), 1.0)

    def test_gradient_matches_finite_differences(self):
        rng = make_rng(60)
        model = init_model(rng, 8, GroupPartition((3, 3)))
        X = rng.standard_normal((4, 8))
        lam = 0.7
        res = activation_loss(model, X, lam)
        W = model.W
        h = 1e-6
        worst = 0.0
        for k in range(W.size):
            orig = W.flat[k]
            W.flat[k] = orig + h
            up = activation_loss(model, X, lam).loss
            W.flat[k] = orig - h
            dn = activation_loss(model, X, lam).loss
            W.flat[k] = orig
            fd = (up - dn) / (2 * h)
            worst = max(worst, abs(res.grad_W.flat[k] - fd))
        scale = max(1.0, np.abs(res.grad_W).max())
        assert worst / scale < 1e-6


class TestActivationMatchesFullOracle:
    """The in-place tail gives the bits of the per-group-temporary one."""

    @pytest.mark.parametrize("backbone", [False, True])
    @pytest.mark.parametrize("partition", [
        proportional_partition(517, 1),  # one group of 517 columns
        proportional_partition(517, 2),
        proportional_partition(517, 3),
        proportional_partition(517, 4),
        proportional_partition(517, 5),
        preset_partition(512, 2),
        preset_partition(512, 3),
        preset_partition(512, 4),
        preset_partition(512, 5),
    ], ids=lambda part: "-".join(map(str, part.sizes)))
    @pytest.mark.parametrize("n", [1, 7, 64, 200, 1000])
    def test_bytes_equal(self, n, partition, backbone):
        rng = make_rng(n + partition.num_groups)
        model = init_model(rng, 64, partition, backbone_in_dim=48 if backbone else None)
        X = rng.standard_normal((n, 48 if backbone else 64))
        new = activation_loss(model, X, 37.5)
        old = full_activation_loss(model, X, 37.5)
        assert repr((new.loss, new.sup_term, new.weight_term)) == repr(
            (old.loss, old.sup_term, old.weight_term))
        assert new.grad_W.tobytes() == old.grad_W.tobytes()

    def test_allocation_peak(self):
        # F, dF, the gradient product and the column-penalty gradient, plus
        # room for (n, M)-sized and per-column arrays.
        n, h, d = 1000, 512, 512
        rng = make_rng(90)
        model = init_model(rng, h, preset_partition(d, 3))
        X = rng.standard_normal((n, h))
        activation_loss(model, X, 100.0)  # start the worker pool outside the trace
        tracemalloc.start()
        try:
            activation_loss(model, X, 100.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (2 * n * d + 2 * h * d) * 8 + (1 << 19)


class TestRegressor:
    def test_matches_composed_matvec_oracle(self):
        # The regressor forward the adversarial loss runs, against
        # g(v) = W2 relu(W1 v + b1) + b2 composed one sample at a time. The
        # similarity is scaled by 1/d_j: the source group's 5, not d_i = 3.
        rng = make_rng(61)
        model = init_model(rng, 6, GroupPartition((3, 5)))
        reg = init_regressor(rng, d_in=5, d_out=3, hidden=7)
        reg.b1[:] = rng.standard_normal(7)
        reg.b2[:] = rng.standard_normal(3)
        X = rng.standard_normal((4, 6))
        F = X @ model.W
        pre = F[:, 3:] @ reg.W1.T + reg.b1
        assert (pre < 0).any() and (pre > 0).any()  # both sides of the ReLU
        sim = 0.0
        for u, v in zip(F[:, :3], F[:, 3:]):
            g = reg.W2 @ np.maximum(reg.W1 @ v + reg.b1, 0.0) + reg.b2
            sim += float(np.sum((u * g) ** 2))
        got = adversarial_loss(model, RegressorBank({(0, 1): reg}), X, 0.0).sim_term
        assert got == pytest.approx(sim / (5 * len(X)), rel=1e-12, abs=0.0)

    def test_bank_layout(self):
        rng = make_rng(63)
        part = GroupPartition((2, 3, 4))
        bank = RegressorBank.create(rng, part, hidden=6)
        assert len(bank) == 3  # M(M-1)/2
        assert bank.keys() == [(0, 1), (0, 2), (1, 2)]
        assert bank[(0, 2)].d_in == 4 and bank[(0, 2)].d_out == 2
        assert bank.matches(part)
        assert not bank.matches(GroupPartition((3, 3, 3)))


class TestAdversarialLoss:
    def _setup(self, seed=70, sizes=(2, 3), h=6, n=4, hidden=5):
        rng = make_rng(seed)
        model = init_model(rng, h, GroupPartition(sizes))
        bank = RegressorBank.create(rng, model.partition, hidden=hidden)
        X = rng.standard_normal((n, h))
        return model, bank, X

    def test_zero_target_annihilates_similarity(self):
        model, bank, X = self._setup()
        model.W[:, :2] = 0.0  # group 1 output is zero -> every product vanishes
        res = adversarial_loss(model, bank, X, 1.0)
        assert res.sim_term == pytest.approx(0.0, abs=1e-15)

    def test_scalar_example(self):
        # d_i = d_j = 1, g output 1, f_i = 0.5 -> L_sim = (0.5 * 1)^2 / 1
        model = EnsembleModel(np.array([[0.5, 1.0]]), GroupPartition((1, 1)))
        reg = Regressor(np.zeros((1, 1)), np.zeros(1), np.zeros((1, 1)), np.ones(1))
        bank = RegressorBank({(0, 1): reg})
        X = np.ones((1, 1))
        res = adversarial_loss(model, bank, X, 0.0)
        assert res.sim_term == pytest.approx(0.25)

    def test_regressor_ascent_and_embedding_descent(self):
        # First-order check of the minimax directions on a fixed instance.
        model, bank, X = self._setup(seed=74)
        lam = 0.0  # isolate the similarity game
        res = adversarial_loss(model, bank, X, lam)
        step = 1e-4

        bank2 = copy.deepcopy(bank)
        for key in bank2.keys():
            rg = res.regressor_grads[key]
            reg = bank2[key]
            reg.W1 -= step * rg.W1
            reg.b1 -= step * rg.b1
            reg.W2 -= step * rg.W2
            reg.b2 -= step * rg.b2
        after_reg = adversarial_loss(model, bank2, X, lam)
        assert after_reg.sim_term >= res.sim_term - 1e-12

        model2 = EnsembleModel(model.W - step * res.grad_W_sim, model.partition)
        after_emb = adversarial_loss(model2, bank, X, lam)
        assert after_emb.sim_term <= res.sim_term + 1e-12

    def test_bank_partition_mismatch(self):
        model, bank, X = self._setup(seed=75)
        other = init_model(make_rng(0), 6, GroupPartition((3, 2)))
        with pytest.raises(InvalidArgument):
            adversarial_loss(other, bank, X, 1.0)

    def test_weight_penalty_gradients_match_fd(self):
        model, bank, X = self._setup(seed=76, sizes=(2, 2), h=4, n=2, hidden=3)
        lam = 1.3
        res = adversarial_loss(model, bank, X, lam)
        # Penalty component of the embedding gradient.
        pen_grad = res.grad_W - res.grad_W_sim
        h = 1e-6
        W = model.W
        for k in range(W.size):
            orig = W.flat[k]
            W.flat[k] = orig + h
            up = lam * float(np.sum((np.sum(W * W, axis=0) - 1.0) ** 2))
            W.flat[k] = orig - h
            dn = lam * float(np.sum((np.sum(W * W, axis=0) - 1.0) ** 2))
            W.flat[k] = orig
            assert abs(pen_grad.flat[k] - (up - dn) / (2 * h)) < 1e-5


class TestAdversarialLossMatchesFullOracle:
    """Building each W-sized array once moves no float bit, signed zeros
    included, against the loss that built every sum as a new array."""

    @pytest.mark.parametrize("n", [1, 7, 64])
    @pytest.mark.parametrize("M", [2, 3, 4])
    @pytest.mark.parametrize("backbone", [False, True], ids=["features", "backbone"])
    def test_bytes(self, n, M, backbone):
        rng = make_rng(100 + 10 * n + M)
        model = init_model(rng, 10, proportional_partition(12, M),
                           backbone_in_dim=7 if backbone else None)
        dead = RegressorBank.create(rng, model.partition, hidden=5)  # zero biases
        live = copy.deepcopy(dead)
        for reg in live.regressors.values():  # >= 6 entries of +-0.5: |b|^2 > 1
            reg.b1[:] = rng.choice([-0.5, 0.5], reg.b1.shape)
            reg.b2[:] = rng.choice([-0.5, 0.5], reg.b2.shape)
        X = rng.standard_normal((n, model.input_dim))
        zero_bias_grads = 0
        for bank, lambda_w in itertools.product((dead, live), (0.0, 0.7, 1e4)):
            new = adversarial_loss(model, bank, X, lambda_w)
            old = full_adversarial_loss(model, bank, X, lambda_w)
            assert repr((new.loss, new.sim_term, new.weight_term)) == repr(
                (old.loss, old.sim_term, old.weight_term))
            for name in ("grad_W", "grad_W_sim"):
                assert getattr(new, name).tobytes() == getattr(old, name).tobytes(), name
            for key in bank.keys():
                for part in ("W1", "b1", "W2", "b2"):
                    got = getattr(new.regressor_grads[key], part)
                    assert got.tobytes() == getattr(old.regressor_grads[key], part).tobytes()
                if bank is dead:  # a dead hidden unit's bias gradient is +0.0
                    b1 = new.regressor_grads[key].b1
                    assert not np.signbit(b1[b1 == 0.0]).any()
                    zero_bias_grads += int(np.sum(b1 == 0.0))
        assert zero_bias_grads > 0 or n > 1

    def test_allocation_peak(self):
        # The two chain products, then grad_W_sim with the column penalty's
        # W * W, then with grad_W: two W-sized arrays at once. Besides them,
        # the regressor gradients, F and its two gradients, and room for
        # smaller arrays. Each regressor's temporaries must be freed before
        # the W-sized tail: the last pair's, kept alive through it, lift the
        # peak from 7.0 to 8.6 MiB, over this bound.
        n, h, d = 64, 512, 512
        rng = make_rng(92)
        model = init_model(rng, h, preset_partition(d, 3))
        bank = RegressorBank.create(rng, model.partition, hidden=256)
        X = rng.standard_normal((n, h))
        adversarial_loss(model, bank, X, 100.0)  # start the worker pool outside the trace
        tracemalloc.start()
        try:
            adversarial_loss(model, bank, X, 100.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bank_bytes = sum(a.nbytes for key in bank.keys()
                         for a in (bank[key].W1, bank[key].b1, bank[key].W2, bank[key].b2))
        assert peak < (2 * h * d + 3 * n * d) * 8 + bank_bytes + (1 << 19)


class TestDispatch:
    """The init solver is where a diversity kind picks its loss."""

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_dispatch_activation(self):
        model = _witness_model()
        res = init_solver(np.ones((2, 8)), model, "activation", 1.0, lr=1e-3,
                          max_iterations=1)
        assert res.initial_div_term == activation_loss(_witness_model(), np.ones((2, 8)),
                                                       1.0).sup_term

    def test_dispatch_adversarial_needs_bank(self):
        model = _witness_model()
        with pytest.raises(InvalidArgument, match="needs a regressor bank"):
            init_solver(np.ones((2, 8)), model, "adversarial", 1.0, lr=1e-3, max_iterations=1)

    def test_dispatch_unknown(self):
        model = _witness_model()
        with pytest.raises(InvalidArgument, match="dropout"):
            init_solver(np.ones((2, 8)), model, "dropout", 1.0, lr=1e-3, max_iterations=1)


class TestRegressorGradientsAreABank:
    def test_keys_and_shapes_follow_the_bank(self):
        rng = make_rng(77)
        model = init_model(rng, 6, GroupPartition((2, 3, 1)))
        bank = RegressorBank.create(rng, model.partition, hidden=4)
        grads = adversarial_loss(model, bank, rng.standard_normal((3, 6)), 0.5).regressor_grads
        assert isinstance(grads, RegressorBank)
        assert grads.keys() == bank.keys()
        for key in bank.keys():
            for part in ("W1", "b1", "W2", "b2"):
                assert getattr(grads[key], part).shape == getattr(bank[key], part).shape
