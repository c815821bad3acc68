import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricboost.ensemble import (
    EnsembleModel,
    GroupPartition,
    cosine_sim_grad_batch,
    init_model,
    make_schedule,
    preset_partition,
    proportional_partition,
)
from metricboost.errors import DegenerateInput, InvalidArgument
from metricboost.linalg import make_rng
from oracles import central_difference

PRESET_ROWS = {
    (512, 2): (170, 342),
    (512, 3): (96, 160, 256),
    (512, 4): (52, 102, 152, 204),
    (512, 5): (34, 68, 102, 138, 170),
    (1024, 3): (170, 342, 512),
    (1024, 4): (102, 204, 308, 410),
    (1024, 5): (68, 136, 204, 274, 342),
    (1024, 6): (50, 96, 148, 196, 242, 292),
    (1024, 7): (36, 74, 110, 148, 182, 218, 256),
}


class TestSchedule:
    def test_single_learner(self):
        sched = make_schedule(1)
        assert sched.eta == (1.0,)
        assert sched.alpha == (1.0,)

    def test_two_learners(self):
        sched = make_schedule(2)
        np.testing.assert_allclose(sched.alpha, (1 / 3, 2 / 3), atol=1e-15)

    def test_three_learners(self):
        sched = make_schedule(3)
        np.testing.assert_allclose(sched.alpha, (1 / 6, 1 / 3, 1 / 2), atol=1e-15)

    def test_zero_learners_rejected(self):
        with pytest.raises(InvalidArgument):
            make_schedule(0)

    def test_alpha_sums_to_one(self):
        for M in range(1, 17):
            sched = make_schedule(M)
            assert abs(sum(sched.alpha) - 1.0) < 1e-12
            assert all(a > 0 for a in sched.alpha)


class TestPartition:
    def test_proportional_512_2(self):
        assert proportional_partition(512, 2).sizes == (170, 342)

    def test_proportional_512_1(self):
        assert proportional_partition(512, 1).sizes == (512,)

    def test_proportional_512_3(self):
        assert proportional_partition(512, 3).sizes == (85, 170, 257)

    def test_too_few_dims(self):
        with pytest.raises(InvalidArgument):
            proportional_partition(2, 3)

    def test_zero_share_rejected(self):
        # alpha_1 of M=4 is 1/10; d=6 floors it to zero.
        with pytest.raises(InvalidArgument):
            proportional_partition(6, 4)

    @given(st.integers(1, 8), st.integers(0, 200))
    @settings(max_examples=80)
    def test_sizes_sum_and_order(self, M, extra):
        # The floor rule needs alpha_1 * d >= 1, i.e. d >= M (M + 1) / 2.
        d = max(3 * M, (M * (M + 1)) // 2) + extra
        part = proportional_partition(d, M)
        assert sum(part.sizes) == d
        assert list(part.sizes) == sorted(part.sizes)

    def test_preset_rows(self):
        for (d, M), sizes in PRESET_ROWS.items():
            part = preset_partition(d, M)
            assert part is not None and part.sizes == sizes

    def test_preset_absent(self):
        with pytest.raises(InvalidArgument, match=r"^no preset group sizes for d=512 M=7$"):
            preset_partition(512, 7)
        with pytest.raises(InvalidArgument, match=r"^no preset group sizes for d=384 M=3$"):
            preset_partition(384, 3)

    def test_partition_invariants(self):
        part = GroupPartition((1, 2, 3))
        assert part.offsets == (0, 1, 3, 6)
        assert part.total_dim == 6
        with pytest.raises(InvalidArgument):
            GroupPartition((0, 2))


def learner_outputs(model, X):
    """Per-group raw embeddings f_1..f_M: column slices of forward_batch."""
    F = model.forward_batch(X)
    return [F[:, sl] for sl in model.partition.slices()]


class TestLearnerForward:
    def test_zero_matrix(self):
        model = EnsembleModel(np.zeros((4, 6)), GroupPartition((2, 4)))
        parts = learner_outputs(model, np.ones((3, 4)))
        assert [p.shape for p in parts] == [(3, 2), (3, 4)]
        assert all(np.all(p == 0.0) for p in parts)

    def test_identity_slicing(self):
        model = EnsembleModel(np.eye(2), GroupPartition((1, 1)))
        f1, f2 = learner_outputs(model, [[3.0, 4.0], [5.0, 6.0]])
        np.testing.assert_array_equal(f1, [[3.0], [5.0]])
        np.testing.assert_array_equal(f2, [[4.0], [6.0]])

    def test_slice_consistency_with_full_product(self):
        rng = make_rng(9)
        W = rng.standard_normal((8, 6))
        model = EnsembleModel(W, GroupPartition((1, 2, 3)))
        X = rng.standard_normal((5, 8))
        parts = learner_outputs(model, X)
        np.testing.assert_allclose(np.concatenate(parts, axis=1), X @ W, atol=1e-12)

    def test_dimension_mismatch(self):
        model = EnsembleModel(np.eye(3), GroupPartition((3,)))
        for x in ([[1.0, 2.0]], [[1.0, 2.0, 3.0, 4.0]]):
            with pytest.raises(InvalidArgument, match="model expects 3"):
                model.forward_batch(x)


class TestCosine:
    def test_maximum_is_stationary(self):
        s, du, dv, valid = cosine_sim_grad_batch([[1.0, 0.0], [0.0, 3.0]],
                                                 [[1.0, 0.0], [0.0, 2.0]])
        np.testing.assert_allclose(s, [1.0, 1.0])
        np.testing.assert_allclose(du, np.zeros((2, 2)), atol=1e-15)
        np.testing.assert_allclose(dv, np.zeros((2, 2)), atol=1e-15)
        assert valid.all()

    def test_orthogonal(self):
        s, du, _, _ = cosine_sim_grad_batch([[1.0, 0.0]], [[0.0, 1.0]])
        np.testing.assert_allclose(s, [0.0], atol=1e-15)
        np.testing.assert_allclose(du, [[0.0, 1.0]], atol=1e-15)

    def test_zero_norm_rejected(self):
        # The batch form marks a row with a zero-norm side invalid and
        # leaves the other rows untouched.
        s, _, _, valid = cosine_sim_grad_batch(
            [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
        )
        np.testing.assert_array_equal(valid, [False, False, True])
        assert s[2] == pytest.approx(1.0)

    def test_gradients_match_finite_differences(self):
        rng = make_rng(12)
        U = rng.standard_normal((20, 16))
        V = rng.standard_normal((20, 16))
        _, dU, dV, _ = cosine_sim_grad_batch(U, V)
        for i in range(20):
            for k in range(16):
                def f_u(x, i=i, k=k):
                    up = U[i:i + 1].copy()
                    up[0, k] = x
                    return cosine_sim_grad_batch(up, V[i:i + 1])[0][0]

                def f_v(x, i=i, k=k):
                    vp = V[i:i + 1].copy()
                    vp[0, k] = x
                    return cosine_sim_grad_batch(U[i:i + 1], vp)[0][0]

                fd = central_difference(f_u, U[i, k])
                assert abs(dU[i, k] - fd) <= 1e-6 * max(1.0, abs(fd))
                fd = central_difference(f_v, V[i, k])
                assert abs(dV[i, k] - fd) <= 1e-6 * max(1.0, abs(fd))

    def test_scale_invariance(self):
        rng = make_rng(13)
        u = rng.standard_normal((1, 8))
        v = rng.standard_normal((1, 8))
        s0 = cosine_sim_grad_batch(u, v)[0]
        for c in (1e-3, 0.5, 7.0, 1e4):
            assert abs(cosine_sim_grad_batch(c * u, v)[0] - s0)[0] < 1e-12


class TestTestEmbedding:
    def _model(self, rng, h=6, sizes=(1, 2, 3)):
        return init_model(rng, h, GroupPartition(sizes))

    def test_single_group_is_plain_normalization(self):
        rng = make_rng(20)
        model = self._model(rng, sizes=(6,))
        X = rng.standard_normal((4, 6))
        emb = model.test_embeddings(X)
        raw = model.forward_batch(X)
        np.testing.assert_allclose(
            emb, raw / np.linalg.norm(raw, axis=1, keepdims=True), atol=1e-12
        )

    def test_sqrt_exponent_dot_identity(self):
        # dot(emb(x), emb(y)) with exponent 0.5 equals sum_m alpha_m s_m.
        rng = make_rng(21)
        model = self._model(rng, h=8, sizes=(3, 5))
        X = rng.standard_normal((3, 8))
        Y = rng.standard_normal((3, 8))
        FX, FY = model.forward_batch(X), model.forward_batch(Y)
        dots = np.sum(model._weight_groups(FX, 0.5, False) * model._weight_groups(FY, 0.5, False),
                      axis=1)
        expected = np.zeros(3)
        for m, sl in enumerate(model.partition.slices()):
            fx, fy = FX[:, sl], FY[:, sl]
            s = np.sum(fx * fy, axis=1) / (np.linalg.norm(fx, axis=1) * np.linalg.norm(fy, axis=1))
            expected += model.schedule.alpha[m] * s
        np.testing.assert_allclose(dots, expected, rtol=0, atol=1e-12)

    def test_unit_exponent_group_norms_equal_alpha(self):
        rng = make_rng(22)
        model = self._model(rng, h=7, sizes=(2, 2, 3))
        emb = model.test_embeddings(rng.standard_normal((4, 7)))
        for m, sl in enumerate(model.partition.slices()):
            np.testing.assert_allclose(
                np.linalg.norm(emb[:, sl], axis=1), model.schedule.alpha[m], rtol=0, atol=1e-12
            )
        np.testing.assert_allclose(
            [model.schedule.alpha[m] for m in range(3)], [1 / 6, 1 / 3, 1 / 2], atol=1e-15
        )

    def test_zero_group_rejected(self):
        model = EnsembleModel(np.zeros((3, 4)), GroupPartition((2, 2)))
        with pytest.raises(DegenerateInput):
            model.test_embeddings(np.ones((2, 3)))
        # Only row 1 is zero in group 1; the message names both.
        model = EnsembleModel(np.eye(4), GroupPartition((2, 2)))
        with pytest.raises(DegenerateInput, match="group 1 produced a zero embedding for row 1"):
            model.test_embeddings([[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 0.0, 0.0]])

    def test_renormalize_full(self):
        rng = make_rng(23)
        model = self._model(rng)
        emb = model._weight_groups(model.forward_batch(rng.standard_normal((3, 6))), 1.0, True)
        np.testing.assert_allclose(np.linalg.norm(emb, axis=1), 1.0, rtol=0, atol=1e-12)

    def test_batch_matches_single(self):
        rng = make_rng(24)
        model = self._model(rng)
        X = rng.standard_normal((5, 6))
        batch = model.test_embeddings(X)
        for i in range(5):
            np.testing.assert_allclose(
                batch[i:i + 1], model.test_embeddings(X[i:i + 1]), atol=1e-12
            )


class TestBackbone:
    def test_forward_shapes_and_relu(self):
        rng = make_rng(30)
        model = init_model(rng, 5, GroupPartition((2, 2)), backbone_in_dim=7)
        assert model.input_dim == 7
        assert model.W.shape[0] == 5
        x = rng.standard_normal(7)
        phi = model.embed_features(x)
        assert phi.shape == (5,)
        assert np.all(phi >= 0.0)
        np.testing.assert_array_equal(model.backbone.forward(x), phi)
