import math
import tracemalloc

import numpy as np
import pytest

from metricboost.boosting import (
    GradResult,
    PairBatch,
    TripletBatch,
    accumulate_plain_gradient,
    accumulate_W_gradient,
    boost_backward_pair,
    boost_forward_pair,
    boost_step_triplet,
)
from metricboost.data_io import SynthSpec, synth_gaussian
from metricboost.ensemble import (
    Backbone,
    EnsembleModel,
    GroupPartition,
    init_model,
    make_schedule,
)
from metricboost.errors import InvalidArgument, NumericFailure
from metricboost.linalg import make_rng
from metricboost.losses import LossSpec, pair_loss
from metricboost.trainer import sample_batch
from oracles import per_learner_pair_trace, per_learner_triplet_trace, per_pair_gradient


class TestBatches:
    def test_pair_batch_distinct(self):
        with pytest.raises(InvalidArgument):
            PairBatch([0, 3], [1, 3], [0, 1])

    def test_pair_label_checked_by_loss(self):
        rng = make_rng(49)
        model = _random_model(rng)
        X = rng.standard_normal((3, 6))
        with pytest.raises(InvalidArgument, match="labels"):
            accumulate_W_gradient(model, X, PairBatch([0], [1], [2]), LossSpec())

    def test_triplet_batch_distinct(self):
        for bad in (([0], [0], [1]), ([0], [1], [0]), ([0], [1], [1])):
            with pytest.raises(InvalidArgument):
                TripletBatch(*bad)

    def test_batch_from_arrays(self):
        batch = PairBatch([0, 1], [1, 2], [1, 0])
        assert len(batch) == 2
        assert batch.index_a.dtype == np.intp and batch.y.dtype == np.int64
        np.testing.assert_array_equal(batch.y, [1, 0])


class TestForward:
    def test_single_learner_passthrough(self):
        acc = boost_forward_pair(make_schedule(1), [0.7])
        np.testing.assert_allclose(acc, [0.7])

    def test_all_ones_fixed_point(self):
        acc = boost_forward_pair(make_schedule(5), np.ones(5))
        np.testing.assert_allclose(acc, np.ones(5), atol=1e-15)

    def test_three_learner_value(self):
        acc = boost_forward_pair(make_schedule(3), [0.9, 0.5, 0.1])
        # alpha-form oracle: 1/6*0.9 + 1/3*0.5 + 1/2*0.1
        assert acc[-1] == pytest.approx(0.9 / 6 + 0.5 / 3 + 0.1 / 2, abs=1e-12)

    def test_accumulation_equals_alpha_sum(self):
        # The recurrence telescopes to sum_m alpha_m s_m at every M.
        rng = make_rng(42)
        for M in range(1, 17):
            sched = make_schedule(M)
            alpha = np.array(sched.alpha)
            scores = rng.uniform(-1, 1, size=(1000, M))
            acc = boost_forward_pair(sched, scores)
            direct = scores @ alpha
            assert np.max(np.abs(acc[:, -1] - direct)) < 1e-12

    def test_accumulations_stay_in_range(self):
        rng = make_rng(43)
        sched = make_schedule(6)
        scores = rng.uniform(-1, 1, size=(200, 6))
        acc = boost_forward_pair(sched, scores)
        assert np.all(acc >= -1.0 - 1e-12) and np.all(acc <= 1.0 + 1e-12)


class TestBackwardPair:
    def test_single_learner_reduces_to_plain_loss(self):
        spec = LossSpec()
        trace = boost_backward_pair(spec, make_schedule(1), [0.3], 1)
        loss, dloss = pair_loss(spec, 0.3, 1)
        assert trace.weights[0] == 1.0
        assert trace.losses[0] == pytest.approx(loss)
        assert trace.weighted_dloss[0] == pytest.approx(dloss)

    def test_weight_after_first_stage(self):
        # s^1 = s_1; w^2 = |dloss/ds| at s^1 = 0.5: y=1 -> 1.0, and y=0 -> 25.0,
        # the magnitude of a negative pair's positive derivative.
        spec = LossSpec()
        trace = boost_backward_pair(spec, make_schedule(2), [0.5, 0.0], 1)
        assert trace.weights[1] == pytest.approx(1.0, abs=1e-12)
        trace = boost_backward_pair(spec, make_schedule(2), [0.5, 0.0], 0)
        assert trace.weights[1] == pytest.approx(25.0)

    def test_all_perfect_batch_weight(self):
        # s^m = 1 for every stage; w^{m+1} = 2 * sigmoid(-1), oracle-checked
        # in test_losses (finite differences of the loss at s=1).
        spec = LossSpec()
        trace = boost_backward_pair(spec, make_schedule(3), np.ones(3), 1)
        expected = 2.0 / (1.0 + math.e)
        np.testing.assert_allclose(trace.weights[1:], expected, atol=1e-12)

    def test_weight_monotone_decreasing_in_score(self):
        # For y=1 binomial deviance, harder pairs (lower s^m) weigh more.
        spec = LossSpec()
        grid = np.linspace(-1, 1, 500)
        w = np.array([
            boost_backward_pair(spec, make_schedule(2), [s, 0.0], 1).weights[1]
            for s in grid
        ])
        assert np.all(np.diff(w) < 0.0)


class TestTripletStep:
    def test_margin_satisfied_zero_weights(self):
        spec = LossSpec(kind="triplet")
        trace = boost_step_triplet(spec, make_schedule(3), [0.9, 0.9, 0.9], [0.1, 0.1, 0.1])
        np.testing.assert_array_equal(trace.weights[1:], [0.0, 0.0])
        np.testing.assert_array_equal(trace.losses, np.zeros(3))

    def test_violated_margin_weight_one(self):
        spec = LossSpec(kind="triplet")
        trace = boost_step_triplet(spec, make_schedule(2), [0.1, 0.5], [0.9, 0.5])
        assert trace.weights[1] == 1.0

    def test_dual_accumulators_match_alpha_sums(self):
        rng = make_rng(44)
        spec = LossSpec(kind="triplet")
        sched = make_schedule(3)
        alpha = np.array(sched.alpha)
        sp = rng.uniform(-1, 1, size=3)
        sn = rng.uniform(-1, 1, size=3)
        trace = boost_step_triplet(spec, sched, sp, sn)
        assert abs(trace.acc_pos[-1] - sp @ alpha) < 1e-12
        assert abs(trace.acc_neg[-1] - sn @ alpha) < 1e-12

    def test_needs_triplet_spec(self):
        with pytest.raises(InvalidArgument):
            boost_step_triplet(LossSpec(), make_schedule(2), [0.1, 0.1], [0.2, 0.2])


def _scores(rng, n, M):
    """(n, M) cosine-like scores, with exact margins and ties mixed in."""
    s = rng.uniform(-1.0, 1.0, size=(n, M))
    s[rng.random((n, M)) < 0.1] = 0.5
    s[rng.random((n, M)) < 0.05] = 1.0
    return s


def _same_bytes(got, want):
    return len(got) == len(want) and all(
        g.shape == w.shape and g.tobytes() == w.tobytes() for g, w in zip(got, want))


class TestTraceMatchesPerLearnerOracle:
    """The whole-array traces against one loss and weight call per learner."""

    @pytest.mark.parametrize("M", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("kind", ["binomial_deviance", "contrastive"])
    @pytest.mark.parametrize("all_negative", [False, True])
    def test_pairs(self, M, kind, all_negative):
        rng = make_rng(100 + M)
        spec, sched = LossSpec(kind=kind), make_schedule(M)
        for n in (1, 7, 64):
            scores, y = _scores(rng, n, M), rng.integers(0, 2, size=n)
            if all_negative:
                y[:] = 0
            t = boost_backward_pair(spec, sched, scores, y)
            want = per_learner_pair_trace(spec, sched, scores, y)
            assert _same_bytes((t.acc, t.weights, t.losses, t.weighted_dloss), want)
            assert np.all(t.weights >= 0.0)  # |dloss|, also for negative pairs

    @pytest.mark.parametrize("M", [1, 2, 3, 4, 5])
    def test_triplets(self, M):
        rng = make_rng(200 + M)
        spec, sched = LossSpec(kind="triplet"), make_schedule(M)
        for n in (1, 7, 64):
            sp, sn = _scores(rng, n, M), _scores(rng, n, M)
            t = boost_step_triplet(spec, sched, sp, sn)
            want = per_learner_triplet_trace(spec, sched, sp, sn)
            got = (t.acc_pos, t.acc_neg, t.weights, t.losses, t.weighted_dpos, t.weighted_dneg)
            assert _same_bytes(got, want)

    def test_one_loss_and_one_weight_call(self, monkeypatch):
        import metricboost.boosting as boosting
        calls = []
        for name in ("pair_loss_vec", "triplet_loss_vec", "boosting_weight_vec"):
            fn = getattr(boosting, name)
            monkeypatch.setattr(boosting, name,
                                lambda *a, _fn=fn, _n=name, **k: calls.append(_n) or _fn(*a, **k))
        rng = make_rng(3)
        boost_backward_pair(LossSpec(), make_schedule(4), _scores(rng, 9, 4),
                            rng.integers(0, 2, size=9))
        boost_step_triplet(LossSpec(kind="triplet"), make_schedule(4),
                           _scores(rng, 9, 4), _scores(rng, 9, 4))
        assert calls == ["boosting_weight_vec", "pair_loss_vec",
                         "boosting_weight_vec", "triplet_loss_vec"]


def _random_model(rng, h=6, sizes=(2, 2, 2), backbone=False):
    part = GroupPartition(sizes)
    return init_model(rng, h, part, backbone_in_dim=h + 1 if backbone else None)


class TestAccumulateGradient:
    def test_empty_batch_zero_gradient(self):
        rng = make_rng(50)
        model = _random_model(rng)
        X = rng.standard_normal((4, 6))
        batch = PairBatch(np.array([], dtype=int), np.array([], dtype=int), np.array([], dtype=int))
        res = accumulate_W_gradient(model, X, batch, LossSpec())
        assert np.all(res.grad_W == 0.0)
        assert res.n_used == 0

    def test_single_group_matches_plain_route(self):
        rng = make_rng(51)
        model = _random_model(rng, sizes=(6,))
        X = rng.standard_normal((6, 6))
        batch = PairBatch(np.array([0, 2, 4]), np.array([1, 3, 5]), np.array([1, 0, 1]))
        boosted = accumulate_W_gradient(model, X, batch, LossSpec())
        plain = accumulate_plain_gradient(model, X, batch, LossSpec())
        np.testing.assert_array_equal(boosted.grad_W, plain.grad_W)
        assert boosted.loss == plain.loss

    def test_per_group_blocks_only_touched_by_own_losses(self):
        # Zeroing one group's scores cannot change other groups' gradients:
        # compare against a model whose other-group columns were perturbed.
        rng = make_rng(52)
        model = _random_model(rng, sizes=(3, 3))
        X = rng.standard_normal((4, 6))
        batch = PairBatch(np.array([0, 2]), np.array([1, 3]), np.array([1, 0]))
        res = accumulate_W_gradient(model, X, batch, LossSpec())
        # Gradient of group m only depends on W columns of group m.
        model2 = EnsembleModel(model.W.copy(), model.partition)
        model2.W[:, 3:] += 0.5  # perturb group 2 only
        res2 = accumulate_W_gradient(model2, X, batch, LossSpec())
        np.testing.assert_array_equal(res.grad_W[:, :3], res2.grad_W[:, :3])

    def test_degenerate_items_skipped(self):
        rng = make_rng(53)
        model = _random_model(rng, sizes=(3, 3))
        X = rng.standard_normal((4, 6))
        X[1] = 0.0  # zero feature row -> zero embedding in every group
        batch = PairBatch(np.array([0, 0]), np.array([1, 2]), np.array([1, 1]))
        res = accumulate_W_gradient(model, X, batch, LossSpec())
        assert res.n_skipped == 1
        assert res.n_used == 1
        assert np.all(np.isfinite(res.grad_W))

    def test_triplet_gradient_finite_difference(self):
        # Small dedicated FD check; the gradcheck suites cover this broadly.
        from metricboost.gradcheck import check_boosted_gradient

        results = check_boosted_gradient(seed=7, n=5)
        for r in results:
            assert r.worst_rel < 1e-5, r

    def test_backbone_forward_runs_once(self, monkeypatch):
        rng = make_rng(56)
        model = _random_model(rng, backbone=True)
        X = rng.standard_normal((4, 7))
        batch = PairBatch(np.array([0, 2]), np.array([1, 3]), np.array([1, 0]))
        calls = []
        real = Backbone.forward
        monkeypatch.setattr(Backbone, "forward",
                            lambda self, x: calls.append(1) or real(self, x))
        accumulate_W_gradient(model, X, batch, LossSpec())
        assert len(calls) == 1

    def test_trainable_backbone_checks_input_dim(self):
        rng = make_rng(57)
        model = _random_model(rng, backbone=True)
        batch = PairBatch(np.array([0]), np.array([1]), np.array([1]))
        with pytest.raises(InvalidArgument, match="model expects 7"):
            accumulate_W_gradient(model, rng.standard_normal((2, 6)), batch, LossSpec())

    def test_wrong_batch_type(self):
        rng = make_rng(55)
        model = _random_model(rng)
        X = rng.standard_normal((4, 6))
        with pytest.raises(InvalidArgument):
            accumulate_W_gradient(model, X, "nonsense", LossSpec())
        trip = TripletBatch(np.array([0]), np.array([1]), np.array([2]))
        with pytest.raises(InvalidArgument):
            accumulate_W_gradient(model, X, trip, LossSpec())  # pair spec


def _rel(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def _mined(mine, seed=60):
    """A P=4, K=3 batch mined from a synthetic set, with its feature rows."""
    fs = synth_gaussian(SynthSpec(classes=6, per_class=5, feature_dim=6,
                                  cluster_spread=3.0, noise=1.0, seed=seed))
    b = sample_batch(fs, 4, 3, make_rng(seed), mine=mine)
    return fs.features[b.indices], (b.pairs if mine == "pairs" else b.triplets)


def _one_group_zero_rows(rng):
    """Model and inputs where row 1 is zero in group 0 only, row 4 everywhere."""
    model = _random_model(rng, sizes=(2, 3, 2))
    model.W[0, :2] = 0.0
    X = rng.standard_normal((12, 6))
    X[1] = 0.0
    X[1, 0] = 1.0
    X[4] = 0.0
    return model, X


class TestGramKernelMatchesPerPairOracle:
    """The Gram-matrix kernel against the per-item rows + np.add.at oracle."""

    def _check(self, model, X, batch, spec):
        got = accumulate_W_gradient(model, X, batch, spec)
        want = per_pair_gradient(model, X, batch, spec)
        assert _rel(got.grad_W, want[0]) <= 1e-12
        if model.backbone is not None:
            assert _rel(got.grad_backbone.weight, want[1]) <= 1e-12
            assert _rel(got.grad_backbone.bias, want[2]) <= 1e-12
        else:
            assert got.grad_backbone is None and want[1] is None
        assert got.loss == pytest.approx(want[3], rel=1e-12, abs=0.0)
        assert (got.n_used, got.n_skipped) == want[4:]
        return got

    @pytest.mark.parametrize("kind", ["binomial_deviance", "contrastive"])
    def test_pair_losses(self, kind):
        X, pairs = _mined("pairs")
        model = _random_model(make_rng(61))
        self._check(model, X, pairs, LossSpec(kind=kind))

    def test_triplets(self):
        X, triplets = _mined("triplets")
        model = _random_model(make_rng(62))
        self._check(model, X, triplets, LossSpec(kind="triplet", margin_triplet=0.3))

    @pytest.mark.parametrize("mine", ["pairs", "triplets"])
    def test_trainable_backbone(self, mine):
        X, batch = _mined(mine)
        rng = make_rng(64)
        model = _random_model(rng, backbone=True)
        X = np.hstack([X, rng.standard_normal((len(X), 1))])
        spec = LossSpec(kind="triplet", margin_triplet=0.3) if mine == "triplets" else LossSpec()
        self._check(model, X, batch, spec)

    def test_zero_norm_rows_skipped(self):
        model, X = _one_group_zero_rows(make_rng(65))
        _, pairs = _mined("pairs")
        got = self._check(model, X, pairs, LossSpec())
        touched = np.isin(pairs.index_a, [1, 4]) | np.isin(pairs.index_b, [1, 4])
        assert got.n_skipped == int(touched.sum()) > 0

    def test_zero_norm_rows_skipped_in_triplets(self):
        model, X = _one_group_zero_rows(make_rng(66))
        _, triplets = _mined("triplets")
        got = self._check(model, X, triplets, LossSpec(kind="triplet", margin_triplet=0.3))
        assert got.n_skipped > 0

    def test_duplicate_pairs(self):
        rng = make_rng(67)
        model = _random_model(rng)
        X = rng.standard_normal((5, 6))
        batch = PairBatch([0, 0, 1, 2, 0, 3], [1, 1, 0, 4, 1, 4], [1, 1, 1, 0, 1, 0])
        self._check(model, X, batch, LossSpec())
        trip = TripletBatch([0, 0, 1], [1, 1, 0], [2, 2, 2])
        self._check(model, X, trip, LossSpec(kind="triplet", margin_triplet=0.5))

    def test_subsampled_batch(self):
        # A partial pair list: 20 of the batch's 66 pairs, positives and
        # negatives mixed.
        X, pairs = _mined("pairs")
        pick = np.sort(make_rng(68).choice(len(pairs), size=20, replace=False))
        part = PairBatch(pairs.index_a[pick], pairs.index_b[pick], pairs.y[pick])
        assert 0 < part.y.sum() < 20
        model = _random_model(make_rng(68))
        self._check(model, X, part, LossSpec())

    def test_plain_route_is_one_group_view(self):
        X, pairs = _mined("pairs")
        model = _random_model(make_rng(69), backbone=True)
        X = np.hstack([X, np.ones((len(X), 1))])
        whole = EnsembleModel(model.W, GroupPartition((6,)), backbone=model.backbone)
        plain = accumulate_plain_gradient(model, X, pairs, LossSpec())
        want = per_pair_gradient(whole, X, pairs, LossSpec())
        assert _rel(plain.grad_W, want[0]) <= 1e-12
        assert _rel(plain.grad_backbone.weight, want[1]) <= 1e-12
        assert plain.loss == pytest.approx(want[3], rel=1e-12, abs=0.0)


class TestKernelFailures:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_norm_raises(self):
        # Finite entries whose squared sum overflows: normalizing would turn
        # the row into a finite zero and hide the divergence.
        rng = make_rng(70)
        model = _random_model(rng, sizes=(2, 2, 2))
        model.W[:, 2:4] *= 1e200
        X = rng.standard_normal((4, 6))
        batch = PairBatch([0, 2], [1, 3], [1, 0])
        with pytest.raises(NumericFailure, match="non-finite embedding norm in group 1"):
            accumulate_W_gradient(model, X, batch, LossSpec())
        with pytest.raises(NumericFailure, match="non-finite embedding norm in group 0"):
            accumulate_plain_gradient(model, X, batch, LossSpec())

    def test_nan_input_raises(self):
        rng = make_rng(71)
        model = _random_model(rng)
        X = rng.standard_normal((4, 6))
        X[3, 5] = np.nan
        with pytest.raises(NumericFailure, match="non-finite embedding norm"):
            accumulate_W_gradient(model, X, PairBatch([0], [1], [1]), LossSpec())


class TestKernelMemory:
    def test_paper_scale_peak_below_64_mb(self):
        # h=d=512, preset (96, 160, 256), P=K=16: n=256 rows, 32640 pairs.
        # Per-pair gradient rows would need about 650 MB here.
        rng = make_rng(72)
        model = init_model(rng, 512, GroupPartition((96, 160, 256)))
        labels = np.repeat(np.arange(16), 16)
        iu, ju = np.triu_indices(256, k=1)
        batch = PairBatch(iu, ju, (labels[iu] == labels[ju]).astype(np.int64))
        X = rng.standard_normal((256, 512))
        tracemalloc.start()
        try:
            res = accumulate_W_gradient(model, X, batch, LossSpec())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.n_used == 32640
        assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MB"
