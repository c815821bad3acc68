import copy
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from metricboost import diversity, trainer
from metricboost.boosting import accumulate_plain_gradient, accumulate_W_gradient
from metricboost.checkpoint import load_checkpoint, save_checkpoint
from metricboost.data_io import SynthSpec, synth_gaussian
from metricboost.diversity import RegressorBank, activation_loss, adversarial_loss
from metricboost.ensemble import init_model
from metricboost.errors import InvalidArgument, NumericFailure
from metricboost.linalg import make_rng
from metricboost.optim import Optimizer
from metricboost.trainer import (
    TrainConfig,
    build_model,
    init_solver,
    run,
    sample_batch,
    train_step,
)

from oracles import full_call_activation_init, label_lookup_sample_batch, scaled_mix_train_step

DATA_DIR = Path(__file__).parent / "data"


def _toy_set(seed=7, classes=6, per_class=6, h=12, spread=8.0, noise=1.0):
    return synth_gaussian(SynthSpec(
        classes=classes, per_class=per_class, feature_dim=h,
        cluster_spread=spread, noise=noise, seed=seed,
    ))


class TestConfig:
    def test_validation(self):
        with pytest.raises(InvalidArgument):
            TrainConfig(batch_classes=1)
        with pytest.raises(InvalidArgument):
            TrainConfig(samples_per_class=1)
        with pytest.raises(InvalidArgument):
            TrainConfig(diversity="both")
        with pytest.raises(InvalidArgument):
            TrainConfig(lambda_div=-1.0)

    def test_lambda_defaults_by_kind(self):
        assert TrainConfig(diversity="none").resolved_lambda_div() == 0.0
        assert TrainConfig(diversity="activation").resolved_lambda_div() == 1e-2
        assert TrainConfig(diversity="adversarial").resolved_lambda_div() == 1e-3
        assert TrainConfig(diversity="activation", lambda_div=0.5).resolved_lambda_div() == 0.5

    def test_partition_resolution(self):
        assert TrainConfig(embedding_dim=512, num_groups=3).resolve_partition().sizes == (85, 170, 257)
        assert TrainConfig(embedding_dim=512, num_groups=3, partition="preset").resolve_partition().sizes == (96, 160, 256)
        assert TrainConfig(group_sizes=(4, 4)).resolve_partition().sizes == (4, 4)
        with pytest.raises(InvalidArgument):
            TrainConfig(embedding_dim=100, num_groups=3, partition="preset").resolve_partition()
        with pytest.raises(InvalidArgument):
            TrainConfig(partition="explicit").resolve_partition()


class TestSampleBatch:
    def test_pair_counts(self):
        fs = _toy_set(classes=2, per_class=4)
        batch = sample_batch(fs, 2, 2, make_rng(0))
        y = batch.pairs.y
        assert (y == 1).sum() == 2  # C(2,2) per class x 2 classes
        assert (y == 0).sum() == 4  # 2 x 2 cross-class

    def test_single_class_rejected(self):
        fs = _toy_set(classes=2, per_class=4)
        # Carve a single-class subset.
        from metricboost.data_io import FeatureSet

        mask = fs.labels == 0
        solo = FeatureSet(labels=np.zeros(mask.sum(), dtype=np.uint32),
                          features=fs.features[mask], n_classes=1)
        with pytest.raises(InvalidArgument):
            sample_batch(solo, 2, 2, make_rng(0))

    def test_deterministic_composition(self):
        fs = _toy_set()
        a = sample_batch(fs, 3, 3, make_rng(5))
        b = sample_batch(fs, 3, 3, make_rng(5))
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.pairs.index_a, b.pairs.index_a)
        np.testing.assert_array_equal(a.pairs.y, b.pairs.y)

    def test_small_class_sampled_with_replacement(self):
        fs = _toy_set(classes=3, per_class=2)
        batch = sample_batch(fs, 3, 4, make_rng(1))
        assert len(batch.indices) == 12  # classes of size 2 upsampled to 4

    def test_triplet_mining(self):
        fs = _toy_set(classes=3, per_class=3)
        batch = sample_batch(fs, 3, 3, make_rng(3), mine="triplets")
        t = batch.triplets
        assert len(t) == 3 * 3  # C(3,2) positive pairs per class x 3 classes
        labels = batch.labels
        assert np.all(labels[t.anchor] == labels[t.positive])
        assert np.all(labels[t.anchor] != labels[t.negative])

    def test_too_many_classes_requested(self):
        fs = _toy_set(classes=3, per_class=3)
        with pytest.raises(InvalidArgument):
            sample_batch(fs, 5, 2, make_rng(0))

    @pytest.mark.parametrize("P,K", [(2, 2), (3, 3), (4, 4), (8, 8), (5, 2), (2, 7)])
    def test_matches_label_lookup_sampler(self, P, K):
        # Classes of 5 rows: K > 5 draws with replacement, K <= 5 without.
        fs = _toy_set(classes=10, per_class=5)

        def arrays(batch):
            mined = batch.pairs if batch.pairs is not None else batch.triplets
            return [batch.indices, batch.labels, *vars(mined).values()]

        for seed in range(200):
            for mine in ("pairs", "triplets"):
                got = sample_batch(fs, P, K, make_rng(seed), mine=mine)
                want = label_lookup_sample_batch(fs, P, K, make_rng(seed), mine=mine)
                for a, b in zip(arrays(got), arrays(want), strict=True):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestTrainStep:
    def test_lambda_zero_matches_pure_run(self):
        fs = _toy_set()
        base = dict(embedding_dim=8, num_groups=2, iterations=60, lr=1e-3,
                    batch_classes=3, samples_per_class=3, seed=4, regressor_hidden=6)
        pure = run(TrainConfig(diversity="none", **base), fs)
        act0 = run(TrainConfig(diversity="activation", lambda_div=0.0, **base), fs)
        adv0 = run(TrainConfig(diversity="adversarial", lambda_div=0.0, **base), fs)
        np.testing.assert_array_equal(pure.model.W, act0.model.W)
        np.testing.assert_array_equal(pure.model.W, adv0.model.W)

    def test_diversity_never_touches_backbone(self):
        # Within one step, the backbone update must be identical whether or
        # not the regularizer is on (its gradient reaches W only); W differs.
        fs = _toy_set()
        base = dict(embedding_dim=8, num_groups=2, iterations=1, lr=1e-3,
                    batch_classes=3, samples_per_class=3, seed=4,
                    use_backbone=True)
        for kind, extra in (("activation", {}), ("adversarial", {"regressor_hidden": 6})):
            plain_cfg = TrainConfig(diversity="none", **base)
            reg_cfg = TrainConfig(diversity=kind, lambda_div=5.0, **base, **extra)
            plain = run(plain_cfg, fs)
            reg = run(reg_cfg, fs)
            np.testing.assert_array_equal(
                plain.model.backbone.weight, reg.model.backbone.weight
            )
            np.testing.assert_array_equal(
                plain.model.backbone.bias, reg.model.backbone.bias
            )
            assert not np.array_equal(plain.model.W, reg.model.W)

    @pytest.mark.parametrize("use_boosting", [True, False])
    def test_fully_skipped_batch_with_backbone(self, use_boosting):
        # Every backbone activation is 0, so every pair is skipped; the step
        # still hands the optimizer a zero gradient for each trained array.
        fs = _toy_set()
        cfg = TrainConfig(embedding_dim=8, num_groups=2, batch_classes=3,
                          samples_per_class=3, use_backbone=True, use_boosting=use_boosting)
        rng = make_rng(0)
        model, bank = build_model(cfg, fs.feature_dim, rng)
        model.backbone.bias[:] = -1e6
        batch = sample_batch(fs, 3, 3, rng)
        opt = Optimizer(kind="sgd_momentum", lr=1e-3)
        before = trainer._trained_arrays(model.W.copy(), copy.deepcopy(model.backbone))
        step = train_step(cfg, model, bank, opt, fs.features[batch.indices], batch)
        assert step.n_used == 0 and step.n_skipped == len(batch.pairs)
        assert opt.layout == [(12, 8), (12, 12), (12,)]
        for got, want in zip(trainer._trained_arrays(model.W, model.backbone), before):
            np.testing.assert_array_equal(got, want)

    def test_one_step_descends_metric_loss(self):
        fs = _toy_set(classes=2, per_class=6, noise=0.8)
        cfg = TrainConfig(embedding_dim=8, num_groups=2, lr=1e-3, iterations=1,
                          batch_classes=2, samples_per_class=4, seed=0)
        rng = make_rng(cfg.seed)
        model, bank = build_model(cfg, fs.feature_dim, rng)
        opt = Optimizer(kind="adam", lr=cfg.lr)
        batch = sample_batch(fs, 2, 4, rng)
        X = fs.features[batch.indices]
        from metricboost.boosting import accumulate_W_gradient

        before = accumulate_W_gradient(model, X, batch.pairs, cfg.loss_spec()).loss
        train_step(cfg, model, bank, opt, X, batch)
        after = accumulate_W_gradient(model, X, batch.pairs, cfg.loss_spec()).loss
        assert after < before

    def test_adversarial_step_moves_bank_by_scaled_gradient(self):
        # First SGD step: each regressor array moves by -lr * lambda_div * grad.
        fs = _toy_set()
        cfg = TrainConfig(embedding_dim=8, num_groups=3, lr=1e-2, iterations=1,
                          batch_classes=3, samples_per_class=3, seed=1,
                          optimizer="sgd_momentum", diversity="adversarial",
                          lambda_div=0.5, regressor_hidden=4)
        rng = make_rng(cfg.seed)
        model, bank = build_model(cfg, fs.feature_dim, rng)
        batch = sample_batch(fs, 3, 3, rng)
        X = fs.features[batch.indices]
        grads = adversarial_loss(model, bank, X, cfg.lambda_w).regressor_grads
        before = copy.deepcopy(bank)
        opt = Optimizer(kind="sgd_momentum", lr=cfg.lr)
        train_step(cfg, model, bank, opt, X, batch)
        for key in bank.keys():
            for part in ("W1", "b1", "W2", "b2"):
                want = getattr(before[key], part) - cfg.lr * (0.5 * getattr(grads[key], part))
                np.testing.assert_array_equal(getattr(bank[key], part), want)

    @pytest.mark.parametrize("kind", ["activation", "adversarial"])
    def test_steps_match_scaled_mix_oracle(self, kind):
        # lambda_div scales the diversity gradients in place: W, the bank and
        # Adam's moments keep the bits they had when it made new arrays.
        fs = _toy_set()
        cfg = TrainConfig(embedding_dim=8, num_groups=3, lr=1e-2, batch_classes=3,
                          samples_per_class=3, seed=2, diversity=kind, lambda_div=0.3,
                          lambda_w=0.7, regressor_hidden=4)
        rng = make_rng(cfg.seed)
        model, bank = build_model(cfg, fs.feature_dim, rng)
        twin, twin_bank = model.copy(), copy.deepcopy(bank)
        opt, twin_opt = Optimizer(lr=cfg.lr), Optimizer(lr=cfg.lr)
        for _ in range(4):
            batch = sample_batch(fs, 3, 3, rng)
            X = fs.features[batch.indices]
            train_step(cfg, model, bank, opt, X, batch)
            scaled_mix_train_step(cfg, twin, twin_bank, twin_opt, X, batch)
        assert model.W.tobytes() == twin.W.tobytes()
        for key in bank.keys() if bank is not None else ():
            for part in ("W1", "b1", "W2", "b2"):
                ours, theirs = getattr(bank[key], part), getattr(twin_bank[key], part)
                assert ours.tobytes() == theirs.tobytes()
        for name, moment in opt.buffers["flat"].items():
            assert moment.tobytes() == twin_opt.buffers["flat"][name].tobytes(), name

    def test_mismatched_mining_rejected(self):
        fs = _toy_set()
        cfg = TrainConfig(loss="triplet", iterations=1)
        rng = make_rng(0)
        model, bank = build_model(cfg, fs.feature_dim, rng)
        batch = sample_batch(fs, 2, 2, rng, mine="pairs")
        with pytest.raises(InvalidArgument):
            train_step(cfg, model, bank, Optimizer(), fs.features[batch.indices], batch)


class TestRun:
    def test_zero_iterations_returns_initial_model(self, tmp_path):
        fs = _toy_set()
        cfg = TrainConfig(embedding_dim=8, num_groups=2, iterations=0, seed=2)
        result = run(cfg, fs, metrics_path=tmp_path / "m.csv")
        rng = make_rng(2)
        fresh, _ = build_model(cfg, fs.feature_dim, rng)
        np.testing.assert_array_equal(result.model.W, fresh.W)
        assert result.metrics_rows == []
        # No step runs, so the file is written after the loop: header only.
        assert (tmp_path / "m.csv").read_text() == "iter,loss_metric,loss_div,r_at_1,feat_corr,clf_corr\n"

    def test_eval_features_of_another_width_are_refused(self, tmp_path):
        cfg = TrainConfig(embedding_dim=8, num_groups=2, iterations=5, eval_interval=5)
        with pytest.raises(InvalidArgument, match="^eval features have width 13, "
                                                  "the model takes width 12$"):
            run(cfg, _toy_set(), eval_fs=_toy_set(h=13), metrics_path=tmp_path / "m.csv")
        assert not (tmp_path / "m.csv").exists()

    def test_deterministic_metrics(self, tmp_path):
        fs = _toy_set()
        cfg = TrainConfig(embedding_dim=8, num_groups=2, iterations=100,
                          eval_interval=50, seed=3, batch_classes=3,
                          samples_per_class=3)
        a = run(cfg, fs, metrics_path=tmp_path / "a.csv")
        b = run(cfg, fs, metrics_path=tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_text() == (tmp_path / "b.csv").read_text()
        assert a.metrics_rows == b.metrics_rows
        assert len(a.metrics_rows) == 2

    def test_resume_bitwise(self, tmp_path):
        fs = _toy_set()
        base = dict(embedding_dim=8, num_groups=2, lr=1e-3, batch_classes=3,
                    samples_per_class=3, seed=6, diversity="adversarial",
                    regressor_hidden=6)
        full = run(TrainConfig(iterations=120, **base), fs)
        half = run(TrainConfig(iterations=60, **base), fs)
        path = tmp_path / "half.ckpt"
        save_checkpoint(path, half.model, iteration=half.iteration,
                        rng_state=half.rng.bit_generator.state,
                        optimizer=half.optimizer, bank=half.bank)
        resumed = run(TrainConfig(iterations=120, **base), fs,
                      resume=load_checkpoint(path))
        np.testing.assert_array_equal(full.model.W, resumed.model.W)
        np.testing.assert_array_equal(full.bank[(0, 1)].W2, resumed.bank[(0, 1)].W2)

    def test_triplet_training_runs(self):
        fs = _toy_set()
        cfg = TrainConfig(loss="triplet", embedding_dim=8, num_groups=2,
                          iterations=50, seed=1, batch_classes=3, samples_per_class=3)
        result = run(cfg, fs)
        assert np.all(np.isfinite(result.model.W))

    def test_separable_two_class_set_reaches_full_recall(self):
        # Separability witness: wide clusters, small noise, single learner.
        fs = synth_gaussian(SynthSpec(classes=2, per_class=8, feature_dim=16,
                                      cluster_spread=10.0, noise=0.2, seed=5))
        cfg = TrainConfig(embedding_dim=8, num_groups=1, iterations=300,
                          lr=1e-3, batch_classes=2, samples_per_class=4, seed=0)
        result = run(cfg, fs)
        from metricboost.evaluate import evaluate_model

        report = evaluate_model(result.model, fs, ks=(1,))
        assert report.recall_at[1] == 1.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numeric_failure_carries_iteration(self):
        fs = _toy_set()
        cfg = TrainConfig(embedding_dim=8, num_groups=2, iterations=10,
                          lr=1e200, seed=0, batch_classes=3, samples_per_class=3)
        with pytest.raises(NumericFailure, match="iteration"):
            run(cfg, fs)

    def test_golden_metrics_csv(self, tmp_path):
        # Frozen reference produced by this implementation once; any change
        # to sampling, arithmetic order, or formatting shows up here.
        fs = synth_gaussian(SynthSpec(classes=6, per_class=6, feature_dim=12,
                                      cluster_spread=8.0, noise=1.0, seed=7))
        cfg = TrainConfig(embedding_dim=8, num_groups=2, iterations=2000,
                          eval_interval=500, lr=1e-3, batch_classes=3,
                          samples_per_class=3, seed=11)
        run(cfg, fs, metrics_path=tmp_path / "run.csv")
        golden = (DATA_DIR / "golden_metrics.csv").read_text()
        assert (tmp_path / "run.csv").read_text() == golden


class TestInitSolver:
    def test_activation_drives_norms_into_band(self):
        fs = synth_gaussian(SynthSpec(classes=5, per_class=8, feature_dim=16,
                                      cluster_spread=1.0, noise=0.1, seed=0))
        cfg = TrainConfig(embedding_dim=8, num_groups=2, seed=0)
        model, _ = build_model(cfg, fs.feature_dim, make_rng(0))
        res = init_solver(fs.features, model, "activation", lambda_w=100.0,
                          lr=1e-3, max_iterations=4000)
        assert res.norms_in_band
        assert res.final_div_term < res.initial_div_term

    def test_witness_is_fixed_point(self):
        # Block-orthogonal activations with unit columns: zero loss, zero grad.
        W = np.zeros((8, 4))
        W[0, 0] = W[1, 1] = 1.0
        W[4, 2] = W[5, 3] = 1.0
        from metricboost.ensemble import EnsembleModel, GroupPartition

        model = EnsembleModel(W.copy(), GroupPartition((2, 2)))
        X = np.zeros((4, 8))
        X[0, 0] = 1.0
        X[1, 1] = 2.0
        X[2, 4] = 1.0
        X[3, 5] = 2.0
        res = init_solver(X, model, "activation", lambda_w=10.0, lr=1e-2,
                          max_iterations=500)
        assert res.final_loss == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(model.W, W, atol=1e-12)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_suppression_decreases_over_first_100_iterations(self):
        # The suppression component is not per-iteration monotone while the
        # weight penalty reshapes W, but it must come down decisively over
        # the first 100 iterations (random 64-dim feature set, seed 0).
        fs = synth_gaussian(SynthSpec(classes=8, per_class=8, feature_dim=64,
                                      cluster_spread=1.0, noise=0.1, seed=0))
        cfg = TrainConfig(embedding_dim=16, num_groups=2, seed=0)
        model, _ = build_model(cfg, fs.feature_dim, make_rng(0))
        from metricboost.diversity import activation_loss

        before = activation_loss(model, fs.features, 100.0).sup_term
        init_solver(fs.features, model, "activation", lambda_w=100.0, lr=1e-3,
                    max_iterations=100)
        after = activation_loss(model, fs.features, 100.0).sup_term
        assert after < 0.5 * before

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_adversarial_init_runs(self):
        fs = _toy_set(classes=4, per_class=4, h=10)
        cfg = TrainConfig(embedding_dim=6, num_groups=2, seed=1,
                          diversity="adversarial", regressor_hidden=5)
        rng = make_rng(1)
        model, bank = build_model(cfg, fs.feature_dim, rng)
        res = init_solver(fs.features, model, "adversarial", lambda_w=10.0,
                          lr=1e-4, max_iterations=200, bank=bank)
        assert np.isfinite(res.final_loss)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises(self):
        fs = _toy_set(classes=4, per_class=4, h=10)
        cfg = TrainConfig(embedding_dim=6, num_groups=2, seed=1)
        model, _ = build_model(cfg, fs.feature_dim, make_rng(1))
        with pytest.raises(NumericFailure):
            init_solver(fs.features, model, "activation", lambda_w=100.0,
                        lr=1e3, max_iterations=200)


# (lr, max_iterations, iterations run): the first run stops at
# max_iterations; in the second W cannot move, so the tolerance stops it
# after _INIT_TOL_WINDOW + 1 iterations.
_INIT_STOPS = [(1e-3, 30, 30), (1e-300, 150, 101)]


def _init_problem():
    """40 samples of 16 features and an 8-wide two-group model."""
    fs = synth_gaussian(SynthSpec(classes=5, per_class=8, feature_dim=16,
                                  cluster_spread=1.0, noise=0.1, seed=0))
    cfg = TrainConfig(embedding_dim=8, num_groups=2, seed=0, diversity="adversarial",
                      regressor_hidden=5)
    model, bank = build_model(cfg, fs.feature_dim, make_rng(0))
    return fs.features, model, bank


@pytest.mark.filterwarnings("ignore:init solver left")
class TestInitSolverWork:
    """The final term costs no gradient and no evaluation the loop already made."""

    @pytest.mark.parametrize("lr,max_iterations,runs", _INIT_STOPS)
    def test_activation_matches_full_call_oracle(self, lr, max_iterations, runs):
        X, model, _ = _init_problem()
        ref = model.copy()
        res = init_solver(X, model, "activation", lambda_w=100.0, lr=lr,
                          max_iterations=max_iterations)
        expect = full_call_activation_init(X, ref, 100.0, lr, max_iterations=max_iterations)
        assert expect[3] == res.iterations_run == runs
        assert repr((res.final_loss, res.initial_div_term, res.final_div_term)) == repr(
            expect[:3])
        assert model.W.tobytes() == ref.W.tobytes()

    @pytest.mark.parametrize("lr,max_iterations,runs", _INIT_STOPS)
    def test_activation_products(self, monkeypatch, lr, max_iterations, runs):
        X, model, _ = _init_problem()
        n, h = X.shape
        shapes = []
        real = diversity.matmul
        monkeypatch.setattr(diversity, "matmul",
                            lambda A, B: (shapes.append(A.shape), real(A, B))[1])
        res = init_solver(X, model, "activation", lambda_w=100.0, lr=lr,
                          max_iterations=max_iterations)
        assert res.iterations_run == runs
        assert shapes.count((h, n)) == runs  # phi.T @ dF
        assert shapes.count((n, h)) == runs + (runs == max_iterations)  # phi @ W
        assert len(shapes) == 2 * runs + (runs == max_iterations)

    @pytest.mark.parametrize("lr,max_iterations,runs", _INIT_STOPS)
    def test_adversarial_calls(self, monkeypatch, lr, max_iterations, runs):
        X, model, bank = _init_problem()
        calls = []
        real = trainer.adversarial_loss
        monkeypatch.setattr(trainer, "adversarial_loss",
                            lambda *a, **k: (calls.append(1), real(*a, **k))[1])
        res = init_solver(X, model, "adversarial", lambda_w=10.0, lr=lr,
                          max_iterations=max_iterations, bank=bank)
        assert res.iterations_run == runs
        assert len(calls) == runs + (runs == max_iterations)


def _paper_scale(seed=4):
    """128 samples of 512 features and a 512-wide, three-group model: under
    `across_workers`, the `linalg.matmul` products of a 64-sample batch split
    into halves."""
    fs = synth_gaussian(SynthSpec(classes=16, per_class=8, feature_dim=512,
                                  cluster_spread=10.0, noise=1.2, seed=seed))
    cfg = TrainConfig(embedding_dim=512, num_groups=3, partition="preset",
                      batch_classes=8, samples_per_class=8, seed=seed)
    return fs, cfg


def _same_across_workers(results):
    assert results[1] == results[0]


class TestSplitIsBitIdentical:
    """The worker count (1 or 2; see conftest) moves no float bit."""

    @pytest.mark.parametrize("route", ["boosted", "plain", "triplet", "backbone"])
    def test_gradients(self, across_workers, route):
        fs, cfg = _paper_scale()
        rng = make_rng(1)
        model, _ = build_model(cfg, fs.feature_dim, rng)
        if route == "backbone":
            model = init_model(rng, 512, model.partition, backbone_in_dim=512)
        sampled = sample_batch(fs, 8, 8, rng, mine="triplets" if route == "triplet" else "pairs")
        X = fs.features[sampled.indices]
        if route == "triplet":
            spec, batch = TrainConfig(loss="triplet").loss_spec(), sampled.triplets
        else:
            spec, batch = cfg.loss_spec(), sampled.pairs

        def grads():
            if route == "plain":
                res = accumulate_plain_gradient(model, X, batch, spec)
            else:
                res = accumulate_W_gradient(model, X, batch, spec)
            parts = [res.grad_W]
            if res.grad_backbone is not None:
                parts += [res.grad_backbone.weight, res.grad_backbone.bias]
            return repr(res.loss), [p.tobytes() for p in parts]

        _same_across_workers(across_workers(grads))

    def test_diversity_losses(self, across_workers):
        fs, cfg = _paper_scale()
        rng = make_rng(2)
        model, _ = build_model(cfg, fs.feature_dim, rng)
        bank = RegressorBank.create(rng, model.partition, hidden=64)
        X = fs.features[:64]

        def losses():
            act = activation_loss(model, X, 100.0)
            adv = adversarial_loss(model, bank, X, 100.0)
            reg = [getattr(adv.regressor_grads[key], name).tobytes()
                   for key in bank.keys() for name in ("W1", "b1", "W2", "b2")]
            return (repr((act.loss, act.sup_term, adv.loss, adv.sim_term)),
                    act.grad_W.tobytes(), adv.grad_W.tobytes(),
                    adv.grad_W_sim.tobytes(), reg)

        _same_across_workers(across_workers(losses))

    @pytest.mark.filterwarnings("ignore:init solver left")
    @pytest.mark.parametrize("kind", ["activation", "adversarial"])
    def test_init_solver(self, across_workers, kind):
        fs, cfg = _paper_scale()

        def init():
            rng = make_rng(3)
            model, _ = build_model(cfg, fs.feature_dim, rng)
            bank = RegressorBank.create(rng, model.partition, hidden=64)
            res = init_solver(fs.features, model, kind, lambda_w=1e4, lr=1e-6,
                              max_iterations=3, bank=bank)
            return repr((res.final_loss, res.final_div_term)), model.W.tobytes()

        _same_across_workers(across_workers(init))

    def test_run_metrics_csv(self, across_workers, tmp_path):
        fs, cfg = _paper_scale()
        cfg = replace(cfg, iterations=4, eval_interval=2, diversity="adversarial",
                      regressor_hidden=64)

        def csv():
            path = tmp_path / "m.csv"
            run(cfg, fs, metrics_path=path)
            return path.read_text()

        _same_across_workers(across_workers(csv))
