"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import math
import time

import numpy as np
import pytest

from metricboost.boosting import boost_forward_pair, boost_step_triplet
from metricboost.cli import main
from metricboost.data_io import SynthSpec, synth_gaussian, split
from metricboost.diversity import RegressorBank, adversarial_loss
from metricboost.ensemble import GroupPartition, init_model, make_schedule
from metricboost.evaluate import evaluate_model, recall_at_k
from metricboost.gradcheck import central_diff, rel_error, run_suites
from metricboost.linalg import make_rng
from metricboost.losses import LossSpec, pair_loss
from metricboost.trainer import TrainConfig, build_model, init_solver, run
from oracles import brute_force_recall


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} {name}" + (f" ({detail})" if detail else ""))
    return ok


# --- shared desk-scale benchmark (criteria 8 and 9) -------------------------

BENCH_SEEDS = (0, 1, 2, 3, 4)


@pytest.fixture(scope="module")
def benchmark_runs():
    """20 train / 20 disjoint test classes, h=64, d=32, M=3, binomial
    deviance, 5k iterations; three variants per seed."""
    data = synth_gaussian(SynthSpec(
        classes=40, per_class=10, feature_dim=64,
        cluster_spread=10.0, noise=1.2, seed=7,
    ))
    train, test = split(data, 0.5, disjoint_classes=True, seed=7)
    assert train.n_classes == 20 and test.n_classes == 20
    base = dict(embedding_dim=32, num_groups=3, iterations=5000, lr=1e-3,
                batch_classes=4, samples_per_class=4)
    t0 = time.perf_counter()
    results = {}
    for seed in BENCH_SEEDS:
        boosted = run(TrainConfig(seed=seed, **base), train)
        plain = run(TrainConfig(seed=seed, use_boosting=False, **base), train)
        adv = run(TrainConfig(seed=seed, diversity="adversarial",
                              regressor_hidden=256, **base), train)
        results[seed] = {
            "boosted": evaluate_model(boosted.model, test),
            "plain": evaluate_model(plain.model, test),
            "adversarial": evaluate_model(adv.model, test),
        }
    elapsed = time.perf_counter() - t0
    return results, elapsed


class TestCriterion1GradientFidelity:
    def test_all_gradients_match_finite_differences(self):
        t0 = time.perf_counter()
        results = run_suites(seed=0)
        elapsed = time.perf_counter() - t0
        worst = max(r.worst_rel for r in results if r.tol == 1e-5)
        all_pass = all(r.passed for r in results)
        cli_ok = main(["gradcheck"]) == 0
        ok = all_pass and cli_ok and elapsed < 60.0
        assert _report(1, "gradient fidelity",
                       ok, f"worst_rel={worst:.2e}, {elapsed:.1f}s, gradcheck exit 0")


class TestCriterion2BoostingIdentity:
    def test_accumulation_equals_alpha_weighted_sum(self):
        rng = make_rng(123)
        worst = 0.0
        alpha_worst = 0.0
        for M in range(1, 17):
            sched = make_schedule(M)
            alpha = np.array(sched.alpha)
            alpha_worst = max(alpha_worst, abs(float(alpha.sum()) - 1.0))
            scores = rng.uniform(-1, 1, size=(1000, M))
            acc = boost_forward_pair(sched, scores)
            worst = max(worst, float(np.max(np.abs(acc[:, -1] - scores @ alpha))))
            # Triplet dual accumulators obey the same identity.
            spec = LossSpec(kind="triplet")
            sp = rng.uniform(-1, 1, size=(100, M))
            sn = rng.uniform(-1, 1, size=(100, M))
            trace = boost_step_triplet(spec, sched, sp, sn)
            worst = max(worst, float(np.max(np.abs(trace.acc_pos[:, -1] - sp @ alpha))))
            worst = max(worst, float(np.max(np.abs(trace.acc_neg[:, -1] - sn @ alpha))))
        ok = worst < 1e-12 and alpha_worst < 1e-12
        assert _report(2, "boosting identity",
                       ok, f"max dev={worst:.2e}, sum(alpha)-1={alpha_worst:.2e}")


class TestCriterion3ReductionEquivalence:
    def test_single_learner_matches_unpartitioned_baseline(self, tmp_path):
        data = synth_gaussian(SynthSpec(classes=10, per_class=8, feature_dim=16,
                                        cluster_spread=10.0, noise=1.2, seed=3))
        base = dict(embedding_dim=12, num_groups=1, iterations=500, lr=1e-3,
                    batch_classes=4, samples_per_class=4, seed=9,
                    eval_interval=100)
        boosted = run(TrainConfig(use_boosting=True, **base), data,
                      metrics_path=tmp_path / "boosted.csv")
        plain = run(TrainConfig(use_boosting=False, **base), data,
                    metrics_path=tmp_path / "plain.csv")
        w_equal = np.array_equal(boosted.model.W, plain.model.W)
        csv_equal = (tmp_path / "boosted.csv").read_text() == (tmp_path / "plain.csv").read_text()
        ok = w_equal and csv_equal
        assert _report(3, "reduction equivalence",
                       ok, "500 iterations, W and metrics bit-identical")


class TestCriterion4ReversalSignContract:
    def test_embedding_gradient_matches_central_difference(self):
        """The embedding descends +d(sim_term)/dW, the sign-flipped gradient of
        the loss's -sim_term; a flip on either path reads about 2."""
        rng = make_rng(77)
        worst = 0.0
        for _ in range(20):
            model = init_model(rng, 8, GroupPartition((2, 3, 2)))
            bank = RegressorBank.create(rng, model.partition, hidden=6)
            X = rng.standard_normal((5, 8))
            res = adversarial_loss(model, bank, X, lambda_w=0.7)
            fd = central_diff(
                lambda _: adversarial_loss(model, bank, X, lambda_w=0.7).sim_term, model.W)
            worst = max(worst, rel_error(res.grad_W_sim, fd))
        ok = worst < 1e-5
        assert _report(4, "gradient reversal sign contract", ok, f"worst rel={worst:.2e}")


class TestCriterion5PaperPresets:
    ROWS = {
        (512, 2): "170 342",
        (512, 3): "96 160 256",
        (512, 4): "52 102 152 204",
        (512, 5): "34 68 102 138 170",
        (1024, 3): "170 342 512",
        (1024, 4): "102 204 308 410",
        (1024, 5): "68 136 204 274 342",
        (1024, 6): "50 96 148 196 242 292",
        (1024, 7): "36 74 110 148 182 218 256",
    }

    def test_partition_preset_reproduces_every_row(self, capsys):
        ok = True
        for (d, m), expected in self.ROWS.items():
            code = main(["partition", "--d", str(d), "--m", str(m), "--preset"])
            out = capsys.readouterr().out.strip()
            ok &= code == 0 and out == expected
        with capsys.disabled():
            assert _report(5, "paper presets", ok, f"{len(self.ROWS)} rows exact")


class TestCriterion6RecallOracle:
    def test_matches_brute_force_exactly(self):
        ok = True
        for seed in range(20):
            rng = make_rng(seed)
            emb = rng.standard_normal((200, 16))
            labels = rng.integers(0, 10, size=200)
            got = recall_at_k(emb, labels, [1, 2, 4, 8])
            for k in (1, 2, 4, 8):
                ok &= got[k] == brute_force_recall(emb, labels, k)
        assert _report(6, "recall oracle", ok, "200 samples x 20 seeds, exact")


class TestCriterion7InitializationPostCondition:
    def test_norm_band_and_suppression_reduction(self):
        data = synth_gaussian(SynthSpec(classes=10, per_class=20, feature_dim=64,
                                        cluster_spread=1.0, noise=0.1, seed=0))
        cfg = TrainConfig(embedding_dim=32, num_groups=3, seed=0)
        model, _ = build_model(cfg, data.feature_dim, make_rng(0))
        t0 = time.perf_counter()
        res = init_solver(data.features, model, "activation", lambda_w=100.0,
                          lr=1e-3, max_iterations=20000)
        elapsed = time.perf_counter() - t0
        col_sq = np.sum(model.W * model.W, axis=0)
        band = bool(np.all(np.abs(col_sq - 1.0) <= 1e-3))
        reduction = 1.0 - res.final_div_term / res.initial_div_term
        ok = band and reduction >= 0.90 and elapsed < 120.0
        assert _report(
            7, "initialization post-condition", ok,
            f"norms in 1+/-1e-3: {band}, suppression -{reduction:.1%}, {elapsed:.0f}s",
        )


class TestCriterion8DeskScaleTrend:
    def test_boosting_decorrelates_and_ensemble_beats_learners(self, benchmark_runs):
        results, elapsed = benchmark_runs
        corr_wins = 0
        recall_wins = 0
        for seed in BENCH_SEEDS:
            boosted = results[seed]["boosted"]
            plain = results[seed]["plain"]
            corr_wins += boosted.feature_corr < plain.feature_corr
            recall_wins += boosted.recall_at[1] >= max(boosted.per_learner_r1)
        ok = corr_wins >= 4 and recall_wins >= 4 and elapsed < 600.0
        assert _report(
            8, "desk-scale trend (boosting)", ok,
            f"corr {corr_wins}/5, ensemble recall {recall_wins}/5, {elapsed:.0f}s",
        )


class TestCriterion9AdversarialTrend:
    def test_auxiliary_loss_reduces_classifier_correlation(self, benchmark_runs):
        results, _ = benchmark_runs
        wins = 0
        for seed in BENCH_SEEDS:
            adv = results[seed]["adversarial"]
            boosted = results[seed]["boosted"]
            wins += adv.clf_corr <= boosted.clf_corr
        ok = wins >= 4
        assert _report(9, "desk-scale trend (adversarial)", ok, f"clf corr {wins}/5")


class TestCriterion10LossConstants:
    def test_defaults_and_spot_value(self):
        spec = LossSpec()
        defaults_ok = (
            spec.beta1 == 2.0
            and spec.beta2 == 0.5
            and spec.margin_contrastive == 0.5
            and spec.margin_triplet == 0.01
            and spec.cost_pos == 1.0
            and spec.cost_neg == 25.0
        )
        loss, _ = pair_loss(spec, 0.5, 1)
        spot_ok = abs(loss - math.log(2.0)) < 1e-12
        ok = defaults_ok and spot_ok
        assert _report(10, "loss-constant conformance", ok,
                       "beta1=2 beta2=0.5 m_c=0.5 m_t=0.01 C=(1,25), loss(0.5,1)=ln2")
