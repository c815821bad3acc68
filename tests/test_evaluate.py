import tracemalloc

import numpy as np
import pytest

from metricboost import evaluate
from metricboost.data_io import FeatureSet, SynthSpec, synth_gaussian
from metricboost.ensemble import EnsembleModel, GroupPartition, init_model, preset_partition
from metricboost.errors import InvalidArgument, UndefinedCorrelation
from metricboost.evaluate import (
    EvalReport,
    classifier_correlation,
    evaluate_model,
    feature_correlation,
    make_eval_pairs,
    per_learner_recall_at_1,
    recall_at_k,
)
from metricboost.linalg import make_rng
from oracles import (
    brute_force_recall,
    enumerated_eval_pairs,
    pearson_by_hand,
    per_group_recall_at_1,
    triu_feature_correlation,
)


class TestRecall:
    def test_two_samples_same_class(self):
        emb = np.array([[1.0, 0.0], [0.9, 0.1]])
        assert recall_at_k(emb, [0, 0], [1])[1] == 1.0

    def test_two_samples_different_class(self):
        emb = np.array([[1.0, 0.0], [0.9, 0.1]])
        assert recall_at_k(emb, [0, 1], [1])[1] == 0.0

    def test_k_at_least_n_rejected(self):
        emb = np.eye(3)
        with pytest.raises(InvalidArgument):
            recall_at_k(emb, [0, 1, 2], [3])

    def test_matches_brute_force(self):
        for seed in range(5):
            rng = make_rng(seed)
            emb = rng.standard_normal((60, 8))
            labels = rng.integers(0, 6, size=60)
            got = recall_at_k(emb, labels, [1, 2, 4, 8])
            for k in (1, 2, 4, 8):
                assert got[k] == pytest.approx(brute_force_recall(emb, labels, k))

    def test_tie_break_by_ascending_index(self):
        # Candidates 1 and 2 tie in similarity; the lower index must win.
        emb = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        labels = [0, 1, 0]
        # Query 0: candidates 1 and 2 both score 1.0 -> index 1 picked first.
        assert recall_at_k(emb, labels, [1])[1] == pytest.approx(1 / 3)

    def test_full_recall_at_n_minus_one(self):
        rng = make_rng(7)
        emb = rng.standard_normal((12, 4))
        labels = np.repeat(np.arange(4), 3)
        assert recall_at_k(emb, labels, [11])[11] == 1.0

    def test_permutation_invariance(self):
        rng = make_rng(8)
        emb = rng.standard_normal((40, 6))
        labels = rng.integers(0, 5, size=40)
        base = recall_at_k(emb, labels, [1, 3])
        perm = rng.permutation(40)
        shuffled = recall_at_k(emb[perm], labels[perm], [1, 3])
        assert base == shuffled


def _exact(emb, labels, ks):
    got = recall_at_k(emb, labels, ks)
    want = {k: brute_force_recall(emb, labels, k) for k in sorted(set(ks))}
    assert got == want
    # K = 1 alone takes the argmax path instead of the top-k ranking.
    want_1 = want[1] if 1 in want else brute_force_recall(emb, labels, 1)
    assert recall_at_k(emb, labels, [1]) == {1: want_1}


# The tie cases of TestBlockedRecall, as (embeddings, labels, ks). Sizes that
# follow the block size are read from evaluate._BLOCK when the case is built.
def _case_n_not_a_multiple_of_the_block():
    rng = make_rng(20)
    n = evaluate._BLOCK + 44
    return rng.standard_normal((n, 4)), rng.integers(0, 30, size=n), [1, 4, 8]


def _case_n_smaller_than_one_block():
    rng = make_rng(21)
    return rng.standard_normal((90, 3)), rng.integers(0, 9, size=90), [1, 2, 8]


def _case_kmax_is_n_minus_one():
    rng = make_rng(22)
    emb = rng.integers(-2, 3, size=(40, 2)).astype(float)
    return emb, rng.integers(0, 8, size=40), [1, 5, 39]


def _case_duplicate_rows():
    # Six distinct integer vectors, each repeated: every query has many
    # exact ties at its k-th score, in each block.
    rng = make_rng(23)
    base = rng.integers(-3, 4, size=(6, 3)).astype(float)
    emb = base[rng.integers(0, 6, size=100)]
    return emb, rng.integers(0, 10, size=100), [1, 2, 4, 8]


def _case_wide_tie_below_distinct_scores():
    # For a query at 1.0, three rows at 2.0 rank first and five of the
    # sixty rows at 1.0 fill the top 8: the re-rank must order a mixed
    # candidate set by score and then by index.
    rng = make_rng(27)
    emb = rng.permutation(np.r_[np.full(60, 1.0), np.full(3, 2.0), np.full(20, -1.0)])
    return emb[:, None], rng.integers(0, 12, size=83), [1, 4, 8]


def _case_ties_across_a_block_boundary():
    # Rows 12..19 are identical and score highest against each other; a
    # block edge at 16 splits them, and the lower index must still win.
    emb = np.zeros((32, 2))
    emb[:, 0] = np.arange(32) % 3 - 1.0
    emb[12:20] = [5.0, 5.0]
    labels = np.arange(32) % 5
    labels[13] = labels[12]
    return emb, labels, [1, 2, 3]


def _case_block_size_with_ties():
    rng = make_rng(24)
    n = 2 * evaluate._BLOCK + 7
    emb = rng.integers(-1, 2, size=(n, 2)).astype(float)
    return emb, rng.integers(0, 40, size=n), [1, 8]


def _case_class_larger_than_the_block():
    # One class of 2 _BLOCK + 3 rows: its segment is cut into three chunks.
    rng = make_rng(28)
    n = 3 * evaluate._BLOCK + 5
    labels = rng.integers(1, 9, size=n)
    labels[rng.permutation(n)[:2 * evaluate._BLOCK + 3]] = 0
    return rng.integers(-2, 3, size=(n, 3)).astype(float), labels, [1, 4, 8]


def _case_one_label():
    # One segment and no column side: every query hits at every K.
    rng = make_rng(29)
    n = 2 * evaluate._BLOCK + 3
    return rng.integers(-2, 3, size=(n, 2)).astype(float), np.full(n, 4), [1, 2, 8]


def _case_every_label_distinct():
    # No query has a same-label partner: its best is -inf, and it misses.
    rng = make_rng(30)
    n = 2 * evaluate._BLOCK + 3
    return rng.integers(-2, 3, size=(n, 2)).astype(float), rng.permutation(n), [1, 2, 8]


def _case_tie_reached_only_through_the_column_side():
    # Labels alternate, _BLOCK rows each: label 0 is the first segment.
    # Rows 4, 5, 11 and 20 are equal; the rest score 0 or -1 against them.
    # Query 5 (label 1) has its best at row 11 and ties with rows 4 and 20
    # of label 0, whose segment comes first, so those scores reach it only as
    # columns: row 4 ranks ahead of row 11, row 20 does not.
    rng = make_rng(31)
    n = 2 * evaluate._BLOCK
    emb = np.array([[0.0, 1.0], [0.0, 2.0], [-1.0, 1.0]])[rng.integers(0, 3, size=n)]
    emb[[4, 5, 11, 20]] = [1.0, 0.0]
    return emb, np.arange(n) % 2, [1, 2, 4]


def _case_string_labels():
    rng = make_rng(32)
    n = 2 * evaluate._BLOCK + 9
    names = np.array(["ant", "bee", "cat", "dog", "eel", "fox", "gnu"])
    return (rng.integers(-2, 3, size=(n, 2)).astype(float), names[rng.integers(0, 7, size=n)],
            [1, 2, 8])


TIE_CASES = [_case_n_not_a_multiple_of_the_block, _case_n_smaller_than_one_block,
             _case_kmax_is_n_minus_one, _case_duplicate_rows,
             _case_wide_tie_below_distinct_scores, _case_ties_across_a_block_boundary,
             _case_block_size_with_ties, _case_class_larger_than_the_block, _case_one_label,
             _case_every_label_distinct, _case_tie_reached_only_through_the_column_side,
             _case_string_labels]


class TestBlockedRecall:
    """Edges of the row-blocked top-k pass, against the brute-force oracle."""

    def test_n_not_a_multiple_of_the_block(self):
        _exact(*_case_n_not_a_multiple_of_the_block())

    def test_n_smaller_than_one_block(self):
        _exact(*_case_n_smaller_than_one_block())

    def test_kmax_is_n_minus_one(self):
        _exact(*_case_kmax_is_n_minus_one())

    def test_duplicate_rows_tie_across_the_cut_in_every_block(self, monkeypatch):
        monkeypatch.setattr(evaluate, "_BLOCK", 16)
        _exact(*_case_duplicate_rows())

    def test_wide_tie_below_distinct_scores(self, monkeypatch):
        monkeypatch.setattr(evaluate, "_BLOCK", 16)
        _exact(*_case_wide_tie_below_distinct_scores())

    def test_ties_across_a_block_boundary(self, monkeypatch):
        monkeypatch.setattr(evaluate, "_BLOCK", 16)
        _exact(*_case_ties_across_a_block_boundary())

    def test_real_block_size_with_ties(self):
        _exact(*_case_block_size_with_ties())

    @pytest.mark.parametrize("case", TIE_CASES, ids=lambda c: c.__name__[len("_case_"):])
    def test_tie_cases_are_bit_identical_for_any_worker_count(self, monkeypatch,
                                                              across_workers, case):
        # 16-row blocks: each half holds several blocks.
        monkeypatch.setattr(evaluate, "_BLOCK", 16)
        emb, labels, ks = case()
        want = repr(({k: brute_force_recall(emb, labels, k) for k in sorted(set(ks))},
                     {1: brute_force_recall(emb, labels, 1)}))
        got = across_workers(lambda: repr((recall_at_k(emb, labels, ks),
                                           recall_at_k(emb, labels, [1]))))
        assert got == [want] * 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_embeddings_rejected(self, bad):
        emb = make_rng(25).standard_normal((10, 3))
        emb[4, 1] = bad
        with pytest.raises(InvalidArgument, match="embeddings must be finite"):
            recall_at_k(emb, np.arange(10) % 2, [1])

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_similarities_rejected(self):
        emb = np.array([[1e200, 0.0], [1e200, 1.0], [1.0, 0.0]])
        with pytest.raises(InvalidArgument, match="similarities overflow"):
            recall_at_k(emb, [0, 1, 0], [1])

    def test_squared_norm_just_below_half_max_accepted(self):
        # Every similarity is at most max/2 in magnitude, so ranking is exact.
        big = np.sqrt(np.finfo(np.float64).max / 2) * 0.999
        emb = np.array([[big, 0.0], [0.0, big], [big, 1.0], [-big, 0.0]])
        labels = [0, 1, 0, 1]
        for k in (1, 2):
            assert recall_at_k(emb, labels, [k])[k] == brute_force_recall(emb, labels, k)

    def test_squared_norm_above_half_max_rejected(self):
        # Squared norm 0.75 * max: no similarity overflows here (the largest,
        # the masked self score, is 0.75 * max), but the bound refuses it.
        emb = np.array([[np.sqrt(0.75 * np.finfo(np.float64).max), 0.0],
                        [0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(InvalidArgument, match="similarities overflow float64"):
            recall_at_k(emb, [0, 1, 0], [1])

    def test_memory_bounded_in_block_rows(self):
        rng = make_rng(26)
        emb = rng.standard_normal((4000, 64))
        labels = rng.integers(0, 400, size=4000)
        tracemalloc.start()
        try:
            recall_at_k(emb, labels, (1, 2, 4, 8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A dense 4000 x 4000 float64 matrix alone would be 122 MiB. Each half
        # holds one score buffer of at most _BLOCK x 4000 (8 bytes a score)
        # and at most 2 bytes of masks per score; the label-sorted copy of the
        # embeddings, 2 MB, fits in what is left.
        assert peak < evaluate.workers() * evaluate._BLOCK * 4000 * 12 + 2**20


class TestPerLearnerRecall:
    """Per-learner Recall@1 (the K = 1 argmax path) against the top-k ranking per group."""

    PART = GroupPartition((2, 3, 4))

    def _same(self, F, labels):
        got = per_learner_recall_at_1(F, self.PART, labels)
        assert got == per_group_recall_at_1(F, self.PART, labels)
        return got

    def test_random_sets(self):
        rng = make_rng(50)
        for _ in range(10):
            n = int(rng.integers(3, 700))
            self._same(rng.standard_normal((n, 9)), rng.integers(0, int(rng.integers(1, 40)), n))

    def test_sign_valued_ties_at_the_top(self, monkeypatch):
        # Few distinct unit rows per group: most queries tie at their best score.
        monkeypatch.setattr(evaluate, "_BLOCK", 16)
        rng = make_rng(51)
        F = rng.choice([-1.0, 1.0], size=(150, 9))
        self._same(F, rng.integers(0, 12, size=150))

    def test_zero_norm_rows(self):
        rng = make_rng(52)
        F = rng.integers(-1, 2, size=(120, 9)).astype(float)
        F[::7, :2] = 0.0  # group 0 rows at zero stay zero and score 0 against all
        F[3] = 0.0
        got = self._same(F, rng.integers(0, 10, size=120))
        assert len(got) == 3

    def test_n_below_one_block(self):
        rng = make_rng(53)
        self._same(rng.standard_normal((90, 9)), rng.integers(0, 9, size=90))
        F = rng.standard_normal((2, 9))
        assert per_learner_recall_at_1(F, self.PART, [0, 0]) == [1.0, 1.0, 1.0]
        assert per_learner_recall_at_1(F, self.PART, [0, 1]) == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("n", [16, 32, 33, 100])
    def test_block_edges(self, monkeypatch, n):
        monkeypatch.setattr(evaluate, "_BLOCK", 16)
        rng = make_rng(54 + n)
        F = rng.integers(-2, 3, size=(n, 9)).astype(float)
        self._same(F, rng.integers(0, 6, size=n))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_embeddings_rejected(self, bad):
        F = make_rng(55).standard_normal((10, 9))
        F[4, 7] = bad
        with pytest.raises(InvalidArgument, match="embeddings must be finite"):
            per_learner_recall_at_1(F, self.PART, np.arange(10) % 2)

    def test_labels_must_match_rows(self):
        F = make_rng(56).standard_normal((10, 9))
        with pytest.raises(InvalidArgument, match="disagree"):
            per_learner_recall_at_1(F, self.PART, np.arange(9))
        with pytest.raises(InvalidArgument, match="at least 2 samples"):
            per_learner_recall_at_1(F[:1], self.PART, [0])


def _tie_model(emb, labels):
    """A tie case as a two-group model: its rows with a column of ones, then
    with a column of twos. The raw outputs are integers, and no group row
    has zero norm. Labels become class ids in the order of their values."""
    n, d = emb.shape
    W = np.hstack([np.eye(d + 1), np.diag(np.r_[np.ones(d), 2.0])])
    model = EnsembleModel(W, GroupPartition((d + 1, d + 1)))
    names, labels = np.unique(labels, return_inverse=True)
    fs = FeatureSet(labels=labels, features=np.hstack([emb, np.ones((n, 1))]),
                    n_classes=len(names))
    return model, fs


class TestFusedSweep:
    """evaluate_model's one sweep against the oracles: the ensemble against the
    brute-force ranking of the weighted embeddings, each learner against the
    K > 1 ranking of its unit rows."""

    @staticmethod
    def _reports(across_workers, model, fs, ks, exponent):
        F = model.forward_batch(fs.features)
        want = repr(({k: brute_force_recall(model._weight_groups(F, exponent), fs.labels, k)
                      for k in sorted(set(ks))},
                     per_group_recall_at_1(F, model.partition, fs.labels)))
        got = across_workers(lambda: evaluate_model(model, fs, ks=ks, weight_exponent=exponent))
        assert [repr((r.recall_at, r.per_learner_r1)) for r in got] == [want] * 2

    @pytest.mark.parametrize("exponent", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("extra", [0, 1])
    def test_block_edges(self, across_workers, exponent, extra):
        n = evaluate._BLOCK + extra
        rng = make_rng(60 + extra)
        fs = FeatureSet(labels=rng.integers(0, 20, size=n), features=rng.standard_normal((n, 10)),
                        n_classes=20)
        model = init_model(make_rng(61), 10, GroupPartition((2, 3, 4)))
        self._reports(across_workers, model, fs, (1, 2, 4, 8), exponent)

    @pytest.mark.parametrize("exponent", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("case", TIE_CASES, ids=lambda c: c.__name__[len("_case_"):])
    def test_tie_cases(self, monkeypatch, across_workers, case, exponent):
        monkeypatch.setattr(evaluate, "_BLOCK", 16)
        # Only the rankings are checked here; with every label distinct there
        # is no positive pair, and classifier_correlation refuses one pair.
        monkeypatch.setattr(evaluate, "classifier_correlation", lambda *args: None)
        emb, labels, ks = case()
        self._reports(across_workers, *_tie_model(emb, labels), ks, exponent)

    def test_underflowed_weight_drops_its_group(self):
        # alpha_1 ** 250 = 6 ** -250 is a finite scale, but its square is 0:
        # the ensemble is the other two groups, and no self score turns nan.
        rng = make_rng(62)
        fs = FeatureSet(labels=rng.integers(0, 10, size=80),
                        features=rng.standard_normal((80, 9)), n_classes=10)
        model = init_model(make_rng(63), 9, GroupPartition((2, 3, 4)))
        with np.errstate(all="raise"):
            got = evaluate_model(model, fs, ks=(1, 4), weight_exponent=250.0)
        F = model.forward_batch(fs.features)
        rest = model._weight_groups(F, 250.0)[:, 2:]
        assert got.recall_at == {k: brute_force_recall(rest, fs.labels, k) for k in (1, 4)}


class TestFeatureCorrelation:
    def test_duplicated_groups_are_fully_correlated(self):
        # One dimension per group and group 2 an exact copy of group 1: the
        # single cross-group pair has |Pearson r| = 1.
        rng = make_rng(10)
        base = rng.standard_normal((4, 1))
        W = np.concatenate([base, base], axis=1)
        model = EnsembleModel(W, GroupPartition((1, 1)))
        X = rng.standard_normal((50, 4))
        got = feature_correlation(model.forward_batch(X), model.partition)
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_scaled_duplicate_dimensions(self):
        # Every cross-group pair a scalar multiple of the other: mean is 1.
        rng = make_rng(17)
        base = rng.standard_normal((4, 1))
        W = np.concatenate([base, 2 * base, -3 * base], axis=1)
        model = EnsembleModel(W, GroupPartition((1, 1, 1)))
        X = rng.standard_normal((50, 4))
        got = feature_correlation(model.forward_batch(X), model.partition)
        assert got == pytest.approx(1.0, abs=1e-9)

    def test_independent_groups_approach_zero(self):
        # Groups read disjoint independent input coordinates.
        W = np.zeros((8, 4))
        W[0, 0] = W[1, 1] = 1.0
        W[4, 2] = W[5, 3] = 1.0
        model = EnsembleModel(W, GroupPartition((2, 2)))
        X = make_rng(0).standard_normal((5000, 8))
        assert feature_correlation(model.forward_batch(X), model.partition) < 0.1

    def test_single_group_rejected(self):
        model = EnsembleModel(np.eye(3), GroupPartition((3,)))
        X = np.random.default_rng(0).standard_normal((10, 3))
        with pytest.raises(InvalidArgument):
            feature_correlation(model.forward_batch(X), model.partition)

    def test_constant_dimension_skipped(self):
        rng = make_rng(11)
        W = rng.standard_normal((4, 4))
        W[:, 0] = 0.0  # first output dimension constant at zero
        model = EnsembleModel(W, GroupPartition((2, 2)))
        X = rng.standard_normal((30, 4))
        value = feature_correlation(model.forward_batch(X), model.partition)
        # Compare against the mean over the remaining cross-group pairs.
        F = X @ W
        vals = []
        for k in (1,):
            for l in (2, 3):
                vals.append(abs(pearson_by_hand(F[:, k].tolist(), F[:, l].tolist())))
        assert value == pytest.approx(np.mean(vals), abs=1e-9)

    def test_matches_triu_oracle_bytes(self):
        # The d x d group-order mask against the triu_indices gather, over
        # random partitions; every third input has constant columns.
        rng = make_rng(18)
        undefined = 0
        for trial in range(150):
            sizes = tuple(int(s) for s in rng.integers(1, 7, size=int(rng.integers(2, 6))))
            part = GroupPartition(sizes)
            F = rng.standard_normal((int(rng.integers(2, 30)), part.total_dim))
            if trial % 3 == 0:
                F[:, rng.random(part.total_dim) < 0.5] = 1.5
            try:
                want = triu_feature_correlation(F, part)
            except UndefinedCorrelation:
                undefined += 1
                with pytest.raises(UndefinedCorrelation):
                    feature_correlation(F, part)
                continue
            assert feature_correlation(F, part).hex() == want.hex()
        assert undefined > 0

    def test_matches_triu_oracle_bytes_over_several_row_blocks(self):
        # The column norms are summed _BLOCK rows at a time.
        rng = make_rng(33)
        for _ in range(20):
            part = GroupPartition(tuple(int(s) for s in rng.integers(1, 40, size=3)))
            F = rng.standard_normal((int(rng.integers(2, 3 * evaluate._BLOCK)), part.total_dim))
            assert feature_correlation(F, part).hex() == triu_feature_correlation(F, part).hex()

    def test_no_usable_pair_raises(self):
        # Every column outside group 1 is constant: no cross-group pair is left.
        F = make_rng(19).standard_normal((10, 6))
        F[:, :2] = 3.0
        F[:, 5] = 0.0
        part = GroupPartition((2, 3, 1))
        for fn in (feature_correlation, triu_feature_correlation):
            with pytest.raises(UndefinedCorrelation, match="no usable cross-group"):
                fn(F, part)


class TestClassifierCorrelation:
    def _model_with_scores(self, score_vectors):
        """Model stub: identity groups fed by crafted inputs is overkill here,
        so cross-check the aggregation rule on hand-built score vectors."""
        vals = []
        M = len(score_vectors)
        for i in range(M):
            for j in range(i + 1, M):
                vals.append(abs(pearson_by_hand(score_vectors[i], score_vectors[j])))
        return float(np.mean(vals))

    def test_identical_learners(self):
        rng = make_rng(12)
        base = rng.standard_normal((4, 2))
        W = np.concatenate([base, base], axis=1)
        model = EnsembleModel(W, GroupPartition((2, 2)))
        X = rng.standard_normal((20, 4))
        ia, ib = np.arange(10), np.arange(10, 20)
        got = classifier_correlation(model.forward_batch(X), model.partition, ia, ib)
        assert got == pytest.approx(1.0)

    def test_negated_scores_still_one(self):
        # Learner 2's scores are the negation of learner 1's: |r| = 1.
        rng = make_rng(13)
        base = rng.standard_normal((4, 2))
        W = np.concatenate([base, -base], axis=1)
        model = EnsembleModel(W, GroupPartition((2, 2)))
        X = rng.standard_normal((20, 4))
        ia, ib = np.arange(10), np.arange(10, 20)
        got = classifier_correlation(model.forward_batch(X), model.partition, ia, ib)
        assert got == pytest.approx(1.0)

    def test_three_learners_hand_computed(self):
        rng = make_rng(14)
        model = init_model(rng, 6, GroupPartition((2, 2, 2)))
        X = rng.standard_normal((30, 6))
        ia, ib = np.arange(15), np.arange(15, 30)
        got = classifier_correlation(model.forward_batch(X), model.partition, ia, ib)
        F = X @ model.W
        scores = []
        for sl in model.partition.slices():
            u, v = F[ia, sl], F[ib, sl]
            s = np.einsum("ij,ij->i", u, v) / (
                np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1)
            )
            scores.append(s.tolist())
        assert got == pytest.approx(self._model_with_scores(scores), abs=1e-9)

    def test_constant_scores_rejected(self):
        # Scalar groups with positive activations give exactly-constant
        # cosine scores (sign products), which have no defined correlation.
        W = np.eye(2)
        model = EnsembleModel(W, GroupPartition((1, 1)))
        rng = make_rng(15)
        X = np.abs(rng.standard_normal((10, 2))) + 0.1
        with pytest.raises(UndefinedCorrelation):
            classifier_correlation(model.forward_batch(X), model.partition,
                                   np.arange(5), np.arange(5, 10))

    def test_needs_two_pairs(self):
        rng = make_rng(16)
        model = init_model(rng, 4, GroupPartition((2, 2)))
        X = rng.standard_normal((4, 4))
        with pytest.raises(InvalidArgument):
            classifier_correlation(model.forward_batch(X), model.partition, [0], [1])


class TestEvaluateModel:
    def test_report_fields(self):
        fs = synth_gaussian(SynthSpec(classes=4, per_class=5, feature_dim=8, seed=3))
        model = init_model(make_rng(1), 8, GroupPartition((2, 3)))
        report = evaluate_model(model, fs, ks=(1, 2))
        assert set(report.recall_at) == {1, 2}
        assert report.recall_at[1] <= report.recall_at[2]
        assert 0.0 <= report.feature_corr <= 1.0
        assert 0.0 <= report.clf_corr <= 1.0
        assert len(report.per_learner_r1) == 2
        assert "recall@" in report.table()
        assert report.csv().count("\n") == 2

    def test_single_group_report_has_no_correlations(self):
        fs = synth_gaussian(SynthSpec(classes=4, per_class=5, feature_dim=8, seed=3))
        model = init_model(make_rng(1), 8, GroupPartition((5,)))
        report = evaluate_model(model, fs, ks=(1,))
        assert report.feature_corr is None
        assert report.clf_corr is None

    def test_one_forward(self, monkeypatch):
        fs = synth_gaussian(SynthSpec(classes=4, per_class=5, feature_dim=8, seed=3))
        model = init_model(make_rng(1), 6, GroupPartition((2, 4)), backbone_in_dim=8)
        calls = []
        real = EnsembleModel.forward_batch

        def spy(self, x):
            calls.append(len(x))
            return real(self, x)

        monkeypatch.setattr(EnsembleModel, "forward_batch", spy)
        evaluate_model(model, fs, ks=(1, 2))
        assert calls == [20]

    @pytest.mark.parametrize("exponent", [1.0, 0.5, 2.0])
    def test_report_equals_the_separate_passes(self, monkeypatch, exponent):
        # The ensemble from the group weighting of its own forward, Recall@1
        # from a recall_at_k pass per group, and each correlation from its own
        # forward.
        monkeypatch.setattr(evaluate, "_BLOCK", 16)
        fs = synth_gaussian(SynthSpec(classes=12, per_class=8, feature_dim=10, seed=4))
        model = init_model(make_rng(2), 10, GroupPartition((3, 5, 8)))
        got = evaluate_model(model, fs, ks=(1, 4), weight_exponent=exponent, n_eval_pairs=300,
                             pair_seed=9)
        emb = model._weight_groups(model.forward_batch(fs.features), exponent)
        ia, ib = make_eval_pairs(fs.labels, make_rng(9), max_pairs=300)
        want = EvalReport(
            recall_at=recall_at_k(emb, fs.labels, (1, 4)),
            feature_corr=feature_correlation(model.forward_batch(fs.features), model.partition),
            clf_corr=classifier_correlation(model.forward_batch(fs.features), model.partition,
                                            ia, ib),
            per_learner_r1=per_group_recall_at_1(model.forward_batch(fs.features),
                                                 model.partition, fs.labels),
        )
        assert got.csv() == want.csv()

    def test_report_is_bit_identical_for_any_worker_count(self, monkeypatch, across_workers):
        # The 800 x 128 @ 128 x 144 forward splits into halves; 64-row blocks.
        monkeypatch.setattr(evaluate, "_BLOCK", 64)
        fs = synth_gaussian(SynthSpec(classes=80, per_class=10, feature_dim=128, seed=8))
        model = init_model(make_rng(3), 128, GroupPartition((32, 48, 64)))
        reports = across_workers(lambda: evaluate_model(model, fs, ks=(1, 2, 4, 8)).csv())
        assert reports[1] == reports[0]

    def test_memory_bounded_in_embedding_arrays(self, set_workers):
        # The classifier correlation sets the peak at about 2.5 N x d arrays:
        # F and each group's two gathered pair ends. The feature correlation
        # holds about 2.45 (F, its centered copy and 128 rows of squares), and
        # the sweep, after F is freed, about 1.6: the label-sorted unit rows
        # plus each worker's panel buffers.
        set_workers(2)
        fs = synth_gaussian(SynthSpec(classes=400, per_class=5, feature_dim=512, seed=1))
        model = init_model(make_rng(2), 512, preset_partition(512, 3))
        evaluate_model(model, fs, ks=(1, 2, 4, 8))  # warm-up
        tracemalloc.start()
        try:
            evaluate_model(model, fs, ks=(1, 2, 4, 8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n, d = fs.features.shape
        assert peak < 3.1 * n * d * 8

    def test_eval_pairs_deterministic(self):
        labels = np.repeat(np.arange(5), 6)
        a = make_eval_pairs(labels, make_rng(2), max_pairs=40)
        b = make_eval_pairs(labels, make_rng(2), max_pairs=40)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
        # balanced: half positives, half negatives
        y = labels[a[0]] == labels[a[1]]
        assert y.sum() == (~y).sum()


class TestEvalPairs:
    """The enumeration-free draw equals the full enumeration bit for bit."""

    @staticmethod
    def _same(labels, max_pairs, seed=3):
        got = make_eval_pairs(labels, make_rng(seed), max_pairs=max_pairs)
        want = enumerated_eval_pairs(labels, make_rng(seed), max_pairs=max_pairs)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        return got

    def test_random_label_sets(self):
        rng = make_rng(30)
        for _ in range(30):
            n = int(rng.integers(2, 200))
            labels = rng.integers(0, int(rng.integers(1, 30)), size=n)
            self._same(labels, int(rng.integers(2, 400)))

    def test_positives_at_most_half(self):
        a, b = self._same(np.arange(40) // 2, 100)  # 20 positive pairs, all kept
        assert (np.arange(40)[a] // 2 == np.arange(40)[b] // 2).sum() == 20

    def test_fewer_negatives_than_positives(self):
        labels = np.array([0] * 30 + [1])  # 435 positives, 30 negatives
        a, b = self._same(labels, 2000)
        assert (labels[a] != labels[b]).sum() == 30

    def test_one_class(self):
        a, b = self._same(np.zeros(25, dtype=int), 40)
        assert len(a) == 20 and (a < b).all()

    def test_two_samples(self):
        self._same(np.array([4, 4]), 2000)
        self._same(np.array([4, 7]), 2000)

    def test_max_pairs_of_two(self):
        a, b = self._same(np.repeat(np.arange(6), 5), 2)
        assert len(a) == 2

    def test_string_labels_and_benchmark_shape(self):
        self._same(np.array(list("abcabcbbca")), 10)
        labels = np.repeat(np.arange(220), 10)[:2000]
        self._same(make_rng(31).permutation(labels), 2000, seed=0)
