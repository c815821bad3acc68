"""Retrieval and diversity diagnostics.

`evaluate_model` runs the embedding forward once, F = model.forward_batch(X),
and derives every diagnostic from F: the weighted ensemble embedding, the
per-learner Recall@1 and both correlations.

Recall@K ranks every other sample by dot-product similarity of the
inference-time embeddings (ties broken by ascending sample index) and scores
a query as hit when any of its top K carries the query's label. So a query
needs only the rank of its first hit: the same-label sample with the best
score, at the lowest index among equal scores. Its rank is the number of
samples scoring above it plus the number scoring the same at a lower index,
which equals its position in a full sort exactly. It is one row-blocked pass:
each block of _BLOCK query rows is scored against all N samples and the two
counts are taken per row. A query with no other sample of its label has best
score -inf (the masked self score) and rank N - 1, so it is a miss for every
valid K. With K_max = 1 the block takes the first maximum per row (argmax),
which is the same tie rule in one pass over the scores. With two
workers (`linalg.run_halves`) the caller ranks the first half of the blocks
and the helper thread the second. Each half scores its blocks into its own
(_BLOCK, N) buffer, allocated by the caller once per call, and writes only
those blocks' rows of the result, so the result does not depend on the
worker count or on which thread ranked which half. Memory is
O(workers * _BLOCK * N): per half, 256 * N * 8 bytes of score buffer and
at most 3 bytes of boolean masks per score.
Non-finite embeddings raise InvalidArgument, and so do rows whose squared
norm exceeds half the float64 maximum: that bound keeps every similarity
finite, so it is checked once instead of on every block.

Per-learner Recall@1 is one such K = 1 pass per group over the group's unit
rows.

The two correlation diagnostics quantify ensemble redundancy, lower meaning
more diverse: feature correlation is the mean absolute Pearson correlation
over all cross-group dimension pairs of the raw group outputs; classifier
correlation is the mean absolute Pearson correlation between the per-pair
cosine score vectors of the learners.
"""

from dataclasses import dataclass, field
import logging

import numpy as np

from .errors import InvalidArgument, UndefinedCorrelation
from .linalg import make_rng, run_halves, workers

log = logging.getLogger(__name__)

_BLOCK = 256  # query rows per similarity block


def _rank_block(E, labels, lo, kmax, S, first_hit):
    """Score query rows lo.. against all of E into S and set their first_hit.

    Runs on the helper thread too, so it calls numpy only.
    """
    rows = slice(lo, lo + len(S))
    np.matmul(E[rows], E.T, out=S)
    q = np.arange(len(S))
    S[q, lo + q] = -np.inf
    if kmax == 1:  # first maximum: lowest index wins ties
        first_hit[rows] = labels[S.argmax(axis=1)] != labels[rows]
        return
    same = labels[rows, None] == labels
    best = np.max(S, axis=1, where=same, initial=-np.inf, keepdims=True)
    tie = S == best
    first = (same & tie).argmax(axis=1)[:, None]
    tie &= np.arange(len(E)) < first  # ties ranked before the first hit
    rank = np.count_nonzero(S > best, axis=1) + np.count_nonzero(tie, axis=1)
    first_hit[rows] = np.minimum(rank, kmax)


def recall_at_k(embeddings, labels, ks):
    """Recall@K for each K in `ks` over a single embedded sample set."""
    E = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels)
    if E.ndim != 2 or E.shape[0] != labels.shape[0]:
        raise InvalidArgument("embeddings and labels disagree")
    n = E.shape[0]
    if n < 2:
        raise InvalidArgument("need at least 2 samples")
    ks = [int(k) for k in ks]
    if any(k < 1 for k in ks):
        raise InvalidArgument("K must be >= 1")
    if max(ks) >= n:
        raise InvalidArgument(f"K must be < number of samples ({n})")
    if not np.isfinite(E).all():
        raise InvalidArgument("embeddings must be finite")
    # |S_ij| <= max_i ||e_i||^2 (Cauchy-Schwarz); the factor 2 absorbs rounding.
    if np.einsum("ij,ij->i", E, E).max() > np.finfo(np.float64).max / 2:
        raise InvalidArgument("similarities overflow float64")
    kmax = max(ks)
    first_hit = np.empty(n, dtype=np.intp)  # rank of the first same-label neighbour
    blocks = range(0, n, _BLOCK)
    # One score buffer per half of the split, allocated here: a buffer
    # allocated on the helper thread would come from its own malloc arena.
    scores = [np.empty((min(_BLOCK, n), n)) for _ in range(min(workers(), len(blocks)))]

    def rank(half, first, stop):
        for lo in blocks[first:stop]:
            _rank_block(E, labels, lo, kmax, scores[half][:min(_BLOCK, n - lo)], first_hit)

    run_halves(rank, len(blocks))
    return {k: float(np.mean(first_hit < k)) for k in sorted(set(ks))}


def per_learner_recall_at_1(F, partition, labels):
    """Recall@1 of each group on its own, cosine similarity within the group.

    `F` holds the raw embeddings (n, d). A group row of zero norm stays zero
    and scores 0 against every sample.
    """
    F = np.asarray(F, dtype=np.float64)
    out = []
    for sl in partition.slices():
        sub = F[:, sl]
        norms = np.linalg.norm(sub, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        out.append(recall_at_k(sub / norms, labels, [1])[1])
    return out


def feature_correlation(F, partition):
    """Mean |Pearson| over all cross-group dimension pairs of raw outputs `F`.

    Constant dimensions are skipped (and logged); with fewer than two groups
    the quantity is undefined.
    """
    if partition.num_groups < 2:
        raise InvalidArgument("feature correlation needs at least 2 groups")
    F = np.asarray(F, dtype=np.float64)
    n, d = F.shape
    if n < 2:
        raise InvalidArgument("need at least 2 samples")
    centered = F - F.mean(axis=0)
    norms = np.linalg.norm(centered, axis=0)
    valid = norms > 0.0
    n_constant = int((~valid).sum())
    if n_constant:
        log.debug("feature_correlation: skipping %d constant dimensions", n_constant)
    group_of = np.empty(d, dtype=np.intp)
    for m, sl in enumerate(partition.slices()):
        group_of[sl] = m
    safe = np.where(valid, norms, 1.0)
    Z = centered / safe
    corr = Z.T @ Z
    # Groups are contiguous and ascending, so entry (i, j) is a cross-group
    # pair with i < j exactly when group(i) < group(j): the mask picks the
    # upper triangle's cross-group entries in row-major order.
    mask = (group_of[:, None] < group_of) & valid[:, None] & valid
    if not mask.any():
        raise UndefinedCorrelation("no usable cross-group dimension pairs")
    vals = np.abs(corr[mask])
    return float(np.clip(vals, 0.0, 1.0).mean())


def classifier_correlation(F, partition, index_a, index_b):
    """Mean |Pearson| between learners' per-pair cosine score vectors of raw outputs `F`."""
    if partition.num_groups < 2:
        raise InvalidArgument("classifier correlation needs at least 2 groups")
    index_a = np.asarray(index_a, dtype=np.intp)
    index_b = np.asarray(index_b, dtype=np.intp)
    if len(index_a) != len(index_b) or len(index_a) < 2:
        raise InvalidArgument("need at least 2 evaluation pairs")
    F = np.asarray(F, dtype=np.float64)
    scores = []
    keep = np.ones(len(index_a), dtype=bool)
    for sl in partition.slices():
        u = F[index_a, sl]
        v = F[index_b, sl]
        nu = np.linalg.norm(u, axis=1)
        nv = np.linalg.norm(v, axis=1)
        keep &= (nu > 0.0) & (nv > 0.0)
        nu[nu == 0.0] = 1.0
        nv[nv == 0.0] = 1.0
        scores.append(np.einsum("ij,ij->i", u, v) / (nu * nv))
    if keep.sum() < 2:
        raise UndefinedCorrelation("fewer than 2 usable evaluation pairs")
    if not keep.all():
        log.debug("classifier_correlation: dropped %d degenerate pairs", int((~keep).sum()))
    scores = [s[keep] for s in scores]
    M = len(scores)
    vals = []
    for i in range(M):
        for j in range(i + 1, M):
            si = scores[i] - scores[i].mean()
            sj = scores[j] - scores[j].mean()
            ni = np.linalg.norm(si)
            nj = np.linalg.norm(sj)
            if ni == 0.0 or nj == 0.0:
                raise UndefinedCorrelation("a learner produced constant pair scores")
            vals.append(abs(float(si @ sj / (ni * nj))))
    return float(np.clip(np.mean(vals), 0.0, 1.0))


def _row_and_offset(p, per_row):
    """Row of each flat pair number `p` (row-major order) and its offset in that row."""
    end = np.cumsum(per_row)
    i = np.searchsorted(end, p, side="right")
    return i, p - (end - per_row)[i]


def make_eval_pairs(labels, rng, max_pairs=2000):
    """Deterministic positive + negative evaluation pairs for diagnostics.

    Pairs (i, j), i < j, are numbered in row-major upper-triangle order,
    positives and negatives separately. Up to max_pairs // 2 positives and as
    many negatives are drawn by number and mapped back to (i, j) from
    per-class counts, without enumerating all N(N-1)/2 pairs.
    """
    labels = np.asarray(labels)
    n = len(labels)
    _, cls, counts = np.unique(labels, return_inverse=True, return_counts=True)
    order = np.argsort(cls, kind="stable")  # grouped by class, ascending index
    start = np.cumsum(counts) - counts  # first slot of each class in `order`
    rank = np.empty(n, dtype=np.intp)  # position of each sample within its class
    rank[order] = np.arange(n) - start[cls[order]]
    pos_after = counts[cls] - 1 - rank  # later samples of the same class
    neg_after = (n - 1 - np.arange(n)) - pos_after
    n_pos = int(pos_after.sum())
    n_neg_all = n * (n - 1) // 2 - n_pos

    half = max(1, max_pairs // 2)
    if n_pos > half:
        pos = np.sort(rng.choice(n_pos, size=half, replace=False))
    else:
        pos = np.arange(n_pos)
    n_neg = min(n_neg_all, max(1, len(pos)))
    if n_neg_all > n_neg:
        neg = np.sort(rng.choice(n_neg_all, size=n_neg, replace=False))
    else:
        neg = np.arange(n_neg_all)

    # A positive partner is a later member of the row's class.
    pos_i, o = _row_and_offset(pos, pos_after)
    pos_j = order[start[cls[pos_i]] + rank[pos_i] + 1 + o]
    # A negative partner is the t-th sample outside the row's class, counted
    # from 0; t + (members with at most t non-members before them) is its index.
    neg_i, o = _row_and_offset(neg, neg_after)
    t = neg_i - rank[neg_i] + o
    key = cls[order] * (n + 1) + order - rank[order]  # sorted: (class, non-members before)
    neg_j = t + np.searchsorted(key, cls[neg_i] * (n + 1) + t, side="right") - start[cls[neg_i]]
    return np.concatenate([pos_i, neg_i]), np.concatenate([pos_j, neg_j])


@dataclass
class EvalReport:
    recall_at: dict
    feature_corr: float | None
    clf_corr: float | None
    per_learner_r1: list = field(default_factory=list)

    def table(self):
        lines = ["metric            value"]
        for k in sorted(self.recall_at):
            lines.append(f"recall@{k:<10d} {self.recall_at[k]:.6f}")
        fc = "n/a" if self.feature_corr is None else f"{self.feature_corr:.6f}"
        cc = "n/a" if self.clf_corr is None else f"{self.clf_corr:.6f}"
        lines.append(f"feature_corr      {fc}")
        lines.append(f"clf_corr          {cc}")
        for m, r in enumerate(self.per_learner_r1, start=1):
            lines.append(f"learner{m}_r@1      {r:.6f}")
        return "\n".join(lines)

    def csv(self):
        cols = [f"r_at_{k}" for k in sorted(self.recall_at)]
        cols += ["feature_corr", "clf_corr"]
        cols += [f"learner{m}_r_at_1" for m in range(1, len(self.per_learner_r1) + 1)]
        vals = [repr(self.recall_at[k]) for k in sorted(self.recall_at)]
        vals.append("nan" if self.feature_corr is None else repr(self.feature_corr))
        vals.append("nan" if self.clf_corr is None else repr(self.clf_corr))
        vals += [repr(r) for r in self.per_learner_r1]
        return ",".join(cols) + "\n" + ",".join(vals) + "\n"


def evaluate_model(model, fs, ks=(1, 2, 4, 8), weight_exponent=1.0, n_eval_pairs=2000,
                   pair_seed=0):
    """Full diagnostic report on a feature set, from one embedding forward."""
    if not np.isfinite(weight_exponent):
        raise InvalidArgument(f"weight_exponent must be finite, got {weight_exponent!r}")
    F = model.forward_batch(np.asarray(fs.features, dtype=np.float64))
    emb = model._weight_groups(F, weight_exponent)
    recall = recall_at_k(emb, fs.labels, ks)
    per_learner = per_learner_recall_at_1(F, model.partition, fs.labels)
    feature_corr = None
    clf_corr = None
    if model.num_groups >= 2:
        feature_corr = feature_correlation(F, model.partition)
        rng = make_rng(pair_seed)
        ia, ib = make_eval_pairs(fs.labels, rng, max_pairs=n_eval_pairs)
        clf_corr = classifier_correlation(F, model.partition, ia, ib)
    return EvalReport(
        recall_at=recall,
        feature_corr=feature_corr,
        clf_corr=clf_corr,
        per_learner_r1=per_learner,
    )
