"""Retrieval and diversity diagnostics.

`evaluate_model` runs the embedding forward once, F = model.forward_batch(X),
and derives every diagnostic from F: the ensemble Recall@K, each learner's
Recall@1 and both correlations.

Recall@K ranks every other sample by similarity (ties broken by ascending
sample index) and scores a query as hit when any of its top K carries the
query's label. So a query needs only the rank of its first hit: the
same-label sample with the best score b, at the lowest index f among equal
scores. Its rank is the number of samples scoring above b plus the number
scoring b at an index below f, which equals its position in a full sort
exactly; only samples of other labels can be among them. A query with no
other sample of its label has b = -inf and rank N - 1, so it is a miss for
every valid K. A learner's Recall@1 asks only whether that rank is 0.

Every ranking is one sweep over the unit rows U_m of the groups (`_sweep`).
The ensemble score is S = sum_m w_m G_m with G_m = U_m U_m^T and
w_m = (alpha_m ** e) ** 2: group m of the weighted ensemble embedding is
alpha_m ** e * U_m, so S holds the dot products of those embeddings, up to
rounding. G_m and S are symmetric, and the sweep scores each pair of samples
with different labels once, for both of its queries. It stable-sorts the
rows by label and cuts them into segments of whole classes, each at least
_BLOCK rows (a shorter remainder joins the segment before it), and each
segment into chunks of at most _BLOCK rows. Then:

- Phase 1 scores each chunk against its own segment, every group at once.
  The segment holds all same-label samples of the chunk's rows, so this
  gives each learner's and the ensemble's b and f per row, and the ensemble
  counts the in-segment scores ranked ahead of b. Within a class the sorted
  rows keep their original order, so the first of them at b has the lowest
  original index.
- Phase 2 scores each chunk against the columns after its segment, all of
  other labels. Reductions along a row serve the chunk's queries, and
  reductions along a column serve that column's query. A learner compares
  each side's maximum with b; where a maximum equals b, it also looks for a
  score equal to b at an original index below f. The ensemble counts on
  each side the scores above b and those equal to b below f.

So one sweep does about d N^2 / 2 multiply-adds for the ensemble and every
learner, plus d N s for the phase 1 panels, s the typical segment width.
`recall_at_k` is the same sweep over one unweighted group, its embeddings as
given, and `per_learner_recall_at_1` the sweep without an ensemble.

With two workers (`linalg.run_halves`) each phase is split into two halves of
chunks, ordered so that wide and narrow panels alternate and both halves get
about the same area. Row results land in the chunk's own rows, and column
results in per-half accumulators that are summed (counts) or OR-ed (learner
misses) after the sweep, so nothing depends on the worker count or on which
thread ran which half. Each half has one float64 buffer and one boolean mask,
allocated by the caller once per call and sized to its largest panel: a
phase 2 panel of at most _BLOCK x N scores (two of them when weighted groups
are summed), or the M group panels of a chunk against its segment in phase
1. So memory is O(workers * _BLOCK * N); the phase 1 panels exceed that
only when one class holds most of the samples. `evaluate_model` computes the
correlations first and frees F before the sweep, which then holds the
label-sorted unit rows, as large as F, and those buffers.
Non-finite embeddings raise InvalidArgument, and so do similarities that can
exceed half the float64 maximum (a row's squared norm for `recall_at_k`, the
sum of the weights for the ensemble): that bound keeps every similarity
finite, so it is checked once instead of on every panel.

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

_BLOCK = 128  # most query rows per chunk, and fewest rows per segment
_MAX_SIMILARITY = np.finfo(np.float64).max / 2  # the factor 2 absorbs rounding


def _by_label(labels):
    """The class code of each row after a stable sort by label, and that sort.

    Within a class the sorted rows keep their original order, so the first
    of a class's rows at a score has the lowest original index there.
    """
    codes = np.unique(labels, return_inverse=True)[1].reshape(-1)
    order = np.argsort(codes, kind="stable")
    return codes[order], order


def _chunks(codes):
    """(lo, hi, s0, s1) per chunk: its sorted rows lo..hi-1 and the segment
    s0..s1-1 of whole classes that holds them.

    A segment ends at the first class end at least _BLOCK rows past its
    start; a shorter remainder joins the segment before it. Each segment is
    cut into equal chunks of at most _BLOCK rows.
    """
    n = len(codes)
    ends = np.r_[np.flatnonzero(codes[1:] != codes[:-1]) + 1, n]
    cuts = [0]
    while cuts[-1] < n:
        i = np.searchsorted(ends, cuts[-1] + _BLOCK)
        cuts.append(int(ends[i]) if i < len(ends) else n)
    if len(cuts) > 2 and cuts[-1] - cuts[-2] < _BLOCK:
        del cuts[-2]
    out = []
    for s0, s1 in zip(cuts, cuts[1:]):
        parts = -(-(s1 - s0) // _BLOCK)
        bounds = [s0 + (s1 - s0) * j // parts for j in range(parts + 1)]
        out += [(lo, hi, s0, s1) for lo, hi in zip(bounds, bounds[1:])]
    return out


def _count(mask, axis):
    """The True entries of a boolean panel along `axis`. The sum runs in the
    narrowest unsigned type that holds it: a sum into intp casts every
    entry and took 5 to 12 times as long."""
    size = mask.shape[axis]
    dtype = np.uint8 if size < 1 << 8 else np.uint16 if size < 1 << 16 else np.uint32
    return mask.view(np.uint8).sum(axis=axis, dtype=dtype)


def _alternated(areas):
    """Panel indices ordered widest, narrowest, second widest, ...

    `run_halves` gives the first half of the list to one thread and the rest
    to the other; alternating keeps their areas about equal.
    """
    desc = np.argsort(areas, kind="stable")[::-1]
    out = np.empty_like(desc)
    out[0::2] = desc[:(len(desc) + 1) // 2]
    out[1::2] = desc[::-1][:len(desc) // 2]
    return out


def _along(axis, b, f, index):
    """b and f per row (axis -1) or per column (axis 0) of a panel, and the
    original indices `index` of the other side, shaped to broadcast."""
    if axis == 0:
        return b, f, index[:, None]
    return b[..., None], f[..., None], index


def _ahead(S, b, f, index, axis, mask):
    """Per row (axis -1) or column (axis 0) of S, the scores ranked ahead of
    b: those above it, and those equal to it at an original index below f."""
    b, f, index = _along(axis, b, f, index)
    count = _count(np.greater(S, b, out=mask), axis)
    if np.equal(S, b, out=mask).any():
        mask &= index < f
        count += _count(mask, axis)
    return count


def _beaten(G, b, f, index, axis, mask):
    """Per row (axis -1) or column (axis 0) of G, whether a score ranks ahead
    of b: the maximum is above b, or a score equals b at an original index
    below f."""
    top = G.max(axis=axis)
    out = top > b
    if (top == b).any():
        b, f, index = _along(axis, b, f, index)
        np.equal(G, b, out=mask)
        mask &= index < f
        out |= mask.any(axis=axis)
    return out


def _same_label_best(G, same, index, mask, best):
    """Per row of G, its best score over the columns flagged in `same`,
    written to `best`; returns the lowest original index (`index` per
    column) at that score."""
    np.max(G, axis=-1, where=same, initial=-np.inf, out=best)
    np.equal(G, best[..., None], out=mask)
    mask &= same
    return index[mask.argmax(axis=-1)]


def _sweep(units, codes, index, kmax, weights=None, learners=False):
    """Rank the queries of the groups `units`, each (n, d_m), in one pass.

    The rows of `units` and their class codes `codes` are sorted by class,
    and `index` holds each row's original index. Returns (first_hit, miss)
    in the sorted order. first_hit (n,) is each query's first-hit rank
    capped at kmax under the ensemble score sum_m weights[m] U_m U_m^T, or
    under the scores of the one group without weights; None for kmax 0.
    miss (M, n) flags each learner's Recall@1 misses; None unless `learners`.
    """
    n, M = len(codes), len(units)
    chunks = _chunks(codes)
    # Per learner, then the ensemble: the best same-label score of each row
    # and the lowest original index at it.
    best = np.empty((M + 1, n))
    first = np.empty((M + 1, n), dtype=np.intp)
    ahead = np.empty(n, dtype=np.intp)
    miss = np.empty((M, n), dtype=bool)
    halves = min(workers(), len(chunks))
    # Column-side results of each half, combined after the sweep.
    col_ahead = np.zeros((halves, n), dtype=np.intp)
    col_miss = np.zeros((halves, M, n), dtype=bool)
    # Phase 1 holds every group's panel at once, phase 2 the ensemble's and
    # one group's. Each half's buffers are allocated here: a buffer allocated
    # on the helper thread would come from its own malloc arena.
    pair = 2 if weights is not None and M > 1 else 1
    own = max(M * (hi - lo) * (s1 - s0) for lo, hi, s0, s1 in chunks)
    rest = max((hi - lo) * (n - s1) for lo, hi, _, s1 in chunks)
    scratch = [(np.empty(max(own, pair * rest)), np.empty(max(own, rest), dtype=bool))
               for _ in range(halves)]
    w = None if weights is None else np.asarray(weights, dtype=np.float64)[:, None, None]
    # Each phase's chunks by panel area, wide and narrow alternating.
    order1 = [chunks[i] for i in _alternated([(hi - lo) * (s1 - s0)
                                              for lo, hi, s0, s1 in chunks])]
    order2 = [chunks[i] for i in _alternated([(hi - lo) * (n - s1)
                                              for lo, hi, _, s1 in chunks])]

    def in_segment(half, i_first, i_stop):
        """Phase 1: each chunk against its own segment, every group at once."""
        floats, bools = scratch[half]
        for lo, hi, s0, s1 in order1[i_first:i_stop]:
            rows, cols = slice(lo, hi), slice(s0, s1)
            shape = (M, hi - lo, s1 - s0)
            G = floats[:M * (hi - lo) * (s1 - s0)].reshape(shape)
            mask = bools[:G.size].reshape(shape)
            for m, U in enumerate(units):
                np.matmul(U[rows], U[cols].T, out=G[m])
            q = np.arange(hi - lo)
            diag = (slice(None), q, lo - s0 + q)
            G[diag] = -np.inf  # no query ranks itself
            same = codes[rows, None] == codes[cols]
            if learners:
                first[:M, rows] = _same_label_best(G, same, index[cols], mask, best[:M, rows])
                miss[:, rows] = _beaten(G, best[:M, rows], first[:M, rows], index[cols], -1, mask)
            if not kmax:
                continue
            if w is not None:
                G[diag] = 0.0  # a weight that underflowed to 0 times -inf is nan
                G *= w
                for m in range(1, M):
                    G[0] += G[m]
            S = G[0]
            S[diag[1:]] = -np.inf
            first[M, rows] = _same_label_best(S, same, index[cols], mask[0], best[M, rows])
            ahead[rows] = _ahead(S, best[M, rows], first[M, rows], index[cols], -1, mask[0])

    def beyond_segment(half, i_first, i_stop):
        """Phase 2: each chunk against the columns after its segment, for its
        rows and for those columns. No pair there shares a label."""
        floats, bools = scratch[half]
        for lo, hi, _, s1 in order2[i_first:i_stop]:
            if s1 == n:
                continue
            rows, cols = slice(lo, hi), slice(s1, n)
            size = (hi - lo) * (n - s1)
            S = floats[:size].reshape(hi - lo, n - s1)
            mask = bools[:size].reshape(S.shape)
            for m, U in enumerate(units):
                G = floats[size:2 * size].reshape(S.shape) if m and w is not None else S
                np.matmul(U[rows], U[cols].T, out=G)
                if learners:
                    miss[m, rows] |= _beaten(G, best[m, rows], first[m, rows], index[cols],
                                             -1, mask)
                    col_miss[half, m, cols] |= _beaten(G, best[m, cols], first[m, cols],
                                                       index[rows], 0, mask)
                if w is not None:
                    G *= w[m]
                    if m:
                        S += G
            if kmax:
                ahead[rows] += _ahead(S, best[M, rows], first[M, rows], index[cols], -1, mask)
                col_ahead[half, cols] += _ahead(S, best[M, cols], first[M, cols], index[rows],
                                                0, mask)

    run_halves(in_segment, len(chunks))
    run_halves(beyond_segment, len(chunks))
    first_hit = np.minimum(ahead + col_ahead.sum(axis=0), kmax) if kmax else None
    return first_hit, (miss | col_miss.any(axis=0) if learners else None)


def _checked_ks(E, labels, ks):
    """The Recall@K checks on embeddings E (n, d) and their labels; ks as ints."""
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
    return ks


def _recall(first_hit, ks):
    return {k: float(np.mean(first_hit < k)) for k in sorted(set(ks))}


def recall_at_k(embeddings, labels, ks):
    """Recall@K for each K in `ks` over a single embedded sample set."""
    E = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels)
    ks = _checked_ks(E, labels, ks)
    # |S_ij| <= max_i ||e_i||^2 (Cauchy-Schwarz).
    if np.einsum("ij,ij->i", E, E).max() > _MAX_SIMILARITY:
        raise InvalidArgument("similarities overflow float64")
    codes, order = _by_label(labels)
    return _recall(_sweep([E[order]], codes, order, max(ks))[0], ks)


def per_learner_recall_at_1(F, partition, labels):
    """Recall@1 of each group on its own, cosine similarity within the group.

    `F` holds the raw embeddings (n, d). A group row of zero norm stays zero
    and scores 0 against every sample.
    """
    F = np.asarray(F, dtype=np.float64)
    labels = np.asarray(labels)
    _checked_ks(F, labels, [1])
    codes, order = _by_label(labels)
    units = []
    for sl in partition.slices():
        sub = F[order, sl]
        norms = np.linalg.norm(sub, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        sub /= norms
        units.append(sub)
    return [float(np.mean(~m)) for m in _sweep(units, codes, order, 0, learners=True)[1]]


def _column_norms(X):
    """np.linalg.norm(X, axis=0) bit for bit, without an array of X's squares.

    With two or more columns, that norm adds each column's squares in row
    order (one column it sums pairwise). Here _BLOCK rows at a time are
    squared into a buffer whose first row carries the running sum, so one
    reduction adds them in the same order.
    """
    n, d = X.shape
    buf = np.zeros((min(n, _BLOCK) + 1, d))
    for lo in range(0, n, _BLOCK):
        rows = X[lo:lo + _BLOCK]
        np.multiply(rows, rows, out=buf[1:len(rows) + 1])
        buf[0] = np.add.reduce(buf[:len(rows) + 1], axis=0)
    return np.sqrt(buf[0])


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
    norms = _column_norms(centered)
    valid = norms > 0.0
    n_constant = int((~valid).sum())
    if n_constant:
        log.debug("feature_correlation: skipping %d constant dimensions", n_constant)
    group_of = np.empty(d, dtype=np.intp)
    for m, sl in enumerate(partition.slices()):
        group_of[sl] = m
    safe = np.where(valid, norms, 1.0)
    Z = np.divide(centered, safe, out=centered)
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
    labels = np.asarray(fs.labels)
    weights = [s * s for s in model._group_scales(weight_exponent)]
    norms = model._group_norms(F)
    ks = _checked_ks(F, labels, ks)  # F is finite exactly when the unit rows are
    # |S_ij| <= sum_m w_m: the cosines of a group are at most 1 in magnitude.
    if sum(weights) > _MAX_SIMILARITY:
        raise InvalidArgument("similarities overflow float64")
    feature_corr = None
    clf_corr = None
    if model.num_groups >= 2:
        feature_corr = feature_correlation(F, model.partition)
        rng = make_rng(pair_seed)
        ia, ib = make_eval_pairs(labels, rng, max_pairs=n_eval_pairs)
        clf_corr = classifier_correlation(F, model.partition, ia, ib)
    codes, order = _by_label(labels)
    units = []
    for sl, r in zip(model.partition.slices(), norms):
        u = F[order, sl]
        u /= r[order, None]
        units.append(u)
    del F  # the sweep needs only the unit rows
    first_hit, miss = _sweep(units, codes, order, max(ks), weights, learners=True)
    return EvalReport(
        recall_at=_recall(first_hit, ks),
        feature_corr=feature_corr,
        clf_corr=clf_corr,
        per_learner_r1=[float(np.mean(~m)) for m in miss],
    )
