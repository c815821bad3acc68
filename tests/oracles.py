"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's vectorized code paths: plain Python
loops and sorts only, so they can vouch for the fast implementations. The
exception is `per_pair_gradient`, the earlier boosting kernel kept as a
reference for the Gram-matrix one: it builds a cosine gradient row per item
and endpoint and scatters them with np.add.at; `enumerated_eval_pairs`,
the earlier `make_eval_pairs` that lists all N(N-1)/2 pairs;
`per_group_recall_at_1`, per-learner Recall@1 read from the general top-k
ranking instead of the K = 1 argmax; `whole_array_step`, the earlier
optimizer update with whole-array expressions per parameter; and
`label_lookup_sample_batch`, the earlier batch sampler that mines by label
comparison and per-class negative pools.
"""

import math

import numpy as np

from metricboost.boosting import (
    PairBatch,
    TripletBatch,
    boost_backward_pair,
    boost_step_triplet,
)
from metricboost.ensemble import cosine_sim_grad_batch
from metricboost.evaluate import recall_at_k
from metricboost.optim import MOMENTS
from metricboost.trainer import SampledBatch


def brute_force_recall(embeddings, labels, k):
    """Recall@k by full pairwise dot products and an explicit sort per query."""
    n = len(labels)
    hits = 0
    for q in range(n):
        scored = []
        for c in range(n):
            if c == q:
                continue
            s = sum(float(a) * float(b) for a, b in zip(embeddings[q], embeddings[c]))
            scored.append((-s, c))
        scored.sort()
        top = [c for _, c in scored[:k]]
        if any(labels[c] == labels[q] for c in top):
            hits += 1
    return hits / n


def enumerated_eval_pairs(labels, rng, max_pairs=2000):
    """Evaluation pairs drawn from the full upper-triangle enumeration."""
    labels = np.asarray(labels)
    n = len(labels)
    iu, ju = np.triu_indices(n, k=1)
    pos_mask = labels[iu] == labels[ju]
    pos_i, pos_j = iu[pos_mask], ju[pos_mask]
    neg_i, neg_j = iu[~pos_mask], ju[~pos_mask]
    half = max(1, max_pairs // 2)
    if len(pos_i) > half:
        pick = rng.choice(len(pos_i), size=half, replace=False)
        pick.sort()
        pos_i, pos_j = pos_i[pick], pos_j[pick]
    n_neg = min(len(neg_i), max(1, len(pos_i)))
    if len(neg_i) > n_neg:
        pick = rng.choice(len(neg_i), size=n_neg, replace=False)
        pick.sort()
        neg_i, neg_j = neg_i[pick], neg_j[pick]
    return np.concatenate([pos_i, neg_i]), np.concatenate([pos_j, neg_j])


def per_group_recall_at_1(F, partition, labels):
    """Recall@1 of each group from the top-k ranking of its unit rows.

    Asking `recall_at_k` for K = 1 and 2 runs its partition, sort and tie
    re-rank rather than the K = 1 argmax; needs at least 3 samples.
    """
    out = []
    for sl in partition.slices():
        sub = F[:, sl]
        norms = np.linalg.norm(sub, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        out.append(recall_at_k(sub / norms, labels, [1, 2])[1])
    return out


def whole_array_step(opt, params, grads):
    """One `Optimizer.step` update on `opt` by whole-array expressions, without checks."""
    if opt.layout is None:
        size = sum(p.size for p in params)
        opt.buffers = {"flat": {key: np.zeros(size) for key in MOMENTS[opt.kind]}}
        opt.layout = [p.shape for p in params]
    flat = opt.buffers["flat"]
    opt.t += 1
    off = 0
    if opt.kind == "sgd_momentum":
        for p, g in zip(params, grads):
            vel = flat["vel"][off:off + p.size].reshape(p.shape)
            off += p.size
            vel *= opt.momentum
            vel += g
            p -= opt.lr * vel
    else:
        c1 = 1.0 - opt.beta1 ** opt.t
        c2 = 1.0 - opt.beta2 ** opt.t
        for p, g in zip(params, grads):
            m = flat["m"][off:off + p.size].reshape(p.shape)
            v = flat["v"][off:off + p.size].reshape(p.shape)
            off += p.size
            m *= opt.beta1
            m += (1.0 - opt.beta1) * g
            v *= opt.beta2
            v += (1.0 - opt.beta2) * g ** 2
            p -= opt.lr * (m / c1) / (np.sqrt(v / c2) + opt.eps)


def pearson_by_hand(a, b):
    n = len(a)
    ma = sum(a) / n
    mb = sum(b) / n
    cov = sum((x - ma) * (y - mb) for x, y in zip(a, b))
    va = math.sqrt(sum((x - ma) ** 2 for x in a))
    vb = math.sqrt(sum((y - mb) ** 2 for y in b))
    return cov / (va * vb)


def central_difference(f, x0, h=1e-6):
    """Scalar central difference."""
    return (f(x0 + h) - f(x0 - h)) / (2.0 * h)


def _group_cosine(F, partition, idx_u, idx_v):
    """Per-group scores (n, M), gradient rows (n, d) for both ends, validity."""
    n = len(idx_u)
    scores = np.empty((n, partition.num_groups))
    grads_u = np.empty((n, partition.total_dim))
    grads_v = np.empty((n, partition.total_dim))
    valid = np.ones(n, dtype=bool)
    for m, sl in enumerate(partition.slices()):
        s, du, dv, ok = cosine_sim_grad_batch(F[idx_u, sl], F[idx_v, sl])
        scores[:, m] = s
        grads_u[:, sl] = du
        grads_v[:, sl] = dv
        valid &= ok
    return scores, grads_u, grads_v, valid


def per_pair_gradient(model, X, batch, spec, signed=False, train_backbone=False):
    """Boosted gradient by per-item cosine gradient rows and np.add.at.

    Returns (grad_W, grad_backbone_weight, grad_backbone_bias, loss, n_used,
    n_skipped), the fields of `metricboost.boosting.GradResult`.
    """
    F = model.forward_batch(X)
    part, sched = model.partition, model.schedule
    dF = np.zeros_like(F)
    if isinstance(batch, PairBatch):
        ends = [(batch.index_a, batch.index_b)]
    else:
        ends = [(batch.anchor, batch.positive), (batch.anchor, batch.negative)]
    cos = [_group_cosine(F, part, u, v) for u, v in ends]
    valid = np.logical_and.reduce([c[3] for c in cos])
    n_used = int(valid.sum())
    n_skipped = len(valid) - n_used
    if n_used == 0:
        return np.zeros_like(model.W), None, None, 0.0, 0, n_skipped
    if isinstance(batch, PairBatch):
        trace = boost_backward_pair(spec, sched, cos[0][0][valid], batch.y[valid], signed=signed)
        coeffs = [trace.weighted_dloss / n_used]
    else:
        trace = boost_step_triplet(spec, sched, cos[0][0][valid], cos[1][0][valid])
        coeffs = [trace.weighted_dpos / n_used, trace.weighted_dneg / n_used]
    for (u, v), (_, gu, gv, _), coeff in zip(ends, cos, coeffs):
        rows_u = np.empty((n_used, part.total_dim))
        rows_v = np.empty((n_used, part.total_dim))
        for m, sl in enumerate(part.slices()):
            rows_u[:, sl] = coeff[:, m, None] * gu[valid, sl]
            rows_v[:, sl] = coeff[:, m, None] * gv[valid, sl]
        np.add.at(dF, u[valid], rows_u)
        np.add.at(dF, v[valid], rows_v)
    loss = float(np.mean(np.sum(trace.weights * trace.losses, axis=-1)))
    if not (train_backbone and model.backbone is not None):
        return model.embed_features(X).T @ dF, None, None, loss, n_used, n_skipped
    phi, pre = model.backbone.forward_with_pre(X)
    dpre = (dF @ model.W.T) * (pre > 0.0)
    return phi.T @ dF, dpre.T @ X, dpre.sum(axis=0), loss, n_used, n_skipped


def label_lookup_sample_batch(fs, P, K, rng, mine="pairs", max_pairs=0):
    """`trainer.sample_batch` as it was before it mined from the class-block
    layout: same RNG calls, labels compared per pair, and each triplet
    negative read from its anchor class's pool of other-class rows."""
    class_indices = fs.class_indices()
    classes = rng.choice(fs.n_classes, size=P, replace=False)
    picked = []
    for c in classes:
        idxs = class_indices[int(c)]
        take = rng.choice(idxs.size, size=K, replace=idxs.size < K)
        picked.append(idxs[take])
    indices = np.concatenate(picked)
    labels = np.repeat(classes.astype(np.int64), K)
    n = P * K
    iu, ju = np.triu_indices(n, k=1)
    same = labels[iu] == labels[ju]
    batch = SampledBatch(indices=indices, labels=labels)
    if mine == "pairs":
        pos_i, pos_j = iu[same], ju[same]
        neg_i, neg_j = iu[~same], ju[~same]
        if max_pairs and len(pos_i) + len(neg_i) > max_pairs:
            budget = max(0, max_pairs - len(pos_i))
            if len(neg_i) > budget:
                pick = rng.choice(len(neg_i), size=budget, replace=False)
                pick.sort()
                neg_i, neg_j = neg_i[pick], neg_j[pick]
        batch.pairs = PairBatch(
            np.concatenate([pos_i, neg_i]),
            np.concatenate([pos_j, neg_j]),
            np.concatenate([np.ones(len(pos_i), dtype=np.int64),
                            np.zeros(len(neg_i), dtype=np.int64)]),
        )
    else:
        anchor, positive = iu[same], ju[same]
        pools = np.empty((P, n - K), dtype=np.intp)
        pos_of_class = np.arange(n).reshape(P, K)
        for a in range(P):
            pools[a] = np.delete(np.arange(n), pos_of_class[a])
        label_to_row = {int(c): r for r, c in enumerate(classes)}
        rows = np.array([label_to_row[int(l)] for l in labels[anchor]], dtype=np.intp)
        draw = rng.integers(0, n - K, size=len(anchor))
        batch.triplets = TripletBatch(anchor, positive, pools[rows, draw])
    return batch
