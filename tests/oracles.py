"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's vectorized code paths: plain Python
loops and sorts only, so they can vouch for the fast implementations. The
exception is `per_pair_gradient`, the earlier boosting kernel kept as a
reference for the Gram-matrix one: it builds a cosine gradient row per item
and endpoint and scatters them with np.add.at; `enumerated_eval_pairs`,
the earlier `make_eval_pairs` that lists all N(N-1)/2 pairs;
`per_group_recall_at_1`, per-learner Recall@1 read from the general K > 1
ranking instead of the K = 1 argmax; `whole_array_step`, the earlier
optimizer update with whole-array expressions per parameter;
`label_lookup_sample_batch`, the earlier batch sampler that mines by label
comparison and per-class negative pools; and `per_learner_pair_trace` /
`per_learner_triplet_trace`, the earlier boosting traces with one loss and
one weight call per learner; `full_activation_loss`, the earlier
activation loss with per-group temporaries, and `full_call_activation_init`,
the earlier activation `init_solver` loop, which evaluates that loss once
more after its last iteration; `full_adversarial_loss`, the earlier
adversarial loss that builds every W-sized sum as a new array, and
`scaled_mix_train_step`, the earlier `train_step` mixing of the diversity
gradients through new arrays; and `triu_feature_correlation`, the earlier
`feature_correlation` that gathers cross-group pairs through
`np.triu_indices`; and `per_class_indices`, the earlier
`FeatureSet.class_indices` with one label comparison per class; and
`two_pass_pair_loss`, the earlier binomial deviance whose softplus and
sigmoid each compute exp(-|z|).
"""

from dataclasses import dataclass
import math

import numpy as np

from metricboost.boosting import (
    PairBatch,
    TripletBatch,
    accumulate_W_gradient,
    boost_backward_pair,
    boost_forward_pair,
    boost_step_triplet,
)
from metricboost.diversity import ActivationResult, Regressor, RegressorBank
from metricboost.ensemble import cosine_sim_grad_batch
from metricboost.errors import InvalidArgument, UndefinedCorrelation
from metricboost.evaluate import recall_at_k
from metricboost.linalg import matmul
from metricboost.losses import boosting_weight_vec, pair_loss_vec, triplet_loss_vec
from metricboost.optim import MOMENTS, Optimizer
from metricboost.trainer import _INIT_TOL, _INIT_TOL_WINDOW, SampledBatch


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
    """Recall@1 of each group from the K > 1 ranking of its unit rows.

    Asking `recall_at_k` for K = 1 and 2 runs its first-hit rank count
    rather than the K = 1 argmax; needs at least 3 samples.
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


def per_pair_gradient(model, X, batch, spec):
    """Boosted gradient by per-item cosine gradient rows and np.add.at.

    Returns (grad_W, grad_backbone_weight, grad_backbone_bias, loss, n_used,
    n_skipped): the fields of `metricboost.boosting.GradResult`, with the
    backbone's two gradients (None without a backbone) unpacked.
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
        trace = boost_backward_pair(spec, sched, cos[0][0][valid], batch.y[valid])
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
    if model.backbone is None:
        return model.embed_features(X).T @ dF, None, None, loss, n_used, n_skipped
    # Pre-activations computed here, not read from the backbone's forward.
    pre = X @ model.backbone.weight.T + model.backbone.bias
    phi = np.maximum(pre, 0.0)
    dpre = (dF @ model.W.T) * (pre > 0.0)
    return phi.T @ dF, dpre.T @ X, dpre.sum(axis=0), loss, n_used, n_skipped


def per_learner_pair_trace(spec, schedule, scores, y):
    """`boost_backward_pair` with a loss call per learner and a weight call
    per learner after the first. Returns (acc, weights, losses,
    weighted_dloss)."""
    scores = np.asarray(scores, dtype=np.float64)
    y = np.asarray(y)
    acc = boost_forward_pair(schedule, scores)
    M = schedule.num_learners
    w = np.empty_like(acc)
    w[..., 0] = 1.0
    for m in range(1, M):
        w[..., m] = boosting_weight_vec(spec, s=acc[..., m - 1], y=y)
    losses = np.empty_like(scores)
    dloss = np.empty_like(scores)
    for m in range(M):
        losses[..., m], dloss[..., m] = pair_loss_vec(spec, scores[..., m], y)
    return acc, w, losses, w * dloss


def per_learner_triplet_trace(spec, schedule, scores_pos, scores_neg):
    """`boost_step_triplet` with a loss and a weight call per learner.
    Returns (acc_pos, acc_neg, weights, losses, weighted_dpos, weighted_dneg)."""
    scores_pos = np.asarray(scores_pos, dtype=np.float64)
    scores_neg = np.asarray(scores_neg, dtype=np.float64)
    acc_pos = boost_forward_pair(schedule, scores_pos)
    acc_neg = boost_forward_pair(schedule, scores_neg)
    M = schedule.num_learners
    w = np.empty_like(scores_pos)
    w[..., 0] = 1.0
    for m in range(1, M):
        w[..., m] = boosting_weight_vec(spec, s_pos=acc_pos[..., m - 1], s_neg=acc_neg[..., m - 1])
    losses = np.empty_like(scores_pos)
    dpos = np.empty_like(scores_pos)
    dneg = np.empty_like(scores_pos)
    for m in range(M):
        losses[..., m], dpos[..., m], dneg[..., m] = triplet_loss_vec(
            spec, scores_pos[..., m], scores_neg[..., m]
        )
    return acc_pos, acc_neg, w, losses, w * dpos, w * dneg


def two_pass_pair_loss(spec, s, y):
    """The binomial branch of `pair_loss_vec` as a softplus and a sigmoid
    pass over z, with dz/ds built from sign and cost arrays. Returns
    (loss, dloss_ds)."""
    s = np.asarray(s, dtype=np.float64)
    y = np.asarray(y)
    yf = y.astype(np.float64)
    sign = 2.0 * yf - 1.0
    cost = np.where(y == 1, spec.cost_pos, spec.cost_neg)
    zs = -sign * spec.beta1 * cost
    z = zs * (s - spec.beta2)
    softplus = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
    e = np.exp(-np.abs(z))
    sigmoid = np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
    return softplus, sigmoid * zs


def label_lookup_sample_batch(fs, P, K, rng, mine="pairs"):
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


def per_class_indices(fs):
    """Index array of each class id, one label scan per class."""
    return [np.flatnonzero(fs.labels == c) for c in range(fs.n_classes)]


def _column_penalty(W):
    """Unit-norm penalty on the d columns of W: sum_i (||w_i||^2 - 1)^2."""
    col_sq = np.sum(W * W, axis=0)
    value = float(np.sum((col_sq - 1.0) ** 2))
    grad = 4.0 * (col_sq - 1.0)[None, :] * W
    return value, grad


def _row_penalty(mat):
    """Unit-norm penalty on the rows (output-neuron vectors) of a matrix."""
    row_sq = np.sum(mat * mat, axis=1)
    value = float(np.sum((row_sq - 1.0) ** 2))
    grad = 4.0 * (row_sq - 1.0)[:, None] * mat
    return value, grad


def full_activation_loss(model, features, lambda_w):
    """The activation loss as computed before its tail was built in place."""
    X = np.asarray(features, dtype=np.float64)
    n = X.shape[0]
    phi = model.embed_features(X)
    F = matmul(phi, model.W)
    part = model.partition
    Q = np.empty((n, part.num_groups))
    for m, sl in enumerate(part.slices()):
        Q[:, m] = np.sum(F[:, sl] ** 2, axis=1)
    T = Q.sum(axis=1)
    sup_term = float((0.5 * (T * T - np.sum(Q * Q, axis=1))).mean())
    dF = np.empty_like(F)
    for m, sl in enumerate(part.slices()):
        dF[:, sl] = (2.0 / n) * F[:, sl] * (T - Q[:, m])[:, None]
    grad_sup = matmul(phi.T, dF)
    weight_term, grad_pen = _column_penalty(model.W)
    loss = sup_term + lambda_w * weight_term
    return ActivationResult(loss, sup_term, weight_term, grad_sup + lambda_w * grad_pen)


def full_call_activation_init(features, model, lambda_w, lr, momentum=0.9,
                              max_iterations=5000):
    """(final_loss, initial_div_term, final_div_term, iterations_run) of the
    activation init loop with `full_activation_loss`, updating model.W."""
    opt = Optimizer(kind="sgd_momentum", lr=lr, momentum=momentum)
    history = []
    for it in range(max_iterations):
        res = full_activation_loss(model, features, lambda_w)
        if it == 0:
            initial_term = res.sup_term
        history.append(res.loss)
        if it >= _INIT_TOL_WINDOW:
            ref = history[it - _INIT_TOL_WINDOW]
            if abs(history[it] - ref) <= _INIT_TOL * max(abs(ref), 1e-12):
                break
        opt.step([model.W], [res.grad_W])
    final_term = full_activation_loss(model, features, lambda_w).sup_term
    return history[-1], initial_term, final_term, it + 1


@dataclass
class FullAdversarialResult:
    loss: float
    sim_term: float
    weight_term: float
    grad_W: np.ndarray
    grad_W_sim: np.ndarray
    regressor_grads: RegressorBank


def full_adversarial_loss(model, bank, features, lambda_w):
    """The adversarial loss as computed before its W-sized tail and regressor
    gradients were built in place."""
    X = np.asarray(features, dtype=np.float64)
    part = model.partition
    n = X.shape[0]
    phi = model.embed_features(X)
    F = matmul(phi, model.W)
    slices = part.slices()
    sizes = part.sizes

    sim_term = 0.0
    dF_target = np.zeros_like(F)
    dF_source = np.zeros_like(F)
    reg_grads = {}
    penalty = 0.0

    for (i, j) in bank.keys():
        reg = bank[(i, j)]
        u = F[:, slices[i]]
        vj = F[:, slices[j]]
        norm = float(sizes[j])

        pre = vj @ reg.W1.T + reg.b1
        hid = np.maximum(pre, 0.0)
        out = hid @ reg.W2.T + reg.b2
        prod = u * out
        sim_term += float(np.sum(prod * prod)) / (norm * n)

        scale = 2.0 / (norm * n)
        du = scale * prod * out
        dout = scale * prod * u
        gW2 = dout.T @ hid
        gb2 = dout.sum(axis=0)
        dhid = dout @ reg.W2
        dpre = dhid * (pre > 0.0)
        gW1 = dpre.T @ vj
        gb1 = dpre.sum(axis=0)
        dvj = dpre @ reg.W1

        dF_target[:, slices[i]] += du
        dF_source[:, slices[j]] += dvj

        p1, gp1 = _row_penalty(reg.W1)
        p2, gp2 = _row_penalty(reg.W2)
        b_all = np.concatenate([reg.b1, reg.b2])
        bias_sq = float(b_all @ b_all)
        hinge_active = bias_sq - 1.0 > 0.0
        p_bias = max(0.0, bias_sq - 1.0)
        gb1_pen = 2.0 * reg.b1 if hinge_active else np.zeros_like(reg.b1)
        gb2_pen = 2.0 * reg.b2 if hinge_active else np.zeros_like(reg.b2)
        penalty += p1 + p2 + p_bias

        reg_grads[(i, j)] = Regressor(
            W1=-gW1 + lambda_w * gp1,
            b1=-gb1 + lambda_w * gb1_pen,
            W2=-gW2 + lambda_w * gp2,
            b2=-gb2 + lambda_w * gb2_pen,
        )

    w_pen, grad_w_pen = _column_penalty(model.W)
    penalty += w_pen

    grad_sim_target = matmul(phi.T, dF_target)
    grad_sim_source = matmul(phi.T, dF_source)
    grad_sim = grad_sim_target + grad_sim_source

    loss = -sim_term + lambda_w * penalty
    return FullAdversarialResult(
        loss=loss,
        sim_term=sim_term,
        weight_term=penalty,
        grad_W=grad_sim + lambda_w * grad_w_pen,
        grad_W_sim=grad_sim,
        regressor_grads=RegressorBank(reg_grads),
    )


def scaled_mix_train_step(cfg, model, bank, opt, features, batch):
    """A boosted pair step of `train_step` (no backbone) with the diversity
    gradients mixed as `grad_W + lam * div.grad_W` and the regressor gradients
    scaled into a new bank, from `full_activation_loss` or
    `full_adversarial_loss`."""
    res = accumulate_W_gradient(model, features, batch.pairs, cfg.loss_spec())
    lam = cfg.resolved_lambda_div()
    if cfg.diversity == "activation":
        div = full_activation_loss(model, features, cfg.lambda_w)
    else:
        div = full_adversarial_loss(model, bank, features, cfg.lambda_w)
    params, grads = [model.W], [res.grad_W + lam * div.grad_W]
    for key in bank.keys() if cfg.diversity == "adversarial" else ():
        r = div.regressor_grads[key]
        params += [bank[key].W1, bank[key].b1, bank[key].W2, bank[key].b2]
        grads += [lam * r.W1, lam * r.b1, lam * r.W2, lam * r.b2]
    opt.step(params, grads)


def triu_feature_correlation(F, partition):
    """Mean |Pearson| over all cross-group dimension pairs, the pairs gathered
    with `np.triu_indices` and a group comparison of their two ends."""
    if partition.num_groups < 2:
        raise InvalidArgument("feature correlation needs at least 2 groups")
    F = np.asarray(F, dtype=np.float64)
    n, d = F.shape
    if n < 2:
        raise InvalidArgument("need at least 2 samples")
    centered = F - F.mean(axis=0)
    norms = np.linalg.norm(centered, axis=0)
    valid = norms > 0.0
    group_of = np.empty(d, dtype=np.intp)
    for m, sl in enumerate(partition.slices()):
        group_of[sl] = m
    safe = np.where(valid, norms, 1.0)
    Z = centered / safe
    corr = Z.T @ Z
    iu, ju = np.triu_indices(d, k=1)
    mask = (group_of[iu] != group_of[ju]) & valid[iu] & valid[ju]
    if not mask.any():
        raise UndefinedCorrelation("no usable cross-group dimension pairs")
    vals = np.abs(corr[iu[mask], ju[mask]])
    return float(np.clip(vals, 0.0, 1.0).mean())
