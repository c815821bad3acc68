"""Online boosting over pair and triplet batches.

Forward pass: per-learner cosine scores are blended into a running ensemble
score, s^m = (1 - eta_m) s^{m-1} + eta_m s_m, starting from s^0 = 0. Backward
pass: learner m backprops its own loss scaled by a difficulty weight w^m,
where w^1 = 1 and w^{m+1} is derived from the loss derivative at the
accumulated score s^m (i.e. including learner m). Weights are treated as
constants by the gradient: nothing differentiates through the reweighting.

Triplets keep two accumulators, one for the positive and one for the negative
pair, and the hinge derivative turns the weight into exactly 0 or 1.

`accumulate_W_gradient` backpropagates a whole mined batch through one
similarity-matrix kernel, the form used by Lifted Structured and
Multi-Similarity losses. Each group's embedding rows are normalized once and
multiplied into a Gram matrix of all cosine scores of the batch; pair and
triplet scores are gathered from it, and the weighted loss derivatives are
scattered back into an n x n coefficient matrix, so the gradient costs two
matrix products per group and O(n^2 + n*d) memory, whatever the number of
mined items. Items whose embedding collapses to zero norm in any group are
skipped and counted rather than raising. `accumulate_plain_gradient`, the
unboosted baseline, is the same kernel on a one-group view of the model.
"""

from dataclasses import dataclass

import numpy as np

# cosine_sim_grad_batch is not called here; it stays bound in this module
# because perfbench/spans.py patches it by this module's name.
from .ensemble import Backbone, GroupPartition, cosine_sim_grad_batch, make_schedule  # noqa: F401
from .errors import InvalidArgument, NumericFailure
from .losses import boosting_weight_vec, pair_loss_vec, triplet_loss_vec


@dataclass
class PairBatch:
    """Column-wise pair arrays (indices into the feature batch)."""

    index_a: np.ndarray
    index_b: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.index_a = np.asarray(self.index_a, dtype=np.intp)
        self.index_b = np.asarray(self.index_b, dtype=np.intp)
        self.y = np.asarray(self.y, dtype=np.int64)
        if not (len(self.index_a) == len(self.index_b) == len(self.y)):
            raise InvalidArgument("pair arrays must have equal length")
        if np.any(self.index_a == self.index_b):
            raise InvalidArgument("pairs must join distinct samples")

    def __len__(self):
        return len(self.y)


@dataclass
class TripletBatch:
    anchor: np.ndarray
    positive: np.ndarray
    negative: np.ndarray

    def __post_init__(self):
        self.anchor = np.asarray(self.anchor, dtype=np.intp)
        self.positive = np.asarray(self.positive, dtype=np.intp)
        self.negative = np.asarray(self.negative, dtype=np.intp)
        if not (len(self.anchor) == len(self.positive) == len(self.negative)):
            raise InvalidArgument("triplet arrays must have equal length")
        if np.any((self.anchor == self.positive) | (self.anchor == self.negative)
                  | (self.positive == self.negative)):
            raise InvalidArgument("triplets must join three distinct samples")

    def __len__(self):
        return len(self.anchor)


@dataclass
class BoostTrace:
    """Forward/backward record for a pair batch: all arrays (..., M)."""

    scores: np.ndarray  # per-learner s_m
    acc: np.ndarray  # accumulated s^m
    weights: np.ndarray  # w^m
    losses: np.ndarray  # per-learner loss at s_m
    weighted_dloss: np.ndarray  # w^m * dloss/ds_m


@dataclass
class TripletTrace:
    scores_pos: np.ndarray
    scores_neg: np.ndarray
    acc_pos: np.ndarray
    acc_neg: np.ndarray
    weights: np.ndarray
    losses: np.ndarray
    weighted_dpos: np.ndarray
    weighted_dneg: np.ndarray


def boost_forward_pair(schedule, scores):
    """Accumulate per-learner scores: s^m = (1 - eta_m) s^{m-1} + eta_m s_m.

    `scores` has learner index last: shape (M,) or (n, M). Returns the
    accumulations with the same shape; the final entry is the ensemble score.
    """
    scores = np.asarray(scores, dtype=np.float64)
    M = schedule.num_learners
    if scores.shape[-1] != M:
        raise InvalidArgument(f"expected {M} learner scores, got {scores.shape[-1]}")
    acc = np.empty_like(scores)
    prev = np.zeros(scores.shape[:-1])
    for m in range(M):
        prev = (1.0 - schedule.eta[m]) * prev + schedule.eta[m] * scores[..., m]
        acc[..., m] = prev
    return acc


def boost_backward_pair(spec, schedule, scores, y):
    """Full forward + backward record for a pair batch.

    scores: (M,) or (n, M) per-learner cosine scores; y: scalar or (n,).
    Only the accumulation loops over learners; losses and weights are one
    call each over the learner axis.
    """
    scores = np.asarray(scores, dtype=np.float64)
    y = np.asarray(y)[..., None]
    acc = boost_forward_pair(schedule, scores)
    w = np.ones_like(acc)
    w[..., 1:] = boosting_weight_vec(spec, s=acc[..., :-1], y=y)
    losses, dloss = pair_loss_vec(spec, scores, y)
    return BoostTrace(
        scores=scores, acc=acc, weights=w, losses=losses, weighted_dloss=w * dloss
    )


def boost_step_triplet(spec, schedule, scores_pos, scores_neg):
    """Forward + backward record for a triplet batch (dual accumulators)."""
    if spec.kind != "triplet":
        raise InvalidArgument("boost_step_triplet needs a triplet loss spec")
    scores_pos = np.asarray(scores_pos, dtype=np.float64)
    scores_neg = np.asarray(scores_neg, dtype=np.float64)
    acc_pos = boost_forward_pair(schedule, scores_pos)
    acc_neg = boost_forward_pair(schedule, scores_neg)
    w = np.ones_like(acc_pos)
    w[..., 1:] = boosting_weight_vec(spec, s_pos=acc_pos[..., :-1], s_neg=acc_neg[..., :-1])
    losses, dpos, dneg = triplet_loss_vec(spec, scores_pos, scores_neg)
    return TripletTrace(
        scores_pos=scores_pos,
        scores_neg=scores_neg,
        acc_pos=acc_pos,
        acc_neg=acc_neg,
        weights=w,
        losses=losses,
        weighted_dpos=w * dpos,
        weighted_dneg=w * dneg,
    )


@dataclass
class GradResult:
    grad_W: np.ndarray
    grad_backbone: Backbone | None  # the backbone's gradients, when it has one
    loss: float  # mean reweighted metric loss over used items
    n_used: int
    n_skipped: int


def _finish_gradient(model, X, dF, phi):
    """Chain dL/dF back into W and, when the model has one, the backbone.

    `phi` is the embedding input of the forward pass, so the chain reuses it
    instead of a second forward: the ReLU passes gradient where phi > 0,
    which is exactly where its pre-activation is > 0.
    """
    grad_W = phi.T @ dF
    if model.backbone is None:
        return grad_W, None
    dphi = dF @ model.W.T
    dpre = dphi * (phi > 0.0)
    return grad_W, Backbone(dpre.T @ X, dpre.sum(axis=0))


def _gram_gradient(model, part, schedule, features, batch, spec):
    """The gradient kernel behind both routes, for any grouping of the columns.

    Per group m: unit rows U_m = F_m / r_m and Gram matrix G_m = U_m U_m^T;
    item scores are gathered from G_m, the weighted loss derivatives are
    scattered into an n x n coefficient matrix C_m, and with S_m = C_m + C_m^T
    the embedding gradient is dF_m = (S_m U_m - rowsum(S_m * G_m) U_m) / r_m.
    """
    X = np.asarray(features, dtype=np.float64)
    phi = model.embed_features(X)
    F = phi @ model.W
    n = len(F)
    slices = part.slices()
    norms = np.stack([np.linalg.norm(F[:, sl], axis=1) for sl in slices], axis=-1)
    finite = np.isfinite(norms).all(axis=0)
    if not finite.all():
        raise NumericFailure(
            f"non-finite embedding norm in group {int(np.flatnonzero(~finite)[0])}"
        )
    row_ok = np.all(norms > 0.0, axis=1)
    norms[norms == 0.0] = 1.0  # zero rows only occur in skipped items
    U = np.empty_like(F)
    for m, sl in enumerate(slices):
        U[:, sl] = F[:, sl] / norms[:, m, None]
    G = np.stack([U[:, sl] @ U[:, sl].T for sl in slices])  # (M, n, n)

    if isinstance(batch, PairBatch):
        rows, cols, y = batch.index_a, batch.index_b, batch.y
        valid = row_ok[rows] & row_ok[cols]
    elif isinstance(batch, TripletBatch):
        if spec.kind != "triplet":
            raise InvalidArgument("triplet batches need a triplet loss spec")
        ia, ip, ineg = batch.anchor, batch.positive, batch.negative
        valid = row_ok[ia] & row_ok[ip] & row_ok[ineg]
    else:
        raise InvalidArgument(f"unsupported batch type {type(batch).__name__}")
    n_used = int(valid.sum())
    n_skipped = len(valid) - n_used
    if n_used == 0:
        grad_backbone = None
        if model.backbone is not None:
            grad_backbone = Backbone(np.zeros_like(model.backbone.weight),
                                     np.zeros_like(model.backbone.bias))
        return GradResult(np.zeros_like(model.W), grad_backbone, 0.0, 0, n_skipped)

    if isinstance(batch, PairBatch):
        rows, cols, y = rows[valid], cols[valid], y[valid]
        trace = boost_backward_pair(spec, schedule, G[:, rows, cols].T, y)
        coeff = trace.weighted_dloss
    else:
        ia, ip, ineg = ia[valid], ip[valid], ineg[valid]
        trace = boost_step_triplet(spec, schedule, G[:, ia, ip].T, G[:, ia, ineg].T)
        rows, cols = np.concatenate([ia, ia]), np.concatenate([ip, ineg])
        coeff = np.concatenate([trace.weighted_dpos, trace.weighted_dneg])
    loss = float(np.mean(np.sum(trace.weights * trace.losses, axis=-1)))

    # Cell m*n^2 + row*n + col of the (M, n, n) stack; bincount sums repeats.
    M = len(slices)
    cell = (np.arange(M)[:, None] * (n * n) + (rows * n + cols)).ravel()
    C = np.bincount(cell, weights=(coeff / n_used).T.ravel(),
                    minlength=M * n * n).reshape(M, n, n)
    S = C + C.transpose(0, 2, 1)
    dF = np.empty_like(F)
    for m, sl in enumerate(slices):
        radial = np.einsum("ij,ij->i", S[m], G[m])
        dF[:, sl] = (S[m] @ U[:, sl] - radial[:, None] * U[:, sl]) / norms[:, m, None]

    grad_W, grad_backbone = _finish_gradient(model, X, dF, phi)
    return GradResult(grad_W, grad_backbone, loss, n_used, n_skipped)


def accumulate_W_gradient(model, features, batch, spec):
    """Gradient of the mean reweighted metric loss over a mined batch.

    `features`: (n_samples, input_dim) raw inputs; `batch`: PairBatch or
    TripletBatch of indices into those rows. Weights w^m are computed from the
    current forward pass and frozen; the returned gradient is exact for the
    objective with those weights held constant. Items with a zero-norm group
    embedding are dropped and counted in n_skipped; a non-finite group norm
    raises NumericFailure. The gradient reaches W and, when the model has
    one, the backbone.
    """
    return _gram_gradient(model, model.partition, model.schedule, features, batch, spec)


def accumulate_plain_gradient(model, features, batch, spec):
    """Baseline route: one global loss on the full embedding, no reweighting.

    The same kernel on a one-group view of the model (all d columns, one
    learner), so at M=1 it is bit-identical to the boosted route. Like the
    boosted route, it trains W and the backbone when there is one.
    """
    whole = GroupPartition((model.embedding_dim,))
    return _gram_gradient(model, whole, make_schedule(1), features, batch, spec)
