"""Diversity regularizers over the learner groups.

Two losses push the groups apart:

* Activation loss: suppresses simultaneous cross-group activation. For each
  sample and each group pair (i < j) it penalizes
  sum_{k in G_i, l in G_j} (f_i_k * f_j_l)^2, which factorizes into
  ||f_i||^2 * ||f_j||^2, plus a unit-norm penalty on the d per-output-column
  vectors of W so the zero matrix is not a solution.

* Adversarial loss: a two-layer regressor per ordered group pair (j -> i,
  i < j) is trained to map group j's vector onto group i's, maximizing the
  elementwise-product similarity (1/d_j) * sum_k (f_i_k * g(f_j)_k)^2. A
  gradient reversal sits between the embedding and the regressors: the
  regressors descend toward higher similarity while the embedding descends the
  sign-flipped gradient +d(sim_term)/dW, toward lower similarity.
  Weight growth is kept in check by unit-norm penalties on regressor rows, a
  hinge on the concatenated biases, and the same column penalty on W. Those
  penalty gradients are never sign-flipped.

The embedding gradient is always computed against the precomputed features,
so none of this ever backpropagates into a backbone.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument
from .linalg import matmul


def _unit_norm_penalty(mat, axis):
    """sum_v (||v||^2 - 1)^2 over the vectors v of `mat` along `axis`, and its
    gradient: 4 (||v||^2 - 1) v. axis 0 penalizes the columns of W, axis 1
    the rows (output-neuron vectors) of a regressor layer."""
    excess = np.sum(mat * mat, axis=axis) - 1.0
    value = float(np.sum(excess ** 2))
    grad = 4.0 * np.expand_dims(excess, axis) * mat
    return value, grad


@dataclass
class ActivationResult:
    loss: float
    sup_term: float  # mean cross-group activation product
    weight_term: float  # unscaled column penalty
    grad_W: np.ndarray


def _activation_forward(model, features):
    """The activation loss's forward: (phi, F, S, Q, T, sup_term).

    phi is the backbone output, F = phi @ W, S the elementwise squares of F,
    Q[n, m] = ||f_m(x_n)||^2 and T its row sums. `activation_loss` reuses S's
    buffer for dF; a caller that needs only `sup_term` skips the gradient.
    """
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise InvalidArgument("activation loss needs a nonempty 2-D batch")
    n = X.shape[0]
    phi = model.embed_features(X)
    F = matmul(phi, model.W)
    S = np.square(F)

    # sum_{i<j} Q_i Q_j = (T^2 - sum Q^2) / 2
    Q = np.empty((n, model.partition.num_groups))
    for m, sl in enumerate(model.partition.slices()):
        Q[:, m] = np.sum(S[:, sl], axis=1)
    T = Q.sum(axis=1)
    sup_per_sample = 0.5 * (T * T - np.sum(Q * Q, axis=1))
    return phi, F, S, Q, T, float(sup_per_sample.mean())


def activation_loss(model, features, lambda_w):
    """Activation loss and its analytic W gradient over a feature batch."""
    phi, F, dF, Q, T, sup_term = _activation_forward(model, features)
    np.multiply(2.0 / F.shape[0], F, out=dF)
    for m, sl in enumerate(model.partition.slices()):
        dF[:, sl] *= (T - Q[:, m])[:, None]
    grad_W = matmul(phi.T, dF)

    weight_term, grad_pen = _unit_norm_penalty(model.W, 0)
    grad_pen *= lambda_w
    grad_W += grad_pen
    loss = sup_term + lambda_w * weight_term
    return ActivationResult(loss, sup_term, weight_term, grad_W)


@dataclass
class Regressor:
    """Two-layer map between group vector spaces: W2 relu(W1 v + b1) + b2."""

    W1: np.ndarray  # (hidden, d_in)
    b1: np.ndarray  # (hidden,)
    W2: np.ndarray  # (d_out, hidden)
    b2: np.ndarray  # (d_out,)

    @property
    def d_in(self):
        return self.W1.shape[1]

    @property
    def d_out(self):
        return self.W2.shape[0]

    @property
    def hidden(self):
        return self.W1.shape[0]


def init_regressor(rng, d_in, d_out, hidden=512):
    """Glorot-uniform weights, zero biases."""
    l1 = np.sqrt(6.0 / (d_in + hidden))
    l2 = np.sqrt(6.0 / (hidden + d_out))
    return Regressor(
        W1=rng.uniform(-l1, l1, size=(hidden, d_in)),
        b1=np.zeros(hidden),
        W2=rng.uniform(-l2, l2, size=(d_out, hidden)),
        b2=np.zeros(d_out),
    )


class RegressorBank:
    """One regressor per group pair (i < j), mapping group j onto group i."""

    def __init__(self, regressors):
        self.regressors = dict(regressors)

    @classmethod
    def create(cls, rng, partition, hidden=512):
        sizes = partition.sizes
        regs = {}
        for i in range(len(sizes)):
            for j in range(i + 1, len(sizes)):
                regs[(i, j)] = init_regressor(rng, sizes[j], sizes[i], hidden)
        return cls(regs)

    def keys(self):
        return sorted(self.regressors.keys())

    def __getitem__(self, key):
        return self.regressors[key]

    def __len__(self):
        return len(self.regressors)

    def matches(self, partition):
        sizes = partition.sizes
        M = len(sizes)
        want = {(i, j) for i in range(M) for j in range(i + 1, M)}
        if set(self.regressors) != want:
            return False
        return all(
            self[(i, j)].d_in == sizes[j] and self[(i, j)].d_out == sizes[i]
            for (i, j) in want
        )


@dataclass
class AdversarialResult:
    loss: float  # -sim_term + lambda_w * weight_term
    sim_term: float  # (1/N) sum_n sum_{i<j} L_sim
    weight_term: float  # unscaled penalties (regressors + W columns)
    grad_W: np.ndarray  # embedding gradient: grad_W_sim + lambda_w * column-penalty gradient
    grad_W_sim: np.ndarray  # +d(sim_term)/dW: the reversed path the embedding descends
    regressor_grads: RegressorBank  # gradient of the full loss, keyed like the bank


def _regressor_pair(reg, u, vj, norm, lambda_w):
    """One regressor's share of the adversarial loss.

    Returns (sim, penalty, du, dvj, grads): its similarity term, its unscaled
    penalty, the similarity term's gradient with respect to the target group
    u and the source group vj, and its gradient of the full loss as a
    Regressor. Its temporaries are freed on return, before the caller builds
    the W-sized arrays.
    """
    n = u.shape[0]
    pre = vj @ reg.W1.T + reg.b1
    hid = np.maximum(pre, 0.0)
    out = hid @ reg.W2.T + reg.b2
    prod = u * out
    sim = float(np.sum(prod * prod)) / (norm * n)

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

    # Unit-norm penalties on regressor rows plus the bias hinge. A dead
    # hinge still adds lambda_w * 0.0, so a zero bias gradient is +0.0.
    p1, pen_W1 = _unit_norm_penalty(reg.W1, 1)
    p2, pen_W2 = _unit_norm_penalty(reg.W2, 1)
    b_all = np.concatenate([reg.b1, reg.b2])
    bias_sq = float(b_all @ b_all)
    hinge_active = bias_sq - 1.0 > 0.0
    p_bias = max(0.0, bias_sq - 1.0)
    pen_b1 = 2.0 * reg.b1 if hinge_active else np.zeros_like(reg.b1)
    pen_b2 = 2.0 * reg.b2 if hinge_active else np.zeros_like(reg.b2)

    # Regressors descend the full loss: maximize similarity, bounded weights.
    for pen, g in ((pen_W1, gW1), (pen_b1, gb1), (pen_W2, gW2), (pen_b2, gb2)):
        pen *= lambda_w
        pen -= g
    return sim, p1 + p2 + p_bias, du, dvj, Regressor(pen_W1, pen_b1, pen_W2, pen_b2)


def adversarial_loss(model, bank, features, lambda_w):
    """Adversarial loss with regressor gradients and the reversed W gradient.

    Each pair's similarity is scaled by 1/d_j, the size of the regressor's
    input group j. The reversal covers both paths into the similarity: the
    target group f_i and the regressor input f_j. Each penalty gradient is
    scaled by lambda_w in its own buffer, which then takes the similarity
    term's gradient: every W-sized array is built once.
    """
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise InvalidArgument("adversarial loss needs a nonempty 2-D batch")
    part = model.partition
    if not bank.matches(part):
        raise InvalidArgument("regressor bank does not match the model partition")
    phi = model.embed_features(X)
    F = matmul(phi, model.W)
    slices = part.slices()
    sizes = part.sizes

    sim_term = 0.0
    dF_target = np.zeros_like(F)  # d(sim_term)/dF through the f_i path
    dF_source = np.zeros_like(F)  # d(sim_term)/dF through the f_j path
    reg_grads = {}
    penalty = 0.0

    for (i, j) in bank.keys():
        sim, pen, du, dvj, reg_grads[(i, j)] = _regressor_pair(
            bank[(i, j)], F[:, slices[i]], F[:, slices[j]], float(sizes[j]), lambda_w)
        sim_term += sim
        penalty += pen
        dF_target[:, slices[i]] += du
        dF_source[:, slices[j]] += dvj

    # Both the target path f_i and the regressor-input path f_j are reversed.
    grad_sim = matmul(phi.T, dF_target)
    grad_sim += matmul(phi.T, dF_source)
    w_pen, grad_W = _unit_norm_penalty(model.W, 0)
    penalty += w_pen
    grad_W *= lambda_w
    grad_W += grad_sim

    loss = -sim_term + lambda_w * penalty
    return AdversarialResult(
        loss=loss,
        sim_term=sim_term,
        weight_term=penalty,
        grad_W=grad_W,
        grad_W_sim=grad_sim,
        regressor_grads=RegressorBank(reg_grads),
    )
