"""Central finite-difference verification of every analytic gradient.

Each suite builds random instances away from hinge/ReLU kinks, evaluates the
analytic gradient, and compares it against (f(x + h e_k) - f(x - h e_k)) / 2h
per coordinate. The comparison metric is the max absolute difference scaled
by the larger gradient magnitude.

`central_diff` moves each entry of the live array it is given and puts it
back, so an objective may ignore its argument and read the model, backbone
or regressor that holds that array. The array must be C-contiguous.
"""

from dataclasses import dataclass

import numpy as np

from .boosting import (
    PairBatch,
    TripletBatch,
    accumulate_W_gradient,
    boost_backward_pair,
    boost_step_triplet,
)
from .diversity import RegressorBank, activation_loss, adversarial_loss
from .ensemble import cosine_sim_grad_batch, init_model, proportional_partition
from .errors import InvalidArgument
from .linalg import _check_seed, make_rng
from .losses import LossSpec, pair_loss, pair_loss_vec, triplet_loss_vec

MODULES = ("losses", "boosting", "diversity")


@dataclass
class CheckResult:
    module: str
    name: str
    worst_rel: float
    tol: float
    instances: int

    @property
    def passed(self):
        return self.worst_rel < self.tol


def central_diff(f, x, h=1e-6):
    """Central finite-difference gradient of scalar f at array x.

    Entries of x are perturbed in place and restored bit for bit, also when
    f raises; f is called with x itself.
    """
    x = np.asarray(x, dtype=np.float64)
    if not x.flags.c_contiguous:
        raise InvalidArgument("central_diff needs a C-contiguous array")
    g = np.zeros_like(x)
    flat = x.ravel()
    gflat = g.ravel()
    for k in range(flat.size):
        orig = flat[k]
        try:
            flat[k] = orig + h
            fp = f(x)
            flat[k] = orig - h
            fm = f(x)
        finally:
            flat[k] = orig
        gflat[k] = (fp - fm) / (2.0 * h)
    return g


def rel_error(a, b):
    """Max |a - b| scaled by the larger overall magnitude."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(np.max(np.abs(a), initial=0.0), np.max(np.abs(b), initial=0.0), 1e-10)
    return float(np.max(np.abs(a - b), initial=0.0) / scale)


def check_gradient(value_fn, grad, x, h=1e-6):
    """Relative error between `grad` and the FD gradient of value_fn at x."""
    return rel_error(grad, central_diff(value_fn, x, h=h))


def _away_from(value, kinks, margin=0.05):
    return all(abs(value - k) > margin for k in kinks)


def check_pair_losses(seed=0, n=60):
    rng = make_rng(seed)
    results = []
    for kind in ("binomial_deviance", "contrastive"):
        spec = LossSpec(kind=kind)
        worst = 0.0
        done = 0
        while done < n:
            s = float(rng.uniform(-0.99, 0.99))
            y = int(rng.integers(0, 2))
            if kind == "contrastive" and not _away_from(s, [spec.margin_contrastive]):
                continue
            _, analytic = pair_loss(spec, s, y)
            fd = central_diff(lambda x: pair_loss(spec, float(x[0]), y)[0], np.array([s]))
            worst = max(worst, rel_error(np.array([analytic]), fd))
            done += 1
        results.append(CheckResult("losses", f"pair_loss[{kind}]", worst, 1e-5, n))
    return results


def check_triplet_loss(seed=1, n=60):
    rng = make_rng(seed)
    spec = LossSpec(kind="triplet")
    worst = 0.0
    done = 0
    while done < n:
        sp = float(rng.uniform(-0.99, 0.99))
        sn = float(rng.uniform(-0.99, 0.99))
        if not _away_from(sn - sp + spec.margin_triplet, [0.0]):
            continue
        _, dp, dn = triplet_loss_vec(spec, sp, sn)
        fd = central_diff(
            lambda x: triplet_loss_vec(spec, float(x[0]), float(x[1]))[0],
            np.array([sp, sn]),
        )
        worst = max(worst, rel_error(np.array([dp, dn]), fd))
        done += 1
    return [CheckResult("losses", "triplet_loss", worst, 1e-5, n)]


def check_cosine(seed=2, n=60, dim=16):
    rng = make_rng(seed)
    worst = 0.0
    for _ in range(n):
        u = rng.standard_normal((1, dim))
        v = rng.standard_normal((1, dim))
        _, du, dv, _ = cosine_sim_grad_batch(u, v)
        fd_u = central_diff(lambda x: cosine_sim_grad_batch(x, v)[0][0], u)
        fd_v = central_diff(lambda x: cosine_sim_grad_batch(u, x)[0][0], v)
        worst = max(worst, rel_error(du, fd_u), rel_error(dv, fd_v))
    return [CheckResult("boosting", "cosine_sim_grad", worst, 1e-5, n)]


def _random_setup(rng, h=7, d=6, M=3, n_samples=8, backbone=False):
    """Random instance with every group embedding safely away from zero norm,
    so central differences never straddle a degenerate region."""
    part = proportional_partition(d, M)
    while True:
        model = init_model(rng, h, part, backbone_in_dim=h + 2 if backbone else None)
        X = rng.standard_normal((n_samples, model.input_dim))
        F = model.forward_batch(X)
        norms = [np.linalg.norm(F[:, sl], axis=1).min() for sl in part.slices()]
        if min(norms) > 1e-3:
            return model, X


def _frozen_objective(model, X, batch, spec):
    """Boosted loss of the live model.W and backbone, with the boosting
    weights frozen at the current forward pass."""
    if isinstance(batch, PairBatch):
        ends = ((batch.index_a, batch.index_b),)
        weigh = lambda s: boost_backward_pair(spec, model.schedule, *s, batch.y)
        loss = lambda s: pair_loss_vec(spec, *s, batch.y)[0]
    else:
        ends = ((batch.anchor, batch.positive), (batch.anchor, batch.negative))
        weigh = lambda s: boost_step_triplet(spec, model.schedule, *s)
        loss = lambda s: triplet_loss_vec(spec, *s)[0]
    slices = model.partition.slices()

    def scores():
        F = model.forward_batch(X)
        return [np.stack([_cos_rows(F[a, sl], F[b, sl]) for sl in slices], axis=1)
                for a, b in ends]

    frozen_w = weigh(scores()).weights

    def objective(_):
        s = scores()
        total = 0.0
        for m in range(len(slices)):
            total += float(np.sum(frozen_w[:, m] * loss([t[:, m] for t in s])))
        return total / len(batch)

    return objective


def _cos_rows(u, v):
    nu = np.linalg.norm(u, axis=1)
    nv = np.linalg.norm(v, axis=1)
    return np.einsum("ij,ij->i", u, v) / (nu * nv)


def _random_pairs(rng, n_samples, n_pairs):
    idx_a = []
    idx_b = []
    y = []
    while len(idx_a) < n_pairs:
        a, b = rng.integers(0, n_samples, size=2)
        if a == b:
            continue
        idx_a.append(int(a))
        idx_b.append(int(b))
        y.append(int(rng.integers(0, 2)))
    return PairBatch(np.array(idx_a), np.array(idx_b), np.array(y))


def _random_triplets(rng, n_samples, n_trip):
    rows = []
    while len(rows) < n_trip:
        a, p, q = rng.integers(0, n_samples, size=3)
        if len({int(a), int(p), int(q)}) != 3:
            continue
        rows.append((int(a), int(p), int(q)))
    arr = np.array(rows)
    return TripletBatch(arr[:, 0], arr[:, 1], arr[:, 2])


def check_boosted_gradient(seed=3, n=50):
    rng = make_rng(seed)
    results = []
    for kind, backbone, label in (
            ("binomial_deviance", False, "[pairs][binomial_deviance]"),
            ("contrastive", False, "[pairs][contrastive]"),
            ("binomial_deviance", True, "[pairs+backbone][binomial_deviance]"),
            ("triplet", False, "[triplets]")):
        spec = LossSpec(kind=kind)
        draw_batch = _random_triplets if kind == "triplet" else _random_pairs
        worst = 0.0
        for _ in range(n):
            model, X = _random_setup(rng, backbone=backbone)
            batch = draw_batch(rng, X.shape[0], 10)
            res = accumulate_W_gradient(model, X, batch, spec)
            obj = _frozen_objective(model, X, batch, spec)
            worst = max(worst, check_gradient(obj, res.grad_W, model.W))
            if backbone:
                worst = max(worst, check_gradient(obj, res.grad_backbone.weight,
                                                  model.backbone.weight))
        results.append(CheckResult("boosting", "accumulate_W_gradient" + label,
                                   worst, 1e-5, n))
    return results


def check_activation(seed=4, n=50):
    rng = make_rng(seed)
    worst = 0.0
    for _ in range(n):
        model, X = _random_setup(rng, h=8, d=6, M=2, n_samples=4)
        lam = float(rng.uniform(0.1, 2.0))
        res = activation_loss(model, X, lam)
        obj = lambda _: activation_loss(model, X, lam).loss
        worst = max(worst, check_gradient(obj, res.grad_W, model.W))
    return [CheckResult("diversity", "activation_loss", worst, 1e-5, n)]


def check_adversarial(seed=5, n=50):
    rng = make_rng(seed)
    worst_w = 0.0
    worst_reg = 0.0
    for _ in range(n):
        model, X = _random_setup(rng, h=7, d=6, M=2, n_samples=4)
        bank = RegressorBank.create(rng, model.partition, hidden=5)
        lam = float(rng.uniform(0.1, 2.0))
        res = adversarial_loss(model, bank, X, lam)

        def w_penalty(W):
            col_sq = np.sum(W * W, axis=0)
            return lam * float(np.sum((col_sq - 1.0) ** 2))

        # Reversed similarity path: grad_W_sim is +d(sim_term)/dW.
        sim = lambda _: adversarial_loss(model, bank, X, lam).sim_term
        worst_w = max(worst_w, check_gradient(sim, res.grad_W_sim, model.W))
        # Penalty path (never reversed).
        fd_pen = central_diff(w_penalty, model.W)
        worst_w = max(worst_w, rel_error(res.grad_W - res.grad_W_sim, fd_pen))

        # Regressor parameters descend the true loss; FD the full objective.
        key = bank.keys()[0]
        loss = lambda _: adversarial_loss(model, bank, X, lam).loss
        for attr in ("W1", "b1", "W2", "b2"):
            grad = getattr(res.regressor_grads[key], attr)
            worst_reg = max(worst_reg, check_gradient(loss, grad, getattr(bank[key], attr)))
    return [
        CheckResult("diversity", "adversarial_loss[embedding]", worst_w, 1e-5, n),
        CheckResult("diversity", "adversarial_loss[regressors]", worst_reg, 1e-5, n),
    ]


def run_suites(modules=MODULES, seed=0):
    """All finite-difference suites for the requested modules."""
    unknown = set(modules) - set(MODULES)
    if unknown:
        raise InvalidArgument(f"unknown gradcheck modules: {sorted(unknown)}")
    _check_seed(seed)  # each suite adds its offset to the seed
    results = []
    if "losses" in modules:
        results += check_pair_losses(seed=seed)
        results += check_triplet_loss(seed=seed + 1)
    if "boosting" in modules:
        results += check_cosine(seed=seed + 2)
        results += check_boosted_gradient(seed=seed + 3)
    if "diversity" in modules:
        results += check_activation(seed=seed + 4)
        results += check_adversarial(seed=seed + 5)
    return results
