"""Central finite-difference verification of every analytic gradient.

Each suite builds random instances away from hinge/ReLU kinks, evaluates the
analytic gradient, and compares it against (f(x + h e_k) - f(x - h e_k)) / 2h
per coordinate. The comparison metric is the max absolute difference scaled
by the larger gradient magnitude.
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
from .linalg import make_rng
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
    """Central finite-difference gradient of scalar f at array x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.ravel()
    gflat = g.ravel()
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + h
        fp = f(x)
        flat[k] = orig - h
        fm = f(x)
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
    return rel_error(grad, central_diff(value_fn, x.copy(), h=h))


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
        fd_u = central_diff(lambda x: cosine_sim_grad_batch(x, v)[0][0], u.copy())
        fd_v = central_diff(lambda x: cosine_sim_grad_batch(u, x)[0][0], v.copy())
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


def _frozen_pair_objective(model, X, batch, spec, signed):
    """Objective with boosting weights frozen at the current forward pass."""
    F = model.forward_batch(X)
    part = model.partition
    scores = np.stack(
        [
            _cos_rows(F[batch.index_a, sl], F[batch.index_b, sl])
            for sl in part.slices()
        ],
        axis=1,
    )
    trace = boost_backward_pair(spec, model.schedule, scores, batch.y, signed=signed)
    frozen_w = trace.weights

    def objective(W):
        old = model.W
        model.W = W
        Fx = model.forward_batch(X)
        s = np.stack(
            [
                _cos_rows(Fx[batch.index_a, sl], Fx[batch.index_b, sl])
                for sl in part.slices()
            ],
            axis=1,
        )
        model.W = old
        total = 0.0
        for m in range(part.num_groups):
            losses, _ = pair_loss_vec(spec, s[:, m], batch.y)
            total += float(np.sum(frozen_w[:, m] * losses))
        return total / len(batch)

    return objective


def _frozen_triplet_objective(model, X, batch, spec):
    F = model.forward_batch(X)
    part = model.partition
    sp = np.stack(
        [_cos_rows(F[batch.anchor, sl], F[batch.positive, sl]) for sl in part.slices()],
        axis=1,
    )
    sn = np.stack(
        [_cos_rows(F[batch.anchor, sl], F[batch.negative, sl]) for sl in part.slices()],
        axis=1,
    )
    trace = boost_step_triplet(spec, model.schedule, sp, sn)
    frozen_w = trace.weights

    def objective(W):
        old = model.W
        model.W = W
        Fx = model.forward_batch(X)
        total = 0.0
        for m, sl in enumerate(part.slices()):
            spm = _cos_rows(Fx[batch.anchor, sl], Fx[batch.positive, sl])
            snm = _cos_rows(Fx[batch.anchor, sl], Fx[batch.negative, sl])
            losses, _, _ = triplet_loss_vec(spec, spm, snm)
            total += float(np.sum(frozen_w[:, m] * losses))
        model.W = old
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
    for kind, backbone in (("binomial_deviance", False), ("contrastive", False),
                           ("binomial_deviance", True)):
        spec = LossSpec(kind=kind)
        worst = 0.0
        for _ in range(n):
            model, X = _random_setup(rng, backbone=backbone)
            batch = _random_pairs(rng, X.shape[0], 10)
            res = accumulate_W_gradient(model, X, batch, spec, train_backbone=backbone)
            obj = _frozen_pair_objective(model, X, batch, spec, signed=False)
            worst = max(worst, check_gradient(obj, res.grad_W, model.W))
            if backbone:
                bw = model.backbone.weight

                def obj_b(Wb):
                    old = model.backbone.weight
                    model.backbone.weight = Wb
                    val = obj(model.W)
                    model.backbone.weight = old
                    return val

                worst = max(worst, check_gradient(obj_b, res.grad_backbone_weight, bw))
        label = "accumulate_W_gradient[pairs%s]" % ("+backbone" if backbone else "")
        results.append(CheckResult("boosting", f"{label}[{kind}]", worst, 1e-5, n))

    spec = LossSpec(kind="triplet")
    worst = 0.0
    for _ in range(n):
        model, X = _random_setup(rng)
        batch = _random_triplets(rng, X.shape[0], 10)
        res = accumulate_W_gradient(model, X, batch, spec)
        obj = _frozen_triplet_objective(model, X, batch, spec)
        worst = max(worst, check_gradient(obj, res.grad_W, model.W))
    results.append(CheckResult("boosting", "accumulate_W_gradient[triplets]", worst, 1e-5, n))
    return results


def check_activation(seed=4, n=50):
    rng = make_rng(seed)
    worst = 0.0
    for _ in range(n):
        model, X = _random_setup(rng, h=8, d=6, M=2, n_samples=4)
        lam = float(rng.uniform(0.1, 2.0))
        res = activation_loss(model, X, lam)

        def obj(W):
            old = model.W
            model.W = W
            val = activation_loss(model, X, lam).loss
            model.W = old
            return val

        worst = max(worst, check_gradient(obj, res.grad_W, model.W))
    return [CheckResult("diversity", "activation_loss", worst, 1e-5, n)]


def check_adversarial(seed=5, n=50):
    rng = make_rng(seed)
    worst_w = 0.0
    worst_reg = 0.0
    worst_flip = 0.0
    for _ in range(n):
        model, X = _random_setup(rng, h=7, d=6, M=2, n_samples=4)
        bank = RegressorBank.create(rng, model.partition, hidden=5)
        lam = float(rng.uniform(0.1, 2.0))
        res = adversarial_loss(model, bank, X, lam)

        def sim_of_W(W):
            old = model.W
            model.W = W
            val = adversarial_loss(model, bank, X, lam).sim_term
            model.W = old
            return val

        def w_penalty(W):
            col_sq = np.sum(W * W, axis=0)
            return lam * float(np.sum((col_sq - 1.0) ** 2))

        # Unreversed similarity path: gradient of -sim_term.
        fd_sim = central_diff(sim_of_W, model.W.copy())
        worst_w = max(worst_w, rel_error(res.grad_W_sim_unreversed, -fd_sim))
        # Penalty path (never reversed).
        fd_pen = central_diff(w_penalty, model.W.copy())
        worst_w = max(worst_w, rel_error(res.grad_W - res.grad_W_sim, fd_pen))
        # Reversal is an exact sign flip of the similarity component.
        worst_flip = max(
            worst_flip,
            float(np.max(np.abs(res.grad_W_sim + res.grad_W_sim_unreversed))),
        )

        # Regressor parameters descend the true loss; FD the full objective.
        (i, j) = bank.keys()[0]
        reg = bank[(i, j)]
        rg = res.regressor_grads[(i, j)]
        for attr, grad in (("W1", rg.W1), ("b1", rg.b1), ("W2", rg.W2), ("b2", rg.b2)):
            arr = getattr(reg, attr)

            def obj_reg(a, _attr=attr, _arr=arr):
                old = _arr.copy()
                _arr[...] = a
                val = adversarial_loss(model, bank, X, lam).loss
                _arr[...] = old
                return val

            worst_reg = max(worst_reg, check_gradient(obj_reg, grad, arr))
    return [
        CheckResult("diversity", "adversarial_loss[embedding]", worst_w, 1e-5, n),
        CheckResult("diversity", "adversarial_loss[regressors]", worst_reg, 1e-5, n),
        CheckResult("diversity", "adversarial_loss[reversal-sign]", worst_flip, 1e-12, n),
    ]


def run_suites(modules=MODULES, seed=0):
    """All finite-difference suites for the requested modules."""
    unknown = set(modules) - set(MODULES)
    if unknown:
        raise InvalidArgument(f"unknown gradcheck modules: {sorted(unknown)}")
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
