"""Correctness checks with references kept apart from the package's kernels.

* `boosted_pair_gradient`: the boosted W gradient of a pair batch, one pair
  and one learner at a time, written from the method's definition.
* `recall_counts`: Recall@K hits by an independent per-query ranking with the
  package's tie-break (descending score, then ascending index).
* `same_training_state`: a checkpoint read back equals the state written,
  bit for bit.
"""

import math

import numpy as np

from metricboost import boosting, linalg, trainer

# Relative tolerance of the gradient check: loose enough for a change of
# reduction order (e.g. a Gram-matrix kernel), far below any real defect.
GRAD_RTOL = 1e-9


def _binomial_dloss(s, y, beta1, beta2, cost_pos, cost_neg):
    """d/ds log(1 + exp(z)), z = -(2y - 1) * beta1 * C_y * (s - beta2)."""
    dz = -(2 * y - 1) * beta1 * (cost_pos if y == 1 else cost_neg)
    z = dz * (s - beta2)
    sig = 1.0 / (1.0 + math.exp(-z)) if z >= 0 else math.exp(z) / (1.0 + math.exp(z))
    return sig * dz


def boosted_pair_gradient(X, W, sizes, index_a, index_b, y, spec):
    """Gradient of the mean boosted binomial deviance w.r.t. W, pair by pair.

    Learner m scores a pair by the cosine of its column group; the running
    score is s^m = (1 - eta_m) s^{m-1} + eta_m s_m with eta_m = 2/(m+1); the
    weight of learner 1 is 1 and that of learner m+1 is |dloss/ds| at s^m.
    """
    F = X @ W
    dF = np.zeros_like(F)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    M = len(sizes)
    n = len(y)
    consts = (spec.beta1, spec.beta2, spec.cost_pos, spec.cost_neg)
    for a, b, label in zip(index_a.tolist(), index_b.tolist(), y.tolist()):
        acc = 0.0
        weight = 1.0
        for m in range(M):
            sl = slice(offsets[m], offsets[m + 1])
            u, v = F[a, sl], F[b, sl]
            nu, nv = math.sqrt(u @ u), math.sqrt(v @ v)
            s = float(u @ v) / (nu * nv)
            c = weight * _binomial_dloss(s, label, *consts) / n
            dF[a, sl] += c * (v / (nu * nv) - s * u / (nu * nu))
            dF[b, sl] += c * (u / (nu * nv) - s * v / (nv * nv))
            eta = 2.0 / (m + 2.0)
            acc = (1.0 - eta) * acc + eta * s
            weight = abs(_binomial_dloss(acc, label, *consts))
    return X.T @ dF


def check_first_batch_gradient(wl, prep, init_model, seed):
    """Package gradient of the main route's first batch vs the reference.

    Returns (ok, detail). The batch is the one trainer.run draws first: the
    run seeds its generator with cfg.seed and a model-only resume draws
    nothing before sampling.
    """
    cfg = wl.config(seed, wl.routes[0])
    spec = cfg.loss_spec()
    batch = trainer.sample_batch(prep.train, cfg.batch_classes, cfg.samples_per_class,
                                 linalg.make_rng(cfg.seed), mine="pairs")
    X = prep.train.features[batch.indices]
    got = boosting.accumulate_W_gradient(init_model, X, batch.pairs, spec).grad_W
    want = boosted_pair_gradient(X, init_model.W, init_model.partition.sizes,
                                 batch.pairs.index_a, batch.pairs.index_b, batch.pairs.y, spec)
    rel = float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
    return rel <= GRAD_RTOL, f"{len(batch.pairs)} pairs, max rel deviation {rel:.3e}"


def recall_counts(embeddings, labels, ks, block=256):
    """Hits for each K, ranking every query on its own."""
    E = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels)
    n = len(labels)
    kmax = max(ks)
    hits = {k: 0 for k in ks}
    for lo in range(0, n, block):
        scores = E[lo:lo + block] @ E.T
        for r, q in enumerate(range(lo, min(lo + block, n))):
            s = scores[r]
            s[q] = -np.inf
            cut = np.partition(s, n - kmax)[n - kmax]
            cand = np.flatnonzero(s >= cut)
            ranked = cand[np.lexsort((cand, -s[cand]))]
            match = labels[ranked[:kmax]] == labels[q]
            for k in ks:
                hits[k] += bool(match[:k].any())
    return hits


def check_recall(model, fs, report):
    emb = model.test_embeddings(fs.features)
    hits = recall_counts(emb, fs.labels, list(report.recall_at))
    n = fs.n_samples
    bad = {k: (report.recall_at[k], hits[k] / n)
           for k in hits if report.recall_at[k] != hits[k] / n}
    return not bad, f"N={n}, mismatches (package, reference): {bad}"


def _arrays_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def same_training_state(result, restored):
    """(ok, detail): W, iteration, RNG, optimizer moments and bank, bit for bit."""
    diffs = []
    if not _arrays_equal(result.model.W, restored.model.W):
        diffs.append("W")
    if result.iteration != restored.iteration:
        diffs.append("iteration")
    if result.rng.bit_generator.state != restored.rng_state:
        diffs.append("rng state")
    want, got = result.optimizer.state_dict(), restored.optimizer.state_dict()
    for key in ("kind", "lr", "momentum", "beta1", "beta2", "eps", "t"):
        if want[key] != got[key]:
            diffs.append(f"optimizer {key}")
    if want["buffers"].keys() != got["buffers"].keys():
        diffs.append("optimizer buffer names")
    else:
        for name, buf in want["buffers"].items():
            for key, arr in buf.items():
                if not _arrays_equal(arr, got["buffers"][name].get(key)):
                    diffs.append(f"optimizer {name}/{key}")
    if (result.bank is None) != (restored.bank is None):
        diffs.append("bank presence")
    elif result.bank is not None and result.bank.keys() != restored.bank.keys():
        diffs.append("bank keys")
    elif result.bank is not None:
        for key in result.bank.keys():
            a, b = result.bank[key], restored.bank[key]
            for part in ("W1", "b1", "W2", "b2"):
                if not _arrays_equal(getattr(a, part), getattr(b, part)):
                    diffs.append(f"bank {key} {part}")
    return not diffs, "differs: " + ", ".join(diffs) if diffs else "bit-identical"
