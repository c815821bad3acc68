"""Pair and triplet losses on cosine similarity scores, with analytic derivatives.

Three losses are supported, all operating on similarity scores in [-1, 1]:

    binomial deviance   log(1 + exp(-(2y - 1) * beta1 * (s - beta2) * C_y))
    contrastive         (1 - y) * max(0, s - m) + y * (s - 1)^2
    triplet             max(0, s_neg - s_pos + m)

C_y balances positive and negative pairs (cost_pos for y=1, cost_neg for y=0).
Every operation returns the loss value together with its first derivative so
that callers never re-derive gradients. Hinge kinks use the subgradient 0,
i.e. a sample sitting exactly on the margin is treated as satisfied.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument

PAIR_KINDS = ("binomial_deviance", "contrastive")
ALL_KINDS = PAIR_KINDS + ("triplet",)


@dataclass(frozen=True)
class LossSpec:
    """Loss choice plus its constants."""

    kind: str = "binomial_deviance"
    beta1: float = 2.0
    beta2: float = 0.5
    margin_contrastive: float = 0.5
    margin_triplet: float = 0.01
    cost_pos: float = 1.0
    cost_neg: float = 25.0

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise InvalidArgument(f"unknown loss kind {self.kind!r}")
        # Each check passes only inside its range, so NaN fails it too.
        for name, value in (("beta1", self.beta1), ("cost_pos", self.cost_pos),
                            ("cost_neg", self.cost_neg)):
            if not 0.0 < value < np.inf:
                raise InvalidArgument(f"{name} must be finite and > 0, got {value!r}")
        for name, value in (("margin_contrastive", self.margin_contrastive),
                            ("margin_triplet", self.margin_triplet)):
            if not 0.0 <= value < np.inf:
                raise InvalidArgument(f"{name} must be finite and >= 0, got {value!r}")
        if not np.isfinite(self.beta2):
            raise InvalidArgument(f"beta2 must be finite, got {self.beta2!r}")


def pair_loss_vec(spec, s, y):
    """Vectorized pair loss. Returns (loss, dloss_ds) arrays matching `s`."""
    if spec.kind not in PAIR_KINDS:
        raise InvalidArgument(f"pair_loss needs a pair loss kind, got {spec.kind!r}")
    s = np.asarray(s, dtype=np.float64)
    y = np.asarray(y)
    if not np.all((y == 0) | (y == 1)):
        raise InvalidArgument("pair labels must be 0 or 1")
    if spec.kind == "binomial_deviance":
        zs = np.where(y == 1, -spec.beta1 * spec.cost_pos, spec.beta1 * spec.cost_neg)  # dz/ds
        z = zs * (s - spec.beta2)
        # Stable for large |z|: e = exp(-|z|) lies in (0, 1], so nothing
        # overflows. softplus(z) = max(z, 0) + log1p(e), and sigmoid(z) is
        # 1 / (1 + e) for z >= 0, e / (1 + e) otherwise.
        e = np.exp(-np.abs(z))
        return np.maximum(z, 0.0) + np.log1p(e), np.where(z >= 0.0, 1.0, e) / (1.0 + e) * zs
    # contrastive; hinge inactive exactly at the margin
    yf = y.astype(np.float64)
    m = spec.margin_contrastive
    hinge = np.maximum(0.0, s - m)
    loss = (1.0 - yf) * hinge + yf * (s - 1.0) ** 2
    dloss = (1.0 - yf) * (s > m).astype(np.float64) + yf * 2.0 * (s - 1.0)
    return loss, dloss


def pair_loss(spec, s, y):
    """Scalar pair loss: (loss, dloss_ds)."""
    loss, dloss = pair_loss_vec(spec, np.float64(s), np.asarray(y))
    return float(loss), float(dloss)


def triplet_loss_vec(spec, s_pos, s_neg):
    """Vectorized triplet loss. Returns (loss, d_dspos, d_dsneg)."""
    if spec.kind != "triplet":
        raise InvalidArgument(f"triplet loss needs kind 'triplet', got {spec.kind!r}")
    s_pos = np.asarray(s_pos, dtype=np.float64)
    s_neg = np.asarray(s_neg, dtype=np.float64)
    v = s_neg - s_pos + spec.margin_triplet
    active = (v > 0.0).astype(np.float64)
    return np.maximum(v, 0.0), -active, active


def boosting_weight_vec(spec, s=None, y=None, s_pos=None, s_neg=None):
    """Difficulty weight for the next learner, from the loss derivative.

    Pair losses: |dloss/ds| at the accumulated score. The magnitude keeps the
    weight >= 0 for negative pairs too, whose derivative is positive, so
    reweighting never flips a learner's descent direction.
    Triplet: -dloss/ds_pos, which the hinge makes exactly 0 or 1.
    """
    if spec.kind == "triplet":
        if s_pos is None or s_neg is None:
            raise InvalidArgument("triplet weight needs s_pos and s_neg")
        _, dp, _ = triplet_loss_vec(spec, s_pos, s_neg)
        return -dp
    if s is None or y is None:
        raise InvalidArgument("pair weight needs s and y")
    _, dloss = pair_loss_vec(spec, s, y)
    return np.abs(dloss)

