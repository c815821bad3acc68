"""The partitioned embedding model.

A model maps an input feature vector to a d-dimensional embedding through a
linear matrix W (h x d), optionally behind a small trainable feature map
(one affine layer + ReLU). The embedding columns are split into M
non-overlapping groups; group m acts as an independent learner whose output
is compared with cosine similarity. A fixed convex-combination schedule
(eta_m = 2 / (m + 1), alpha_m = eta_m * prod_{n>m} (1 - eta_n)) weights the
learners; alpha also drives the proportional group sizing and the weighting
of the concatenated inference-time embedding.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInput, InvalidArgument
from .linalg import as_matrix, matmul

# Hand-chosen group sizes for specific (embedding size, group count) setups.
# Note the (512, 4) row totals 510; the partition's own total governs W.
PRESET_GROUP_SIZES = {
    (512, 2): (170, 342),
    (512, 3): (96, 160, 256),
    (512, 4): (52, 102, 152, 204),
    (512, 5): (34, 68, 102, 138, 170),
    (1024, 3): (170, 342, 512),
    (1024, 4): (102, 204, 308, 410),
    (1024, 5): (68, 136, 204, 274, 342),
    (1024, 6): (50, 96, 148, 196, 242, 292),
    (1024, 7): (36, 74, 110, 148, 182, 218, 256),
}


@dataclass(frozen=True)
class GroupPartition:
    """Non-overlapping column groups of the embedding."""

    sizes: tuple
    offsets: tuple = field(init=False)

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
        if not sizes:
            raise InvalidArgument("partition needs at least one group")
        if any(s < 1 for s in sizes):
            raise InvalidArgument(f"group sizes must be >= 1, got {sizes}")
        object.__setattr__(self, "sizes", sizes)
        offs = np.concatenate([[0], np.cumsum(sizes)])
        object.__setattr__(self, "offsets", tuple(int(o) for o in offs))

    @property
    def num_groups(self):
        return len(self.sizes)

    @property
    def total_dim(self):
        return self.offsets[-1]

    def slices(self):
        return [slice(self.offsets[m], self.offsets[m + 1]) for m in range(self.num_groups)]


@dataclass(frozen=True)
class BoostSchedule:
    """Fixed convex-combination coefficients for M learners."""

    eta: tuple
    alpha: tuple

    @property
    def num_learners(self):
        return len(self.eta)


def make_schedule(num_learners):
    """eta_m = 2/(m+1); alpha_m = eta_m * prod_{n=m+1..M} (1 - eta_n)."""
    M = int(num_learners)
    if M < 1:
        raise InvalidArgument("need at least one learner")
    eta = [2.0 / (m + 1.0) for m in range(1, M + 1)]
    alpha = []
    for m in range(M):
        a = eta[m]
        for n in range(m + 1, M):
            a *= 1.0 - eta[n]
        alpha.append(a)
    return BoostSchedule(eta=tuple(eta), alpha=tuple(alpha))


def proportional_partition(total_dim, num_groups):
    """Group sizes proportional to alpha: floor for all but the last group,
    remainder to the last."""
    d = int(total_dim)
    M = int(num_groups)
    if M < 1 or d < M:
        raise InvalidArgument(f"need total_dim >= num_groups >= 1, got d={d} M={M}")
    alpha = make_schedule(M).alpha
    sizes = [int(np.floor(alpha[m] * d)) for m in range(M - 1)]
    sizes.append(d - sum(sizes))
    if any(s < 1 for s in sizes):
        raise InvalidArgument(
            f"d={d} is too small to give all {M} groups a nonzero share"
        )
    return GroupPartition(tuple(sizes))


def preset_partition(total_dim, num_groups):
    """Hand-chosen sizes for a known (d, M) setup; InvalidArgument otherwise."""
    d, M = int(total_dim), int(num_groups)
    if (d, M) not in PRESET_GROUP_SIZES:
        raise InvalidArgument(f"no preset group sizes for d={d} M={M}")
    return GroupPartition(PRESET_GROUP_SIZES[d, M])


@dataclass
class Backbone:
    """One affine layer + ReLU in front of the embedding: phi(x) = relu(x A^T + c)."""

    weight: np.ndarray  # (out_dim, in_dim)
    bias: np.ndarray  # (out_dim,)

    @property
    def in_dim(self):
        return self.weight.shape[1]

    @property
    def out_dim(self):
        return self.weight.shape[0]

    def forward(self, x):
        """x: (in_dim,) or (n, in_dim). Returns the activations, shaped like the
        output; an activation is > 0 exactly where its pre-activation is."""
        pre = np.asarray(x, dtype=np.float64) @ self.weight.T + self.bias
        return np.maximum(pre, 0.0)


def init_backbone(rng, in_dim, out_dim):
    limit = np.sqrt(6.0 / (in_dim + out_dim))
    weight = rng.uniform(-limit, limit, size=(out_dim, in_dim))
    bias = np.zeros(out_dim)
    return Backbone(weight=weight, bias=bias)


class EnsembleModel:
    """Embedding matrix W plus its group partition and boosting schedule."""

    def __init__(self, embedding, partition, backbone=None):
        self.W = as_matrix(embedding)
        self.partition = partition
        if self.W.shape[1] != partition.total_dim:
            raise InvalidArgument(
                f"W has {self.W.shape[1]} columns, partition needs {partition.total_dim}"
            )
        self.schedule = make_schedule(partition.num_groups)
        if backbone is not None and backbone.out_dim != self.W.shape[0]:
            raise InvalidArgument("backbone output dim must match W rows")
        self.backbone = backbone

    @property
    def input_dim(self):
        """Dimensionality of raw inputs (backbone input when present)."""
        return self.backbone.in_dim if self.backbone is not None else self.W.shape[0]

    @property
    def embedding_dim(self):
        return self.W.shape[1]

    @property
    def num_groups(self):
        return self.partition.num_groups

    def embed_features(self, x):
        """Apply the backbone (identity when absent)."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.input_dim:
            raise InvalidArgument(
                f"input has dim {x.shape[-1]}, model expects {self.input_dim}"
            )
        return self.backbone.forward(x) if self.backbone is not None else x

    def forward_batch(self, x):
        """Raw embeddings for a batch: (n, input_dim) -> (n, d)."""
        return matmul(self.embed_features(x), self.W)

    def test_embeddings(self, x):
        """Concatenated inference-time embeddings: (n, input_dim) -> (n, d).

        Each group output is L2-normalized and scaled by alpha_m: the
        weighting `evaluate_model` uses by default.
        """
        feats = np.asarray(x, dtype=np.float64)
        if feats.ndim != 2:
            raise InvalidArgument("expected a 2-D batch of feature rows")
        return self._weight_groups(self.forward_batch(feats), 1.0)

    def _weight_groups(self, full, weight_exponent):
        """Inference-time embeddings from raw batch outputs `full` (n, d).

        Each group is L2-normalized and scaled by alpha_m ** weight_exponent.
        Exponent 1.0 matches the stated weighting; 0.5 makes dot products of
        two embeddings equal the ensemble score sum(alpha_m * s_m) exactly.
        Every row therefore has the same norm, sqrt(sum_m alpha_m ** (2 e)).
        A group scale that underflows to 0 or overflows float64 raises
        InvalidArgument: it would zero the group or fill it with inf.
        """
        scales = []
        for m, alpha in enumerate(self.schedule.alpha):
            try:
                scale = alpha ** float(weight_exponent)
            except OverflowError:
                scale = np.inf
            if not 0.0 < scale < np.inf:
                raise InvalidArgument(
                    f"weight_exponent {weight_exponent!r} takes the scale of group {m} "
                    f"({alpha!r} ** {weight_exponent!r}) outside float64"
                )
            scales.append(scale)
        out = np.empty_like(full)
        for m, sl in enumerate(self.partition.slices()):
            norms = np.linalg.norm(full[:, sl], axis=1)
            if np.any(norms == 0.0):
                bad = int(np.flatnonzero(norms == 0.0)[0])
                raise DegenerateInput(f"group {m} produced a zero embedding for row {bad}")
            np.multiply(scales[m], full[:, sl], out=out[:, sl])
            out[:, sl] /= norms[:, None]
        return out

    def copy(self):
        backbone = None
        if self.backbone is not None:
            backbone = Backbone(self.backbone.weight.copy(), self.backbone.bias.copy())
        return EnsembleModel(self.W.copy(), self.partition, backbone)


def init_model(rng, feature_dim, partition, backbone_in_dim=None):
    """Fresh model with Glorot-uniform W (and backbone when requested)."""
    h = int(feature_dim)
    d = partition.total_dim
    limit = np.sqrt(6.0 / (h + d))
    W = rng.uniform(-limit, limit, size=(h, d))
    backbone = None
    if backbone_in_dim is not None:
        backbone = init_backbone(rng, int(backbone_in_dim), h)
    return EnsembleModel(W, partition, backbone=backbone)


def cosine_sim_grad_batch(u, v):
    """Row-wise cosine similarity with gradients.

    u, v: (n, k). Returns (s, ds_du, ds_dv) with s (n,) and gradients (n, k).
    Rows where either input has zero norm are the caller's responsibility;
    a boolean validity mask is returned so callers can filter them.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    nu = np.linalg.norm(u, axis=1)
    nv = np.linalg.norm(v, axis=1)
    valid = (nu > 0.0) & (nv > 0.0)
    nu_safe = np.where(nu == 0.0, 1.0, nu)
    nv_safe = np.where(nv == 0.0, 1.0, nv)
    inv = 1.0 / (nu_safe * nv_safe)
    s = np.einsum("ij,ij->i", u, v) * inv
    ds_du = v * inv[:, None] - (s / (nu_safe * nu_safe))[:, None] * u
    ds_dv = u * inv[:, None] - (s / (nv_safe * nv_safe))[:, None] * v
    return s, ds_du, ds_dv, valid
