"""Labeled feature datasets: the binary format, synthesis, splitting.

Binary layout (little-endian):

    offset 0   magic "BIERFT01" (8 bytes)
    offset 8   u64 N
    offset 16  u32 h
    offset 20  u32 n_classes
    offset 24  u32 labels[N]
    offset 24 + 4N   f32 features[N * h], row-major

Features are f32 on disk and promoted to f64 in memory. Labels at or above
n_classes and non-finite features are rejected with their byte offset.
"""

from dataclasses import dataclass
from pathlib import Path
import struct

import numpy as np

from .errors import FormatError, InvalidArgument
from .linalg import make_rng

FEATURE_MAGIC = b"BIERFT01"


@dataclass
class FeatureSet:
    labels: np.ndarray  # (N,) uint32 class ids, dense in [0, n_classes)
    features: np.ndarray  # (N, h) float64
    n_classes: int

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.uint32)
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise InvalidArgument("features must be a 2-D array")
        if self.labels.shape[0] != self.features.shape[0]:
            raise InvalidArgument("labels and features disagree on sample count")
        if self.labels.size and int(self.labels.max()) >= self.n_classes:
            raise InvalidArgument("label id exceeds n_classes")
        if not np.all(np.isfinite(self.features)):
            raise InvalidArgument("features contain non-finite values")

    @property
    def n_samples(self):
        return self.features.shape[0]

    @property
    def feature_dim(self):
        return self.features.shape[1]

    def class_indices(self):
        """List of index arrays, one per class id."""
        return [np.flatnonzero(self.labels == c) for c in range(self.n_classes)]


@dataclass(frozen=True)
class SynthSpec:
    classes: int
    per_class: int
    feature_dim: int
    cluster_spread: float = 1.0
    noise: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.classes < 2:
            raise InvalidArgument("need at least 2 classes")
        if self.per_class < 2:
            raise InvalidArgument("need at least 2 samples per class")
        if self.feature_dim < 1:
            raise InvalidArgument("feature_dim must be >= 1")


def write_features(path, fs):
    """Write a FeatureSet in the binary format above."""
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<QII", fs.n_samples, fs.feature_dim, fs.n_classes))
        fh.write(fs.labels.astype("<u4").tobytes())
        fh.write(fs.features.astype("<f4").tobytes())


def read_features(path):
    """Read a FeatureSet; format violations name the offending byte offset."""
    path = Path(path)
    data = path.read_bytes()
    if len(data) < 8 or data[:8] != FEATURE_MAGIC:
        raise FormatError(f"{path}: missing magic at offset 0")
    if len(data) < 24:
        raise FormatError(f"{path}: truncated header at offset {len(data)}")
    n, h, n_classes = struct.unpack_from("<QII", data, 8)
    labels_off = 24
    feats_off = labels_off + 4 * n
    end = feats_off + 4 * n * h
    if len(data) < end:
        raise FormatError(f"{path}: truncated payload at offset {len(data)}, need {end} bytes")
    labels = np.frombuffer(data, dtype="<u4", count=n, offset=labels_off)
    bad = np.flatnonzero(labels >= n_classes)
    if bad.size:
        off = labels_off + 4 * int(bad[0])
        raise FormatError(f"{path}: label {int(labels[bad[0]])} >= n_classes at offset {off}")
    feats = np.frombuffer(data, dtype="<f4", count=n * h, offset=feats_off)
    finite = np.isfinite(feats)
    if not finite.all():
        off = feats_off + 4 * int(np.argmin(finite))  # the first False
        raise FormatError(f"{path}: non-finite feature at offset {off}")
    return FeatureSet(
        labels=labels.astype(np.uint32),
        features=feats.reshape(n, h).astype(np.float64),
        n_classes=int(n_classes),
    )


def synth_gaussian(spec):
    """Gaussian class clusters: unit-sphere centers scaled by cluster_spread,
    plus isotropic noise. Deterministic per seed."""
    rng = make_rng(spec.seed)
    centers = rng.standard_normal((spec.classes, spec.feature_dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    centers *= spec.cluster_spread
    noise = rng.standard_normal((spec.classes * spec.per_class, spec.feature_dim))
    labels = np.repeat(np.arange(spec.classes, dtype=np.uint32), spec.per_class)
    features = centers[labels] + spec.noise * noise
    return FeatureSet(labels=labels, features=features, n_classes=spec.classes)


def _remap_subset(fs, mask):
    """The rows under `mask`, with labels renumbered in order of first appearance."""
    labels = fs.labels[mask]
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.uint32)
    rank[np.argsort(first)] = np.arange(len(first))
    return FeatureSet(labels=rank[inverse], features=fs.features[mask], n_classes=len(first))


def split(fs, fraction, disjoint_classes=True, seed=0):
    """Split into (train, test).

    Disjoint-class mode assigns whole classes to one side (zero-shot
    protocol); fraction mode splits inside each class. Labels of both outputs
    are densely remapped.
    """
    if not 0.0 < fraction <= 1.0:
        raise InvalidArgument("fraction must be in (0, 1]")
    rng = make_rng(seed)
    if disjoint_classes:
        C = fs.n_classes
        n_train = int(round(fraction * C))
        if n_train < 1 or n_train >= C:
            raise InvalidArgument(
                f"disjoint split needs 1 <= train classes < {C}, got {n_train}"
            )
        perm = rng.permutation(C)
        mask = np.isin(fs.labels, perm[:n_train])
    else:
        mask = np.zeros(fs.n_samples, dtype=bool)
        for idxs in fs.class_indices():
            if idxs.size == 0:
                continue
            order = rng.permutation(idxs.size)
            n_train = int(round(fraction * idxs.size))
            mask[idxs[order[:n_train]]] = True
    if not mask.any():
        raise InvalidArgument("split produced an empty train set")
    if mask.all():
        raise InvalidArgument("split produced an empty test set")
    return _remap_subset(fs, mask), _remap_subset(fs, ~mask)
