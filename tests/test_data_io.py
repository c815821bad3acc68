import struct

import numpy as np
import pytest

from metricboost.data_io import (
    FeatureSet,
    SynthSpec,
    read_features,
    split,
    synth_gaussian,
    write_features,
)
from metricboost.errors import FormatError, InvalidArgument


def _random_set(seed=0, n_classes=4, per_class=3, h=5):
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(n_classes, dtype=np.uint32), per_class)
    feats = rng.standard_normal((n_classes * per_class, h))
    return FeatureSet(labels=labels, features=feats, n_classes=n_classes)


class TestBinaryFormat:
    def test_roundtrip_at_f32_precision(self, tmp_path):
        fs = _random_set()
        path = tmp_path / "feat.bin"
        write_features(path, fs)
        back = read_features(path)
        assert back.n_samples == fs.n_samples
        assert back.n_classes == fs.n_classes
        np.testing.assert_array_equal(back.labels, fs.labels)
        np.testing.assert_allclose(back.features, fs.features.astype(np.float32), atol=0)

    def test_second_roundtrip_is_lossless(self, tmp_path):
        fs = _random_set(seed=1)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        write_features(p1, fs)
        once = read_features(p1)
        write_features(p2, once)
        twice = read_features(p2)
        np.testing.assert_array_equal(once.features, twice.features)

    def test_empty_file_missing_magic(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        with pytest.raises(FormatError, match="missing magic"):
            read_features(path)

    def test_golden_byte_fixture(self, tmp_path):
        # Hand-built 2-sample, 2-dim, 2-class file.
        payload = (
            b"BIERFT01"
            + struct.pack("<QII", 2, 2, 2)
            + struct.pack("<II", 0, 1)
            + struct.pack("<ffff", 1.0, 2.0, 3.0, 4.0)
        )
        path = tmp_path / "golden.bin"
        path.write_bytes(payload)
        fs = read_features(path)
        assert fs.n_samples == 2 and fs.feature_dim == 2 and fs.n_classes == 2
        np.testing.assert_array_equal(fs.labels, [0, 1])
        np.testing.assert_array_equal(fs.features, [[1.0, 2.0], [3.0, 4.0]])
        # And the writer reproduces the exact bytes.
        out = tmp_path / "rewritten.bin"
        write_features(out, fs)
        assert out.read_bytes() == payload

    def test_truncated_payload_names_offset(self, tmp_path):
        fs = _random_set()
        path = tmp_path / "trunc.bin"
        write_features(path, fs)
        data = path.read_bytes()
        path.write_bytes(data[:-7])
        with pytest.raises(FormatError, match="offset"):
            read_features(path)

    def test_label_out_of_range_names_offset(self, tmp_path):
        payload = (
            b"BIERFT01"
            + struct.pack("<QII", 2, 1, 2)
            + struct.pack("<II", 0, 5)  # label 5 >= n_classes 2, at offset 28
            + struct.pack("<ff", 0.0, 0.0)
        )
        path = tmp_path / "bad.bin"
        path.write_bytes(payload)
        with pytest.raises(FormatError, match="offset 28"):
            read_features(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_names_offset(self, tmp_path, bad):
        payload = (
            b"BIERFT01"
            + struct.pack("<QII", 2, 2, 2)
            + struct.pack("<II", 0, 1)
            + struct.pack("<ffff", 0.0, 1.0, 2.0, bad)  # 4th feature at offset 44
        )
        path = tmp_path / "bad.bin"
        path.write_bytes(payload)
        with pytest.raises(FormatError, match=f"{path}: non-finite feature at offset 44"):
            read_features(path)


class TestSynth:
    def test_invariants(self):
        with pytest.raises(InvalidArgument):
            SynthSpec(classes=1, per_class=5, feature_dim=4)
        with pytest.raises(InvalidArgument):
            SynthSpec(classes=3, per_class=1, feature_dim=4)

    def test_zero_noise_collapses_classes(self):
        fs = synth_gaussian(SynthSpec(classes=3, per_class=4, feature_dim=6, noise=0.0))
        for c in range(3):
            rows = fs.features[fs.labels == c]
            assert np.all(rows == rows[0])

    def test_deterministic_per_seed(self):
        spec = SynthSpec(classes=3, per_class=4, feature_dim=6, seed=99)
        a = synth_gaussian(spec)
        b = synth_gaussian(spec)
        assert a.features.tobytes() == b.features.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_center_radius(self):
        fs = synth_gaussian(
            SynthSpec(classes=4, per_class=2, feature_dim=8, cluster_spread=3.0, noise=0.0)
        )
        norms = np.linalg.norm(fs.features, axis=1)
        np.testing.assert_allclose(norms, 3.0, atol=1e-12)


class TestSplit:
    def test_disjoint_classes(self):
        fs = _random_set(n_classes=4, per_class=3)
        train, test = split(fs, 0.5, disjoint_classes=True, seed=0)
        assert train.n_classes == 2 and test.n_classes == 2
        assert train.n_samples + test.n_samples == fs.n_samples

    def test_disjoint_never_leaks(self):
        # Class feature centroids identify the original classes across splits.
        for seed in range(100):
            fs = synth_gaussian(
                SynthSpec(classes=6, per_class=3, feature_dim=4, noise=0.0, seed=seed)
            )
            train, test = split(fs, 0.5, disjoint_classes=True, seed=seed)
            train_rows = {tuple(r) for r in np.round(train.features, 9)}
            test_rows = {tuple(r) for r in np.round(test.features, 9)}
            assert not train_rows & test_rows

    def test_fraction_one_empty_test(self):
        fs = _random_set()
        with pytest.raises(InvalidArgument):
            split(fs, 1.0, disjoint_classes=False, seed=0)

    def test_fraction_mode_keeps_classes(self):
        fs = _random_set(n_classes=3, per_class=10)
        train, test = split(fs, 0.7, disjoint_classes=False, seed=1)
        assert train.n_classes == 3
        assert train.n_samples == 21 and test.n_samples == 9

    def test_seed_reproducible(self):
        fs = _random_set(n_classes=6, per_class=4)
        a_train, a_test = split(fs, 0.5, seed=5)
        b_train, b_test = split(fs, 0.5, seed=5)
        np.testing.assert_array_equal(a_train.features, b_train.features)
        np.testing.assert_array_equal(a_test.labels, b_test.labels)

    @pytest.mark.parametrize("disjoint", [True, False])
    def test_labels_renumbered_in_order_of_first_appearance(self, disjoint):
        rng = np.random.default_rng(9)
        for seed in range(50):
            labels = rng.permutation(np.repeat(np.arange(7), 4)).astype(np.uint32)
            fs = FeatureSet(labels=labels, features=np.arange(28.0)[:, None], n_classes=7)
            for part in split(fs, 0.5, disjoint_classes=disjoint, seed=seed):
                original = labels[part.features[:, 0].astype(int)]
                first_seen = {}
                for lab in original:
                    first_seen.setdefault(int(lab), len(first_seen))
                assert part.labels.dtype == np.uint32
                assert part.labels.tolist() == [first_seen[int(lab)] for lab in original]
                assert part.n_classes == len(first_seen)

    def test_too_few_classes(self):
        fs = _random_set(n_classes=2, per_class=3)
        with pytest.raises(InvalidArgument):
            split(fs, 0.1, disjoint_classes=True, seed=0)
