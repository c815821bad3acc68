import json
import re
import struct
import tracemalloc

import numpy as np
import pytest

from metricboost import checkpoint
from metricboost.checkpoint import load_checkpoint, save_checkpoint
from metricboost.diversity import RegressorBank
from metricboost.ensemble import GroupPartition, init_model
from metricboost.errors import FormatError, NumericFailure
from metricboost.linalg import make_rng
from metricboost.optim import Optimizer


def _model(seed=0, backbone=False):
    rng = make_rng(seed)
    return init_model(rng, 6, GroupPartition((2, 4)), backbone_in_dim=5 if backbone else None)


def write_name_keyed_checkpoint(path, model, iteration=3):
    """A training checkpoint whose optimizer section uses the per-name
    manifest of earlier versions: {name, key, shape} per moment array."""
    save_checkpoint(path, model)
    header = json.dumps({
        "kind": "adam", "lr": 0.01, "momentum": 0.9, "beta1": 0.9, "beta2": 0.999,
        "eps": 1e-8, "t": 1,
        "manifest": [{"name": "W", "key": k, "shape": list(model.W.shape)} for k in "mv"],
    }).encode("utf-8")
    state = (struct.pack("<BQI", 1, iteration, 2) + b"{}" + struct.pack("<BI", 1, len(header))
             + header + np.zeros(2 * model.W.size).tobytes() + struct.pack("<B", 0))
    path.write_bytes(path.read_bytes()[:-1] + state)


def rewrite_optimizer_header(path, **changes):
    """Set keys of the optimizer header in the checkpoint at `path`, with the
    header's length prefix rewritten and every byte after the header kept."""
    data = path.read_bytes()
    start = data.index(b'{"kind"')
    (length,) = struct.unpack("<I", data[start - 4:start])
    header = json.loads(data[start:start + length])
    blob = json.dumps({**header, **changes}).encode("utf-8")
    path.write_bytes(data[:start - 4] + struct.pack("<I", len(blob)) + blob
                     + data[start + length:])


def poison_f64(path, arr, k=0, value=np.nan):
    """Overwrite element k of the saved copy of `arr` in the checkpoint at
    `path` with `value`; returns that element's byte offset."""
    data = bytearray(path.read_bytes())
    raw = np.asarray(arr, dtype="<f8").tobytes()
    start = data.find(raw)
    assert start >= 0 and data.find(raw, start + 1) < 0, "array bytes must occur once"
    off = start + 8 * k
    data[off:off + 8] = struct.pack("<d", value)
    path.write_bytes(bytes(data))
    return off


def write_bare_model(path, h, d, sizes):
    """A model-only checkpoint with the given header fields and an all-ones W."""
    header = struct.pack(f"<III{len(sizes)}I", h, d, len(sizes), *sizes)
    path.write_bytes(b"BIERMDL1" + header + np.ones(h * d).tobytes() + b"\x00")


class TestModelBlock:
    def test_roundtrip(self, tmp_path):
        model = _model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model)
        back = load_checkpoint(path)
        np.testing.assert_array_equal(back.model.W, model.W)
        assert back.model.partition.sizes == (2, 4)
        assert back.model.backbone is None
        assert back.iteration == 0 and back.optimizer is None and back.bank is None

    def test_roundtrip_with_backbone(self, tmp_path):
        model = _model(backbone=True)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model)
        back = load_checkpoint(path)
        np.testing.assert_array_equal(back.model.backbone.weight, model.backbone.weight)
        np.testing.assert_array_equal(back.model.backbone.bias, model.backbone.bias)

    def test_magic_layout(self, tmp_path):
        model = _model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model)
        data = path.read_bytes()
        assert data[:8] == b"BIERMDL1"
        # u32 h, u32 d, u32 M, then two u32 sizes
        import struct

        h, d, M = struct.unpack_from("<III", data, 8)
        assert (h, d, M) == (6, 6, 2)
        assert struct.unpack_from("<II", data, 20) == (2, 4)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(FormatError, match="missing magic"):
            load_checkpoint(path)

    def test_truncation_names_offset(self, tmp_path):
        model = _model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model)
        data = path.read_bytes()
        path.write_bytes(data[:40])
        with pytest.raises(FormatError, match="offset"):
            load_checkpoint(path)

    @pytest.mark.parametrize("array", [False, True])
    def test_file_shrinking_after_open_is_truncation(self, tmp_path, array):
        # The length is checked against the size seen at open; a short read
        # must still refuse rather than keep unread buffer memory.
        path = tmp_path / "m.ckpt"
        count = 8192  # larger than the read buffer, so the shrink is seen
        path.write_bytes(b"\x01" * 8 + np.ones(count).tobytes())
        with open(path, "rb") as fh:
            rd = checkpoint._Reader(fh, path)
            rd.take(8, "magic")
            path.write_bytes(b"\x01" * 8 + np.ones(count // 2).tobytes())
            with pytest.raises(FormatError, match=r"truncated while reading W at offset 8$"):
                if array:
                    rd.f64_array(count, "W")
                else:
                    rd.take(8 * count, "W")

    @pytest.mark.parametrize("full", [False, True])
    def test_trailing_byte_rejected(self, tmp_path, full):
        path = tmp_path / "m.ckpt"
        if full:
            opt = Optimizer(kind="adam", lr=0.01)
            save_checkpoint(path, _model(), iteration=3, rng_state={"s": 1}, optimizer=opt,
                            bank=RegressorBank.create(make_rng(1), _model().partition, hidden=4))
        else:
            save_checkpoint(path, _model())
        size = path.stat().st_size
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match=f"1 trailing bytes at offset {size}$"):
            load_checkpoint(path)

    def test_model_block_without_state_flag_loads(self, tmp_path):
        # BIERMDL1 files may end right after the model block.
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, _model())
        path.write_bytes(path.read_bytes()[:-1])
        assert load_checkpoint(path).iteration == 0


class TestTrainState:
    def test_full_roundtrip(self, tmp_path):
        rng = make_rng(3)
        model = _model(3)
        bank = RegressorBank.create(rng, model.partition, hidden=4)
        opt = Optimizer(kind="adam", lr=0.01)
        reg = bank[(0, 1)]
        arrays = [model.W, reg.W1, reg.b1, reg.W2, reg.b2]
        opt.step(arrays, [rng.standard_normal(a.shape) for a in arrays])
        rng_state = rng.bit_generator.state
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, model, iteration=42, rng_state=rng_state,
                        optimizer=opt, bank=bank)
        back = load_checkpoint(path)
        assert back.iteration == 42
        assert back.rng_state == rng_state
        assert back.optimizer.t == 1
        assert back.optimizer.layout == [(6, 6), (4, 4), (4,), (2, 4), (2,)]
        for key in ("m", "v"):
            np.testing.assert_array_equal(back.optimizer.buffers["flat"][key],
                                          opt.buffers["flat"][key])
        np.testing.assert_array_equal(back.bank[(0, 1)].W1, bank[(0, 1)].W1)

    def test_never_stepped_optimizer_roundtrip(self, tmp_path):
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, _model(), iteration=0, optimizer=Optimizer("sgd_momentum", lr=0.5))
        opt = load_checkpoint(path).optimizer
        assert (opt.kind, opt.lr, opt.t, opt.layout) == ("sgd_momentum", 0.5, 0, None)
        assert opt.buffers == {}

    def test_sgd_payload_is_one_flat_moment(self, tmp_path):
        model = _model(backbone=True)
        opt = Optimizer(kind="sgd_momentum", lr=0.5)
        arrays = [model.W, model.backbone.weight, model.backbone.bias]
        opt.step(arrays, [np.full(a.shape, 2.0) for a in arrays])
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, model, iteration=1, optimizer=opt)
        back = load_checkpoint(path).optimizer
        assert list(back.buffers["flat"]) == ["vel"]
        np.testing.assert_array_equal(back.buffers["flat"]["vel"], np.full(36 + 30 + 6, 2.0))

    def test_malformed_layout_rejected(self, tmp_path):
        model = _model()
        opt = Optimizer(kind="adam", lr=0.01)
        opt.step([model.W], [np.ones(model.W.shape)])
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, model, iteration=1, optimizer=opt)
        data = path.read_bytes()
        # Same length as "[[6, 6]]", so every later offset stays valid.
        path.write_bytes(data.replace(b'"layout": [[6, 6]]', b'"layout": 12345678'))
        with pytest.raises(FormatError, match="malformed optimizer state"):
            load_checkpoint(path)

    @pytest.mark.parametrize("change", [
        {"t": -5},
        {"t": 2.5},
        {"layout": [[-6], [42]]},  # 36 elements in all, as saved
        {"layout": [[True]] * 36},
    ], ids=["negative-t", "fractional-t", "negative-dim", "bool-dims"])
    def test_bad_step_count_or_layout_rejected(self, tmp_path, change):
        model = _model()
        opt = Optimizer(kind="adam", lr=0.01)
        opt.step([model.W], [np.ones(model.W.shape)])
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, model, iteration=1, optimizer=opt)
        rewrite_optimizer_header(path, **change)
        want = f"^{re.escape(str(path))}: malformed optimizer state: "
        with pytest.raises(FormatError, match=want):
            load_checkpoint(path)

    def test_name_keyed_optimizer_rejected(self, tmp_path):
        path = tmp_path / "old.ckpt"
        write_name_keyed_checkpoint(path, _model())
        want = f"^{re.escape(str(path))}: optimizer state has no 'layout'$"
        with pytest.raises(FormatError, match=want):
            load_checkpoint(path)

    def test_restored_rng_continues_stream(self, tmp_path):
        rng = make_rng(9)
        rng.standard_normal(5)
        state = rng.bit_generator.state
        model = _model()
        path = tmp_path / "r.ckpt"
        save_checkpoint(path, model, iteration=1, rng_state=state)
        back = load_checkpoint(path)
        rng2 = make_rng(0)
        rng2.bit_generator.state = back.rng_state
        np.testing.assert_array_equal(rng.standard_normal(5), rng2.standard_normal(5))


class TestAtomicWrite:
    def _state(self):
        model = _model(3)
        bank = RegressorBank.create(make_rng(3), model.partition, hidden=4)
        opt = Optimizer(kind="adam", lr=0.01)
        opt.step([model.W], [np.ones(model.W.shape)])
        return model, bank, opt

    @pytest.mark.parametrize("writer", ["_write_optimizer", "_write_bank"])
    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch, writer):
        model, bank, opt = self._state()
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, model, iteration=1, optimizer=opt, bank=bank)
        before = path.read_bytes()

        def broken(fh, _obj):
            fh.write(b"\x01partial")
            raise OSError("disk full")

        monkeypatch.setattr(checkpoint, writer, broken)
        model.W += 1.0
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, model, iteration=2, optimizer=opt, bank=bank)
        assert path.read_bytes() == before
        assert load_checkpoint(path).iteration == 1
        assert [p.name for p in tmp_path.iterdir()] == ["t.ckpt"]

    @pytest.mark.parametrize("what", ["W", "backbone weight", "backbone bias",
                                      "optimizer v", "bank b2"])
    def test_non_finite_array_refused_and_previous_kept(self, tmp_path, what):
        model, bank, opt = self._state()
        model.backbone = _model(3, backbone=True).backbone
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, model, iteration=1, optimizer=opt, bank=bank)
        before = path.read_bytes()
        target = {"W": model.W, "backbone weight": model.backbone.weight,
                  "backbone bias": model.backbone.bias, "optimizer v": opt.buffers["flat"]["v"],
                  "bank b2": bank[(0, 1)].b2}[what]
        target.flat[1] = np.inf
        with pytest.raises(NumericFailure,
                           match=f"^non-finite {what} at entry 1; checkpoint not written$"):
            save_checkpoint(path, model, iteration=2, optimizer=opt, bank=bank)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["t.ckpt"]

    def test_failed_first_save_leaves_no_file(self, tmp_path, monkeypatch):
        model, bank, opt = self._state()

        def broken(fh, _obj):
            raise OSError("disk full")

        monkeypatch.setattr(checkpoint, "_write_bank", broken)
        with pytest.raises(OSError):
            save_checkpoint(tmp_path / "t.ckpt", model, iteration=1, optimizer=opt, bank=bank)
        assert list(tmp_path.iterdir()) == []


class TestLoadMemory:
    def test_paper_scale_load_peaks_below_1_2x_the_file(self, tmp_path):
        # Each array is read straight into its final buffer: the file's bytes
        # are never held a second time.
        rng = make_rng(12)
        model = init_model(rng, 512, GroupPartition((96, 160, 256)))
        opt = Optimizer(kind="adam", lr=1e-3)
        opt.step([model.W], [rng.standard_normal(model.W.shape)])
        path = tmp_path / "paper.ckpt"
        save_checkpoint(path, model, iteration=20, rng_state=rng.bit_generator.state,
                        optimizer=opt)
        size = path.stat().st_size
        tracemalloc.start()
        try:
            back = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.model.W.tobytes() == model.W.tobytes()
        assert peak < 1.2 * size


class TestCorruptContent:
    ARRAYS = ("W", "backbone weight", "backbone bias", "optimizer m", "optimizer v",
              "bank W1", "bank b1", "bank W2", "bank b2")

    def _save_full(self, path):
        """A checkpoint with every f64 section; returns its arrays by name."""
        rng = make_rng(4)
        model = _model(4, backbone=True)
        bank = RegressorBank.create(rng, model.partition, hidden=4)
        reg = bank[(0, 1)]
        arrays = [model.W, model.backbone.weight, model.backbone.bias,
                  reg.W1, reg.b1, reg.W2, reg.b2]
        for arr in arrays:  # distinct values, so each array's bytes occur once
            arr[...] = rng.standard_normal(arr.shape)
        opt = Optimizer(kind="adam", lr=0.01)
        opt.step(arrays, [rng.standard_normal(a.shape) for a in arrays])
        save_checkpoint(path, model, iteration=1, optimizer=opt, bank=bank)
        names = ("W", "backbone weight", "backbone bias", "bank W1", "bank b1",
                 "bank W2", "bank b2")
        named = dict(zip(names, arrays))
        named.update({f"optimizer {key}": v for key, v in opt.buffers["flat"].items()})
        return named

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("what", ARRAYS)
    def test_non_finite_value_names_array_and_offset(self, tmp_path, what, bad):
        path = tmp_path / "t.ckpt"
        off = poison_f64(path, self._save_full(path)[what], k=1, value=bad)
        want = f"^{re.escape(str(path))}: non-finite {what} at offset {off}$"
        with pytest.raises(FormatError, match=want):
            load_checkpoint(path)

    def test_every_proper_prefix_is_refused_but_the_model_block(self, tmp_path):
        # A full checkpoint cut anywhere raises FormatError, except right
        # after the model block, where a model-only checkpoint may end.
        full = tmp_path / "t.ckpt"
        W = self._save_full(full)["W"]
        model_only = tmp_path / "m.ckpt"
        save_checkpoint(model_only, load_checkpoint(full).model)
        model_end = model_only.stat().st_size - 1  # less its train-state flag
        data = full.read_bytes()
        cut = tmp_path / "cut.ckpt"
        for k in range(len(data)):
            cut.write_bytes(data[:k])
            if k == model_end:
                back = load_checkpoint(cut)
                assert back.iteration == 0 and back.optimizer is None and back.bank is None
                assert back.model.W.tobytes() == W.tobytes()
            else:
                with pytest.raises(FormatError):
                    load_checkpoint(cut)

    @pytest.mark.parametrize("d,sizes,message", [
        (0, (), "partition needs at least one group"),
        (4, (0, 4), r"group sizes must be >= 1, got \(0, 4\)"),
    ], ids=["no-group", "empty-group"])
    def test_degenerate_partition_rejected(self, tmp_path, d, sizes, message):
        path = tmp_path / "m.ckpt"
        write_bare_model(path, 6, d, sizes)
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: {message}$"):
            load_checkpoint(path)
