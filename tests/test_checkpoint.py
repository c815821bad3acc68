import numpy as np
import pytest

from metricboost.checkpoint import load_checkpoint, save_checkpoint
from metricboost.diversity import RegressorBank
from metricboost.ensemble import GroupPartition, init_model
from metricboost.errors import FormatError
from metricboost.linalg import make_rng
from metricboost.optim import Optimizer


def _model(seed=0, backbone=False):
    rng = make_rng(seed)
    return init_model(rng, 6, GroupPartition((2, 4)), backbone_in_dim=5 if backbone else None)


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
        opt.step({"W": model.W}, {"W": rng.standard_normal(model.W.shape)})
        rng_state = rng.bit_generator.state
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, model, iteration=42, rng_state=rng_state,
                        optimizer=opt, bank=bank)
        back = load_checkpoint(path)
        assert back.iteration == 42
        assert back.rng_state == rng_state
        assert back.optimizer.t == 1
        np.testing.assert_array_equal(back.optimizer.buffers["W"]["m"], opt.buffers["W"]["m"])
        np.testing.assert_array_equal(back.bank[(0, 1)].W1, bank[(0, 1)].W1)

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
