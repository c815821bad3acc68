"""Binary model checkpoints, with optional training state for exact resume.

Model block (little-endian):

    magic "BIERMDL1" (8 bytes)
    u32 h, u32 d, u32 M
    u32 sizes[M]
    f64 W[h * d], row-major
    u8 backbone_present
    if present: u32 in_dim, f64 weight[h * in_dim] row-major, f64 bias[h]

A training-state extension may follow (files ending after the model block are
valid model-only checkpoints); bytes after the last field are rejected:

    u8 has_train_state
    u64 iteration
    u32 len, JSON rng state
    u8 optimizer_present
    if present: u32 len, JSON header {hyperparams, t, buffer manifest},
                f64 payload per manifest entry
    u8 bank_present
    if present: u32 count, then per regressor:
                u32 i, u32 j, u32 hidden, u32 d_in, u32 d_out,
                f64 W1, f64 b1, f64 W2, f64 b2
"""

from dataclasses import dataclass
import json
import struct
from pathlib import Path

import numpy as np

from .diversity import Regressor, RegressorBank
from .ensemble import Backbone, EnsembleModel, GroupPartition
from .errors import FormatError
from .optim import Optimizer

MODEL_MAGIC = b"BIERMDL1"


@dataclass
class Checkpoint:
    model: EnsembleModel
    iteration: int = 0
    rng_state: dict | None = None
    optimizer: Optimizer | None = None
    bank: RegressorBank | None = None


class _Reader:
    def __init__(self, data, path):
        self.data = data
        self.off = 0
        self.path = path

    def take(self, n, what):
        if self.off + n > len(self.data):
            raise FormatError(
                f"{self.path}: truncated while reading {what} at offset {self.off}"
            )
        out = self.data[self.off:self.off + n]
        self.off += n
        return out

    def u8(self, what):
        return struct.unpack("<B", self.take(1, what))[0]

    def u32(self, what):
        return struct.unpack("<I", self.take(4, what))[0]

    def u64(self, what):
        return struct.unpack("<Q", self.take(8, what))[0]

    def f64_array(self, count, what):
        raw = self.take(8 * count, what)
        return np.frombuffer(raw, dtype="<f8", count=count).astype(np.float64)

    def blob(self, what):
        n = self.u32(what + " length")
        return self.take(n, what)

    def at_end(self):
        return self.off == len(self.data)

    def expect_end(self):
        if not self.at_end():
            raise FormatError(
                f"{self.path}: {len(self.data) - self.off} trailing bytes at offset {self.off}"
            )


def _write_model(fh, model):
    h, d = model.W.shape
    sizes = model.partition.sizes
    fh.write(MODEL_MAGIC)
    fh.write(struct.pack("<III", h, d, len(sizes)))
    fh.write(struct.pack(f"<{len(sizes)}I", *sizes))
    fh.write(model.W.astype("<f8").tobytes())
    if model.backbone is None:
        fh.write(struct.pack("<B", 0))
    else:
        fh.write(struct.pack("<B", 1))
        fh.write(struct.pack("<I", model.backbone.in_dim))
        fh.write(model.backbone.weight.astype("<f8").tobytes())
        fh.write(model.backbone.bias.astype("<f8").tobytes())


def _read_model(rd):
    magic = rd.take(8, "magic")
    if magic != MODEL_MAGIC:
        raise FormatError(f"{rd.path}: missing magic at offset 0")
    h = rd.u32("h")
    d = rd.u32("d")
    M = rd.u32("M")
    sizes = [rd.u32(f"group size {m}") for m in range(M)]
    if sum(sizes) != d:
        raise FormatError(f"{rd.path}: group sizes sum to {sum(sizes)}, header says d={d}")
    W = rd.f64_array(h * d, "W").reshape(h, d)
    backbone = None
    if rd.u8("backbone flag"):
        in_dim = rd.u32("backbone in_dim")
        weight = rd.f64_array(h * in_dim, "backbone weight").reshape(h, in_dim)
        bias = rd.f64_array(h, "backbone bias")
        backbone = Backbone(weight=weight, bias=bias)
    return EnsembleModel(W, GroupPartition(tuple(sizes)), backbone=backbone)


def _write_optimizer(fh, opt):
    state = opt.state_dict()
    manifest = []
    payload = []
    for name in state["buffers"]:
        for key, arr in state["buffers"][name].items():
            manifest.append({"name": name, "key": key, "shape": list(arr.shape)})
            payload.append(np.asarray(arr, dtype=np.float64))
    header = json.dumps({
        "kind": state["kind"], "lr": state["lr"], "momentum": state["momentum"],
        "beta1": state["beta1"], "beta2": state["beta2"], "eps": state["eps"],
        "t": state["t"], "manifest": manifest,
    }).encode("utf-8")
    fh.write(struct.pack("<I", len(header)))
    fh.write(header)
    for arr in payload:
        fh.write(arr.astype("<f8").tobytes())


def _read_optimizer(rd):
    header = json.loads(rd.blob("optimizer header").decode("utf-8"))
    buffers = {}
    for entry in header["manifest"]:
        count = int(np.prod(entry["shape"])) if entry["shape"] else 1
        arr = rd.f64_array(count, f"optimizer buffer {entry['name']}/{entry['key']}")
        buffers.setdefault(entry["name"], {})[entry["key"]] = arr.reshape(entry["shape"])
    return Optimizer.from_state_dict({
        "kind": header["kind"], "lr": header["lr"], "momentum": header["momentum"],
        "beta1": header["beta1"], "beta2": header["beta2"], "eps": header["eps"],
        "t": header["t"], "buffers": buffers,
    })


def _write_bank(fh, bank):
    keys = bank.keys()
    fh.write(struct.pack("<I", len(keys)))
    for (i, j) in keys:
        reg = bank[(i, j)]
        fh.write(struct.pack("<IIIII", i, j, reg.hidden, reg.d_in, reg.d_out))
        fh.write(reg.W1.astype("<f8").tobytes())
        fh.write(reg.b1.astype("<f8").tobytes())
        fh.write(reg.W2.astype("<f8").tobytes())
        fh.write(reg.b2.astype("<f8").tobytes())


def _read_bank(rd):
    count = rd.u32("bank count")
    regs = {}
    for _ in range(count):
        i = rd.u32("bank i")
        j = rd.u32("bank j")
        hidden = rd.u32("bank hidden")
        d_in = rd.u32("bank d_in")
        d_out = rd.u32("bank d_out")
        W1 = rd.f64_array(hidden * d_in, "bank W1").reshape(hidden, d_in)
        b1 = rd.f64_array(hidden, "bank b1")
        W2 = rd.f64_array(d_out * hidden, "bank W2").reshape(d_out, hidden)
        b2 = rd.f64_array(d_out, "bank b2")
        regs[(i, j)] = Regressor(W1=W1, b1=b1, W2=W2, b2=b2)
    return RegressorBank(regs)


def save_checkpoint(path, model, iteration=None, rng_state=None, optimizer=None, bank=None):
    """Write a checkpoint; training state is included when iteration is given."""
    path = Path(path)
    with open(path, "wb") as fh:
        _write_model(fh, model)
        has_state = iteration is not None or bank is not None
        fh.write(struct.pack("<B", 1 if has_state else 0))
        if not has_state:
            return
        fh.write(struct.pack("<Q", iteration or 0))
        blob = json.dumps(rng_state or {}).encode("utf-8")
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(struct.pack("<B", 1 if optimizer is not None else 0))
        if optimizer is not None:
            _write_optimizer(fh, optimizer)
        fh.write(struct.pack("<B", 1 if bank is not None else 0))
        if bank is not None:
            _write_bank(fh, bank)


def load_checkpoint(path):
    path = Path(path)
    rd = _Reader(path.read_bytes(), path)
    model = _read_model(rd)
    if rd.at_end() or not rd.u8("train state flag"):
        rd.expect_end()
        return Checkpoint(model=model)
    iteration = rd.u64("iteration")
    rng_state = json.loads(rd.blob("rng state").decode("utf-8")) or None
    optimizer = _read_optimizer(rd) if rd.u8("optimizer flag") else None
    bank = _read_bank(rd) if rd.u8("bank flag") else None
    rd.expect_end()
    return Checkpoint(
        model=model, iteration=iteration, rng_state=rng_state,
        optimizer=optimizer, bank=bank,
    )
