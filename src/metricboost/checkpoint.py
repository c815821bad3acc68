"""Binary model checkpoints, with optional training state for exact resume.

Model block (little-endian):

    magic "BIERMDL1" (8 bytes)
    u32 h, u32 d, u32 M
    u32 sizes[M]
    f64 W[h * d], row-major
    u8 backbone_present
    if present: u32 in_dim, f64 weight[h * in_dim] row-major, f64 bias[h]

A training-state extension may follow (files ending after the model block are
valid model-only checkpoints); bytes after the last field, non-finite f64
values and a partition with no group or an empty group are rejected. Saving
refuses non-finite values too (NumericFailure), so every file written loads:

    u8 has_train_state
    u64 iteration
    u32 len, JSON rng state
    u8 optimizer_present
    if present: u32 len, JSON header {hyperparams, t, layout, moments},
                f64 flat vector per moment, sized by the layout's shapes
    u8 bank_present
    if present: u32 count, then per regressor:
                u32 i, u32 j, u32 hidden, u32 d_in, u32 d_out,
                f64 W1, f64 b1, f64 W2, f64 b2

`layout` lists the shapes of the optimizer's arrays in step order (W,
backbone weight and bias, then W1, b1, W2, b2 per regressor); `moments` names
the vectors ("vel", or "m" and "v"). Headers without them (the earlier
per-name manifest) are rejected.
"""

from dataclasses import dataclass
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .diversity import Regressor, RegressorBank
from .ensemble import Backbone, EnsembleModel, GroupPartition
from .errors import FormatError, InvalidArgument, NumericFailure
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
    """Sequential reads from an open checkpoint file of known size."""

    def __init__(self, fh, path):
        self.fh = fh
        self.size = os.fstat(fh.fileno()).st_size
        self.off = 0
        self.path = path

    def _truncated(self, what, off):
        return FormatError(f"{self.path}: truncated while reading {what} at offset {off}")

    def _reserve(self, n, what):
        if self.off + n > self.size:
            raise self._truncated(what, self.off)
        self.off += n

    def take(self, n, what):
        start = self.off
        self._reserve(n, what)
        data = self.fh.read(n)
        if len(data) != n:  # the file shrank after it was opened
            raise self._truncated(what, start)
        return data

    def u8(self, what):
        return struct.unpack("<B", self.take(1, what))[0]

    def u32(self, what):
        return struct.unpack("<I", self.take(4, what))[0]

    def u64(self, what):
        return struct.unpack("<Q", self.take(8, what))[0]

    def f64_array(self, count, what):
        """`count` values read straight into a new array, which is returned."""
        start = self.off
        self._reserve(8 * count, what)
        arr = np.empty(count, dtype="<f8")
        if self.fh.readinto(arr) != 8 * count:  # the file shrank after it was opened
            raise self._truncated(what, start)
        finite = np.isfinite(arr)
        if not finite.all():
            off = start + 8 * int(np.argmin(finite))  # the first False
            raise FormatError(f"{self.path}: non-finite {what} at offset {off}")
        return arr

    def blob(self, what):
        n = self.u32(what + " length")
        return self.take(n, what)

    def at_end(self):
        return self.off == self.size

    def expect_end(self):
        if not self.at_end():
            raise FormatError(
                f"{self.path}: {self.size - self.off} trailing bytes at offset {self.off}"
            )


def _write_f64(fh, arr, what):
    """Write `arr` as little-endian f64, refusing the non-finite values that
    loading would reject."""
    data = np.ascontiguousarray(arr, dtype="<f8")
    finite = np.isfinite(data)
    if not finite.all():
        bad = int(np.argmin(finite.reshape(-1)))  # the first False
        raise NumericFailure(f"non-finite {what} at entry {bad}; checkpoint not written")
    fh.write(data)


def _write_model(fh, model):
    h, d = model.W.shape
    sizes = model.partition.sizes
    fh.write(MODEL_MAGIC)
    fh.write(struct.pack("<III", h, d, len(sizes)))
    fh.write(struct.pack(f"<{len(sizes)}I", *sizes))
    _write_f64(fh, model.W, "W")
    if model.backbone is None:
        fh.write(struct.pack("<B", 0))
    else:
        fh.write(struct.pack("<B", 1))
        fh.write(struct.pack("<I", model.backbone.in_dim))
        _write_f64(fh, model.backbone.weight, "backbone weight")
        _write_f64(fh, model.backbone.bias, "backbone bias")


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
    try:
        return EnsembleModel(W, GroupPartition(tuple(sizes)), backbone=backbone)
    except InvalidArgument as exc:
        raise FormatError(f"{rd.path}: {exc}") from None


def _write_optimizer(fh, opt):
    moments = opt.buffers.get("flat", {})
    header = {key: getattr(opt, key)
              for key in ("kind", "lr", "momentum", "beta1", "beta2", "eps", "t", "layout")}
    blob = json.dumps({**header, "moments": list(moments)}).encode("utf-8")
    fh.write(struct.pack("<I", len(blob)))
    fh.write(blob)
    for key, arr in moments.items():
        _write_f64(fh, arr, f"optimizer {key}")


def _read_header(rd, what):
    """The JSON header `what`: a u32 length, then UTF-8 JSON text."""
    blob = rd.blob(f"{what} header")
    try:
        return json.loads(blob.decode("utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError both are
        raise FormatError(f"{rd.path}: malformed {what} header: {exc}") from None


def _read_rng_state(rd):
    """The RNG header: {} for none, else a state a PCG64 bit generator takes."""
    state = _read_header(rd, "rng state")
    if state == {}:
        return None
    try:
        np.random.PCG64().state = state
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise FormatError(f"{rd.path}: malformed rng state header: not a PCG64 state "
                          f"({type(exc).__name__}: {exc})") from None
    return state


def _read_optimizer(rd):
    header = _read_header(rd, "optimizer")
    try:
        size = sum(math.prod(shape) for shape in header["layout"] or [])
        moments = {key: rd.f64_array(size, f"optimizer {key}") for key in header["moments"]}
        return Optimizer.from_state_dict({**header, "buffers": {"flat": moments}})
    except FormatError:
        raise  # already names the file and offset
    except KeyError as exc:
        raise FormatError(f"{rd.path}: optimizer state has no {exc}") from None
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{rd.path}: malformed optimizer state: {exc}") from None


def _write_bank(fh, bank):
    keys = bank.keys()
    fh.write(struct.pack("<I", len(keys)))
    for (i, j) in keys:
        reg = bank[(i, j)]
        fh.write(struct.pack("<IIIII", i, j, reg.hidden, reg.d_in, reg.d_out))
        for name in ("W1", "b1", "W2", "b2"):
            _write_f64(fh, getattr(reg, name), f"bank {name}")


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
    """Write a checkpoint; training state is included when iteration is given.

    The bytes go to `<path>.tmp`, which then replaces `path`; on any error
    the temporary file is removed and an existing `path` is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            _write_model(fh, model)
            has_state = iteration is not None or bank is not None
            fh.write(struct.pack("<B", 1 if has_state else 0))
            if has_state:
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
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path):
    path = Path(path)
    with open(path, "rb") as fh:
        rd = _Reader(fh, path)
        model = _read_model(rd)
        if rd.at_end() or not rd.u8("train state flag"):
            rd.expect_end()
            return Checkpoint(model=model)
        iteration = rd.u64("iteration")
        rng_state = _read_rng_state(rd)
        optimizer = _read_optimizer(rd) if rd.u8("optimizer flag") else None
        bank = _read_bank(rd) if rd.u8("bank flag") else None
        rd.expect_end()
        return Checkpoint(
            model=model, iteration=iteration, rng_state=rng_state,
            optimizer=optimizer, bank=bank,
        )
