"""Span recording from outside the package, and the per-layer metrics from it.

`Tracer.installed()` replaces each layer's public functions where their
callers look them up (module globals and class attributes) with wrappers that
record one span per call: name, parent span, start and end, and puts the
originals back on exit. Spans live in flat in-memory arrays until `save()`
writes them out at the end of a run. Nothing inside the package
changes, and a wrapper only reads arguments and results, so a traced run must
give the same float bits as an untraced one (the benchmark checks this).

Counters (items mined, arrays stepped, bytes computed from array sizes) are
recorded by the same wrappers, at the same span boundaries as the timings.
"""

from array import array
from contextlib import contextmanager
import os
import time
import tracemalloc

import numpy as np

from metricboost import boosting, checkpoint, data_io, evaluate, trainer
from metricboost.ensemble import EnsembleModel
from metricboost.optim import Optimizer

MB = float(1 << 20)

# Spans whose descendants are grouped by the nearest one of them, so that a
# function called both while training and while initialising or evaluating
# (forward_batch, Optimizer.step, activation_loss) is timed per context.
CONTEXTS = ("trainer.train_step", "trainer.init_solver", "evaluate.evaluate_model")


def _step_items(tr, sid, args, out):
    tr.count("trainer.items", sid, out.n_used + out.n_skipped)


def _accumulate_items(tr, sid, args, out):
    model, batch = args[0], args[2]
    tr.count("boosting.used", sid, out.n_used)
    tr.count("boosting.mined", sid, len(batch))
    # Per-item gradient rows of width d that the kernel holds at once:
    # pairs keep ds/du, ds/dv and both scaled copies; triplets keep four
    # cosine gradients and three scaled copies.
    rows = 4 if isinstance(batch, boosting.PairBatch) else 7
    tr.count("boosting.grad_rows_bytes", sid, rows * len(batch) * model.embedding_dim * 8)


def _optim_arrays(tr, sid, args, out):
    tr.count("optim.arrays", sid, len(args[1]))


def _recall_bytes(tr, sid, args, out):
    n = len(args[0])
    tr.count("evaluate.sim_bytes", sid, n * n * 8)


def _file_bytes(tr, sid, args, out):
    tr.count("bytes", sid, os.path.getsize(args[0]))


# (owner, attribute, span name, counter hook). The owner is where callers look
# the function up: trainer.run finds train_step in metricboost.trainer, the
# boosting kernel finds the loss functions in metricboost.boosting, and so on.
PATCHES = (
    (trainer, "run", "trainer.run", None),
    (trainer, "init_solver", "trainer.init_solver", None),
    (trainer, "sample_batch", "trainer.sample_batch", None),
    (trainer, "train_step", "trainer.train_step", _step_items),
    (trainer, "accumulate_W_gradient", "boosting.accumulate_W_gradient", _accumulate_items),
    (trainer, "accumulate_plain_gradient", "boosting.accumulate_plain_gradient", _accumulate_items),
    (trainer, "activation_loss", "diversity.activation_loss", None),
    (trainer, "adversarial_loss", "diversity.adversarial_loss", None),
    (trainer, "evaluate_model", "evaluate.evaluate_model", None),
    (boosting, "cosine_sim_grad_batch", "boosting.cosine_sim_grad_batch", None),
    (boosting, "boost_backward_pair", "boosting.boost_trace", None),
    (boosting, "boost_step_triplet", "boosting.boost_trace", None),
    (boosting, "pair_loss_vec", "losses.loss", None),
    (boosting, "triplet_loss_vec", "losses.loss", None),
    (boosting, "boosting_weight_vec", "losses.loss", None),
    (EnsembleModel, "forward_batch", "ensemble.forward_batch", None),
    (EnsembleModel, "test_embeddings", "ensemble.test_embeddings", None),
    (Optimizer, "step", "optim.step", _optim_arrays),
    (evaluate, "evaluate_model", "evaluate.evaluate_model", None),
    (evaluate, "recall_at_k", "evaluate.recall_at_k", _recall_bytes),
    (evaluate, "per_learner_recall_at_1", "evaluate.per_learner_recall_at_1", None),
    (evaluate, "feature_correlation", "evaluate.feature_correlation", None),
    (evaluate, "make_eval_pairs", "evaluate.make_eval_pairs", None),
    (evaluate, "classifier_correlation", "evaluate.classifier_correlation", None),
    (checkpoint, "save_checkpoint", "checkpoint.save", _file_bytes),
    (checkpoint, "load_checkpoint", "checkpoint.load", None),
    (data_io, "synth_gaussian", "data_io.synth", None),
    (data_io, "write_features", "data_io.write", _file_bytes),
    (data_io, "read_features", "data_io.read", None),
)


class Patcher:
    """Swaps attributes for wrappers and restores the originals."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, attr, make_wrapper):
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer:
    """In-memory span store: parallel arrays indexed by span id."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self.counters = {}  # counter -> (span ids, values)
        self._stack = []
        self._patcher = Patcher()

    def _open(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.failed.append(0)
        self.end.append(float("nan"))
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid, failed=False):
        self.end[sid] = time.perf_counter()
        self._stack.pop()
        if failed:
            self.failed[sid] = 1

    def count(self, counter, sid, value):
        pair = self.counters.get(counter)
        if pair is None:
            pair = self.counters[counter] = (array("i"), array("d"))
        ids, values = pair
        ids.append(sid)
        values.append(float(value))

    def wrap(self, name, fn, hook=None):
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._close(sid, failed=True)
                raise
            self._close(sid)
            if hook is not None:
                hook(self, sid, args, out)
            return out
        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        for owner, attr, name, hook in PATCHES:
            self._patcher.replace(owner, attr, lambda fn, n=name, h=hook: self.wrap(n, fn, h))
        try:
            yield self
        finally:
            self._patcher.restore()

    def save(self, path):
        """Write every span and counter as arrays (numpy .npz)."""
        extra = {}
        for counter, (ids, values) in self.counters.items():
            extra[f"counter.{counter}.span"] = np.frombuffer(ids, dtype=np.intc)
            extra[f"counter.{counter}.value"] = np.frombuffer(values, dtype=np.float64)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.intc),
            parent=np.frombuffer(self.parent, dtype=np.intc),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            failed=np.frombuffer(self.failed, dtype=np.int8),
            **extra,
        )


class PeakProbe:
    """tracemalloc high-water marks of single calls, taken at span boundaries.

    Tracing runs only inside the outermost probed call, from its entry to its
    exit, so the peak counts what the call allocates and the rest of the
    episode runs at full speed. Starting tracemalloc costs about a millisecond,
    so only the first few calls of each argument shape are probed: the peak
    depends on the shapes, not on the values.
    """

    CALLS_PER_SHAPE = 3

    TARGETS = (
        (trainer, "accumulate_W_gradient", "boosting"),
        (trainer, "accumulate_plain_gradient", "boosting"),
        (trainer, "evaluate_model", "evaluate"),
        (evaluate, "evaluate_model", "evaluate"),
    )

    def __init__(self):
        self.peak_bytes = {}
        self.calls = {}
        self._seen = {}
        self._depth = 0
        self._patcher = Patcher()

    @staticmethod
    def _shape(args):
        """Array shapes, feature-set shapes and batch lengths of the arguments."""
        key = []
        for a in args:
            features = getattr(a, "features", None)  # a FeatureSet
            shape = getattr(a, "shape", None) or getattr(features, "shape", None)
            key.append(shape or (type(a).__name__, len(a) if hasattr(a, "__len__") else None))
        return tuple(key)

    def _wrap(self, layer, fn):
        def probed(*args, **kwargs):
            outer = False
            if self._depth == 0:
                key = (fn.__name__, self._shape(args))
                self._seen[key] = self._seen.get(key, 0) + 1
                outer = self._seen[key] <= self.CALLS_PER_SHAPE
            if outer:
                tracemalloc.start()
            self._depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1
                if outer:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peak_bytes[layer] = max(self.peak_bytes.get(layer, 0), peak)
                    self.calls[layer] = self.calls.get(layer, 0) + 1
        return probed

    @contextmanager
    def installed(self):
        for owner, attr, layer in self.TARGETS:
            self._patcher.replace(owner, attr, lambda fn, l=layer: self._wrap(l, fn))
        try:
            yield self
        finally:
            self._patcher.restore()


class SpanTable:
    """Read-side view of a Tracer: durations, self times, contexts."""

    def __init__(self, tracer):
        self.names = tracer.names
        self.name = np.frombuffer(tracer.name, dtype=np.intc).copy()
        self.parent = np.frombuffer(tracer.parent, dtype=np.intc).copy()
        start = np.frombuffer(tracer.start, dtype=np.float64)
        end = np.frombuffer(tracer.end, dtype=np.float64)
        self.failed = np.frombuffer(tracer.failed, dtype=np.int8).astype(bool)
        self.dur_ms = (end - start) * 1e3
        child_ms = np.zeros_like(self.dur_ms)
        has_parent = self.parent >= 0
        np.add.at(child_ms, self.parent[has_parent], self.dur_ms[has_parent])
        self.self_ms = self.dur_ms - child_ms
        # Nearest enclosing context span (or the span itself), -1 for none.
        ctx_ids = {self.names.index(c) for c in CONTEXTS if c in self.names}
        ctx = np.full(len(self.name), -1, dtype=np.intc)
        for sid, (nid, par) in enumerate(zip(self.name.tolist(), self.parent.tolist())):
            if nid in ctx_ids:
                ctx[sid] = sid
            elif par >= 0:
                ctx[sid] = ctx[par]
        self.ctx = ctx
        self.counters = {
            k: (np.frombuffer(ids, dtype=np.intc), np.frombuffer(vals, dtype=np.float64))
            for k, (ids, vals) in tracer.counters.items()
        }

    def mask(self, name, context=None):
        if name not in self.names:
            return np.zeros(len(self.name), dtype=bool)
        m = self.name == self.names.index(name)
        if context is not None:
            if context not in self.names:
                return np.zeros_like(m)
            ctx_name = np.where(self.ctx >= 0, self.name[np.maximum(self.ctx, 0)], -1)
            m &= ctx_name == self.names.index(context)
        return m

    def counter(self, counter, span_mask=None):
        ids, vals = self.counters.get(counter, (np.zeros(0, np.intc), np.zeros(0)))
        if span_mask is not None:
            vals = vals[span_mask[ids]]
        return vals


def _stat(values, q):
    """(percentile q of values, sample count); 0 with n=0 for no samples."""
    if len(values) == 0:
        return 0.0, 0
    return float(np.percentile(values, q)), len(values)


def _ratio(num, den):
    return (float(num) / den if den else 0.0), int(den)


def layer_metrics(tracer, probe, overhead_frac, n_episode_pairs):
    """Per-layer metrics as name -> (value, sample count)."""
    t = SpanTable(tracer)
    step = t.mask("trainer.train_step")
    n_steps = int(step.sum())

    def in_step(name):
        return t.mask(name, "trainer.train_step")

    evals = t.mask("evaluate.evaluate_model")
    inits = t.mask("trainer.init_solver")
    in_init_div = t.mask("diversity.activation_loss", "trainer.init_solver") | t.mask(
        "diversity.adversarial_loss", "trainer.init_solver")
    optim_train = in_step("optim.step")
    used = t.counter("boosting.used").sum()
    mined = t.counter("boosting.mined").sum()
    grad_rows = t.counter("boosting.grad_rows_bytes")
    sim_bytes = t.counter("evaluate.sim_bytes")
    ckpt_bytes = t.counter("bytes", t.mask("checkpoint.save"))
    feat_bytes = t.counter("bytes", t.mask("data_io.write"))

    out = {
        "data_io.synth_ms": _stat(t.dur_ms[t.mask("data_io.synth")], 50),
        "data_io.write_ms": _stat(t.dur_ms[t.mask("data_io.write")], 50),
        "data_io.read_ms": _stat(t.dur_ms[t.mask("data_io.read")], 50),
        "data_io.bytes": _stat(feat_bytes, 50),
        "trainer.step_ms_p50": _stat(t.dur_ms[step], 50),
        "trainer.step_ms_p99": _stat(t.dur_ms[step], 99),
        "trainer.step_self_ms_p50": _stat(t.self_ms[step], 50),
        "trainer.sample_batch_ms_p50": _stat(t.dur_ms[t.mask("trainer.sample_batch")], 50),
        "trainer.items_per_step": _ratio(t.counter("trainer.items").sum(), n_steps),
        "trainer.init_solver_self_ms": _stat(t.self_ms[inits], 50),
        "boosting.accumulate_self_ms_p50": _stat(
            t.self_ms[t.mask("boosting.accumulate_W_gradient")], 50),
        "boosting.plain_ms_p50": _stat(t.dur_ms[t.mask("boosting.accumulate_plain_gradient")], 50),
        "boosting.cosine_ms_p50": _stat(t.dur_ms[t.mask("boosting.cosine_sim_grad_batch")], 50),
        "boosting.trace_ms_p50": _stat(t.dur_ms[t.mask("boosting.boost_trace")], 50),
        "boosting.items_used_frac": _ratio(used, int(mined)),
        "boosting.grad_rows_mb": _stat(grad_rows / MB, 100),
        "boosting.peak_alloc_mb": (probe.peak_bytes.get("boosting", 0) / MB,
                                   probe.calls.get("boosting", 0)),
        "losses.ms_p50": _stat(t.dur_ms[in_step("losses.loss")], 50),
        "losses.calls_per_step": _ratio(in_step("losses.loss").sum(), n_steps),
        "ensemble.forward_ms_p50": _stat(t.dur_ms[in_step("ensemble.forward_batch")], 50),
        "ensemble.test_embeddings_ms": _stat(t.dur_ms[t.mask("ensemble.test_embeddings")], 50),
        "diversity.activation_ms_p50": _stat(t.dur_ms[in_step("diversity.activation_loss")], 50),
        "diversity.adversarial_ms_p50": _stat(t.dur_ms[in_step("diversity.adversarial_loss")], 50),
        "diversity.init_calls": _ratio(in_init_div.sum(), int(inits.sum())),
        "optim.step_ms_p50": _stat(t.dur_ms[optim_train], 50),
        "optim.arrays_per_step": _ratio(t.counter("optim.arrays", optim_train).sum(),
                                        int(optim_train.sum())),
        "optim.steps_refused": (float((t.mask("optim.step") & t.failed).sum()),
                                int(t.mask("optim.step").sum())),
        "evaluate.self_ms": _stat(t.self_ms[evals], 50),
        "evaluate.recall_ms": _stat(t.dur_ms[t.mask("evaluate.recall_at_k")], 50),
        "evaluate.recall_calls": _ratio(t.mask("evaluate.recall_at_k").sum(), int(evals.sum())),
        "evaluate.per_learner_ms": _stat(
            t.dur_ms[t.mask("evaluate.per_learner_recall_at_1")], 50),
        "evaluate.feature_corr_ms": _stat(t.dur_ms[t.mask("evaluate.feature_correlation")], 50),
        "evaluate.eval_pairs_ms": _stat(t.dur_ms[t.mask("evaluate.make_eval_pairs")], 50),
        "evaluate.clf_corr_ms": _stat(t.dur_ms[t.mask("evaluate.classifier_correlation")], 50),
        "evaluate.sim_matrix_mb": _stat(sim_bytes / MB, 100),
        "evaluate.peak_alloc_mb": (probe.peak_bytes.get("evaluate", 0) / MB,
                                   probe.calls.get("evaluate", 0)),
        "checkpoint.save_ms": _stat(t.dur_ms[t.mask("checkpoint.save")], 50),
        "checkpoint.load_ms": _stat(t.dur_ms[t.mask("checkpoint.load")], 50),
        "checkpoint.bytes": _stat(ckpt_bytes, 50),
        "trace.overhead_frac": (overhead_frac, n_episode_pairs),
    }
    return out

