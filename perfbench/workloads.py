"""The benchmark's workloads and the episode each of them repeats.

Every workload is the same pipeline at a different scale and mix, so that
each one is dominated by a different layer:

    set-up:  synth_gaussian -> write_features -> read_features -> split
             -> build_model
    episode: init_solver(activation) on the train split
             -> trainer.run per route, resumed from the initialised model
             -> save_checkpoint / load_checkpoint of the full training state
             -> evaluate_model on the held-out classes (routes marked so)

An episode is a pure function of (workload, seed), so repeated episodes give
the same float bits; the benchmark checks that, and reports medians over the
episodes that fit in its time budget. All calls into the package go through
module attributes, so the tracer's wrappers see them.
"""

from dataclasses import dataclass, replace
import hashlib
import time

import numpy as np

from metricboost import checkpoint, data_io, evaluate, linalg, trainer
from metricboost.errors import MetricBoostError

# README's settings for the diversity initialisation of W.
INIT_LAMBDA_W = 1e4
INIT_LR = 1e-6
EVAL_KS = (1, 2, 4, 8)

ROUTES = {
    "boosted": {},
    "plain": {"use_boosting": False},
    "triplet": {"loss": "triplet"},
    "activation": {"diversity": "activation"},
    "adversarial": {"diversity": "adversarial", "regressor_hidden": 256},
}


@dataclass(frozen=True)
class Route:
    kind: str  # key of ROUTES
    iterations: int
    evaluated: bool  # final evaluate_model on the held-out split


@dataclass(frozen=True)
class Workload:
    name: str
    classes: int
    per_class: int
    feature_dim: int
    train_classes: int  # the rest are held out for evaluation
    embedding_dim: int
    partition: str
    batch: int  # P = K
    init_iterations: int
    eval_interval: int  # periodic eval inside trainer.run, 0 for none
    routes: tuple

    def config(self, seed, route=None):
        cfg = trainer.TrainConfig(
            embedding_dim=self.embedding_dim, num_groups=3, partition=self.partition,
            batch_classes=self.batch, samples_per_class=self.batch, seed=seed,
            eval_interval=self.eval_interval,
        )
        if route is None:
            return cfg
        return replace(cfg, iterations=route.iterations, **ROUTES[route.kind])


_SIDE_ROUTES = (Route("plain", 2, False), Route("activation", 2, False),
                Route("adversarial", 2, False))

WORKLOADS = {w.name: w for w in (
    # Python-overhead bound desk scale; every training route at full length.
    Workload("desk-train", classes=40, per_class=10, feature_dim=64, train_classes=20,
             embedding_dim=32, partition="proportional", batch=4, init_iterations=2000,
             eval_interval=100,
             routes=tuple(Route(kind, 200, True) for kind in ROUTES)),
    # Paper scale, 64-sample batches with 2016 pairs: the per-pair kernel
    # dominates. Short side routes keep every layer timed on this workload.
    Workload("paper-pairs", classes=100, per_class=20, feature_dim=512, train_classes=50,
             embedding_dim=512, partition="preset", batch=8, init_iterations=10,
             eval_interval=0,
             routes=(Route("boosted", 20, True),) + _SIDE_ROUTES),
    # N=2000 held-out retrieval after a short training stage: dense N x N
    # evaluation dominates.
    Workload("retrieval-eval", classes=220, per_class=10, feature_dim=512, train_classes=20,
             embedding_dim=512, partition="preset", batch=4, init_iterations=20,
             eval_interval=0,
             routes=(Route("boosted", 50, True),) + _SIDE_ROUTES),
)}


class OpFailed(Exception):
    """An entry point raised; the episode cannot go on."""


class Ops:
    """Counts calls into the package's entry points and correctness checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def call(self, label, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except MetricBoostError as exc:
            self.failed += 1
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            raise OpFailed(label) from exc

    def check(self, label, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"check {label} failed: {detail}")
        return ok


@dataclass
class Prepared:
    train: data_io.FeatureSet
    test: data_io.FeatureSet
    model: object  # EnsembleModel before initialisation
    data_s: float  # synth + write + read + split
    build_s: float


def prepare(wl, seed, workdir, ops):
    """Set-up: synthesize, round-trip through the feature file, split, build."""
    t0 = time.perf_counter()
    spec = data_io.SynthSpec(classes=wl.classes, per_class=wl.per_class,
                             feature_dim=wl.feature_dim, cluster_spread=10.0, noise=1.2,
                             seed=seed)
    data = ops.call("synth_gaussian", data_io.synth_gaussian, spec)
    path = workdir / "features.bin"
    ops.call("write_features", data_io.write_features, path, data)
    fs = ops.call("read_features", data_io.read_features, path)
    train, test = data_io.split(fs, wl.train_classes / wl.classes, disjoint_classes=True,
                                seed=seed)
    t1 = time.perf_counter()
    model, _ = trainer.build_model(wl.config(seed), fs.feature_dim, linalg.make_rng(seed))
    t2 = time.perf_counter()
    return Prepared(train, test, model, t1 - t0, t2 - t1)


@dataclass
class RouteResult:
    route: Route
    result: object  # trainer.RunResult
    restored: object  # checkpoint.Checkpoint read back
    report: object  # evaluate.EvalReport or None


@dataclass
class Episode:
    init: object  # trainer.InitResult
    init_s: float
    train_s: float
    train_samples: int
    eval_s: list
    run_s: float
    routes: list

    @property
    def r_at_1(self):
        return float(np.mean([r.report.recall_at[1] for r in self.routes if r.report]))

    def fingerprint(self):
        """Digest of every final W and every report: equal iff same float bits."""
        h = hashlib.sha256()
        h.update(self.init.model.W.tobytes())
        for r in self.routes:
            h.update(r.result.model.W.tobytes())
            if r.report is not None:
                h.update(repr(sorted(r.report.recall_at.items())).encode())
        return h.hexdigest()


def episode(wl, prep, seed, workdir, ops):
    clock = time.perf_counter
    t_start = clock()
    t = clock()
    init = ops.call("init_solver", trainer.init_solver, prep.train.features, prep.model.copy(),
                    "activation", lambda_w=INIT_LAMBDA_W, lr=INIT_LR,
                    max_iterations=wl.init_iterations)
    init_s = clock() - t
    train_s = 0.0
    samples = 0
    eval_s = []
    routes = []
    for route in wl.routes:
        cfg = wl.config(seed, route)
        t = clock()
        res = ops.call(f"run[{route.kind}]", trainer.run, cfg, prep.train, eval_fs=prep.test,
                       resume=checkpoint.Checkpoint(model=init.model.copy()))
        train_s += clock() - t
        samples += route.iterations * wl.batch * wl.batch
        path = workdir / f"{route.kind}.ckpt"
        ops.call("save_checkpoint", checkpoint.save_checkpoint, path, res.model,
                 iteration=res.iteration, rng_state=res.rng.bit_generator.state,
                 optimizer=res.optimizer, bank=res.bank)
        restored = ops.call("load_checkpoint", checkpoint.load_checkpoint, path)
        report = None
        if route.evaluated:
            t = clock()
            report = ops.call("evaluate_model", evaluate.evaluate_model, res.model, prep.test,
                              ks=EVAL_KS, pair_seed=seed)
            eval_s.append(clock() - t)
        routes.append(RouteResult(route, res, restored, report))
    return Episode(init, init_s, train_s, samples, eval_s, clock() - t_start, routes)
