"""Training orchestration: batch sampling, combined updates, initialization.

A training step optimizes  L = L_metric + lambda_div * L_div  where L_metric
is the boosted pair/triplet loss and L_div an optional diversity regularizer.
The metric gradient reaches W and the backbone, when there is one; the
diversity gradient reaches W only, plus the regressor bank for the
adversarial kind. Everything is driven by one seeded generator so that a run
is a pure function of (seed, config, data), and checkpoints capture enough
state (model, optimizer, bank, rng) for a resumed run to match an
uninterrupted one bit for bit.
"""

from dataclasses import dataclass, field
import logging
import warnings

import numpy as np

from .boosting import (
    PairBatch,
    TripletBatch,
    accumulate_plain_gradient,
    accumulate_W_gradient,
)
from .diversity import RegressorBank, _activation_forward, activation_loss, adversarial_loss
from .ensemble import (
    EnsembleModel,
    GroupPartition,
    init_model,
    preset_partition,
    proportional_partition,
)
from .errors import InvalidArgument, NumericFailure
from .evaluate import evaluate_model
from .linalg import make_child_rng, make_rng
from .losses import LossSpec
from .optim import Optimizer

log = logging.getLogger(__name__)

DIVERSITY_KINDS = ("none", "activation", "adversarial")
PARTITION_MODES = ("proportional", "preset")

METRICS_HEADER = "iter,loss_metric,loss_div,r_at_1,feat_corr,clf_corr"

# init_solver stops once its loss moves by at most this relative amount
# over this many iterations.
_INIT_TOL = 1e-6
_INIT_TOL_WINDOW = 100

# Pairs drawn for the classifier correlation of each metrics row.
_EVAL_PAIRS = 1000


@dataclass(frozen=True)
class TrainConfig:
    """Run parameters; field names double as config-file keys."""

    loss: str = "binomial_deviance"
    beta1: float = 2.0
    beta2: float = 0.5
    margin_contrastive: float = 0.5
    margin_triplet: float = 0.01
    cost_pos: float = 1.0
    cost_neg: float = 25.0
    embedding_dim: int = 32
    num_groups: int = 3
    partition: str = "proportional"
    group_sizes: tuple = ()
    diversity: str = "none"
    lambda_div: float | None = None
    lambda_w: float = 100.0
    lr: float = 1e-3
    optimizer: str = "adam"
    momentum: float = 0.9
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    iterations: int = 1000
    batch_classes: int = 4
    samples_per_class: int = 5
    seed: int = 0
    use_boosting: bool = True
    use_backbone: bool = False
    regressor_hidden: int = 512
    eval_interval: int = 0
    init_lr: float = 1e-3  # `init` only: the init solver's SGD step
    init_iterations: int = 5000  # `init` only: the init solver's iteration cap

    def __post_init__(self):
        if self.diversity not in DIVERSITY_KINDS:
            raise InvalidArgument(f"unknown diversity kind {self.diversity!r}")
        if self.partition not in PARTITION_MODES:
            raise InvalidArgument(f"unknown partition mode {self.partition!r}")
        # Each check passes only inside its range, so NaN fails it too.
        for name, value in (("lambda_div", self.lambda_div), ("lambda_w", self.lambda_w)):
            if value is not None and not 0.0 <= value < np.inf:
                raise InvalidArgument(f"{name} must be finite and >= 0, got {value!r}")
        if self.eval_interval < 0:
            raise InvalidArgument(f"eval_interval must be >= 0, got {self.eval_interval}")
        if self.batch_classes < 2:
            raise InvalidArgument("batch_classes must be >= 2")
        if self.samples_per_class < 2:
            raise InvalidArgument("samples_per_class must be >= 2")
        if self.iterations < 0:
            raise InvalidArgument("iterations must be >= 0")
        if self.regressor_hidden < 1:
            raise InvalidArgument(f"regressor_hidden must be >= 1, got {self.regressor_hidden}")
        if not 0.0 < self.init_lr < np.inf:
            raise InvalidArgument(f"init_lr must be finite and > 0, got {self.init_lr!r}")
        if self.init_iterations < 1:
            raise InvalidArgument(f"init_iterations must be >= 1, got {self.init_iterations}")
        # Built once, which also refuses loss constants outside their ranges;
        # kept outside the dataclass fields, so it is no config key.
        object.__setattr__(self, "_loss_spec", LossSpec(
            kind=self.loss, beta1=self.beta1, beta2=self.beta2,
            margin_contrastive=self.margin_contrastive,
            margin_triplet=self.margin_triplet,
            cost_pos=self.cost_pos, cost_neg=self.cost_neg,
        ))

    def loss_spec(self):
        return self._loss_spec

    def resolved_lambda_div(self):
        if self.lambda_div is not None:
            return self.lambda_div
        return {"none": 0.0, "activation": 1e-2, "adversarial": 1e-3}[self.diversity]

    def resolve_partition(self):
        """`group_sizes` overrides the mode; then preset; then proportional."""
        if self.group_sizes:
            return GroupPartition(tuple(int(s) for s in self.group_sizes))
        if self.partition == "preset":
            return preset_partition(self.embedding_dim, self.num_groups)
        return proportional_partition(self.embedding_dim, self.num_groups)


@dataclass
class SampledBatch:
    indices: np.ndarray  # (P*K,) rows of the dataset
    labels: np.ndarray  # (P*K,) class ids of those rows
    pairs: PairBatch | None = None
    triplets: TripletBatch | None = None


def sample_batch(fs, batch_classes, samples_per_class, rng, mine="pairs",
                 class_indices=None):
    """Class-balanced batch plus exhaustively mined pairs or triplets.

    Draws P = `batch_classes` classes without replacement, then
    K = `samples_per_class` rows per class (with replacement only when the
    class is smaller than requested). Pair mining takes all P*K*(K-1)/2
    positive pairs, then every cross-class negative pair: n*(n-1)/2 pairs in
    all for n = P*K rows. The gradient kernel works on the n x n Gram matrix,
    so its cost does not depend on that count. Triplet mining pairs each
    positive pair with one uniformly drawn negative.
    """
    if fs.n_classes < 2:
        raise InvalidArgument("need at least 2 classes to mine pairs")
    P = int(batch_classes)
    K = int(samples_per_class)
    if fs.n_classes < P:
        raise InvalidArgument(f"dataset has {fs.n_classes} classes, need >= {P}")
    if class_indices is None:
        class_indices = fs.class_indices()
    classes = rng.choice(fs.n_classes, size=P, replace=False)
    picked = []
    for c in classes:
        idxs = class_indices[int(c)]
        if idxs.size == 0:
            raise InvalidArgument(f"class {int(c)} has no samples")
        take = rng.choice(idxs.size, size=K, replace=idxs.size < K)
        picked.append(idxs[take])
    indices = np.concatenate(picked)
    labels = np.repeat(classes.astype(np.int64), K)

    # Row i belongs to drawn class i // K.
    n = P * K
    iu, ju = np.triu_indices(n, k=1)
    same = iu // K == ju // K
    batch = SampledBatch(indices=indices, labels=labels)

    if mine == "pairs":
        # Positives first, each kind in upper-triangle order.
        order = np.argsort(~same, kind="stable")
        batch.pairs = PairBatch(iu[order], ju[order], same[order])
    elif mine == "triplets":
        anchor, positive = iu[same], ju[same]
        # A uniform draw over the n - K rows outside the anchor's class
        # block: skip the block's K rows by shifting draws at or past it.
        row = anchor // K
        draw = rng.integers(0, n - K, size=len(anchor))
        negative = draw + K * (draw >= row * K)
        batch.triplets = TripletBatch(anchor, positive, negative)
    else:
        raise InvalidArgument(f"unknown mining mode {mine!r}")
    return batch


@dataclass
class StepResult:
    loss_metric: float
    loss_div: float
    n_used: int
    n_skipped: int


def _trained_arrays(W, backbone=None, bank=None):
    """The arrays of one optimizer step, in the one order every step uses.

    W, then the backbone's weight and bias, then W1, b1, W2, b2 of each
    regressor in `bank.keys()` order. Gradients come back in the same
    containers as the parameters, so the same call lists either.
    """
    arrays = [W]
    if backbone is not None:
        arrays += [backbone.weight, backbone.bias]
    if bank is not None:
        for key in bank.keys():
            reg = bank[key]
            arrays += [reg.W1, reg.b1, reg.W2, reg.b2]
    return arrays


def _diversity(kind, model, bank, X, lambda_w):
    """The diversity loss `kind` at the current W and bank.

    Returns (loss, term, grad_W, bank_grads): `term` is the activation loss's
    suppression term or the adversarial loss's similarity term, and
    `bank_grads` is the regressor bank's gradient, None for the activation
    kind. Both losses are looked up as this module's globals at call time,
    which is where perfbench/spans.py patches them.
    """
    if kind == "activation":
        div = activation_loss(model, X, lambda_w)
        return div.loss, div.sup_term, div.grad_W, None
    div = adversarial_loss(model, bank, X, lambda_w)
    return div.loss, div.sim_term, div.grad_W, div.regressor_grads


def train_step(cfg, model, bank, opt, features, batch):
    """One combined update on a sampled batch. Returns scalar losses."""
    spec = cfg.loss_spec()
    mined = batch.triplets if spec.kind == "triplet" else batch.pairs
    if mined is None:
        raise InvalidArgument("batch was mined for a different loss family")
    if cfg.use_boosting:
        res = accumulate_W_gradient(model, features, mined, spec)
    else:
        res = accumulate_plain_gradient(model, features, mined, spec)

    grad_W = res.grad_W
    bank_grads = None

    loss_div = 0.0
    lam = cfg.resolved_lambda_div()
    if cfg.diversity != "none":
        loss_div, _, div_grad_W, div_bank_grads = _diversity(
            cfg.diversity, model, bank, features, cfg.lambda_w,
        )
        if lam != 0.0:
            for g in _trained_arrays(div_grad_W, bank=div_bank_grads):
                g *= lam
            grad_W += div_grad_W
            bank_grads = div_bank_grads

    opt.step(
        _trained_arrays(model.W, model.backbone, bank if bank_grads is not None else None),
        _trained_arrays(grad_W, res.grad_backbone, bank_grads),
    )
    return StepResult(res.loss, loss_div, res.n_used, res.n_skipped)


@dataclass
class InitResult:
    model: EnsembleModel
    bank: RegressorBank | None
    final_loss: float
    initial_div_term: float  # suppression / similarity term before any update
    final_div_term: float
    iterations_run: int
    norms_in_band: bool


def init_solver(features, model, kind, lambda_w, *, lr, max_iterations, momentum=0.9,
                bank=None):
    """Minimize a diversity loss over W with SGD + momentum, features frozen.

    Stops at max_iterations or when the loss changes by less than _INIT_TOL
    (1e-6, relatively) over _INIT_TOL_WINDOW (100) iterations. Afterwards
    every column of W should have squared norm within 1 +/- 1e-3;
    violations emit a warning. The final diversity term is the last
    iteration's after a tolerance stop; otherwise it is read after the last
    step, from one forward for the activation kind.
    """
    X = np.asarray(features, dtype=np.float64)
    if kind not in ("activation", "adversarial"):
        raise InvalidArgument(f"init solver needs a diversity kind, got {kind!r}")
    if kind == "adversarial" and bank is None:
        raise InvalidArgument("adversarial initialization needs a regressor bank")
    if max_iterations < 1:
        raise InvalidArgument("init solver needs max_iterations >= 1")
    opt = Optimizer(kind="sgd_momentum", lr=lr, momentum=momentum)
    train_bank = bank if kind == "adversarial" else None
    history = []
    initial_term = None
    for it in range(int(max_iterations)):
        loss, term, grad_W, bank_grads = _diversity(kind, model, bank, X, lambda_w)
        if not np.isfinite(loss):
            raise NumericFailure(f"init solver diverged at iteration {it}: loss={loss}")
        if initial_term is None:
            initial_term = term
        history.append(loss)
        if it >= _INIT_TOL_WINDOW:
            ref = history[it - _INIT_TOL_WINDOW]
            if abs(history[it] - ref) <= _INIT_TOL * max(abs(ref), 1e-12):
                break  # nothing has moved since `term` was computed
        opt.step(_trained_arrays(model.W, bank=train_bank),
                 _trained_arrays(grad_W, bank=bank_grads))
    else:  # the last step moved W: the term needs one more forward
        if kind == "activation":
            term = _activation_forward(model, X)[-1]
        else:
            term = _diversity(kind, model, bank, X, lambda_w)[1]

    col_sq = np.sum(model.W * model.W, axis=0)
    in_band = bool(np.all(np.abs(col_sq - 1.0) <= 1e-3))
    if not in_band:
        worst = float(np.max(np.abs(col_sq - 1.0)))
        warnings.warn(
            f"init solver left {int(np.sum(np.abs(col_sq - 1.0) > 1e-3))} column "
            f"squared norms outside 1 +/- 1e-3 (worst deviation {worst:.2e}); "
            f"consider a larger lambda_w or more iterations"
        )
    return InitResult(
        model=model, bank=bank, final_loss=loss,
        initial_div_term=float(initial_term), final_div_term=float(term),
        iterations_run=it + 1, norms_in_band=in_band,
    )


def build_model(cfg, feature_dim, rng):
    """Fresh model (and bank, when adversarial diversity is on) from a config."""
    part = cfg.resolve_partition()
    backbone_in = feature_dim if cfg.use_backbone else None
    model = init_model(rng, feature_dim, part, backbone_in_dim=backbone_in)
    return model, _build_bank(cfg, part)


def _build_bank(cfg, partition):
    """The config's regressor bank: None unless diversity is adversarial.

    The bank draws from its own stream derived from the seed, so that
    enabling the adversarial regularizer does not shift the main training
    draw sequence.
    """
    if cfg.diversity != "adversarial":
        return None
    return RegressorBank.create(make_child_rng(cfg.seed, 1), partition,
                                hidden=cfg.regressor_hidden)


@dataclass
class RunResult:
    model: EnsembleModel
    bank: RegressorBank | None
    optimizer: Optimizer
    rng: np.random.Generator
    iteration: int
    metrics_rows: list = field(default_factory=list)


def _fmt(v):
    if isinstance(v, int):
        return str(v)
    if v is None or (isinstance(v, float) and not np.isfinite(v)):
        return "nan"
    return repr(float(v))


def _open_metrics(path):
    fh = open(path, "w", encoding="utf-8")
    fh.write(METRICS_HEADER + "\n")
    return fh


def _eval_row(cfg, model, fs, iteration):
    return evaluate_model(
        model, fs, ks=(1,), n_eval_pairs=_EVAL_PAIRS,
        pair_seed=cfg.seed * 1_000_003 + iteration,
    )


def _check_resume(cfg, ckpt):
    """Refuse a checkpoint whose model or optimizer the config disagrees with.

    A resumed run trains the checkpoint's arrays with its optimizer, so a
    config asking for another shape or optimizer would otherwise be ignored.
    The config's embedding size is its partition's total, which a preset row
    or `group_sizes` can make differ from `embedding_dim`.
    """
    model, opt, part = ckpt.model, ckpt.optimizer, cfg.resolve_partition()
    have_want = [
        ("embedding_dim", model.embedding_dim, part.total_dim),
        ("partition sizes", model.partition.sizes, part.sizes),
        ("use_backbone", model.backbone is not None, cfg.use_backbone),
    ]
    if opt is not None:
        have_want += [("optimizer", opt.kind, cfg.optimizer), ("lr", opt.lr, cfg.lr)]
    if ckpt.bank is not None and cfg.diversity == "adversarial":
        have_want += [("regressor_hidden", reg.hidden, cfg.regressor_hidden)
                      for reg in ckpt.bank.regressors.values()]
    for name, have, want in have_want:
        if have != want:
            raise InvalidArgument(f"checkpoint has {name} {have!r}, config has {want!r}")


def run(cfg, fs, eval_fs=None, resume=None, metrics_path=None):
    """Full training run; returns final state and per-interval metrics rows.

    `resume` is a Checkpoint: model weights are adopted, and optimizer / bank
    / rng state continue exactly where they left off when present. A
    checkpoint that disagrees with the config on embedding size, partition
    sizes, use_backbone, or (when it carries one) the optimizer's kind or lr
    or, for adversarial diversity, the regressor bank's hidden size raises
    InvalidArgument before anything is written, and so does a feature set
    (`fs` or `eval_fs`) whose width is not the model's input width. The
    metrics CSV gains one row per eval interval:
    iter,loss_metric,loss_div,r_at_1,feat_corr,clf_corr
    """
    spec = cfg.loss_spec()
    mine = "triplets" if spec.kind == "triplet" else "pairs"
    rng = make_rng(cfg.seed)
    if resume is None:
        model, bank = build_model(cfg, fs.feature_dim, rng)
        opt, start_iter = None, 0
    else:
        _check_resume(cfg, resume)
        model, bank = resume.model, resume.bank
        opt, start_iter = resume.optimizer, resume.iteration
        if bank is None:
            bank = _build_bank(cfg, model.partition)
        if resume.rng_state is not None:
            rng.bit_generator.state = resume.rng_state
    for name, data in (("training", fs), ("eval", eval_fs)):
        if data is not None and data.feature_dim != model.input_dim:
            raise InvalidArgument(f"{name} features have width {data.feature_dim}, "
                                  f"the model takes width {model.input_dim}")
    if opt is None:
        opt = Optimizer(
            kind=cfg.optimizer, lr=cfg.lr, momentum=cfg.momentum,
            beta1=cfg.adam_beta1, beta2=cfg.adam_beta2, eps=cfg.adam_eps,
        )

    class_idx = fs.class_indices()
    eval_data = eval_fs if eval_fs is not None else fs
    rows = []
    fh = None  # opened once the first step returns: a refused resume keeps the old file
    try:
        for it in range(start_iter, cfg.iterations):
            batch = sample_batch(fs, cfg.batch_classes, cfg.samples_per_class, rng,
                                 mine=mine, class_indices=class_idx)
            X = fs.features[batch.indices]
            try:
                step = train_step(cfg, model, bank, opt, X, batch)
            except NumericFailure as exc:
                raise NumericFailure(f"iteration {it}: {exc}") from exc
            if metrics_path and fh is None:
                fh = _open_metrics(metrics_path)
            if step.n_skipped:
                log.debug("iteration %d: skipped %d degenerate items", it, step.n_skipped)
            if cfg.eval_interval and (it + 1) % cfg.eval_interval == 0:
                report = _eval_row(cfg, model, eval_data, it + 1)
                row = (
                    it + 1, step.loss_metric, step.loss_div,
                    report.recall_at[1], report.feature_corr, report.clf_corr,
                )
                rows.append(row)
                if fh:
                    fh.write(",".join(_fmt(v) for v in row) + "\n")
                    fh.flush()
        if metrics_path and fh is None:
            fh = _open_metrics(metrics_path)
    finally:
        if fh:
            fh.close()
    return RunResult(
        model=model, bank=bank, optimizer=opt, rng=rng,
        iteration=max(start_iter, cfg.iterations), metrics_rows=rows,
    )
