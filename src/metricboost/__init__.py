"""Boosted metric-embedding ensembles with diversity regularization."""

from .boosting import (
    PairBatch,
    TripletBatch,
    accumulate_plain_gradient,
    accumulate_W_gradient,
    boost_backward_pair,
    boost_forward_pair,
    boost_step_triplet,
)
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .data_io import (
    FeatureSet,
    SynthSpec,
    read_features,
    split,
    synth_gaussian,
    write_features,
)
from .diversity import RegressorBank, activation_loss, adversarial_loss
from .ensemble import (
    Backbone,
    BoostSchedule,
    EnsembleModel,
    GroupPartition,
    init_model,
    make_schedule,
    preset_partition,
    proportional_partition,
)
from .errors import (
    DegenerateInput,
    FormatError,
    InvalidArgument,
    MetricBoostError,
    NumericFailure,
    UndefinedCorrelation,
)
from .evaluate import (
    EvalReport,
    classifier_correlation,
    evaluate_model,
    feature_correlation,
    recall_at_k,
)
from .linalg import make_rng
from .losses import LossSpec, pair_loss
from .optim import Optimizer
from .trainer import (
    TrainConfig,
    build_model,
    init_solver,
    run,
    sample_batch,
    train_step,
)

__version__ = "0.1.0"
