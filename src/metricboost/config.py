"""Flat `key = value` config files and their mapping onto typed configs.

Lines are `key = value`; `#` starts a comment; blank lines are ignored.
Unknown keys are rejected so typos fail loudly. Command-line `--set key=value`
overrides win over file values.
"""

from .data_io import SynthSpec
from .errors import FormatError, InvalidArgument
from .trainer import TrainConfig

# key -> (type tag, help)
TRAIN_KEYS = {
    "loss": ("str", "binomial_deviance | contrastive | triplet"),
    "beta1": ("float", "binomial deviance scaling, finite and > 0 (default 2)"),
    "beta2": ("float", "binomial deviance translation, finite (default 0.5)"),
    "margin_contrastive": ("float", "contrastive margin, finite and >= 0 (default 0.5)"),
    "margin_triplet": ("float", "triplet margin, finite and >= 0 (default 0.01)"),
    "cost_pos": ("float", "positive-pair cost, finite and > 0 (default 1)"),
    "cost_neg": ("float", "negative-pair cost, finite and > 0 (default 25)"),
    "embedding_dim": ("int", "total embedding size d"),
    "num_groups": ("int", "number of learners M"),
    "partition": ("str", "proportional | preset (group_sizes overrides either)"),
    "group_sizes": ("int_tuple", "explicit group sizes, overrides partition mode"),
    "diversity": ("str", "none | activation | adversarial"),
    "lambda_div": ("opt_float", "diversity weight, finite and >= 0 (default 1e-2 act / 1e-3 adv)"),
    "lambda_w": ("float", "unit-norm weight penalty strength, finite and >= 0"),
    "lr": ("float", "optimizer learning rate, finite and > 0"),
    "optimizer": ("str", "adam | sgd_momentum"),
    "momentum": ("float", "sgd momentum, also the init solver's, in [0, 1)"),
    "adam_beta1": ("float", "adam first-moment decay, in [0, 1)"),
    "adam_beta2": ("float", "adam second-moment decay, in [0, 1)"),
    "adam_eps": ("float", "adam epsilon, finite and > 0"),
    "iterations": ("int", "training iterations"),
    "batch_classes": ("int", "classes per batch (P)"),
    "samples_per_class": ("int", "samples per class per batch (K)"),
    "seed": ("int", "master seed, >= 0"),
    "use_boosting": ("bool", "false trains one global loss (baseline)"),
    "use_backbone": ("bool", "affine+ReLU layer of the feature width before W, trained with W"),
    "regressor_hidden": ("int", "adversarial regressor hidden size, >= 1"),
    "eval_interval": ("int", "iterations between metric rows, >= 0 (0 = none)"),
    "init_lr": ("float", "init solver learning rate, finite and > 0"),
    "init_iterations": ("int", "init solver iteration cap, >= 1"),
}

SYNTH_KEYS = {
    "classes": ("int", "number of classes (>= 2)"),
    "per_class": ("int", "samples per class (>= 2)"),
    "feature_dim": ("int", "feature dimensionality h"),
    "cluster_spread": ("float", "class-center radius"),
    "noise": ("float", "per-sample noise scale"),
    "seed": ("int", "generator seed, >= 0"),
}

def parse_config_file(path):
    """Read `key = value` lines into a string dict."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise FormatError(f"{path}: line {lineno}: expected 'key = value'")
            key, _, raw = text.partition("=")
            key = key.strip()
            raw = raw.strip()
            if not key:
                raise FormatError(f"{path}: line {lineno}: empty key")
            if key in values:
                raise FormatError(f"{path}: line {lineno}: duplicate key {key!r}")
            values[key] = raw
    return values


def _coerce(key, tag, raw):
    try:
        if tag == "int":
            return int(raw)
        if tag == "float":
            return float(raw)
        if tag == "opt_float":
            return None if raw.lower() in ("none", "") else float(raw)
        if tag == "bool":
            low = raw.lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if tag == "int_tuple":
            raw = raw.strip()
            if not raw:
                return ()
            return tuple(int(p) for p in raw.replace(",", " ").split())
        return raw
    except ValueError as exc:
        raise InvalidArgument(f"config key {key!r}: {exc}") from None


def _merge(schema, file_values, overrides):
    merged = {}
    for source in (file_values, overrides):
        for key, raw in source.items():
            if key not in schema:
                raise InvalidArgument(f"unknown config key {key!r}")
            merged[key] = _coerce(key, schema[key][0], raw)
    return merged


def build_train_config(file_values=None, overrides=None):
    """TrainConfig from raw string dicts."""
    return TrainConfig(**_merge(TRAIN_KEYS, file_values or {}, overrides or {}))


def build_synth_spec(file_values=None, overrides=None):
    merged = _merge(SYNTH_KEYS, file_values or {}, overrides or {})
    for key in ("classes", "per_class", "feature_dim"):
        if key not in merged:
            raise InvalidArgument(f"config key {key!r} is required")
    return SynthSpec(**merged)


def describe_keys(schema):
    """Help text block listing every config key."""
    lines = []
    for key, (tag, help_text) in schema.items():
        lines.append(f"  {key:<22s} ({tag}) {help_text}")
    return "\n".join(lines)
