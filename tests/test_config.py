from dataclasses import fields

import pytest

from metricboost.config import (
    SYNTH_KEYS,
    TRAIN_KEYS,
    build_synth_spec,
    build_train_config,
    describe_keys,
    parse_config_file,
)
from metricboost.cli import main
from metricboost.data_io import SynthSpec
from metricboost.errors import FormatError, InvalidArgument
from metricboost.trainer import TrainConfig


class TestParse:
    def test_basic(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# a comment\nlr = 0.01\n\nseed=3  # trailing comment\n")
        assert parse_config_file(path) == {"lr": "0.01", "seed": "3"}

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("iterations 100\n")
        with pytest.raises(FormatError, match="line 1"):
            parse_config_file(path)

    def test_duplicate_key(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("lr = 0.1\nlr = 0.2\n")
        with pytest.raises(FormatError, match="duplicate"):
            parse_config_file(path)


class TestBuildTrainConfig:
    def test_defaults(self):
        cfg, extras = build_train_config()
        assert cfg.loss == "binomial_deviance"
        assert cfg.cost_neg == 25.0
        assert extras == {"init_lr": 1e-3, "init_iterations": 5000}

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidArgument, match="unknown config key"):
            build_train_config({"learning_rate": "0.1"})

    def test_type_coercion(self):
        cfg, _ = build_train_config({
            "lr": "0.5",
            "iterations": "7",
            "use_boosting": "false",
            "group_sizes": "4, 4, 8",
            "lambda_div": "none",
        })
        assert cfg.lr == 0.5
        assert cfg.iterations == 7
        assert cfg.use_boosting is False
        assert cfg.group_sizes == (4, 4, 8)
        assert cfg.lambda_div is None

    def test_threads_is_not_a_key(self, tmp_path, capsys):
        # The key once existed but set nothing; a file naming it now fails.
        cfg = tmp_path / "train.cfg"
        cfg.write_text("iterations = 5\nthreads = 1\n")
        code = main(["train", "--data", str(tmp_path / "absent.bin"), "--config", str(cfg),
                     "--out", str(tmp_path / "m.ckpt")])
        assert code == 1
        assert "unknown config key 'threads'" in capsys.readouterr().err

    @pytest.mark.parametrize("line,message", [
        ("eval_ks = 1 4", "unknown config key 'eval_ks'"),
        ("partition = explicit", "unknown partition mode 'explicit'"),
        ("max_pairs_per_batch = 10", "unknown config key 'max_pairs_per_batch'"),
        ("boost_weight_signed = true", "unknown config key 'boost_weight_signed'"),
        ("sim_normalizer = d_i", "unknown config key 'sim_normalizer'"),
        ("reverse_target_path = false", "unknown config key 'reverse_target_path'"),
        ("weight_exponent = 0.5", "unknown config key 'weight_exponent'"),
        ("renormalize_full = true", "unknown config key 'renormalize_full'"),
        ("eval_pairs = 300", "unknown config key 'eval_pairs'"),
        ("backbone_trainable = false", "unknown config key 'backbone_trainable'"),
        ("backbone_dim = 10", "unknown config key 'backbone_dim'"),
    ])
    def test_deleted_settings_are_refused(self, tmp_path, capsys, line, message):
        # eval_ks changed no output; partition = explicit did what group_sizes
        # does; max_pairs_per_batch bounded no cost of the Gram-matrix kernel.
        # Signed boosting weights, 1/d_i similarity scaling and source-only
        # reversal were variants no run used; the eval options of the metrics
        # rows are set on the eval subcommand only. The backbone always
        # trains, at the feature width.
        cfg = tmp_path / "train.cfg"
        cfg.write_text(f"iterations = 5\n{line}\n")
        code = main(["train", "--data", str(tmp_path / "absent.bin"), "--config", str(cfg),
                     "--out", str(tmp_path / "m.ckpt")])
        assert code == 1
        assert message in capsys.readouterr().err

    def test_bad_bool(self):
        with pytest.raises(InvalidArgument, match="boolean"):
            build_train_config({"use_boosting": "maybe"})

    def test_overrides_win(self):
        cfg, _ = build_train_config({"lr": "0.5"}, {"lr": "0.25"})
        assert cfg.lr == 0.25

    def test_init_extras_configurable(self):
        _, extras = build_train_config({"init_lr": "0.02", "init_iterations": "99"})
        assert extras == {"init_lr": 0.02, "init_iterations": 99}


class TestSchema:
    def test_keys_are_the_config_fields(self):
        assert set(TRAIN_KEYS) == {f.name for f in fields(TrainConfig)} | {
            "init_lr", "init_iterations"}
        assert set(SYNTH_KEYS) == {f.name for f in fields(SynthSpec)}


class TestBuildSynthSpec:
    def test_roundtrip(self):
        spec = build_synth_spec({"classes": "5", "per_class": "4", "feature_dim": "8",
                                 "noise": "0.2", "seed": "3"})
        assert spec.classes == 5 and spec.noise == 0.2

    def test_unknown_key(self):
        with pytest.raises(InvalidArgument):
            build_synth_spec({"nclasses": "5"})


def test_describe_covers_every_key():
    text = describe_keys(TRAIN_KEYS)
    for key in TRAIN_KEYS:
        assert key in text
    assert all(k in describe_keys(SYNTH_KEYS) for k in SYNTH_KEYS)
