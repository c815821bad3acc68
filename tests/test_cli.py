import numpy as np
import pytest

from metricboost.checkpoint import load_checkpoint, save_checkpoint
from metricboost.cli import main
from metricboost.data_io import read_features
from metricboost.diversity import RegressorBank
from metricboost.ensemble import GroupPartition, init_model
from metricboost.linalg import make_rng
from test_checkpoint import poison_f64, write_bare_model, write_name_keyed_checkpoint


@pytest.fixture
def synth_cfg(tmp_path):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text(
        "classes = 6\nper_class = 6\nfeature_dim = 12\n"
        "cluster_spread = 8.0\nnoise = 1.0\nseed = 7\n"
    )
    return cfg


@pytest.fixture
def train_cfg(tmp_path):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(
        "embedding_dim = 8\nnum_groups = 2\niterations = 80\nlr = 1e-3\n"
        "batch_classes = 3\nsamples_per_class = 3\nseed = 5\n"
        "regressor_hidden = 6\ninit_lr = 1e-5\ninit_iterations = 2000\n"
    )
    return cfg


@pytest.fixture
def data_file(tmp_path, synth_cfg):
    out = tmp_path / "data.bin"
    assert main(["gen", "--spec", str(synth_cfg), "--out", str(out)]) == 0
    return out


class TestGen:
    def test_creates_readable_file(self, data_file):
        fs = read_features(data_file)
        assert fs.n_samples == 36 and fs.n_classes == 6

    def test_deterministic(self, tmp_path, synth_cfg):
        a = tmp_path / "a.bin"
        b = tmp_path / "b.bin"
        assert main(["gen", "--spec", str(synth_cfg), "--out", str(a)]) == 0
        assert main(["gen", "--spec", str(synth_cfg), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_single_class_rejected(self, tmp_path, synth_cfg, capsys):
        out = tmp_path / "x.bin"
        code = main(["gen", "--spec", str(synth_cfg), "--set", "classes=1",
                     "--out", str(out)])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, synth_cfg):
        out = tmp_path / "x.bin"
        code = main(["gen", "--spec", str(synth_cfg), "--set", "klasses=3",
                     "--out", str(out)])
        assert code == 1


class TestInit:
    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_activation_init(self, tmp_path, train_cfg, data_file, capsys):
        ckpt = tmp_path / "init.ckpt"
        code = main(["init", "--data", str(data_file), "--config", str(train_cfg),
                     "--out", str(ckpt), "--diversity", "activation"])
        assert code == 0
        out = capsys.readouterr().out
        assert "final_loss" in out and "squared norms" in out
        assert load_checkpoint(ckpt).model.W.shape == (12, 8)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_adversarial_init_reports_bank(self, tmp_path, train_cfg, data_file, capsys):
        ckpt = tmp_path / "init.ckpt"
        code = main(["init", "--data", str(data_file), "--config", str(train_cfg),
                     "--out", str(ckpt), "--diversity", "adversarial"])
        assert code == 0
        assert "regressor bank: 1 regressors" in capsys.readouterr().out
        assert load_checkpoint(ckpt).bank is not None

    def test_missing_data_file(self, tmp_path, train_cfg, capsys):
        code = main(["init", "--data", str(tmp_path / "nope.bin"),
                     "--config", str(train_cfg), "--out", str(tmp_path / "o.ckpt")])
        assert code == 2
        assert "file not found" in capsys.readouterr().err

    def test_non_finite_init_lr_exits_1(self, tmp_path, train_cfg, data_file, capsys):
        ckpt = tmp_path / "init.ckpt"
        code = main(["init", "--data", str(data_file), "--config", str(train_cfg),
                     "--out", str(ckpt), "--set", "init_lr=nan"])
        assert code == 1
        assert capsys.readouterr().err == "error: init_lr must be finite and > 0, got nan\n"
        assert not ckpt.exists()

    @pytest.mark.parametrize("command", ["init", "train"])
    @pytest.mark.parametrize("setting,message", [
        ("init_lr=-1", "init_lr must be finite and > 0, got -1.0"),
        ("init_lr=inf", "init_lr must be finite and > 0, got inf"),
        ("init_iterations=0", "init_iterations must be >= 1, got 0"),
    ])
    def test_init_setting_out_of_range_exits_1(self, tmp_path, train_cfg, data_file, capsys,
                                               command, setting, message):
        # Read with the config, so train refuses them as it does every setting.
        ckpt = tmp_path / "out.ckpt"
        code = main([command, "--data", str(data_file), "--config", str(train_cfg),
                     "--out", str(ckpt), "--set", setting])
        assert code == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")
        assert not ckpt.exists()


class TestTrain:
    def test_train_writes_outputs(self, tmp_path, train_cfg, data_file):
        ckpt = tmp_path / "model.ckpt"
        csv = tmp_path / "metrics.csv"
        code = main(["train", "--data", str(data_file), "--config", str(train_cfg),
                     "--out", str(ckpt), "--metrics", str(csv),
                     "--set", "eval_interval=40"])
        assert code == 0
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "iter,loss_metric,loss_div,r_at_1,feat_corr,clf_corr"
        assert len(lines) == 3
        assert load_checkpoint(ckpt).iteration == 80

    def test_baseline_and_partitioned_runs(self, tmp_path, train_cfg, data_file):
        for name, extra in (("m1", ["--set", "num_groups=1"]), ("m2", [])):
            code = main(["train", "--data", str(data_file), "--config", str(train_cfg),
                         "--out", str(tmp_path / f"{name}.ckpt"),
                         "--metrics", str(tmp_path / f"{name}.csv"),
                         "--set", "eval_interval=40"] + extra)
            assert code == 0
        assert (tmp_path / "m1.csv").exists() and (tmp_path / "m2.csv").exists()

    def test_resume_bit_equal(self, tmp_path, train_cfg, data_file):
        full = tmp_path / "full.ckpt"
        assert main(["train", "--data", str(data_file), "--config", str(train_cfg),
                     "--out", str(full)]) == 0
        half = tmp_path / "half.ckpt"
        assert main(["train", "--data", str(data_file), "--config", str(train_cfg),
                     "--out", str(half), "--set", "iterations=40"]) == 0
        resumed = tmp_path / "resumed.ckpt"
        assert main(["train", "--data", str(data_file), "--config", str(train_cfg),
                     "--out", str(resumed), "--resume", str(half)]) == 0
        W_full = load_checkpoint(full).model.W
        W_res = load_checkpoint(resumed).model.W
        np.testing.assert_array_equal(W_full, W_res)

    def test_backbone_resume_byte_equal(self, tmp_path, train_cfg, data_file):
        # The optimizer trains W, both backbone arrays and the regressor bank.
        train = ["train", "--data", str(data_file), "--config", str(train_cfg),
                 "--set", "use_backbone=true", "--set", "diversity=adversarial",
                 "--set", "eval_interval=40", "--set", "iterations=40"]
        assert main(train + ["--out", str(tmp_path / "full.ckpt"),
                             "--metrics", str(tmp_path / "full.csv")]) == 0
        assert main(train + ["--out", str(tmp_path / "half.ckpt"),
                             "--set", "iterations=20"]) == 0
        assert main(train + ["--out", str(tmp_path / "resumed.ckpt"),
                             "--metrics", str(tmp_path / "resumed.csv"),
                             "--resume", str(tmp_path / "half.ckpt")]) == 0
        full = load_checkpoint(tmp_path / "full.ckpt")
        assert len(full.optimizer.layout) == 1 + 2 + 4
        assert (tmp_path / "full.ckpt").read_bytes() == (tmp_path / "resumed.ckpt").read_bytes()
        rows = (tmp_path / "full.csv").read_bytes()
        assert rows.count(b"\n") == 2
        assert rows == (tmp_path / "resumed.csv").read_bytes()

    @pytest.mark.parametrize("first,second", [
        (["--set", "diversity=adversarial"], []),
        (["--set", "diversity=adversarial"], ["--set", "diversity=adversarial",
                                              "--set", "lambda_div=0"]),
    ], ids=["adversarial-to-none", "adversarial-to-lambda-0"])
    def test_resume_with_other_trained_arrays_exits_1(self, tmp_path, train_cfg, data_file,
                                                       capsys, first, second):
        half = tmp_path / "half.ckpt"
        csv = tmp_path / "metrics.csv"
        assert main(["train", "--data", str(data_file), "--config", str(train_cfg),
                     "--out", str(half), "--metrics", str(csv), "--set", "iterations=40",
                     "--set", "eval_interval=20"] + first) == 0
        rows = csv.read_bytes()
        assert rows.count(b"\n") == 3
        capsys.readouterr()
        code = main(["train", "--data", str(data_file), "--config", str(train_cfg),
                     "--out", str(tmp_path / "r.ckpt"), "--metrics", str(csv),
                     "--resume", str(half)] + second)
        assert code == 1
        assert "parameter layout [(12, 8)] does not match the optimizer's [(12, 8), " in (
            capsys.readouterr().err)
        assert not (tmp_path / "r.ckpt").exists()
        assert csv.read_bytes() == rows  # the refused resume truncated nothing

    @pytest.mark.parametrize("setting,message", [
        ("embedding_dim=16", "checkpoint has embedding_dim 8, config has 16"),
        ("num_groups=3", "checkpoint has partition sizes (2, 6), config has (1, 2, 5)"),
        ("use_backbone=true", "checkpoint has use_backbone False, config has True"),
        ("optimizer=sgd_momentum", "checkpoint has optimizer 'adam', config has 'sgd_momentum'"),
        ("lr=5e-2", "checkpoint has lr 0.001, config has 0.05"),
    ])
    def test_resume_against_other_config_exits_1(self, tmp_path, train_cfg, data_file,
                                                 capsys, setting, message):
        half = tmp_path / "half.ckpt"
        csv = tmp_path / "metrics.csv"
        assert main(["train", "--data", str(data_file), "--config", str(train_cfg),
                     "--out", str(half), "--metrics", str(csv), "--set", "iterations=40",
                     "--set", "eval_interval=20"]) == 0
        rows = csv.read_bytes()
        capsys.readouterr()
        code = main(["train", "--data", str(data_file), "--config", str(train_cfg),
                     "--out", str(tmp_path / "r.ckpt"), "--metrics", str(csv),
                     "--resume", str(half), "--set", setting])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "r.ckpt").exists()
        assert csv.read_bytes() == rows

    @pytest.mark.parametrize("iterations", ["40", "80"], ids=["none-left", "40-left"])
    def test_resume_with_features_of_another_width_exits_1(self, tmp_path, synth_cfg,
                                                           train_cfg, data_file, capsys,
                                                           iterations):
        wide = tmp_path / "wide.bin"
        assert main(["gen", "--spec", str(synth_cfg), "--out", str(wide),
                     "--set", "feature_dim=13"]) == 0
        half = tmp_path / "half.ckpt"
        assert main(["train", "--data", str(data_file), "--config", str(train_cfg),
                     "--out", str(half), "--set", "iterations=40"]) == 0
        capsys.readouterr()
        out, csv = tmp_path / "r.ckpt", tmp_path / "metrics.csv"
        code = main(["train", "--data", str(wide), "--config", str(train_cfg),
                     "--out", str(out), "--metrics", str(csv), "--resume", str(half),
                     "--set", f"iterations={iterations}"])
        assert code == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "error: training features have width 13, the model takes width 12\n")
        assert not out.exists() and not csv.exists()

    @pytest.mark.parametrize("settings", [
        ["--set", "partition=preset", "--set", "embedding_dim=512", "--set", "num_groups=4"],
        ["--set", "group_sizes=2 4 4", "--set", "embedding_dim=12"],
    ], ids=["preset-512-4", "group-sizes"])
    def test_resume_when_the_partition_total_is_not_embedding_dim(self, tmp_path, train_cfg,
                                                                  data_file, settings):
        # The (512, 4) preset row totals 510 columns, and 2 + 4 + 4 is 10.
        train = ["train", "--data", str(data_file), "--config", str(train_cfg)]
        full, half, resumed = (tmp_path / f"{name}.ckpt" for name in ("full", "half", "res"))
        assert main(train + ["--out", str(full)] + settings) == 0
        assert main(train + ["--out", str(half), "--set", "iterations=40"] + settings) == 0
        assert main(train + ["--out", str(resumed), "--resume", str(half)] + settings) == 0
        assert resumed.read_bytes() == full.read_bytes()

    def test_resume_with_other_regressor_hidden_exits_1(self, tmp_path, train_cfg, data_file,
                                                        capsys):
        half = tmp_path / "half.ckpt"
        csv = tmp_path / "metrics.csv"
        adversarial = ["--set", "diversity=adversarial"]
        assert main(["train", "--data", str(data_file), "--config", str(train_cfg),
                     "--out", str(half), "--metrics", str(csv), "--set", "iterations=40",
                     "--set", "eval_interval=20"] + adversarial) == 0
        rows = csv.read_bytes()
        capsys.readouterr()
        code = main(["train", "--data", str(data_file), "--config", str(train_cfg),
                     "--out", str(tmp_path / "r.ckpt"), "--metrics", str(csv),
                     "--resume", str(half), "--set", "regressor_hidden=32"] + adversarial)
        assert code == 1
        assert capsys.readouterr().err == "error: checkpoint has regressor_hidden 6, config has 32\n"
        assert not (tmp_path / "r.ckpt").exists()
        assert csv.read_bytes() == rows

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_model_only_resume_takes_the_config_optimizer(self, tmp_path, train_cfg,
                                                           data_file):
        init = tmp_path / "init.ckpt"
        assert main(["init", "--data", str(data_file), "--config", str(train_cfg),
                     "--out", str(init), "--set", "init_iterations=5"]) == 0
        out = tmp_path / "r.ckpt"
        assert main(["train", "--data", str(data_file), "--config", str(train_cfg),
                     "--out", str(out), "--resume", str(init), "--set", "iterations=2",
                     "--set", "optimizer=sgd_momentum", "--set", "lr=5e-2"]) == 0
        opt = load_checkpoint(out).optimizer
        assert (opt.kind, opt.lr) == ("sgd_momentum", 5e-2)

    def test_resume_from_name_keyed_checkpoint_exits_2(self, tmp_path, train_cfg, data_file,
                                                       capsys):
        old = tmp_path / "old.ckpt"
        write_name_keyed_checkpoint(old, init_model(make_rng(0), 12, GroupPartition((4, 4))))
        code = main(["train", "--data", str(data_file), "--config", str(train_cfg),
                     "--out", str(tmp_path / "r.ckpt"), "--resume", str(old)])
        assert code == 2
        assert f"{old}: optimizer state has no 'layout'" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exits_3_with_iteration(self, tmp_path, train_cfg, data_file, capsys):
        code = main(["train", "--data", str(data_file), "--config", str(train_cfg),
                     "--out", str(tmp_path / "d.ckpt"), "--set", "lr=1e200"])
        assert code == 3
        assert "iteration" in capsys.readouterr().err

    @pytest.mark.parametrize("setting,message", [
        ("adam_eps=0", "eps must be > 0, got 0.0"),
        ("adam_beta1=1", "beta1 must be in [0, 1), got 1.0"),
        ("adam_beta1=1.5", "beta1 must be in [0, 1), got 1.5"),
        ("adam_beta2=1", "beta2 must be in [0, 1), got 1.0"),
        ("momentum=1", "momentum must be in [0, 1), got 1.0"),
        ("adam_eps=inf", "eps must be finite, got inf"),
        ("lr=nan", "lr must be finite and > 0, got nan"),
        ("lr=inf", "lr must be finite and > 0, got inf"),
    ])
    def test_optimizer_setting_outside_its_range_exits_1(self, tmp_path, train_cfg,
                                                         data_file, capsys, setting, message):
        ckpt, csv = tmp_path / "o.ckpt", tmp_path / "o.csv"
        code = main(["train", "--data", str(data_file), "--config", str(train_cfg),
                     "--out", str(ckpt), "--metrics", str(csv), "--set", setting,
                     "--set", "use_backbone=true", "--set", "iterations=1"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not ckpt.exists() and not csv.exists()

    @pytest.mark.parametrize("setting,message", [
        ("regressor_hidden=0", "regressor_hidden must be >= 1, got 0"),
        ("lambda_w=nan", "lambda_w must be finite and >= 0, got nan"),
        ("lambda_div=nan", "lambda_div must be finite and >= 0, got nan"),
        ("lambda_div=inf", "lambda_div must be finite and >= 0, got inf"),
        ("eval_interval=-2", "eval_interval must be >= 0, got -2"),
        ("beta1=nan", "beta1 must be finite and > 0, got nan"),
        ("beta2=nan", "beta2 must be finite, got nan"),
        ("margin_contrastive=nan", "margin_contrastive must be finite and >= 0, got nan"),
        ("margin_triplet=inf", "margin_triplet must be finite and >= 0, got inf"),
        ("cost_neg=nan", "cost_neg must be finite and > 0, got nan"),
    ])
    def test_train_setting_outside_its_range_exits_1(self, tmp_path, train_cfg, data_file,
                                                     capsys, setting, message):
        ckpt, csv = tmp_path / "o.ckpt", tmp_path / "o.csv"
        code = main(["train", "--data", str(data_file), "--config", str(train_cfg),
                     "--out", str(ckpt), "--metrics", str(csv), "--set", setting,
                     "--set", "iterations=1"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not ckpt.exists() and not csv.exists()

    def test_resume_from_checkpoint_with_bad_decay_exits_2(self, tmp_path, train_cfg,
                                                           data_file, capsys):
        half = tmp_path / "half.ckpt"
        assert main(["train", "--data", str(data_file), "--config", str(train_cfg),
                     "--out", str(half), "--set", "iterations=2"]) == 0
        data = half.read_bytes()
        assert data.count(b'"beta1": 0.9,') == 1
        half.write_bytes(data.replace(b'"beta1": 0.9,', b'"beta1": 1.0,'))
        capsys.readouterr()
        code = main(["train", "--data", str(data_file), "--config", str(train_cfg),
                     "--out", str(tmp_path / "r.ckpt"), "--resume", str(half)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {half}: malformed optimizer state: beta1 must be in [0, 1), got 1.0\n")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_weights_are_not_saved(self, tmp_path, train_cfg, data_file, capsys):
        ckpt = tmp_path / "big.ckpt"
        assert main(["train", "--data", str(data_file), "--config", str(train_cfg),
                     "--out", str(ckpt), "--set", "iterations=1"]) == 0
        before = ckpt.read_bytes()
        capsys.readouterr()
        code = main(["train", "--data", str(data_file), "--config", str(train_cfg),
                     "--out", str(ckpt), "--set", "lr=1e308", "--set", "iterations=1"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite W at entry ")
        assert err.endswith("; checkpoint not written\n")
        assert ckpt.read_bytes() == before  # the earlier checkpoint is kept
        assert not (tmp_path / "big.ckpt.tmp").exists()


class TestEval:
    def test_eval_prints_table_and_csv(self, tmp_path, train_cfg, data_file, capsys):
        ckpt = tmp_path / "model.ckpt"
        assert main(["train", "--data", str(data_file), "--config", str(train_cfg),
                     "--out", str(ckpt)]) == 0
        code = main(["eval", "--data", str(data_file), "--ckpt", str(ckpt),
                     "--ks", "1,2,4,8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "recall@1" in out
        assert "r_at_1,r_at_2,r_at_4,r_at_8" in out

    def test_eval_deterministic(self, tmp_path, train_cfg, data_file, capsys):
        ckpt = tmp_path / "model.ckpt"
        main(["train", "--data", str(data_file), "--config", str(train_cfg),
              "--out", str(ckpt)])
        capsys.readouterr()  # drain the train output
        main(["eval", "--data", str(data_file), "--ckpt", str(ckpt), "--ks", "1,2"])
        first = capsys.readouterr().out
        main(["eval", "--data", str(data_file), "--ckpt", str(ckpt), "--ks", "1,2"])
        assert capsys.readouterr().out == first

    def test_k_too_large_rejected(self, tmp_path, train_cfg, data_file, capsys):
        ckpt = tmp_path / "model.ckpt"
        main(["train", "--data", str(data_file), "--config", str(train_cfg),
              "--out", str(ckpt)])
        code = main(["eval", "--data", str(data_file), "--ckpt", str(ckpt),
                     "--ks", "999"])
        assert code == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_embeddings_exit_1(self, tmp_path, data_file, capsys):
        # Finite weights whose products overflow: the group norms are inf and
        # the normalized test embeddings NaN.
        model = init_model(make_rng(0), 12, GroupPartition((4, 4)))
        model.W[:] = 1e308
        ckpt = tmp_path / "nan.ckpt"
        save_checkpoint(ckpt, model)
        code = main(["eval", "--data", str(data_file), "--ckpt", str(ckpt), "--ks", "1"])
        assert code == 1
        assert "embeddings must be finite" in capsys.readouterr().err

    def test_renormalize_full_is_no_flag(self, tmp_path, data_file, capsys):
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, init_model(make_rng(0), 12, GroupPartition((4, 4))))
        before = sorted(tmp_path.iterdir())
        code = main(["eval", "--data", str(data_file), "--ckpt", str(ckpt),
                     "--renormalize-full"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            "metricboost: error: unrecognized arguments: --renormalize-full")
        assert sorted(tmp_path.iterdir()) == before

    def test_non_finite_weight_exponent_exits_1(self, tmp_path, data_file, capsys):
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, init_model(make_rng(0), 12, GroupPartition((4, 4))))
        code = main(["eval", "--data", str(data_file), "--ckpt", str(ckpt), "--ks", "1",
                     "--weight-exponent", "inf"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == "error: weight_exponent must be finite, got inf\n"
        assert captured.out == ""

    @pytest.mark.parametrize("exponent", [
        "1e300",  # both group scales underflow to 0
        "800",  # (1/3) ** 800 underflows, (2/3) ** 800 does not
        "-1e300",  # (1/3) ** -1e300 overflows
    ])
    def test_weight_exponent_outside_float64_exits_1(self, tmp_path, data_file, capsys,
                                                     exponent):
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, init_model(make_rng(0), 12, GroupPartition((4, 4))))
        code = main(["eval", "--data", str(data_file), "--ckpt", str(ckpt), "--ks", "1",
                     f"--weight-exponent={exponent}"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: weight_exponent ")
        assert f"{float(exponent)!r}" in lines[0] and "group 0" in lines[0]
        assert "Traceback" not in captured.err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_similarities_exit_1(self, tmp_path, train_cfg, data_file, capsys):
        # alpha_1 = 1/3, so a weight exponent of -400 scales group 1 by 3**400
        # (about 1e190): finite embeddings whose dot products overflow.
        ckpt = tmp_path / "model.ckpt"
        main(["train", "--data", str(data_file), "--config", str(train_cfg),
              "--out", str(ckpt)])
        capsys.readouterr()
        code = main(["eval", "--data", str(data_file), "--ckpt", str(ckpt), "--ks", "1",
                     "--weight-exponent=-400"])
        assert code == 1
        assert "similarities overflow float64" in capsys.readouterr().err

    def test_trailing_checkpoint_bytes_exit_2(self, tmp_path, train_cfg, data_file, capsys):
        ckpt = tmp_path / "model.ckpt"
        main(["train", "--data", str(data_file), "--config", str(train_cfg),
              "--out", str(ckpt)])
        ckpt.write_bytes(ckpt.read_bytes() + b"\x00")
        capsys.readouterr()
        code = main(["eval", "--data", str(data_file), "--ckpt", str(ckpt), "--ks", "1"])
        assert code == 2
        assert "trailing bytes at offset" in capsys.readouterr().err


class TestCorruptContent:
    """Corrupt file content exits 2 with the file's path, like other file errors."""

    def _ckpt(self, path, backbone=False, bank=False):
        model = init_model(make_rng(0), 12, GroupPartition((4, 4)),
                           backbone_in_dim=12 if backbone else None)
        regs = RegressorBank.create(make_rng(1), model.partition, hidden=6) if bank else None
        save_checkpoint(path, model, iteration=0 if bank else None, bank=regs)
        return model, regs

    def test_nan_in_W_exits_2_for_eval_and_resume(self, tmp_path, train_cfg, data_file,
                                                  capsys):
        ckpt = tmp_path / "nan.ckpt"
        model, _ = self._ckpt(ckpt)
        off = poison_f64(ckpt, model.W, k=5)
        want = f"{ckpt}: non-finite W at offset {off}"
        capsys.readouterr()
        assert main(["eval", "--data", str(data_file), "--ckpt", str(ckpt), "--ks", "1"]) == 2
        assert want in capsys.readouterr().err
        assert main(["train", "--data", str(data_file), "--config", str(train_cfg),
                     "--out", str(tmp_path / "r.ckpt"), "--resume", str(ckpt)]) == 2
        assert want in capsys.readouterr().err

    def test_inf_in_backbone_weight_exits_2(self, tmp_path, data_file, capsys):
        ckpt = tmp_path / "inf.ckpt"
        model, _ = self._ckpt(ckpt, backbone=True)
        off = poison_f64(ckpt, model.backbone.weight, value=np.inf)
        assert main(["eval", "--data", str(data_file), "--ckpt", str(ckpt), "--ks", "1"]) == 2
        assert f"{ckpt}: non-finite backbone weight at offset {off}" in capsys.readouterr().err

    def test_nan_in_regressor_exits_2(self, tmp_path, train_cfg, data_file, capsys):
        ckpt = tmp_path / "bank.ckpt"
        _, bank = self._ckpt(ckpt, bank=True)
        off = poison_f64(ckpt, bank[(0, 1)].W1, k=3)
        assert main(["train", "--data", str(data_file), "--config", str(train_cfg),
                     "--out", str(tmp_path / "r.ckpt"), "--resume", str(ckpt),
                     "--set", "diversity=adversarial"]) == 2
        assert f"{ckpt}: non-finite bank W1 at offset {off}" in capsys.readouterr().err

    @pytest.mark.parametrize("d,sizes,message", [
        (0, (), "partition needs at least one group"),
        (8, (0, 8), "group sizes must be >= 1, got (0, 8)"),
    ], ids=["no-group", "empty-group"])
    def test_degenerate_partition_exits_2(self, tmp_path, data_file, capsys, d, sizes,
                                          message):
        ckpt = tmp_path / "part.ckpt"
        write_bare_model(ckpt, 12, d, sizes)
        assert main(["eval", "--data", str(data_file), "--ckpt", str(ckpt), "--ks", "1"]) == 2
        assert f"{ckpt}: {message}" in capsys.readouterr().err

    def test_nan_feature_exits_2(self, tmp_path, train_cfg, data_file, capsys):
        data = bytearray(data_file.read_bytes())
        n = int.from_bytes(data[8:16], "little")
        off = 24 + 4 * n + 4 * 7  # the 8th feature value
        data[off:off + 4] = np.float32(np.nan).tobytes()
        data_file.write_bytes(bytes(data))
        assert main(["train", "--data", str(data_file), "--config", str(train_cfg),
                     "--out", str(tmp_path / "m.ckpt")]) == 2
        assert f"{data_file}: non-finite feature at offset {off}" in capsys.readouterr().err


class TestPartition:
    def test_preset_row(self, capsys):
        assert main(["partition", "--d", "512", "--m", "3", "--preset"]) == 0
        assert capsys.readouterr().out.strip() == "96 160 256"

    def test_512_2(self, capsys):
        assert main(["partition", "--d", "512", "--m", "2"]) == 0
        assert capsys.readouterr().out.strip() == "170 342"

    def test_proportional_small(self, capsys):
        assert main(["partition", "--d", "10", "--m", "3"]) == 0
        sizes = [int(s) for s in capsys.readouterr().out.split()]
        assert sum(sizes) == 10 and len(sizes) == 3

    def test_preset_absent(self, capsys):
        assert main(["partition", "--d", "100", "--m", "3", "--preset"]) == 1


class TestGradcheckCommand:
    def test_module_filter_runs_clean(self, capsys):
        assert main(["gradcheck", "--module", "losses"]) == 0
        out = capsys.readouterr().out
        assert "module losses: worst relative error" in out
        assert "boosting" not in out

    def test_usage_error_exit_code(self, capsys):
        assert main(["gradcheck", "--module", "everything"]) == 1

    def test_injected_bug_exits_nonzero_naming_gradient(self, capsys, monkeypatch):
        # Harness self-test: a failing check must name the gradient and
        # surface as a numeric-failure exit code.
        from metricboost import cli
        from metricboost.gradcheck import CheckResult

        def fake_suites(modules, seed):
            return [CheckResult("losses", "pair_loss[sign-bug]", 0.5, 1e-5, 50)]

        monkeypatch.setattr(cli, "run_suites", fake_suites)
        assert main(["gradcheck", "--module", "losses"]) == 3
        captured = capsys.readouterr()
        assert "pair_loss[sign-bug]" in captured.err


class TestArgumentRobustness:
    @pytest.mark.parametrize("command", ["gen", "init", "train", "gradcheck"])
    def test_negative_seed_exits_1_writing_nothing(self, tmp_path, synth_cfg, train_cfg,
                                                   data_file, capsys, command):
        spec = tmp_path / "neg.cfg"
        spec.write_text(synth_cfg.read_text().replace("seed = 7", "seed = -1"))
        out = tmp_path / "out"
        train_args = ["--data", str(data_file), "--config", str(train_cfg),
                      "--out", str(out), "--set", "seed=-1"]
        argv = {
            "gen": ["gen", "--spec", str(spec), "--out", str(out)],
            "init": ["init"] + train_args,
            "train": ["train"] + train_args + ["--metrics", str(tmp_path / "m.csv")],
            "gradcheck": ["gradcheck", "--seed", "-1"],
        }[command]
        before = sorted(tmp_path.iterdir())
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be an integer >= 0, got -1\n"
        assert "Traceback" not in captured.out + captured.err
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("seed", [-1, -4])
    @pytest.mark.parametrize("module", ["all", "losses", "boosting", "diversity"])
    def test_negative_gradcheck_seed_refused_for_every_module(self, capsys, module, seed):
        # Each suite adds its own offset to the seed; none may bring it back to >= 0.
        assert main(["gradcheck", "--module", module, "--seed", str(seed)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: seed must be an integer >= 0, got {seed}\n"

    def test_spec_missing_key_exits_1_writing_nothing(self, tmp_path, synth_cfg, capsys):
        spec = tmp_path / "partial.cfg"
        spec.write_text(synth_cfg.read_text().replace("feature_dim = 12\n", ""))
        before = sorted(tmp_path.iterdir())
        assert main(["gen", "--spec", str(spec), "--out", str(tmp_path / "out.bin")]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: config key 'feature_dim' is required\n"
        assert "Traceback" not in captured.out + captured.err
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("command", ["gen", "init", "train"])
    def test_empty_config_path_is_a_missing_file(self, tmp_path, data_file, capsys, command):
        out = tmp_path / "out"
        argv = {
            "gen": ["gen", "--spec", "", "--out", str(out)],
            "init": ["init", "--data", str(data_file), "--config", "", "--out", str(out)],
            "train": ["train", "--data", str(data_file), "--config", "", "--out", str(out),
                      "--metrics", str(tmp_path / "m.csv")],
        }[command]
        before = sorted(tmp_path.iterdir())
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: file not found")
        assert sorted(tmp_path.iterdir()) == before

    def test_bad_ks_rejected(self, tmp_path, train_cfg, data_file, capsys):
        ckpt = tmp_path / "model.ckpt"
        main(["train", "--data", str(data_file), "--config", str(train_cfg),
              "--out", str(ckpt)])
        assert main(["eval", "--data", str(data_file), "--ckpt", str(ckpt),
                     "--ks", "one,two"]) == 1
        assert "--ks" in capsys.readouterr().err

    def test_dimension_mismatch_is_usage_error(self, tmp_path, train_cfg, data_file, synth_cfg):
        ckpt = tmp_path / "model.ckpt"
        main(["train", "--data", str(data_file), "--config", str(train_cfg),
              "--out", str(ckpt)])
        other = tmp_path / "other.bin"
        main(["gen", "--spec", str(synth_cfg), "--set", "feature_dim=5",
              "--out", str(other)])
        assert main(["eval", "--data", str(other), "--ckpt", str(ckpt),
                     "--ks", "1"]) == 1
