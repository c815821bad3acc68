"""Command-line entry point.

Subcommands: gen, init, train, eval, gradcheck, partition. Exit codes:
0 success, 1 usage or argument error, 2 data/file error, 3 numeric failure.
Set BIER_LOG=debug|info|warning to control verbosity.
"""

import argparse
import logging
import os
import sys

import numpy as np

from . import checkpoint as ckpt_io
from . import config as config_mod
from .data_io import read_features, synth_gaussian, write_features
from .ensemble import preset_partition, proportional_partition
from .errors import (
    DegenerateInput,
    FormatError,
    InvalidArgument,
    NumericFailure,
    UndefinedCorrelation,
)
from .evaluate import evaluate_model
from .gradcheck import MODULES, run_suites
from .linalg import make_rng
from .trainer import build_model, init_solver, run

log = logging.getLogger("metricboost")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _setup_logging():
    level = os.environ.get("BIER_LOG", "warning").lower()
    levels = {"debug": logging.DEBUG, "info": logging.INFO,
              "warning": logging.WARNING, "error": logging.ERROR}
    logging.basicConfig(level=levels.get(level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _parse_sets(pairs):
    out = {}
    for item in pairs or []:
        if "=" not in item:
            raise InvalidArgument(f"--set expects key=value, got {item!r}")
        key, _, val = item.partition("=")
        out[key.strip()] = val.strip()
    return out


def cmd_gen(args):
    overrides = _parse_sets(args.set)
    spec = config_mod.build_synth_spec(config_mod.parse_config_file(args.spec), overrides)
    fs = synth_gaussian(spec)
    write_features(args.out, fs)
    print(f"wrote {fs.n_samples} samples, {fs.n_classes} classes, h={fs.feature_dim} -> {args.out}")
    return 0


def cmd_init(args):
    overrides = _parse_sets(args.set)
    if args.diversity:
        overrides["diversity"] = args.diversity
    cfg = config_mod.build_train_config(config_mod.parse_config_file(args.config), overrides)
    if cfg.diversity == "none":
        from dataclasses import replace
        cfg = replace(cfg, diversity="activation")
    kind = cfg.diversity
    fs = read_features(args.data)
    rng = make_rng(cfg.seed)
    model, bank = build_model(cfg, fs.feature_dim, rng)
    if bank is not None:
        print(f"regressor bank: {len(bank)} regressors, hidden={cfg.regressor_hidden}")
    result = init_solver(
        fs.features, model, kind, cfg.lambda_w,
        lr=cfg.init_lr, momentum=cfg.momentum,
        max_iterations=cfg.init_iterations,
        bank=bank,
    )
    col_sq = np.sum(model.W * model.W, axis=0)
    print(f"init[{kind}]: final_loss={result.final_loss:.6g} "
          f"iterations={result.iterations_run} "
          f"div_term {result.initial_div_term:.6g} -> {result.final_div_term:.6g}")
    print(f"column squared norms in [{col_sq.min():.6f}, {col_sq.max():.6f}] "
          f"(band ok: {result.norms_in_band})")
    ckpt_io.save_checkpoint(args.out, model, iteration=0, bank=bank)
    print(f"wrote checkpoint -> {args.out}")
    return 0


def cmd_train(args):
    overrides = _parse_sets(args.set)
    cfg = config_mod.build_train_config(config_mod.parse_config_file(args.config), overrides)
    fs = read_features(args.data)
    resume = ckpt_io.load_checkpoint(args.resume) if args.resume else None
    result = run(cfg, fs, resume=resume, metrics_path=args.metrics)
    rng_state = result.rng.bit_generator.state
    ckpt_io.save_checkpoint(
        args.out, result.model, iteration=result.iteration,
        rng_state=rng_state, optimizer=result.optimizer, bank=result.bank,
    )
    print(f"trained to iteration {result.iteration}; checkpoint -> {args.out}")
    if args.metrics:
        print(f"metrics -> {args.metrics}")
    return 0


def cmd_eval(args):
    fs = read_features(args.data)
    ckpt = ckpt_io.load_checkpoint(args.ckpt)
    try:
        ks = tuple(int(k) for k in args.ks.replace(",", " ").split())
    except ValueError:
        raise InvalidArgument(f"--ks expects integers, got {args.ks!r}") from None
    if not ks:
        raise InvalidArgument("--ks needs at least one cutoff")
    report = evaluate_model(ckpt.model, fs, ks=ks, weight_exponent=args.weight_exponent)
    print(report.table())
    print()
    print(report.csv(), end="")
    return 0


def cmd_gradcheck(args):
    modules = MODULES if args.module == "all" else (args.module,)
    results = run_suites(modules=modules, seed=args.seed)
    failed = [r for r in results if not r.passed]
    per_module = {}
    for r in results:
        per_module[r.module] = max(per_module.get(r.module, 0.0), r.worst_rel)
    for r in results:
        status = "ok" if r.passed else "FAIL"
        print(f"{status:4s} {r.module}/{r.name}: worst_rel={r.worst_rel:.3e} tol={r.tol:g}")
    for mod in sorted(per_module):
        print(f"module {mod}: worst relative error {per_module[mod]:.3e}")
    if failed:
        names = ", ".join(f"{r.module}/{r.name}" for r in failed)
        print(f"gradient check FAILED: {names}", file=sys.stderr)
        return 3
    return 0


def cmd_partition(args):
    if args.preset:
        part = preset_partition(args.d, args.m)
    else:
        part = proportional_partition(args.d, args.m)
    print(" ".join(str(s) for s in part.sizes))
    return 0


def build_parser():
    parser = _Parser(prog="metricboost",
                     description="Boosted metric-embedding ensemble trainer")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[], help="generate a synthetic feature file",
                       formatter_class=argparse.RawDescriptionHelpFormatter,
                       epilog="config keys:\n" + config_mod.describe_keys(config_mod.SYNTH_KEYS))
    p.add_argument("--spec", required=True, help="synthesis config file")
    p.add_argument("--out", required=True, help="output feature file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config key (repeatable)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("init", help="solve the diversity initialization for W",
                       formatter_class=argparse.RawDescriptionHelpFormatter,
                       epilog="config keys:\n" + config_mod.describe_keys(config_mod.TRAIN_KEYS))
    p.add_argument("--data", required=True, help="feature file")
    p.add_argument("--config", required=True, help="train config file")
    p.add_argument("--out", required=True, help="output checkpoint")
    p.add_argument("--diversity", choices=("activation", "adversarial"),
                   help="override the configured diversity kind")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(func=cmd_init)

    p = sub.add_parser("train", help="run boosted training",
                       formatter_class=argparse.RawDescriptionHelpFormatter,
                       epilog="config keys:\n" + config_mod.describe_keys(config_mod.TRAIN_KEYS))
    p.add_argument("--data", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="final checkpoint")
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--metrics", help="metrics CSV path")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a feature file")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--ks", default="1,2,4,8", help="comma-separated recall cutoffs")
    p.add_argument("--weight-exponent", type=float, default=1.0)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference checks of all gradients")
    p.add_argument("--module", choices=("all",) + MODULES, default="all")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("partition", help="print group sizes for an embedding")
    p.add_argument("--d", type=int, required=True, help="embedding size")
    p.add_argument("--m", type=int, required=True, help="number of groups")
    p.add_argument("--preset", action="store_true",
                   help="require the hand-chosen preset sizes")
    p.set_defaults(func=cmd_partition)
    return parser


def main(argv=None):
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename or exc}", file=sys.stderr)
        return 2
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvalidArgument as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericFailure, DegenerateInput, UndefinedCorrelation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
