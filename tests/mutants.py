"""Mutation table: each entry breaks the package in one place and names the
tests that must then fail. Run by hand from anywhere:

    python tests/mutants.py            # every entry
    python tests/mutants.py NAME ...   # the named entries only

The script first runs every named test on an unmutated copy of `src/` and
`tests/` in a temporary directory; all of them must pass. Then, for each
entry, it makes a fresh copy, replaces the entry's snippet in its file and
runs the entry's tests there. A snippet must occur exactly once in its file,
or the script stops with an error, so the table cannot rot silently. A test
id that names a class or a parametrized test counts as failing when any of
its cases fails. An entry survives when one of its tests still passes; the
script prints every survivor with those tests and exits 1 if there is one.

Nothing is written under the repository: the copies live in a temporary
directory, bytecode is not written and pytest's cache is off. pytest does
not collect this file (its name does not start with `test_`).
"""

from collections import namedtuple
import os
from pathlib import Path
import shutil
import subprocess
import sys
import tempfile

ROOT = Path(__file__).resolve().parent.parent

Mutant = namedtuple("Mutant", "name file snippet replacement tests")

# The acceptance test of each criterion.
_ACCEPTANCE = "tests/test_acceptance.py::"
C1 = _ACCEPTANCE + "TestCriterion1GradientFidelity"
C2 = _ACCEPTANCE + "TestCriterion2BoostingIdentity"
C3 = _ACCEPTANCE + "TestCriterion3ReductionEquivalence"
C4 = _ACCEPTANCE + "TestCriterion4ReversalSignContract"
C5 = _ACCEPTANCE + "TestCriterion5PaperPresets"
C6 = _ACCEPTANCE + "TestCriterion6RecallOracle"
C7 = _ACCEPTANCE + "TestCriterion7InitializationPostCondition"
C8 = _ACCEPTANCE + "TestCriterion8DeskScaleTrend"
C9 = _ACCEPTANCE + "TestCriterion9AdversarialTrend"
C10 = _ACCEPTANCE + "TestCriterion10LossConstants"

MUTANTS = [
    Mutant(
        "log1p-as-log", "src/metricboost/losses.py",
        "np.log1p(e)", "np.log(1.0 + e)",
        ["tests/test_losses.py::TestOnePassMatchesTwoPass::test_random_scores_both_labels"],
    ),
    Mutant(
        "pair-costs-swapped", "src/metricboost/losses.py",
        "-spec.beta1 * spec.cost_pos, spec.beta1 * spec.cost_neg",
        "-spec.beta1 * spec.cost_neg, spec.beta1 * spec.cost_pos",
        ["tests/test_losses.py::TestBinomialDeviance::test_negative_pair_derivative",
         "tests/test_losses.py::TestBoostingWeight::test_negative_pair_at_beta2"],
    ),
    Mutant(
        "oserror-handler-dropped", "src/metricboost/cli.py",
        "    except OSError as exc:  # a directory given as a file, a denied permission, ...\n"
        '        print(f"error: {exc}", file=sys.stderr)\n'
        "        return 2\n",
        "",
        ["tests/test_cli.py::TestFileErrors"],
    ),
    Mutant(
        "metrics-append-as-write", "src/metricboost/trainer.py",
        'open(path, "a", encoding="utf-8")', 'open(path, "w", encoding="utf-8")',
        ["tests/test_cli.py::TestTrain::test_resume_appends_to_its_metrics_file"],
    ),
    Mutant(
        "central-diff-finally-dropped", "src/metricboost/gradcheck.py",
        "        try:\n"
        "            flat[k] = orig + h\n"
        "            fp = f(x)\n"
        "            flat[k] = orig - h\n"
        "            fm = f(x)\n"
        "        finally:\n"
        "            flat[k] = orig\n",
        "        flat[k] = orig + h\n"
        "        fp = f(x)\n"
        "        flat[k] = orig - h\n"
        "        fm = f(x)\n"
        "        flat[k] = orig\n",
        ["tests/test_gradcheck.py::TestHarness::test_central_diff_restores_x_when_f_raises"],
    ),
    Mutant(
        "column-side-count-dropped", "src/metricboost/evaluate.py",
        "                col_ahead[half, cols] += _ahead(", "                _ahead(",
        ["tests/test_evaluate.py::TestBlockedRecall::test_real_block_size_with_ties",
         "tests/test_evaluate.py::TestFusedSweep::test_tie_cases"],
    ),
    Mutant(
        "tie-index-test-flipped", "src/metricboost/evaluate.py",
        "        mask &= index < f\n        count += _count(mask, axis)\n",
        "        mask &= index > f\n        count += _count(mask, axis)\n",
        ["tests/test_evaluate.py::TestBlockedRecall::test_wide_tie_below_distinct_scores",
         "tests/test_evaluate.py::TestBlockedRecall::"
         "test_tie_cases_are_bit_identical_for_any_worker_count"
         "[tie_reached_only_through_the_column_side]"],
    ),
    Mutant(
        "best-over-every-column", "src/metricboost/evaluate.py",
        "np.max(G, axis=-1, where=same, initial=-np.inf, out=best)",
        "np.max(G, axis=-1, out=best)",
        ["tests/test_evaluate.py::TestRecall::test_matches_brute_force",
         "tests/test_evaluate.py::TestFusedSweep::test_block_edges"],
    ),
    Mutant(
        "first-hit-as-sorted-position", "src/metricboost/evaluate.py",
        "    return index[mask.argmax(axis=-1)]\n", "    return mask.argmax(axis=-1)\n",
        ["tests/test_evaluate.py::TestBlockedRecall::"
         "test_tie_cases_are_bit_identical_for_any_worker_count",
         "tests/test_evaluate.py::TestFusedSweep::test_tie_cases"],
    ),
    Mutant(
        "learner-column-side-dropped", "src/metricboost/evaluate.py",
        "                    col_miss[half, m, cols] |= _beaten(", "                    _beaten(",
        ["tests/test_evaluate.py::TestPerLearnerRecall::test_random_sets",
         "tests/test_evaluate.py::TestFusedSweep::test_tie_cases"],
    ),
    Mutant(
        "learner-tie-check-dropped", "src/metricboost/evaluate.py",
        "        out |= mask.any(axis=axis)\n", "",
        ["tests/test_evaluate.py::TestPerLearnerRecall::test_sign_valued_ties_at_the_top",
         "tests/test_evaluate.py::TestFusedSweep::test_tie_cases"],
    ),
    Mutant(
        "ensemble-weight-dropped", "src/metricboost/evaluate.py",
        "                    G *= w[m]\n", "",
        ["tests/test_evaluate.py::TestFusedSweep::test_tie_cases",
         "tests/test_evaluate.py::TestEvaluateModel::test_report_equals_the_separate_passes"],
    ),
    Mutant(
        "self-mask-dropped", "src/metricboost/evaluate.py",
        "            G[diag] = -np.inf  # no query ranks itself\n", "",
        ["tests/test_evaluate.py::TestPerLearnerRecall::test_random_sets",
         "tests/test_evaluate.py::TestFusedSweep::test_block_edges",
         "tests/test_evaluate.py::TestFusedSweep::test_tie_cases"],
    ),
    Mutant(
        "self-score-kept-for-weighting", "src/metricboost/evaluate.py",
        "                G[diag] = 0.0  # a weight that underflowed to 0 times -inf is nan\n", "",
        ["tests/test_evaluate.py::TestFusedSweep::test_underflowed_weight_drops_its_group"],
    ),
    Mutant(
        "column-norm-running-sum-dropped", "src/metricboost/evaluate.py",
        "        buf[0] = np.add.reduce(buf[:len(rows) + 1], axis=0)\n",
        "        buf[0] = np.add.reduce(buf[1:len(rows) + 1], axis=0)\n",
        ["tests/test_evaluate.py::TestFeatureCorrelation::"
         "test_matches_triu_oracle_bytes_over_several_row_blocks"],
    ),
    Mutant(
        "adam-dot-bound-loosened", "src/metricboost/optim.py",
        "np.dot(g.reshape(-1), g.reshape(-1)) < bound * bound",
        "np.dot(g.reshape(-1), g.reshape(-1)) < bound * bound * 4",
        ["tests/test_optim.py::TestBlockedUpdate::test_adam_entry_at_the_bound_refused"],
    ),
    Mutant(
        "header-decode-errors-escape", "src/metricboost/checkpoint.py",
        "    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError both are\n",
        "    except KeyError as exc:\n",
        ["tests/test_checkpoint.py::TestCorruptContent::test_flipped_header_byte_is_refused",
         "tests/test_cli.py::TestCorruptContent::test_flipped_rng_header_byte_exits_2"],
    ),
    Mutant(
        "rng-header-not-loaded", "src/metricboost/checkpoint.py",
        "        np.random.PCG64().state = state\n", "        pass\n",
        ["tests/test_checkpoint.py::TestCorruptContent::"
         "test_rng_header_that_pcg64_refuses_is_refused"],
    ),
    Mutant(
        "boosting-weight-ones", "src/metricboost/boosting.py",
        "w[..., 1:] = boosting_weight_vec(spec, s=acc[..., :-1], y=y)",
        "w[..., 1:] = 1.0",
        ["tests/test_boosting.py::TestBackwardPair::test_weight_after_first_stage"],
    ),
    Mutant(
        "reversal-source-path-flipped", "src/metricboost/diversity.py",
        "grad_sim += matmul(phi.T, dF_source)", "grad_sim -= matmul(phi.T, dF_source)",
        [C4, "tests/test_diversity.py::TestAdversarialLossMatchesFullOracle::test_bytes",
         "tests/test_gradcheck.py::TestSuites::test_all_pass_on_fresh_build"],
    ),
    # One entry per acceptance criterion, each killed by that criterion's test.
    Mutant(
        "unit-norm-penalty-gradient-halved", "src/metricboost/diversity.py",
        "grad = 4.0 * np.expand_dims(excess, axis) * mat",
        "grad = 2.0 * np.expand_dims(excess, axis) * mat",
        [C1, "tests/test_gradcheck.py::TestSuites::test_all_pass_on_fresh_build"],
    ),
    Mutant(
        "accumulation-decay-dropped", "src/metricboost/boosting.py",
        "prev = (1.0 - schedule.eta[m]) * prev + schedule.eta[m] * scores[..., m]",
        "prev = prev + schedule.eta[m] * scores[..., m]",
        [C2],
    ),
    Mutant(
        "baseline-step-halved", "src/metricboost/trainer.py",
        "        res = accumulate_plain_gradient(model, features, mined, spec)\n",
        "        res = accumulate_plain_gradient(model, features, mined, spec)\n"
        "        res.grad_W *= 0.5\n",
        [C3],
    ),
    Mutant(
        "preset-row-shifted", "src/metricboost/ensemble.py",
        "(512, 3): (96, 160, 256),", "(512, 3): (96, 161, 255),",
        [C5],
    ),
    Mutant(
        "recall-counts-rank-k", "src/metricboost/evaluate.py",
        "np.mean(first_hit < k)", "np.mean(first_hit <= k)",
        [C6],
    ),
    Mutant(
        "init-terms-swapped", "src/metricboost/trainer.py",
        "initial_div_term=float(initial_term), final_div_term=float(term)",
        "initial_div_term=float(term), final_div_term=float(initial_term)",
        [C7],
    ),
    Mutant(
        "boosted-route-as-baseline", "src/metricboost/boosting.py",
        "    return _gram_gradient(model, model.partition, model.schedule, features, batch, spec)\n",
        "    return accumulate_plain_gradient(model, features, batch, spec)\n",
        [C8],
    ),
    Mutant(
        "embedding-ascends-similarity", "src/metricboost/diversity.py",
        "    grad_W += grad_sim\n", "    grad_W -= grad_sim\n",
        [C9],
    ),
    Mutant(
        "beta2-default-moved", "src/metricboost/losses.py",
        "beta2: float = 0.5", "beta2: float = 0.4",
        [C10],
    ),
]


def _copy_tree(dest):
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _apply(dest, mutant):
    path = dest / mutant.file
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace(mutant.snippet, mutant.replacement), encoding="utf-8")


def _failed_ids(dest, tests):
    """Run `tests` in the tree at `dest`; return the ids that failed or errored."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(dest / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *tests],
        cwd=dest, env=env, capture_output=True, text=True,
    )
    if proc.returncode not in (0, 1):
        sys.exit(f"pytest exited {proc.returncode} on {tests}:\n{proc.stdout}{proc.stderr}")
    return [line.split()[1] for line in proc.stdout.splitlines()
            if line.startswith(("FAILED ", "ERROR "))]


def _covers(test_id, failed_id):
    return failed_id == test_id or failed_id.startswith((test_id + "[", test_id + "::"))


def main(names):
    known = {m.name for m in MUTANTS}
    unknown = sorted(set(names) - known)
    if unknown:
        sys.exit(f"unknown mutants {unknown}; known: {sorted(known)}")
    mutants = [m for m in MUTANTS if not names or m.name in names]
    for m in mutants:  # every snippet must match before anything runs
        text = (ROOT / m.file).read_text(encoding="utf-8")
        if text.count(m.snippet) != 1:
            sys.exit(f"mutant {m.name}: its snippet occurs {text.count(m.snippet)} times "
                     f"in {m.file}, not once:\n{m.snippet}")
    survivors = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        base = Path(tmp) / "base"
        _copy_tree(base)
        all_tests = sorted({t for m in mutants for t in m.tests})
        failed = _failed_ids(base, all_tests)
        if failed:
            sys.exit(f"tests fail without a mutation: {failed}")
        for i, m in enumerate(mutants):
            dest = Path(tmp) / f"m{i}"
            _copy_tree(dest)
            _apply(dest, m)
            failed = _failed_ids(dest, m.tests)
            passing = [t for t in m.tests if not any(_covers(t, f) for f in failed)]
            print(f"{'SURVIVED' if passing else 'killed':8s} {m.name}", flush=True)
            if passing:
                survivors.append((m, passing))
            shutil.rmtree(dest)
    for m, passing in survivors:
        print(f"survivor {m.name} ({m.file}): still passing: {', '.join(passing)}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
