"""The benchmark's episode and correctness checks run against the package.

`perfbench/workloads.py` and `perfbench/reference.py` call the package's
entry points and read its state (`Optimizer.state_dict`, `EnsembleModel.copy`,
`EnsembleModel.test_embeddings`, `sample_batch(mine=)`, `split(disjoint_classes=)`).
An API change that would fail the benchmark fails here first: this runs one
toy episode over every training route and its checks, in a temporary
directory. `perfbench/run.py` is not imported, because it pins BLAS threads
through the environment at import.
"""

from pathlib import Path
import sys

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    import reference
    import workloads
    return workloads, reference


@pytest.mark.filterwarnings("ignore::UserWarning")  # 3 init iterations leave the norm band
def test_toy_episode_passes_every_check(perfbench, tmp_path):
    workloads, reference = perfbench
    wl = workloads.Workload(
        "toy", classes=8, per_class=4, feature_dim=8, train_classes=4, embedding_dim=6,
        partition="proportional", batch=2, init_iterations=3, eval_interval=0,
        routes=tuple(workloads.Route(kind, 2, True) for kind in workloads.ROUTES),
    )
    assert wl.routes[0].kind == "boosted"  # the route the gradient check samples
    ops = workloads.Ops()
    prep = workloads.prepare(wl, 1, tmp_path, ops)
    ep = workloads.episode(wl, prep, 1, tmp_path, ops)

    assert [r.route.kind for r in ep.routes] == list(workloads.ROUTES)
    for r in ep.routes:
        ok, detail = reference.same_training_state(r.result, r.restored)
        assert ok, f"{r.route.kind}: {detail}"
        ok, detail = reference.check_recall(r.result.model, prep.test, r.report)
        assert ok, f"{r.route.kind}: {detail}"
    ok, detail = reference.check_first_batch_gradient(wl, prep, ep.init.model, 1)
    assert ok, detail
    assert ops.attempted > 0 and ops.failed == 0, ops.failures
