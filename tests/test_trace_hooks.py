"""The benchmark's tracer patches package functions by (owner, attribute).

A rename or a removed import in the package would make `perfbench/spans.py`
fail with a KeyError at install time, or silently time nothing; these tests
pin that every hook point exists and that installing the tracer restores
the package exactly.
"""

from pathlib import Path
import sys

import numpy as np
import pytest

from metricboost.boosting import PairBatch, accumulate_W_gradient
from metricboost.ensemble import GroupPartition, init_model
from metricboost.linalg import make_rng
from metricboost.losses import LossSpec

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    import spans
    return spans


def test_every_patch_point_exists(spans):
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _, _ in spans.PATCHES if attr not in owner.__dict__]
    assert missing == []


def test_installed_wraps_and_restores(spans):
    before = [owner.__dict__[attr] for owner, attr, _, _ in spans.PATCHES]
    tracer = spans.Tracer()
    with tracer.installed():
        for (owner, attr, _, _), original in zip(spans.PATCHES, before):
            assert owner.__dict__[attr].__wrapped__ is original
        rng = make_rng(0)
        model = init_model(rng, 5, GroupPartition((2, 2, 2)))
        pairs = PairBatch(np.array([0, 0, 1]), np.array([1, 2, 2]), np.array([1, 0, 0]))
        accumulate_W_gradient(model, rng.standard_normal((3, 5)), pairs, LossSpec())
    assert [owner.__dict__[attr] for owner, attr, _, _ in spans.PATCHES] == before
    names = [tracer.names[i] for i in tracer.name]
    # The kernel looks its trace and loss functions up in boosting's globals,
    # where the tracer replaced them: one trace, one weight and one loss call.
    assert names == ["boosting.boost_trace", "losses.loss", "losses.loss"]
