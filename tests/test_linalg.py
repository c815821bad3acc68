import functools
import importlib.util
import os
from pathlib import Path
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from metricboost import evaluate, linalg, optim, trainer
from metricboost.data_io import SynthSpec, synth_gaussian
from metricboost.ensemble import GroupPartition, init_model
from metricboost.errors import InvalidArgument
from metricboost.linalg import make_child_rng, make_rng
from metricboost.optim import Optimizer


class TestRng:
    def test_identical_streams(self):
        a = make_rng(1234).standard_normal(100)
        b = make_rng(1234).standard_normal(100)
        assert a.tobytes() == b.tobytes()

    def test_different_seeds_differ(self):
        a = make_rng(1).standard_normal(10)
        b = make_rng(2).standard_normal(10)
        assert not np.array_equal(a, b)

    def test_child_stream_is_independent(self):
        main = make_rng(7).standard_normal(8)
        child = make_child_rng(7, 1).standard_normal(8)
        assert not np.array_equal(main, child)
        again = make_child_rng(7, 1).standard_normal(8)
        assert child.tobytes() == again.tobytes()

    def test_seed_beyond_64_bits(self):
        a = make_rng(2**70).standard_normal(4)
        assert np.array_equal(a, make_rng(2**70).standard_normal(4))
        assert not np.array_equal(a, make_rng(2**70 - 2**64).standard_normal(4))
        make_child_rng(2**70, 1)

    @pytest.mark.parametrize("make", [make_rng, lambda seed: make_child_rng(seed, 1)],
                             ids=["make_rng", "make_child_rng"])
    def test_negative_seed_refused(self, make):
        with pytest.raises(InvalidArgument, match="^seed must be an integer >= 0, got -1$"):
            make(-1)


class TestWorkerCount:
    @pytest.mark.parametrize("blas,cpus,want", [
        (None, 8, 1),  # BLAS not OpenBLAS or not found: serial
        (2, 8, 1),  # a threaded BLAS already uses the cores
        (1, 1, 1),
        (1, 2, 2),
        (1, 64, 2),  # capped at what was measured
    ])
    def test_rule(self, monkeypatch, blas, cpus, want):
        monkeypatch.setattr(linalg, "_blas_threads", lambda: blas)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        assert linalg._worker_count() == want

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_read_from_the_loaded_blas(self, threads):
        if linalg._blas_threads() is None:
            pytest.skip("the loaded BLAS reports no thread count")
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        src = str(Path(linalg.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
             "from metricboost import linalg; print(linalg._blas_threads(), linalg.workers())",
             src], env=env, capture_output=True, text=True, check=True, timeout=60)
        blas, count = map(int, out.stdout.split())
        assert blas == int(threads)
        cpus = len(os.sched_getaffinity(0))
        assert count == (min(cpus, 2) if threads == "1" else 1)


class TestHelperPool:
    """The helper's executor is made at import, and again in a forked child;
    its thread starts on the first split."""

    def test_import_starts_no_thread(self):
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        src = str(Path(linalg.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", "import sys, threading; sys.path.insert(0, sys.argv[1]); "
             "import metricboost; from metricboost import linalg; "
             "print(threading.active_count()); linalg._WORKERS = 2; "
             "linalg.run_halves(lambda *args: None, 2); print(threading.active_count())",
             src], env=env, capture_output=True, text=True, check=True, timeout=60)
        assert out.stdout.split() == ["1", "2"]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_runs_a_split(self, set_workers):
        set_workers(2)
        linalg.run_halves(lambda *args: None, 2)  # the parent's helper thread is up
        pid = os.fork()
        if pid == 0:  # the child has none of the parent's threads
            code = 1
            try:
                started = threading.Event()
                seen = {}

                def half(h, lo, hi):
                    if h == 1:
                        started.set()
                    elif not started.wait(10):
                        return  # the helper never started half 1
                    seen[h] = threading.current_thread()

                linalg.run_halves(half, 2)
                if seen[0] is threading.main_thread() and seen[1] is not seen[0]:
                    code = 0
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0


class TestRunParts:
    """`run_halves`: the caller runs the first half of the parts, the helper
    thread the second."""

    def test_every_part_runs_once_and_half_0_is_the_caller(self, set_workers):
        set_workers(2)
        for count in (2, 9):
            started = threading.Event()
            seen = {}

            def half(h, lo, hi):
                if h == 1:
                    started.set()
                else:
                    assert started.wait(10)  # the helper runs half 1 alongside
                seen[h] = (list(range(lo, hi)), threading.current_thread())

            linalg.run_halves(half, count)
            assert seen[0] == (list(range(count // 2)), threading.main_thread())
            assert seen[0][0] + seen[1][0] == list(range(count))
            assert seen[1][1] is not threading.main_thread()

    def test_the_helper_half_keeps_the_callers_errstate(self, set_workers):
        set_workers(2)
        started = threading.Event()
        seen = {}

        def half(h, lo, hi):
            if h == 1:
                started.set()
            else:
                assert started.wait(10)  # half 1 runs on the helper thread
            seen[h] = (np.geterr()["over"], threading.current_thread())

        with np.errstate(over="raise"):
            linalg.run_halves(half, 2)
        assert seen[0] == ("raise", threading.main_thread())
        assert seen[1][0] == "raise" and seen[1][1] is not threading.main_thread()

    def test_one_worker_runs_everything_on_the_caller(self, monkeypatch, set_workers):
        monkeypatch.setattr(linalg, "_pool", None)  # submitting to it would fail
        for workers, count in ((1, 3), (2, 1)):
            set_workers(workers)
            seen = []
            linalg.run_halves(lambda *args: seen.append((args, threading.current_thread())),
                              count)
            assert seen == [((0, 0, count), threading.main_thread())]

    def test_a_late_pool_thread_leaves_its_parts_to_the_caller(self, set_workers):
        set_workers(2)
        release = threading.Event()
        busy = linalg._pool.submit(release.wait)  # holds the helper thread
        seen = []
        try:
            linalg.run_halves(lambda *args: seen.append((args, threading.current_thread())), 4)
        finally:
            release.set()
            busy.result(timeout=10)
        assert seen == [((0, 0, 2), threading.main_thread()),
                        ((1, 2, 4), threading.main_thread())]

    @pytest.mark.parametrize("failing", [0, 1])
    def test_a_failing_part_waits_for_the_others(self, set_workers, failing):
        set_workers(2)
        error = ValueError("half failed")
        started = threading.Event()
        buf = np.zeros(2)

        def half(h, lo, hi):
            if h == 1:
                started.set()
            elif not started.wait(10):
                raise AssertionError("the helper did not start half 1")
            if h == failing:
                raise error
            time.sleep(0.2)
            buf[h] = 1.0

        with pytest.raises(ValueError) as info:
            linalg.run_halves(half, 2)
        assert info.value is error
        want = [1.0, 1.0]
        want[failing] = 0.0
        assert buf.tolist() == want  # the other half finished first

    @pytest.mark.parametrize("slow", [0, 1])
    def test_first_failing_part_in_part_order_wins(self, set_workers, slow):
        set_workers(2)
        errors = [KeyError("zero"), KeyError("one")]
        started = threading.Event()
        finished = []

        def half(h, lo, hi):
            if h == 1:
                started.set()
            elif not started.wait(10):
                raise AssertionError("the helper did not start half 1")
            if h == slow:
                time.sleep(0.1)  # fails after the other half has failed
            finished.append(h)
            raise errors[h]

        with pytest.raises(KeyError) as info:
            linalg.run_halves(half, 2)
        assert info.value is errors[0]
        assert sorted(finished) == [0, 1]  # half 1 ended before half 0's error surfaced

    def test_an_interrupted_caller_stops_the_split(self, set_workers):
        # A half the helper has not started is cancelled.
        set_workers(2)
        release = threading.Event()
        busy = linalg._pool.submit(release.wait)  # holds the helper thread
        ran = []

        def half(h, lo, hi):
            if h == 0:
                raise KeyboardInterrupt
            ran.append(h)

        try:
            with pytest.raises(KeyboardInterrupt):
                linalg.run_halves(half, 2)
        finally:
            release.set()
            busy.result(timeout=10)
        linalg._pool.submit(lambda: None).result(timeout=10)  # the helper is idle again
        assert ran == []

    def test_an_interrupted_caller_waits_for_a_started_half(self, set_workers):
        set_workers(2)
        started = threading.Event()
        done = []

        def half(h, lo, hi):
            if h == 0:
                assert started.wait(10)
                raise KeyboardInterrupt
            started.set()
            time.sleep(0.2)
            done.append(h)

        with pytest.raises(KeyboardInterrupt):
            linalg.run_halves(half, 2)
        assert done == [1]

    def test_stress_two_workers(self, monkeypatch, set_workers):
        # Two workers and a short switch interval: a half that wrote into
        # the other's rows or buffer, or a lost write, changes the bytes.
        monkeypatch.setattr(evaluate, "_BLOCK", 16)
        monkeypatch.setattr(linalg, "_PART_MACS", 1 << 20)
        rng = make_rng(8)
        emb = rng.integers(-2, 3, size=(400, 3)).astype(float)
        labels = rng.integers(0, 20, size=400)
        A, B = rng.standard_normal((400, 256)), rng.standard_normal((256, 256))
        set_workers(1)
        want = repr(evaluate.recall_at_k(emb, labels, [1, 4])), (A @ B).tobytes()
        set_workers(2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                got = (repr(evaluate.recall_at_k(emb, labels, [1, 4])),
                       linalg.matmul(A, B).tobytes())
                assert got == want
        finally:
            sys.setswitchinterval(interval)


class TestMatmul:
    @pytest.mark.parametrize("n,k,m,transpose", [
        (16, 512, 512, False),  # batch 16: one part
        (64, 512, 512, False),  # batch 64: two halves
        (64, 512, 512, True),  # phi.T @ dF at batch 64
        (16, 512, 512, True),
        (1000, 512, 512, False),
        (999, 512, 96, False),
        (2000, 64, 96, False),
    ])
    def test_bits_equal_the_whole_product(self, across_workers, n, k, m, transpose):
        rng = make_rng(n + k + m)
        A = rng.standard_normal((k, n)).T if transpose else rng.standard_normal((n, k))
        B = rng.standard_normal((k, m))
        whole = (A @ B).tobytes()
        assert across_workers(lambda: linalg.matmul(A, B).tobytes()) == [whole] * 2

    @pytest.mark.parametrize("workers,n,parts", [(2, 16, 0), (2, 64, 0), (2, 127, 0),
                                                 (2, 128, 2), (2, 200, 2), (2, 1000, 2)])
    def test_split_from_two_parts_of_the_cutoff(self, monkeypatch, set_workers, workers, n,
                                                parts):
        set_workers(workers)
        calls = []
        real = linalg.run_halves
        monkeypatch.setattr(linalg, "run_halves",
                            lambda fn, count: (calls.append(count), real(fn, count)))
        A = np.ones((n, 512))
        assert np.all(linalg.matmul(A, np.ones((512, 512))) == 512.0)
        assert calls == ([n] if parts else [])  # a split product hands run_halves its rows

    @pytest.mark.parametrize("m", [100, 500, 510, 517])
    def test_widths_off_the_multiple_of_8_run_whole(self, monkeypatch, across_workers, m):
        # OpenBLAS's AVX-512 kernel rounds a row split of a product wider
        # than 192 columns differently unless the width is a multiple of 8.
        A = make_rng(m).standard_normal((2000, 512))
        B = make_rng(m + 1).standard_normal((512, m))
        whole = (A @ B).tobytes()
        assert across_workers(lambda: linalg.matmul(A, B).tobytes()) == [whole] * 2
        monkeypatch.setattr(linalg, "run_halves", None)
        assert linalg.matmul(A, B).tobytes() == whole

    def test_few_rows_are_never_split(self, monkeypatch, set_workers):
        # Two halves' worth of multiply-adds, but a half would get fewer
        # than 8 rows.
        set_workers(2)
        monkeypatch.setattr(linalg, "_PART_MACS", 1 << 20)
        monkeypatch.setattr(linalg, "run_halves", None)
        A = make_rng(3).standard_normal((15, 512))
        B = make_rng(4).standard_normal((512, 512))
        assert linalg.matmul(A, B).tobytes() == (A @ B).tobytes()

    def test_one_worker_never_splits(self, monkeypatch, set_workers):
        set_workers(1)
        monkeypatch.setattr(linalg, "run_halves", None)
        A = make_rng(5).standard_normal((1000, 512))
        B = make_rng(6).standard_normal((512, 512))
        assert linalg.matmul(A, B).tobytes() == (A @ B).tobytes()


def _load_tracer_patches():
    """perfbench/spans.py's PATCHES, loaded without putting perfbench on sys.path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("_perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCHES


class TestTracerSafety:
    """Worker threads never enter a function the benchmark's tracer wraps:
    its span stack is not thread-safe."""

    @pytest.mark.filterwarnings("ignore:init solver left")
    def test_traced_functions_run_on_the_main_thread(self, monkeypatch, set_workers,
                                                     helper_takes_half_1):
        set_workers(2)
        monkeypatch.setattr(linalg, "_PART_MACS", 1 << 22)  # split the 2000-row products
        calls, off_main = [], []

        def on_main(name, fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls.append(name)
                if threading.current_thread() is not threading.main_thread():
                    off_main.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for owner, attr, name, _ in _load_tracer_patches():
            monkeypatch.setattr(owner, attr, on_main(name, owner.__dict__[attr]))
        pool_threads = set()
        rank_block = evaluate._rank_block

        def spy(*args):
            pool_threads.add(threading.current_thread())
            return rank_block(*args)

        monkeypatch.setattr(evaluate, "_rank_block", spy)
        # init_solver's 64 x 64 W is 4 blocks of 1024, so its SGD sweep splits.
        monkeypatch.setattr(optim, "_BLOCK", 1024)
        block_threads = set()
        sgd_block = Optimizer._sgd_block

        def block_spy(*args):
            block_threads.add(threading.current_thread())
            return sgd_block(*args)

        monkeypatch.setattr(Optimizer, "_sgd_block", block_spy)

        fs = synth_gaussian(SynthSpec(classes=200, per_class=10, feature_dim=64, seed=5))
        model = init_model(make_rng(6), 64, GroupPartition((32, 64)))
        evaluate.evaluate_model(model, fs)
        trainer.init_solver(fs.features, model, "activation", lambda_w=1.0, lr=1e-4,
                            max_iterations=3)
        assert off_main == []
        assert {"evaluate.recall_at_k", "ensemble.forward_batch", "optim.step"} <= set(calls)
        assert len(pool_threads) == 2  # the sweep did run on a pool thread
        assert len(block_threads) == 2  # and so did half of each optimizer step
