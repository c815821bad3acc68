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

from metricboost import evaluate, linalg, trainer
from metricboost.data_io import SynthSpec, synth_gaussian
from metricboost.ensemble import GroupPartition, init_model
from metricboost.linalg import make_child_rng, make_rng


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


class TestRunParts:
    def test_every_part_runs_once_and_slot_0_is_the_caller(self, monkeypatch, set_workers):
        set_workers(3)
        seen = {}

        def part(i, slot):
            time.sleep(0.01)  # long enough for the pool threads to claim parts
            seen[i] = (slot, threading.current_thread())

        linalg.run_parts(part, 9)
        assert sorted(seen) == list(range(9))
        for slot, thread in seen.values():
            assert (slot == 0) == (thread is threading.main_thread())
        assert {slot for slot, _ in seen.values()} == {0, 1, 2}

    def test_one_worker_runs_everything_on_the_caller(self, monkeypatch, set_workers):
        set_workers(1)
        monkeypatch.setattr(linalg, "_executor", None)  # calling it would fail
        seen = []
        linalg.run_parts(lambda i, slot: seen.append((i, slot, threading.current_thread())), 3)
        assert seen == [(i, 0, threading.main_thread()) for i in range(3)]

    def test_a_late_pool_thread_leaves_its_parts_to_the_caller(self, monkeypatch, set_workers):
        set_workers(2)
        real = linalg._executor

        class Late:
            def submit(self, fn, *args):
                def late():
                    time.sleep(0.2)
                    return fn(*args)
                return real().submit(late)

        monkeypatch.setattr(linalg, "_executor", lambda: Late())
        slots = []
        linalg.run_parts(lambda i, slot: slots.append(slot), 4)
        assert slots == [0, 0, 0, 0]

    @pytest.mark.parametrize("failing", [0, 1, 2])
    def test_a_failing_part_waits_for_the_others(self, monkeypatch, set_workers, failing):
        set_workers(3)
        error = ValueError("part failed")
        buf = np.zeros(3)

        def part(i, _):
            if i == failing:
                raise error
            time.sleep(0.2)
            buf[i] = 1.0

        with pytest.raises(ValueError) as info:
            linalg.run_parts(part, 3)
        assert info.value is error
        want = np.ones(3)
        want[failing] = 0.0
        assert buf.tolist() == want.tolist()  # every other part finished first
        time.sleep(0.05)
        assert buf.tolist() == want.tolist()

    def test_an_interrupted_caller_stops_the_split(self, monkeypatch, set_workers):
        set_workers(2)
        done = []

        def part(i, slot):
            if slot == 0:
                raise KeyboardInterrupt
            time.sleep(0.05)
            done.append(i)

        with pytest.raises(KeyboardInterrupt):
            linalg.run_parts(part, 20)
        finished = list(done)
        assert len(finished) <= 2  # the pool thread starts no part after the interrupt
        time.sleep(0.1)
        assert done == finished

    @pytest.mark.parametrize("slow", [1, 2])
    def test_first_failing_part_in_part_order_wins(self, monkeypatch, set_workers, slow):
        set_workers(3)
        errors = [None, KeyError("one"), KeyError("two")]

        def part(i, _):
            if i == slow:
                time.sleep(0.1)  # fails after the other part has failed
            if errors[i] is not None:
                raise errors[i]

        with pytest.raises(KeyError) as info:
            linalg.run_parts(part, 3)
        assert info.value is errors[1]

    def test_stress_more_workers_than_cores(self, monkeypatch, set_workers):
        # Four workers and a short switch interval: a part that wrote into
        # another's rows or buffer, or a lost write, changes the bytes.
        monkeypatch.setattr(evaluate, "_BLOCK", 16)
        monkeypatch.setattr(linalg, "_PART_MACS", 1 << 20)
        rng = make_rng(8)
        emb = rng.integers(-2, 3, size=(400, 3)).astype(float)
        labels = rng.integers(0, 20, size=400)
        A, B = rng.standard_normal((400, 256)), rng.standard_normal((256, 256))
        want = repr(evaluate.recall_at_k(emb, labels, [1, 4])), (A @ B).tobytes()
        set_workers(4)
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
        (64, 512, 512, False),  # batch 64: one part per worker
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
        assert across_workers(lambda: linalg.matmul(A, B).tobytes()) == [whole] * 3

    @pytest.mark.parametrize("workers,n,parts", [(2, 16, 0), (2, 64, 0), (2, 127, 0),
                                                 (2, 128, 2), (2, 200, 2), (2, 1000, 2),
                                                 (3, 1000, 3)])
    def test_split_from_two_parts_of_the_cutoff(self, monkeypatch, set_workers, workers, n,
                                                parts):
        set_workers(workers)
        calls = []
        real = linalg.run_parts
        monkeypatch.setattr(linalg, "run_parts",
                            lambda fn, count: (calls.append(count), real(fn, count)))
        A = np.ones((n, 512))
        assert np.all(linalg.matmul(A, np.ones((512, 512))) == 512.0)
        assert calls == ([parts] if parts else [])

    @pytest.mark.parametrize("m", [100, 500, 510, 517])
    def test_widths_off_the_multiple_of_8_run_whole(self, monkeypatch, across_workers, m):
        # OpenBLAS's AVX-512 kernel rounds a row split of a product wider
        # than 192 columns differently unless the width is a multiple of 8.
        A = make_rng(m).standard_normal((2000, 512))
        B = make_rng(m + 1).standard_normal((512, m))
        whole = (A @ B).tobytes()
        assert across_workers(lambda: linalg.matmul(A, B).tobytes()) == [whole] * 3
        monkeypatch.setattr(linalg, "run_parts", None)
        assert linalg.matmul(A, B).tobytes() == whole

    def test_few_rows_are_never_split(self, monkeypatch, set_workers):
        # Three parts' worth of multiply-adds, but a part would get fewer
        # than 8 rows.
        set_workers(2)
        monkeypatch.setattr(linalg, "_PART_MACS", 1 << 20)
        monkeypatch.setattr(linalg, "run_parts", None)
        A = make_rng(3).standard_normal((15, 512))
        B = make_rng(4).standard_normal((512, 512))
        assert linalg.matmul(A, B).tobytes() == (A @ B).tobytes()

    def test_one_worker_never_splits(self, monkeypatch, set_workers):
        set_workers(1)
        monkeypatch.setattr(linalg, "run_parts", None)
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
    def test_traced_functions_run_on_the_main_thread(self, monkeypatch, set_workers):
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

        fs = synth_gaussian(SynthSpec(classes=200, per_class=10, feature_dim=64, seed=5))
        model = init_model(make_rng(6), 64, GroupPartition((32, 64)))
        evaluate.evaluate_model(model, fs)
        trainer.init_solver(fs.features, model, "activation", lambda_w=1.0, lr=1e-4,
                            max_iterations=3)
        assert off_main == []
        assert {"evaluate.recall_at_k", "ensemble.forward_batch", "optim.step"} <= set(calls)
        assert len(pool_threads) == 2  # the sweep did run on a pool thread
