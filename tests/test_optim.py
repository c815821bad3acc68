import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from metricboost import linalg, optim
from metricboost.checkpoint import load_checkpoint, save_checkpoint
from metricboost.data_io import SynthSpec, synth_gaussian
from metricboost.ensemble import GroupPartition, init_model
from metricboost.errors import InvalidArgument, NumericFailure
from metricboost.optim import Optimizer
from metricboost.trainer import TrainConfig, run
from oracles import whole_array_step


class TestStep:
    def test_zero_gradient_leaves_params(self):
        for kind in ("sgd_momentum", "adam"):
            opt = Optimizer(kind=kind, lr=0.1)
            p = [np.array([1.0, -2.0])]
            opt.step(p, [np.zeros(2)])
            np.testing.assert_array_equal(p[0], [1.0, -2.0])

    def test_adam_first_step_is_minus_lr(self):
        # Bias correction makes the first step lr * sign(g) up to eps.
        opt = Optimizer(kind="adam", lr=1e-3)
        p = [np.array([0.0])]
        opt.step(p, [np.array([1.0])])
        assert p[0][0] == pytest.approx(-1e-3, rel=1e-6)

    def test_sgd_momentum_two_steps(self):
        opt = Optimizer(kind="sgd_momentum", lr=1.0, momentum=0.9)
        p = [np.array([0.0])]
        opt.step(p, [np.array([1.0])])
        opt.step(p, [np.array([1.0])])
        assert p[0][0] == pytest.approx(-2.9, abs=1e-12)

    def test_arrays_update_independently(self):
        # Flat moments: each array's step equals a step on that array alone.
        rng = np.random.default_rng(1)
        shapes = [(3, 4), (4,), (), (2, 1)]
        params = [rng.standard_normal(s) for s in shapes]
        alone = [p.copy() for p in params]
        opts = [Optimizer(kind="adam", lr=0.05) for _ in shapes]
        opt = Optimizer(kind="adam", lr=0.05)
        for _ in range(3):
            grads = [rng.standard_normal(s) for s in shapes]
            opt.step(params, grads)
            for a, o, g in zip(alone, opts, grads):
                o.step([a], [g])
        for p, a in zip(params, alone):
            np.testing.assert_array_equal(p, a)

    def test_nan_gradient_refused_without_mutation(self):
        opt = Optimizer(kind="adam", lr=0.1)
        p = [np.array([1.0]), np.array([2.0])]
        opt.step(p, [np.array([0.5]), np.array([0.5])])
        snap_p = [a.copy() for a in p]
        snap_m = opt.buffers["flat"]["m"].copy()
        snap_v = opt.buffers["flat"]["v"].copy()
        t_before = opt.t
        with pytest.raises(NumericFailure, match="array 1"):
            opt.step(p, [np.array([1.0]), np.array([np.nan])])
        for a, b in zip(p, snap_p):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(opt.buffers["flat"]["m"], snap_m)
        np.testing.assert_array_equal(opt.buffers["flat"]["v"], snap_v)
        assert opt.t == t_before

    def test_refused_first_step_fixes_no_layout(self):
        opt = Optimizer(kind="sgd_momentum", lr=0.1)
        p = [np.zeros((2, 2))]
        with pytest.raises(NumericFailure):
            opt.step(p, [np.full((2, 2), np.inf)])
        assert opt.layout is None and opt.buffers == {} and opt.t == 0
        # A different layout is still free to become the first one.
        opt.step([np.zeros(3)], [np.ones(3)])
        assert opt.layout == [(3,)]

    def test_length_mismatch(self):
        opt = Optimizer()
        with pytest.raises(InvalidArgument, match="2 params but 1 gradients"):
            opt.step([np.zeros(1), np.zeros(1)], [np.zeros(1)])

    def test_shape_mismatch(self):
        opt = Optimizer()
        want = r"gradient shapes \[\(2,\), \(3,\)\] differ from parameter shapes \[\(2,\), \(3, 1\)\]"
        with pytest.raises(InvalidArgument, match=want):
            opt.step([np.zeros(2), np.zeros((3, 1))], [np.zeros(2), np.zeros(3)])
        assert opt.layout is None and opt.t == 0

    def test_layout_mismatch_on_later_step(self):
        opt = Optimizer(kind="adam", lr=0.1)
        p = [np.zeros((2, 3)), np.zeros(3)]
        opt.step(p, [np.ones((2, 3)), np.ones(3)])
        snap_m = opt.buffers["flat"]["m"].copy()
        with pytest.raises(InvalidArgument) as info:
            opt.step([p[0]], [np.ones((2, 3))])
        assert str(info.value) == (
            "parameter layout [(2, 3)] does not match the optimizer's [(2, 3), (3,)]"
        )
        with pytest.raises(InvalidArgument, match="does not match"):
            opt.step([p[1], p[0]], [np.ones(3), np.ones((2, 3))])
        np.testing.assert_array_equal(opt.buffers["flat"]["m"], snap_m)
        assert opt.t == 1

    def test_bad_hyperparams(self):
        with pytest.raises(InvalidArgument):
            Optimizer(kind="rmsprop")
        with pytest.raises(InvalidArgument):
            Optimizer(lr=0.0)

    @pytest.mark.parametrize("kind", ["adam", "sgd_momentum"])
    @pytest.mark.parametrize("setting,message", [
        ({"beta1": 1.0}, "beta1 must be in [0, 1), got 1.0"),
        ({"beta1": 1.5}, "beta1 must be in [0, 1), got 1.5"),
        ({"beta1": -0.1}, "beta1 must be in [0, 1), got -0.1"),
        ({"beta2": 1.0}, "beta2 must be in [0, 1), got 1.0"),
        ({"momentum": 1.0}, "momentum must be in [0, 1), got 1.0"),
        ({"beta2": float("nan")}, "beta2 must be in [0, 1), got nan"),
        ({"eps": 0.0}, "eps must be > 0, got 0.0"),
        ({"eps": -1e-8}, "eps must be > 0, got -1e-08"),
        ({"eps": float("inf")}, "eps must be finite, got inf"),
        ({"lr": float("nan")}, "lr must be finite and > 0, got nan"),
    ])
    def test_decays_and_eps_outside_their_range_refused(self, kind, setting, message):
        with pytest.raises(InvalidArgument) as exc:
            Optimizer(kind=kind, **setting)
        assert str(exc.value) == message
        state = Optimizer(kind=kind).state_dict()
        with pytest.raises(InvalidArgument, match=re.escape(message)):
            Optimizer.from_state_dict({**state, **setting})

    def test_range_ends_accepted(self):
        Optimizer(momentum=0.0, beta1=0.0, beta2=0.0, eps=5e-324)


def _same_bytes(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture(params=[1, 2], ids=["1worker", "2workers"])
def workers(request, set_workers):
    """linalg's worker count for this test. The step sweeps every block on
    the caller whatever the count, so both give the same bytes and refusals."""
    set_workers(request.param)
    return request.param


class TestBlockedUpdate:
    """The block walk against the whole-array expressions it replaced."""

    B = optim._BLOCK
    SHAPES = [(), (3, 4), (B - 1,), (B,), (B + 1,), (2, B + 3), (5,)]
    # W, then 12 arrays of mixed sizes, as the adversarial route passes them.
    ADVERSARIAL = [(512, 512), (), (1,), (B - 1,), (B + 1,), (16, 32), (16,), (1, 16), (B,),
                   (0,), (3, B + 1), (2,), (1,)]

    @pytest.mark.parametrize("kind", ["sgd_momentum", "adam"])
    def test_bit_identical_to_whole_array_update(self, kind, workers):
        rng = np.random.default_rng(40)
        # Mixed scales per array, so m/c1 and sqrt(v/c2) cover many exponents.
        scales = [10.0 ** rng.integers(-6, 4) for _ in self.SHAPES]
        params = [np.array(s * rng.standard_normal(shape))
                  for s, shape in zip(scales, self.SHAPES)]
        want = [p.copy() for p in params]
        opt = Optimizer(kind=kind, lr=0.01)
        ref = Optimizer(kind=kind, lr=0.01)
        for _ in range(20):
            grads = [s * rng.standard_normal(shape) for s, shape in zip(scales, self.SHAPES)]
            opt.step(params, grads)
            whole_array_step(ref, want, grads)
        assert all(_same_bytes(p, w) for p, w in zip(params, want))
        for key, buf in opt.buffers["flat"].items():
            assert _same_bytes(buf, ref.buffers["flat"][key])

    @pytest.mark.parametrize("kind", ["sgd_momentum", "adam"])
    def test_nan_in_last_block_of_last_array_refuses_step(self, kind, workers):
        rng = np.random.default_rng(41)
        shapes = [(7,), (2 * self.B + 10,)]
        params = [rng.standard_normal(s) for s in shapes]
        opt = Optimizer(kind=kind, lr=0.1)
        opt.step(params, [rng.standard_normal(s) for s in shapes])
        snap_p = [p.copy() for p in params]
        snap = {k: v.copy() for k, v in opt.buffers["flat"].items()}
        grads = [rng.standard_normal(s) for s in shapes]
        grads[1][-1] = np.nan
        with pytest.raises(NumericFailure, match="array 1"):
            opt.step(params, grads)
        assert all(_same_bytes(p, s) for p, s in zip(params, snap_p))
        assert all(_same_bytes(opt.buffers["flat"][k], v) for k, v in snap.items())
        assert opt.t == 1

    def test_finite_gradient_with_overflowing_sum_accepted(self):
        g = np.full(2 * self.B + 1, 1e308)
        p = np.zeros_like(g)
        Optimizer(kind="sgd_momentum", lr=1e-10).step([p], [g])
        assert np.all(p == -(1e-10 * 1e308))

    @pytest.mark.parametrize("big", [1e160, -1e160, optim._ADAM_GRAD_BOUND])
    def test_adam_gradient_that_overflows_v_refused_without_mutation(self, big, workers):
        rng = np.random.default_rng(43)
        shapes = [(5,), (self.B + 3,)]
        params = [rng.standard_normal(s) for s in shapes]
        opt = Optimizer(kind="adam", lr=0.1)
        opt.step(params, [rng.standard_normal(s) for s in shapes])
        snap_p = [p.copy() for p in params]
        snap = {k: v.copy() for k, v in opt.buffers["flat"].items()}
        grads = [rng.standard_normal(s) for s in shapes]
        grads[1][self.B + 1] = big
        with pytest.raises(NumericFailure, match=rf"array 1 of shape \({self.B + 3},\) has an "
                                                 r"entry with \|g\| >= 1\.341e\+154"):
            opt.step(params, grads)
        assert all(_same_bytes(p, s) for p, s in zip(params, snap_p))
        assert all(_same_bytes(opt.buffers["flat"][k], v) for k, v in snap.items())
        assert opt.t == 1

    def test_adam_entry_just_below_the_bound_accepted(self):
        # Its square is the largest below bound * bound: the one-pass check
        # passes it, and v stays finite.
        g = np.zeros(self.B + 3)
        g[7] = np.nextafter(optim._ADAM_GRAD_BOUND, 0.0)
        p = np.zeros_like(g)
        opt = Optimizer(kind="adam", lr=0.1)
        opt.step([p], [g])
        assert opt.t == 1 and p[7] == -0.1
        assert np.isfinite(opt.buffers["flat"]["v"]).all()

    def test_adam_entry_at_the_bound_refused(self):
        g = np.zeros(self.B + 3)
        g[7] = -optim._ADAM_GRAD_BOUND
        opt = Optimizer(kind="adam", lr=0.1)
        with pytest.raises(NumericFailure, match=r"array 0 of shape \(24579,\) has an entry "
                                                 r"with \|g\| >= 1\.341e\+154"):
            opt.step([np.zeros_like(g)], [g])
        assert opt.t == 0 and opt.layout is None

    def test_adam_legal_entries_whose_squares_overflow_accepted(self):
        # Each 1e154 is below the bound, but their squares sum past the
        # float maximum: the per-entry check decides, and accepts.
        g = np.full(self.B + 3, 1e154)
        p = np.zeros_like(g)
        opt = Optimizer(kind="adam", lr=0.1)
        with np.errstate(all="raise"):  # the overflowed sum raises no warning either
            opt.step([p], [g])
        assert opt.t == 1 and np.allclose(p, -0.1)
        assert np.isfinite(opt.buffers["flat"]["v"]).all()

    def test_sgd_accepts_a_gradient_adam_refuses(self):
        p = np.zeros(3)
        Optimizer(kind="sgd_momentum", lr=1e-10).step([p], [np.full(3, 1e160)])
        assert np.all(p == -(1e-10 * 1e160))

    def test_large_adam_gradient_checkpoint_round_trips(self, tmp_path):
        # 1e150 squared is finite, so the step is taken and every moment
        # stays finite: the checkpoint that training writes loads again.
        model = init_model(np.random.default_rng(44), 6, GroupPartition((2, 4)))
        opt = Optimizer(kind="adam", lr=0.1)
        g = np.zeros(model.W.shape)
        g[1, 2] = 1e150
        opt.step([model.W], [g])
        path = tmp_path / "big.ckpt"
        save_checkpoint(path, model, iteration=1, optimizer=opt)
        back = load_checkpoint(path)
        assert _same_bytes(back.model.W, model.W)
        for key in ("m", "v"):
            assert _same_bytes(back.optimizer.buffers["flat"][key], opt.buffers["flat"][key])
        assert back.optimizer.t == 1

    @pytest.mark.parametrize("param", [np.zeros((4, 3)).T, np.zeros((4, 3))[:, :2]])
    def test_non_contiguous_parameter_refused(self, param, workers):
        # The block walk updates a flat view of each parameter; a copy would
        # silently drop the update.
        opt = Optimizer(kind="adam", lr=0.1)
        with pytest.raises(InvalidArgument, match="array 1 is not writeable and C-contiguous"):
            opt.step([np.zeros(2), param], [np.ones(2), np.ones(param.shape)])
        assert opt.layout is None and opt.t == 0

    def test_adam_step_allocates_no_array_sized_temporaries(self, workers):
        rng = np.random.default_rng(42)
        W = rng.standard_normal((512, 512))
        opt = Optimizer(kind="adam", lr=1e-3)
        opt.step([W], [rng.standard_normal(W.shape)])  # allocates the moments
        g = rng.standard_normal(W.shape)
        tracemalloc.start()
        try:
            opt.step([W], [g])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One 512 x 512 float64 temporary alone would be 2 MiB; the step
        # holds one pair of f64 scratch blocks, whatever the worker count.
        assert peak < 2 * optim._BLOCK * 8 + 32 * 1024

    def _assert_adversarial_steps_match(self, kind, steps):
        """`steps` seeded steps on the adversarial layout, and the same steps
        taken by `whole_array_step`."""
        rng = np.random.default_rng(45)
        params = [rng.standard_normal(s) for s in self.ADVERSARIAL]
        want = [p.copy() for p in params]
        opt = Optimizer(kind=kind, lr=0.01)
        ref = Optimizer(kind=kind, lr=0.01)
        for _ in range(steps):
            grads = [rng.standard_normal(s) for s in self.ADVERSARIAL]
            opt.step(params, grads)
            whole_array_step(ref, want, grads)
        assert all(_same_bytes(p, w) for p, w in zip(params, want))
        for key, buf in ref.buffers["flat"].items():
            assert _same_bytes(opt.buffers["flat"][key], buf)
        assert opt.t == ref.t == steps

    @pytest.mark.parametrize("kind", ["sgd_momentum", "adam"])
    def test_adversarial_layout_bit_identical(self, kind):
        self._assert_adversarial_steps_match(kind, steps=6)

    @pytest.mark.parametrize("kind", ["sgd_momentum", "adam"])
    def test_two_workers_sweep_every_block_on_the_caller(self, monkeypatch, set_workers, kind):
        set_workers(2)
        monkeypatch.setattr(linalg, "_pool", None)  # submitting to it would fail
        self._assert_adversarial_steps_match(kind, steps=2)

    def test_one_worker_sweeps_every_block_on_the_caller(self, monkeypatch, set_workers):
        set_workers(1)
        real = Optimizer._adam_block
        calls = []

        def spy(self, p, *args):
            calls.append((p.size, threading.current_thread()))
            return real(self, p, *args)

        monkeypatch.setattr(Optimizer, "_adam_block", spy)
        self._assert_adversarial_steps_match("adam", steps=1)
        # Each array's flat view in _BLOCK slices, array by array in list order.
        sizes = [min(self.B, n - lo) for n in (int(np.prod(s)) for s in self.ADVERSARIAL)
                 for lo in range(0, n, self.B)]
        assert calls == [(n, threading.main_thread()) for n in sizes]

    def test_stress_two_workers(self, monkeypatch, set_workers):
        # Small blocks and a short switch interval: a step that handed blocks
        # to another thread, or lost a write, would change the bytes.
        monkeypatch.setattr(optim, "_BLOCK", 64)
        shapes = [(40, 50), (), (63,), (65,), (7, 64)]
        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for count in (1, 2):
                set_workers(count)
                rng = np.random.default_rng(46)
                params = [rng.standard_normal(s) for s in shapes]
                opt = Optimizer(kind="adam", lr=0.01)
                for _ in range(20):
                    opt.step(params, [rng.standard_normal(s) for s in shapes])
                state = [*params, *opt.buffers["flat"].values()]
                runs.append(b"".join(a.tobytes() for a in state))
        finally:
            sys.setswitchinterval(interval)
        assert runs[0] == runs[1]


class TestOverlap:
    """Parameter arrays that share memory take their updates one after the
    other, in list order, as whole-array updates would."""

    @pytest.mark.parametrize("kind", ["sgd_momentum", "adam"])
    @pytest.mark.parametrize("views", [
        lambda base: [base[:4], np.zeros(3), base[2:6]],
        lambda base: [base[:6], base[:6]],
        lambda base: [base[5:7], np.zeros(1), base],
    ], ids=["overlapping", "same_array_twice", "view_inside_larger"])
    def test_overlapping_arrays_update_in_list_order(self, kind, views):
        rng = np.random.default_rng(47)
        base = rng.standard_normal(10)
        want_base = base.copy()
        params, want = views(base), views(want_base)
        opt = Optimizer(kind=kind, lr=0.1)
        ref = Optimizer(kind=kind, lr=0.1)
        for _ in range(3):
            grads = [rng.standard_normal(p.shape) for p in params]
            opt.step(params, grads)
            whole_array_step(ref, want, grads)
        assert _same_bytes(base, want_base)
        assert all(_same_bytes(p, w) for p, w in zip(params, want))
        for key, buf in ref.buffers["flat"].items():
            assert _same_bytes(opt.buffers["flat"][key], buf)

    def test_adjacent_and_empty_views_accepted(self):
        base = np.zeros(8)
        params = [base[4:], base[:4], base[4:4], base[:0]]
        Optimizer(kind="sgd_momentum", lr=1.0, momentum=0.0).step(
            params, [np.full(p.shape, float(k + 1)) for k, p in enumerate(params)])
        np.testing.assert_array_equal(base, [-2.0] * 4 + [-1.0] * 4)


class TestConvergence:
    @pytest.mark.parametrize("kind", ["sgd_momentum", "adam"])
    def test_quadratic(self, kind):
        # f(p) = p^2 / 2, gradient p; drive |p| below 1e-3 from p=1.
        opt = Optimizer(kind=kind, lr=1e-2)
        p = [np.array([1.0])]
        for _ in range(10_000):
            opt.step(p, [p[0].copy()])
            if abs(p[0][0]) < 1e-3:
                break
        assert abs(p[0][0]) < 1e-3


class TestState:
    def test_roundtrip_continues_identically(self):
        rng = np.random.default_rng(0)
        grads = [[rng.standard_normal(3), rng.standard_normal((2, 2))] for _ in range(20)]
        for kind in ("sgd_momentum", "adam"):
            opt1 = Optimizer(kind=kind, lr=0.05)
            p1 = [np.zeros(3), np.zeros((2, 2))]
            for g in grads[:10]:
                opt1.step(p1, g)
            opt2 = Optimizer.from_state_dict(opt1.state_dict())
            assert opt2.layout == opt1.layout == [(3,), (2, 2)]
            p2 = [a.copy() for a in p1]
            for g in grads[10:]:
                opt1.step(p1, g)
                opt2.step(p2, g)
            for a, b in zip(p1, p2):
                np.testing.assert_array_equal(a, b)

    def test_never_stepped_roundtrip(self):
        opt = Optimizer.from_state_dict(Optimizer(kind="adam", lr=0.5).state_dict())
        assert opt.t == 0 and opt.layout is None and opt.buffers == {}
        opt.step([np.zeros(2)], [np.ones(2)])
        assert opt.layout == [(2,)]

    def test_missing_moment_rejected(self):
        state = Optimizer(kind="adam").state_dict()
        state["layout"] = [[2, 2]]
        state["buffers"] = {"flat": {"m": np.zeros(4)}}
        with pytest.raises(KeyError):
            Optimizer.from_state_dict(state)


class TestBenchmarkContract:
    """What the benchmark's tracer and checkpoint check read from an optimizer."""

    def test_params_list_counts_arrays(self, monkeypatch):
        # The tracer counts arrays per step as len(args[1]) of Optimizer.step:
        # W, the backbone's weight and bias, and 4 arrays per regressor.
        calls = []
        real = Optimizer.step

        def spy(self, params, grads):
            calls.append((len(params), len(grads)))
            return real(self, params, grads)

        monkeypatch.setattr(Optimizer, "step", spy)
        fs = synth_gaussian(SynthSpec(classes=4, per_class=4, feature_dim=6, seed=2))
        cfg = TrainConfig(embedding_dim=6, num_groups=3, iterations=1, batch_classes=2,
                          samples_per_class=2, diversity="adversarial", regressor_hidden=3,
                          use_backbone=True)
        run(cfg, fs)
        assert calls == [(1 + 2 + 3 * 4, 1 + 2 + 3 * 4)]

    def test_state_dict_buffers_are_two_level(self):
        opt = Optimizer(kind="adam")
        opt.step([np.zeros(2)], [np.ones(2)])
        state = opt.state_dict()
        for key in ("kind", "lr", "momentum", "beta1", "beta2", "eps", "t"):
            assert key in state
        for name, buf in state["buffers"].items():
            assert isinstance(name, str)
            for key, arr in buf.items():
                assert isinstance(key, str) and isinstance(arr, np.ndarray)
                assert arr is not opt.buffers[name][key]
