"""SGD with momentum and ADAM over an ordered list of arrays, updated in place."""

import numpy as np

from .errors import InvalidArgument, NumericFailure

# Moment vectors each kind keeps, in payload order.
MOMENTS = {"sgd_momentum": ("vel",), "adam": ("m", "v")}

# Elements per update block. The update is elementwise, so the block size
# moves no float bit; it bounds a step's scratch at two f64 blocks, 384 KiB.
# Adam on 512 x 512 with one BLAS thread on 2 vCPUs took 2.3 ms a step, and
# blocks of 24576 and 32768 ran within 2% of each other.
_BLOCK = 24576

# Largest |g| an Adam step accepts: g * g must stay finite.
_ADAM_GRAD_BOUND = float(np.sqrt(np.finfo(np.float64).max))


def _is_count(value):
    """An int >= 0; a bool is not a count."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


class Optimizer:
    """Single-owner update rule over a fixed list of parameter arrays.

    sgd_momentum:  v <- mu v + g;  p <- p - lr v
    adam:          bias-corrected moments, p <- p - lr m_hat / (sqrt(v_hat) + eps)

    Each moment is one flat f64 vector in `buffers["flat"]`, sliced per
    array in list order. The first step fixes the list of shapes (`layout`);
    every later step must pass arrays of those shapes in that order.

    A step walks each array's flat view in blocks of _BLOCK elements, in
    list order on the calling thread, and evaluates the update expressions
    on each block in their usual order with `out=` into one pair of
    block-sized scratch arrays, so it allocates no array-sized temporaries.
    """

    def __init__(self, kind="adam", lr=1e-3, momentum=0.9,
                 beta1=0.9, beta2=0.999, eps=1e-8):
        if kind not in MOMENTS:
            raise InvalidArgument(f"unknown optimizer kind {kind!r}")
        # Each check passes only inside its range, so NaN fails it too. An
        # infinite lr writes inf or NaN into p; a decay of 1 or more zeroes
        # Adam's bias correction 1 - beta^t, or grows the moments without
        # bound; eps = 0 divides 0 by 0 wherever a gradient entry has been 0
        # on every step so far, and eps = inf makes every update 0.
        if not 0.0 < lr < np.inf:
            raise InvalidArgument(f"lr must be finite and > 0, got {lr!r}")
        for name, value in (("momentum", momentum), ("beta1", beta1), ("beta2", beta2)):
            if not 0.0 <= value < 1.0:
                raise InvalidArgument(f"{name} must be in [0, 1), got {value!r}")
        if not eps > 0:
            raise InvalidArgument(f"eps must be > 0, got {eps!r}")
        if eps == np.inf:
            raise InvalidArgument("eps must be finite, got inf")
        self.kind = kind
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.t = 0
        self.layout = None
        self.buffers = {}

    def step(self, params, grads):
        """One update over equal-length lists of arrays; params mutate in place.

        Shapes, gradients and parameters are checked before any state is
        touched: a mismatch, a NaN/Inf gradient (for Adam, also an entry with
        |g| >= sqrt(float64 max), whose square overflows v) or a parameter
        array that is not writeable and C-contiguous refuses the whole step
        and leaves parameters, moments, `t` and the layout exactly as they
        were.
        """
        if len(params) != len(grads):
            raise InvalidArgument(f"{len(params)} params but {len(grads)} gradients")
        layout = [p.shape for p in params]
        if [g.shape for g in grads] != layout:
            raise InvalidArgument(
                f"gradient shapes {[g.shape for g in grads]} differ from parameter shapes {layout}"
            )
        if self.layout is not None and layout != self.layout:
            raise InvalidArgument(
                f"parameter layout {layout} does not match the optimizer's {self.layout}"
            )
        # NaN fails both comparisons. Adam squares g into v, which overflows
        # to inf once |g| reaches sqrt(max); a checkpoint would then hold it.
        # The reductions allocate nothing; isfinite runs only on failure.
        bound = _ADAM_GRAD_BOUND if self.kind == "adam" else np.inf
        for k, g in enumerate(grads):
            if np.max(g, initial=-np.inf) < bound and np.min(g, initial=np.inf) > -bound:
                continue
            if np.isfinite(g).all():
                raise NumericFailure(
                    f"gradient for array {k} of shape {g.shape} has an entry with "
                    f"|g| >= {bound:.3e}, which overflows Adam's v; step refused"
                )
            raise NumericFailure(
                f"non-finite gradient for array {k} of shape {g.shape}; step refused"
            )
        for k, p in enumerate(params):
            if not (p.flags.c_contiguous and p.flags.writeable):
                raise InvalidArgument(f"parameter array {k} is not writeable and C-contiguous")
        if self.layout is None:
            size = sum(p.size for p in params)
            self.buffers = {"flat": {key: np.zeros(size) for key in MOMENTS[self.kind]}}
            self.layout = layout
        moments = [self.buffers["flat"][key] for key in MOMENTS[self.kind]]
        update = self._sgd_block if self.kind == "sgd_momentum" else self._adam_block
        self.t += 1
        width = min(_BLOCK, max((p.size for p in params), default=0))
        a, b = np.empty(width), np.empty(width)
        off = 0
        for p, g in zip(params, grads):
            flat_p, flat_g = p.reshape(-1), g.reshape(-1)
            for lo in range(0, p.size, _BLOCK):
                hi = min(lo + _BLOCK, p.size)
                update(flat_p[lo:hi], flat_g[lo:hi],
                       *[mom[off + lo:off + hi] for mom in moments], a[:hi - lo], b[:hi - lo])
            off += p.size

    def _sgd_block(self, p, g, vel, a, _):
        """vel <- mu vel + g;  p <- p - lr vel, with scratch `a`."""
        vel *= self.momentum
        vel += g
        np.multiply(self.lr, vel, out=a)
        p -= a

    def _adam_block(self, p, g, m, v, a, b):
        """Both moment updates, then p <- p - lr (m / c1) / (sqrt(v / c2) + eps),
        with scratch `a` and `b`."""
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        m *= self.beta1
        np.multiply(1.0 - self.beta1, g, out=a)
        m += a
        v *= self.beta2
        np.square(g, out=a)
        np.multiply(1.0 - self.beta2, a, out=a)
        v += a
        np.divide(m, c1, out=a)
        np.multiply(self.lr, a, out=a)
        np.divide(v, c2, out=b)
        np.sqrt(b, out=b)
        b += self.eps
        a /= b
        p -= a

    def state_dict(self):
        return {
            "kind": self.kind,
            "lr": self.lr,
            "momentum": self.momentum,
            "beta1": self.beta1,
            "beta2": self.beta2,
            "eps": self.eps,
            "t": self.t,
            "layout": None if self.layout is None else list(self.layout),
            "buffers": {
                name: {k: arr.copy() for k, arr in buf.items()}
                for name, buf in self.buffers.items()
            },
        }

    @classmethod
    def from_state_dict(cls, state):
        """Inverse of `state_dict()`. Writable f64 moment vectors are adopted
        without a copy; a missing moment raises KeyError. A step count or
        layout that is not made of ints >= 0 raises InvalidArgument."""
        opt = cls(
            kind=state["kind"], lr=state["lr"], momentum=state["momentum"],
            beta1=state["beta1"], beta2=state["beta2"], eps=state["eps"],
        )
        if not _is_count(state["t"]):
            raise InvalidArgument(f"step count t must be an int >= 0, got {state['t']!r}")
        opt.t = state["t"]
        layout = state["layout"]
        if layout is not None:
            for shape in layout:
                if not (isinstance(shape, (list, tuple)) and all(map(_is_count, shape))):
                    raise InvalidArgument(f"layout shape {shape!r} is not a list of ints >= 0")
            opt.layout = [tuple(shape) for shape in layout]
            flat = state["buffers"]["flat"]
            opt.buffers = {"flat": {key: np.require(flat[key], np.float64, ["C", "W"])
                                    for key in MOMENTS[opt.kind]}}
        return opt

