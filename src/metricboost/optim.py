"""SGD with momentum and ADAM over an ordered list of arrays, updated in place."""

import numpy as np

from .errors import InvalidArgument, NumericFailure

# Moment vectors each kind keeps, in payload order.
MOMENTS = {"sgd_momentum": ("vel",), "adam": ("m", "v")}


class Optimizer:
    """Single-owner update rule over a fixed list of parameter arrays.

    sgd_momentum:  v <- mu v + g;  p <- p - lr v
    adam:          bias-corrected moments, p <- p - lr m_hat / (sqrt(v_hat) + eps)

    Each moment is one flat f64 vector in `buffers["flat"]`, sliced per
    array in list order. The first step fixes the list of shapes (`layout`);
    every later step must pass arrays of those shapes in that order.
    """

    def __init__(self, kind="adam", lr=1e-3, momentum=0.9,
                 beta1=0.9, beta2=0.999, eps=1e-8):
        if kind not in MOMENTS:
            raise InvalidArgument(f"unknown optimizer kind {kind!r}")
        if lr <= 0:
            raise InvalidArgument("lr must be > 0")
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

        Shapes and gradients are checked before any state is touched: a
        mismatch or a NaN/Inf gradient refuses the whole step and leaves
        parameters, moments, `t` and the layout exactly as they were.
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
        for k, g in enumerate(grads):
            if not np.all(np.isfinite(g)):
                raise NumericFailure(
                    f"non-finite gradient for array {k} of shape {g.shape}; step refused"
                )
        if self.layout is None:
            size = sum(p.size for p in params)
            self.buffers = {"flat": {key: np.zeros(size) for key in MOMENTS[self.kind]}}
            self.layout = layout
        flat = self.buffers["flat"]
        self.t += 1
        off = 0
        if self.kind == "sgd_momentum":
            for p, g in zip(params, grads):
                vel = flat["vel"][off:off + p.size].reshape(p.shape)
                off += p.size
                vel *= self.momentum
                vel += g
                p -= self.lr * vel
        else:
            c1 = 1.0 - self.beta1 ** self.t
            c2 = 1.0 - self.beta2 ** self.t
            for p, g in zip(params, grads):
                m = flat["m"][off:off + p.size].reshape(p.shape)
                v = flat["v"][off:off + p.size].reshape(p.shape)
                off += p.size
                m *= self.beta1
                m += (1.0 - self.beta1) * g
                v *= self.beta2
                v += (1.0 - self.beta2) * g ** 2
                p -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)

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
        without a copy; a missing moment raises KeyError."""
        opt = cls(
            kind=state["kind"], lr=state["lr"], momentum=state["momentum"],
            beta1=state["beta1"], beta2=state["beta2"], eps=state["eps"],
        )
        opt.t = int(state["t"])
        if state["layout"] is not None:
            opt.layout = [tuple(shape) for shape in state["layout"]]
            flat = state["buffers"]["flat"]
            opt.buffers = {"flat": {key: np.require(flat[key], np.float64, ["C", "W"])
                                    for key in MOMENTS[opt.kind]}}
        return opt
