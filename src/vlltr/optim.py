"""AdamW with decoupled weight decay, plus the cosine learning-rate schedule."""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .tensor import Tensor

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def cosine_lr(peak_lr: float, step: int, total_steps: int) -> float:
    """Half-cosine decay from peak_lr at step 0 to 0 at total_steps."""
    if not 0 <= step <= total_steps:
        raise ValidationError(
            f"cosine_lr: step {step} outside [0, {total_steps}]")
    return 0.5 * peak_lr * (1.0 + math.cos(math.pi * step / total_steps))


def schedule(n_samples: int, batch: int, epochs: int) -> tuple[int, int]:
    """(steps per epoch, total steps) of `epochs` passes over `n_samples`
    in batches of `batch`, each at least 1."""
    steps_per_epoch = max(1, math.ceil(n_samples / batch))
    return steps_per_epoch, max(1, epochs * steps_per_epoch)


class AdamW:
    """Decoupled-weight-decay Adam over a name -> Tensor parameter dict.

    All parameters live in one flat float64 buffer: at construction each
    `p.data` is copied in and rebound to a view of it, so a step is a
    fixed handful of in-place ufuncs over every parameter at once, with
    the same per-element arithmetic as a step tensor by tensor. The
    gradients live in a second flat buffer: `zero_grad` zeroes it and
    binds each `p.grad` to its view, so backward passes add straight
    into it (and `pretrain.pretrain_step` writes over it). Whatever
    changes a parameter or its gradient writes into these views in place
    (`checkpoint.load_params` does); `step` refuses any other array.
    """

    def __init__(self, params: dict[str, Tensor], weight_decay: float):
        self.params = dict(params)
        owner = {}
        for name, p in self.params.items():
            if id(p) in owner:
                raise ValidationError(
                    f"AdamW: '{owner[id(p)]}' and '{name}' are the same "
                    f"tensor")
            owner[id(p)] = name
        self.weight_decay = weight_decay
        self.step_count = 0
        size = sum(p.data.size for p in self.params.values())
        self._p, self._g, self._m, self._v, self._tmp, self._upd = (
            np.zeros(size) for _ in range(6))
        # (name, tensor, parameter view, gradient view) per parameter
        self._slots = []
        start = 0
        for name, p in self.params.items():
            end = start + p.data.size
            view = self._p[start:end].reshape(p.data.shape)
            view[...] = p.data
            p.data = view
            self._slots.append(
                (name, p, view, self._g[start:end].reshape(view.shape)))
            start = end

    def zero_grad(self):
        self._g.fill(0.0)
        for _, p, _, g_view in self._slots:
            p.grad = g_view

    def step(self, lr: float):
        for name, p, view, g_view in self._slots:
            if p.data is not view or p.grad is not g_view:
                field = ".data" if p.data is not view else ".grad"
                raise ValidationError(
                    f"AdamW: parameter '{name}': {field} is not the view "
                    f"AdamW bound (write into it in place)")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        p, g, m, v = self._p, self._g, self._m, self._v
        tmp, upd = self._tmp, self._upd
        # m = b1*m + (1-b1)*g; v = b2*v + ((1-b2)*g)*g
        m *= BETA1
        np.multiply(g, 1.0 - BETA1, out=tmp)
        m += tmp
        v *= BETA2
        np.multiply(g, 1.0 - BETA2, out=tmp)
        tmp *= g
        v += tmp
        p *= 1.0 - lr * self.weight_decay
        # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
        np.divide(v, bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += EPS
        np.divide(m, bc1, out=upd)
        upd *= lr
        upd /= tmp
        p -= upd
