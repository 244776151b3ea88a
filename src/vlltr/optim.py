"""AdamW with decoupled weight decay, plus the cosine learning-rate schedule."""

from __future__ import annotations

import math

import numpy as np

from .errors import ShapeMismatch, ValidationError
from .tensor import Tensor


def cosine_lr(base_lr: float, step: int, total_steps: int) -> float:
    """Half-cosine decay from base_lr at step 0 to 0 at total_steps."""
    if not 0 <= step <= total_steps:
        raise ValidationError(
            f"cosine_lr: step {step} outside [0, {total_steps}]")
    return 0.5 * base_lr * (1.0 + math.cos(math.pi * step / total_steps))


class AdamW:
    """Decoupled-weight-decay Adam over a name -> Tensor parameter dict.

    All parameters live in one flat float64 buffer: at construction each
    `p.data` is copied in and rebound to a view of it, so a step is a
    fixed handful of in-place ufuncs over every parameter at once, with
    the same per-element arithmetic as a step tensor by tensor. A
    parameter whose `.data` was replaced since (a checkpoint load, say)
    is copied back in and rebound at the next step.

    The gradients live in a second flat buffer: `zero_grad` zeroes it and
    binds each `p.grad` to its view, so backward passes add straight
    into it (and `pretrain.pretrain_step` writes over it). A gradient
    that is None or another array at `step` is zero-filled or copied in.
    """

    def __init__(self, params: dict[str, Tensor], base_lr: float,
                 weight_decay: float = 0.05, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = dict(params)
        owner = {}
        for name, p in self.params.items():
            if id(p) in owner:
                raise ValidationError(
                    f"AdamW: '{owner[id(p)]}' and '{name}' are the same "
                    f"tensor")
            owner[id(p)] = name
        self.base_lr = base_lr
        self.weight_decay = weight_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
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

    def step(self, lr: float | None = None):
        lr = self.base_lr if lr is None else lr
        for name, p, view, g_view in self._slots:
            if p.data is not view:
                if np.shape(p.data) != view.shape:
                    raise ShapeMismatch(
                        f"AdamW: parameter '{name}' was replaced by shape "
                        f"{np.shape(p.data)}, expected {view.shape}")
                view[...] = p.data
                p.data = view
            g = p.grad
            if g is g_view:
                continue
            if g is None:
                g_view.fill(0.0)
            elif g.shape != view.shape:
                raise ShapeMismatch(
                    f"AdamW: gradient shape {g.shape} != parameter "
                    f"shape {view.shape} for '{name}'"
                )
            else:
                g_view[...] = g
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        p, g, m, v = self._p, self._g, self._m, self._v
        tmp, upd = self._tmp, self._upd
        # m = b1*m + (1-b1)*g; v = b2*v + ((1-b2)*g)*g
        m *= self.beta1
        np.multiply(g, 1.0 - self.beta1, out=tmp)
        m += tmp
        v *= self.beta2
        np.multiply(g, 1.0 - self.beta2, out=tmp)
        tmp *= g
        v += tmp
        if self.weight_decay:
            p *= 1.0 - lr * self.weight_decay
        # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
        np.divide(v, bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += self.eps
        np.divide(m, bc1, out=upd)
        upd *= lr
        upd /= tmp
        p -= upd
