"""Parameters, the nodes of the fine-tuning tape, and the array
forward/backward pairs that the losses and the heads are built from.

Everything is double precision so finite-difference checks can run at
tight tolerances.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, ShapeMismatch, ValidationError

EPS = 1e-5   # added to the variance that `normalize_rows` divides by


class Tensor:
    """A numpy array plus an optional gradient and a backward closure: a
    parameter, or a node of the fine-tuning tape that `grad_node`
    builds."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad) or any(
            p.requires_grad for p in parents
        )
        self.grad = None
        self._parents = tuple(parents)
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    def _grad_buffer(self) -> np.ndarray:
        """The gradient array for in-place adds, zeros on first use."""
        if self.grad is None:
            self.grad = np.zeros(self.data.shape)
        return self.grad

    def _accumulate(self, g: np.ndarray):
        self._grad_buffer()
        self.grad += g

    def backward(self):
        if self.data.size != 1:
            raise ValidationError("backward() requires a scalar output")
        if not np.isfinite(self.data).all():
            raise NumericError("backward() called on a non-finite value")
        # Depth-first post-order, parents before children. Iterative: a
        # recursive closure would refer to itself, a reference cycle that
        # keeps the whole graph alive until the cyclic GC runs.
        order, seen, stack = [], set(), [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
            elif id(node) not in seen:
                seen.add(id(node))
                stack.append((node, True))
                stack.extend((p, False) for p in reversed(node._parents))
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.requires_grad:
                node._backward(node.grad)


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def grad_node(data, parents: tuple, write_grads) -> Tensor:
    """A tape node whose backward calls write_grads(g, out), `out` holding
    a fresh array per parent, and adds each array into its parent's
    gradient where the parent requires one."""

    def backward(g):
        out = [np.empty(p.shape) for p in parents]
        write_grads(g, out)
        for p, grad in zip(parents, out):
            if p.requires_grad:
                p._accumulate(grad)

    return Tensor(data, parents=parents, backward=backward)


# ---- neural-net building blocks -----------------------------------------


def softmax_forward(x: np.ndarray, axis: int) -> np.ndarray:
    """Numerically stable softmax along `axis` (max-subtracted) on arrays."""
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def softmax_backward(p: np.ndarray, g: np.ndarray, axis: int) -> np.ndarray:
    """The input gradient of a softmax with output p for upstream g:
    p * (g - sum(g * p)) along `axis`."""
    return p * (g - (g * p).sum(axis=axis, keepdims=True))


def normalize_rows(x: np.ndarray):
    """(x with its last axis shifted to zero mean and scaled to unit
    variance, the inverse deviations), normalized in place in one
    buffer."""
    d = x.shape[-1]
    xh = x - x.sum(axis=-1, keepdims=True) * (1.0 / d)
    inv = ((xh * xh).sum(axis=-1, keepdims=True) * (1.0 / d) + EPS) ** -0.5
    xh *= inv
    return xh, inv


def layer_norm_forward(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """(`normalize_rows(x)` times gain plus bias, the cache
    `layer_norm_backward` reads) on arrays."""
    xh, inv = normalize_rows(x)
    out = xh * gain
    out += bias
    return out, (xh, inv, gain)


def layer_norm_backward(cache, g: np.ndarray, out):
    """Write the gradients of (x, gain, bias) for upstream g over the
    arrays in `out`. With normalized rows xh, inverse deviations r and
    upstream g, bias receives sum(g), gain receives sum(g * xh), and
    through gx = g * gain the input receives
    r * (gx - mean(gx) - xh * mean(gx * xh)) per row."""
    xh, inv, gain = cache
    gx, ggain, gbias = out
    d = xh.shape[-1]
    np.sum(g.reshape(-1, d), axis=0, out=gbias)
    np.sum((g * xh).reshape(-1, d), axis=0, out=ggain)
    np.multiply(g, gain, out=gx)
    along_xh = (gx * xh).sum(axis=-1, keepdims=True) * (1.0 / d)
    gx -= gx.sum(axis=-1, keepdims=True) * (1.0 / d)
    gx -= xh * along_xh
    gx *= inv


def unit_rows(x: np.ndarray, operand: str):
    """(x with each row scaled to unit length, the (N, 1) inverse row
    norms); a zero row is a ValidationError naming `operand`, which
    names the calling function and its operand."""
    sq = (x * x).sum(axis=1, keepdims=True)
    if not sq.all():
        raise ValidationError(
            f"{operand}: zero-norm row {int(np.flatnonzero(sq == 0.0)[0])}")
    inv = sq ** -0.5
    return x * inv, inv


def cosine_sim_forward(a: np.ndarray, b: np.ndarray):
    """(the pairwise cosine similarities of the rows of `a` and `b`, the
    cache `cosine_sim_backward` reads) on arrays."""
    na, inv_a = unit_rows(a, "cosine_sim_forward operand a")
    nb, inv_b = unit_rows(b, "cosine_sim_forward operand b")
    return na @ nb.T, (na, inv_a, nb, inv_b)


def cosine_sim_backward(cache, g: np.ndarray, out):
    """Write the gradients of (a, b) for upstream G over the arrays in
    `out`, skipping a None. With unit rows na, nb the gradient of `a` is
    (G nb - na * rowsum(na * G nb)) / |a|, and likewise for `b` with
    G^T na."""
    na, inv_a, nb, inv_b = cache
    for unit, inv, g_unit, o in ((na, inv_a, lambda: g @ nb, out[0]),
                                 (nb, inv_b, lambda: g.T @ na, out[1])):
        if o is not None:
            g_unit = g_unit()
            np.multiply(inv, g_unit - unit * (g_unit * unit).sum(
                axis=1, keepdims=True), out=o)


def cross_entropy_forward(p: np.ndarray, y):
    """(-log p[y] averaged over the (N, C) probability rows `p`, each
    term floored at 1e-12, the cache `cross_entropy_backward` reads) on
    arrays."""
    labels = np.atleast_1d(np.asarray(y, dtype=np.int64))
    n, c = p.shape
    if labels.shape != (n,):
        raise ShapeMismatch(
            f"cross_entropy: {labels.shape[0]} labels for {n} rows"
        )
    if labels.min() < 0 or labels.max() >= c:
        raise ValidationError(
            f"cross_entropy: label out of range [0, {c}): {labels.tolist()}"
        )
    sums = p.sum(axis=1)
    if np.abs(sums - 1.0).max() > 1e-6:
        raise ValidationError(
            "cross_entropy: input rows are not probability vectors"
        )
    index = (np.arange(n), labels)
    picked = p[index]
    floored = np.maximum(picked, 1e-12)
    return (-(np.log(floored).sum() * (1.0 / n)),
            (p.shape, index, picked, floored))


def cross_entropy_backward(cache, g) -> np.ndarray:
    """The gradient of the probability rows for upstream g. With the
    picked probabilities q = p[i, y_i], floored to q', p[i, y_i]
    receives (-g / n) / q' where q is above the floor and every other
    entry nothing."""
    shape, index, picked, floored = cache
    grad = np.zeros(shape)
    grad[index] = (-g * (1.0 / shape[0])) / floored * (picked > 1e-12)
    return grad
