"""Dense float64 tensors with reverse-mode gradients.

Small by design: only the operations the contrastive losses and the
recognition head actually need. Everything is double precision so
finite-difference checks can run at tight tolerances.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, ShapeMismatch, ValidationError


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """A numpy array plus an optional gradient and a backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, parents=(), backward=None):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad) or any(
            p.requires_grad for p in parents
        )
        self.grad = None
        self._parents = tuple(parents)
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

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

    # ---- arithmetic -------------------------------------------------

    def __add__(self, other):
        other = as_tensor(other)
        out = Tensor(self.data + other.data, parents=(self, other))

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.shape))

        out._backward = backward
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Tensor(-self.data, parents=(self,))

        def backward(g):
            if self.requires_grad:
                self._accumulate(-g)

        out._backward = backward
        return out

    def __sub__(self, other):
        return self + (-as_tensor(other))

    def __mul__(self, other):
        other = as_tensor(other)
        out = Tensor(self.data * other.data, parents=(self, other))

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.shape))

        out._backward = backward
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * as_tensor(other) ** -1.0

    def __pow__(self, exponent: float):
        out = Tensor(self.data ** exponent, parents=(self,))

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * exponent * self.data ** (exponent - 1.0))

        out._backward = backward
        return out

    # ---- elementwise functions --------------------------------------

    # Closures capture output arrays, never the output Tensor: a closure
    # holding `out` is a reference cycle that only the cyclic GC frees.

    def relu(self):
        out = Tensor(np.maximum(self.data, 0.0), parents=(self,))

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * (self.data > 0.0))

        out._backward = backward
        return out

    # ---- reductions --------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        out = Tensor(self.data.sum(axis=axis, keepdims=keepdims), parents=(self,))

        def backward(g):
            if not self.requires_grad:
                return
            if axis is None:
                self._accumulate(np.broadcast_to(g, self.shape).copy())
            else:
                gg = g if keepdims else np.expand_dims(g, axis)
                self._accumulate(np.broadcast_to(gg, self.shape).copy())

        out._backward = backward
        return out

    def mean(self, axis=None, keepdims=False):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def max(self, axis=None, keepdims=False):
        out_data = self.data.max(axis=axis, keepdims=keepdims)
        out = Tensor(out_data, parents=(self,))

        def backward(g):
            if not self.requires_grad:
                return
            full = out_data if keepdims or axis is None else np.expand_dims(
                out_data, axis
            )
            mask = (self.data == full).astype(np.float64)
            mask /= mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            gg = g if keepdims or axis is None else np.expand_dims(g, axis)
            self._accumulate(mask * gg)

        out._backward = backward
        return out

    # ---- shape manipulation ------------------------------------------

    def reshape(self, *shape):
        out = Tensor(self.data.reshape(*shape), parents=(self,))

        def backward(g):
            if self.requires_grad:
                self._accumulate(g.reshape(self.shape))

        out._backward = backward
        return out

    def __getitem__(self, index):
        out = Tensor(self.data[index], parents=(self,))

        def backward(g):
            if self.requires_grad:
                np.add.at(self._grad_buffer(), index, g)

        out._backward = backward
        return out


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def grad_node(data, parents: tuple, write_grads) -> Tensor:
    """A tape node whose backward calls write_grads(g, out), `out` holding
    a fresh array per parent that requires a gradient (None for the
    others), and adds each array into its parent's gradient."""

    def backward(g):
        out = [np.empty(p.shape) if p.requires_grad else None
               for p in parents]
        write_grads(g, out)
        for p, grad in zip(parents, out):
            if grad is not None:
                p._accumulate(grad)

    return Tensor(data, parents=parents, backward=backward)


# ---- linear algebra ----------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of 2-D operands, or batched over the leading axis
    of 3-D operands with equal batch extents."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim not in (2, 3) or b.ndim != a.ndim \
            or a.shape[-1] != b.shape[-2] or a.shape[:-2] != b.shape[:-2]:
        raise ShapeMismatch(
            f"matmul: incompatible shapes {a.shape} x {b.shape}"
        )
    out = Tensor(a.data @ b.data, parents=(a, b))

    def backward(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.swapaxes(-1, -2))
        if b.requires_grad:
            b._accumulate(a.data.swapaxes(-1, -2) @ g)

    out._backward = backward
    return out


# ---- neural-net building blocks -----------------------------------------


def softmax_forward(x: np.ndarray, axis: int) -> np.ndarray:
    """Numerically stable softmax along `axis` (max-subtracted) on arrays."""
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def softmax_backward(p: np.ndarray, g: np.ndarray, axis: int) -> np.ndarray:
    """The input gradient of a softmax with output p for upstream g:
    p * (g - sum(g * p)) along `axis`."""
    return p * (g - (g * p).sum(axis=axis, keepdims=True))


def softmax(x: Tensor, axis: int) -> Tensor:
    """`softmax_forward` as one tape node over `softmax_backward`."""
    x = as_tensor(x)
    if not -x.ndim <= axis < x.ndim:
        raise ValidationError(
            f"softmax: axis {axis} invalid for shape {x.shape}"
        )
    p = softmax_forward(x.data, axis)

    def backward(g):
        if x.requires_grad:
            x._accumulate(softmax_backward(p, g, axis))

    return Tensor(p, parents=(x,), backward=backward)


def normalize_rows(x: np.ndarray, eps: float = 1e-5):
    """(x with its last axis shifted to zero mean and scaled to unit
    variance, the inverse deviations), normalized in place in one
    buffer."""
    d = x.shape[-1]
    xh = x - x.sum(axis=-1, keepdims=True) * (1.0 / d)
    inv = ((xh * xh).sum(axis=-1, keepdims=True) * (1.0 / d) + eps) ** -0.5
    xh *= inv
    return xh, inv


def layer_norm_forward(x: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                       eps: float = 1e-5):
    """(`normalize_rows(x)` times gain plus bias, the cache
    `layer_norm_backward` reads) on arrays."""
    xh, inv = normalize_rows(x, eps)
    out = xh * gain
    out += bias
    return out, (xh, inv, gain)


def layer_norm_backward(cache, g: np.ndarray, out):
    """Write the gradients of (x, gain, bias) for upstream g over the
    arrays in `out`, skipping a None. With normalized rows xh, inverse
    deviations r and upstream g, bias receives sum(g), gain receives
    sum(g * xh), and through gx = g * gain the input receives
    r * (gx - mean(gx) - xh * mean(gx * xh)) per row."""
    xh, inv, gain = cache
    gx, ggain, gbias = out
    d = xh.shape[-1]
    if gbias is not None:
        np.sum(g.reshape(-1, d), axis=0, out=gbias)
    if ggain is not None:
        np.sum((g * xh).reshape(-1, d), axis=0, out=ggain)
    if gx is not None:
        np.multiply(g, gain, out=gx)
        along_xh = (gx * xh).sum(axis=-1, keepdims=True) * (1.0 / d)
        gx -= gx.sum(axis=-1, keepdims=True) * (1.0 / d)
        gx -= xh * along_xh
        gx *= inv


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine,
    as one tape node over `layer_norm_forward` and
    `layer_norm_backward`."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeMismatch(
            f"layer_norm: gain {gain.shape} / bias {bias.shape} "
            f"must match last axis ({d},)"
        )
    out, cache = layer_norm_forward(x.data, gain.data, bias.data, eps)
    return grad_node(out, (x, gain, bias),
                     lambda g, grads: layer_norm_backward(cache, g, grads))


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


def cosine_sim_matrix(a: Tensor, b: Tensor) -> Tensor:
    """Pairwise cosine similarities between rows of `a` and rows of `b`,
    as one tape node over `cosine_sim_forward` and `cosine_sim_backward`.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ShapeMismatch(
            f"cosine_sim_matrix: incompatible shapes {a.shape} vs {b.shape}"
        )
    S, cache = cosine_sim_forward(a.data, b.data)
    return grad_node(S, (a, b),
                     lambda g, out: cosine_sim_backward(cache, g, out))


def cross_entropy_forward(p: np.ndarray, y):
    """(-log p[y] on probability rows, floored at 1e-12, the cache
    `cross_entropy_backward` reads) on arrays.

    `p` may be a single row or a batch; a batch is averaged.
    """
    rows = p.reshape(1, -1) if p.ndim == 1 else p
    labels = np.atleast_1d(np.asarray(y, dtype=np.int64))
    n, c = rows.shape
    if labels.shape != (n,):
        raise ShapeMismatch(
            f"cross_entropy: {labels.shape[0]} labels for {n} rows"
        )
    if labels.min() < 0 or labels.max() >= c:
        raise ValidationError(
            f"cross_entropy: label out of range [0, {c}): {labels.tolist()}"
        )
    sums = rows.sum(axis=1)
    if np.abs(sums - 1.0).max() > 1e-6:
        raise ValidationError(
            "cross_entropy: input rows are not probability vectors"
        )
    index = (np.arange(n), labels)
    picked = rows[index]
    floored = np.maximum(picked, 1e-12)
    return (-(np.log(floored).sum() * (1.0 / n)),
            (p.shape, rows.shape, index, picked, floored))


def cross_entropy_backward(cache, g) -> np.ndarray:
    """The gradient of the probability rows for upstream g. With the
    picked probabilities q = p[i, y_i], floored to q', p[i, y_i]
    receives (-g / n) / q' where q is above the floor and every other
    entry nothing."""
    shape, rows_shape, index, picked, floored = cache
    grad = np.zeros(rows_shape)
    grad[index] = (-g * (1.0 / rows_shape[0])) / floored * (picked > 1e-12)
    return grad.reshape(shape)


def cross_entropy(p: Tensor, y) -> Tensor:
    """`cross_entropy_forward` as one tape node over
    `cross_entropy_backward`."""
    p = as_tensor(p)
    value, cache = cross_entropy_forward(p.data, y)

    def backward(g):
        if p.requires_grad:
            p._accumulate(cross_entropy_backward(cache, g))

    return Tensor(value, parents=(p,), backward=backward)
