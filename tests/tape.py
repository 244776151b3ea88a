"""The general autograd tape, kept as a test oracle.

`Tensor` extends the package's node with arithmetic, reduction, shape
and indexing operators; the other operand may be a plain package
parameter. `matmul` and the tape ops `softmax`, `layer_norm`,
`cosine_sim_matrix` and `cross_entropy` wrap the package's array pairs
as one node each. The package itself runs only fine-tuning's two-node
tape; the composite oracles and the tests that compare against them are
built from these. `gradcheck` checks a function of tape Tensors through
`check_gradients`.
"""

from __future__ import annotations

import numpy as np

from vlltr import tensor
from vlltr.errors import NumericError, ShapeMismatch, ValidationError
from vlltr.gradcheck import GradCheckReport, check_gradients
from vlltr.tensor import (cosine_sim_backward, cosine_sim_forward,
                          cross_entropy_backward, cross_entropy_forward,
                          grad_node, layer_norm_backward, layer_norm_forward,
                          softmax_backward, softmax_forward)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor(tensor.Tensor):
    """A package tape node with operators."""

    __slots__ = ()

    @property
    def ndim(self):
        return self.data.ndim

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
        return self * power(as_tensor(other), -1.0)

    def __pow__(self, exponent: float):
        return power(self, exponent)

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
        out = Tensor(self.data.sum(axis=axis, keepdims=keepdims),
                     parents=(self,))

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
            mask /= mask.sum(axis=axis, keepdims=True) if axis is not None \
                else mask.sum()
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
        return take(self, index)


def power(x, exponent: float) -> Tensor:
    """x ** exponent, elementwise."""
    out = Tensor(x.data ** exponent, parents=(x,))

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * exponent * x.data ** (exponent - 1.0))

    out._backward = backward
    return out


def take(x, index) -> Tensor:
    """x[index]; `x` may be a package parameter."""
    out = Tensor(x.data[index], parents=(x,))

    def backward(g):
        if x.requires_grad:
            np.add.at(x._grad_buffer(), index, g)

    out._backward = backward
    return out


def as_tensor(x) -> tensor.Tensor:
    return x if isinstance(x, tensor.Tensor) else Tensor(x)


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def _node(data, parents, write_grads) -> Tensor:
    """`tensor.grad_node` as a tape Tensor."""
    node = grad_node(data, parents, write_grads)
    return Tensor(node.data, parents=node._parents, backward=node._backward)


# ---- the five tape ops ---------------------------------------------------


def matmul(a, b) -> Tensor:
    """Matrix product of 2-D operands, or batched over the leading axis
    of 3-D operands with equal batch extents."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim not in (2, 3) or b.data.ndim != a.data.ndim \
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


def softmax(x, axis: int) -> Tensor:
    """`softmax_forward` as one tape node over `softmax_backward`."""
    x = as_tensor(x)
    if not -x.data.ndim <= axis < x.data.ndim:
        raise ValidationError(
            f"softmax: axis {axis} invalid for shape {x.shape}"
        )
    p = softmax_forward(x.data, axis)

    def backward(g):
        if x.requires_grad:
            x._accumulate(softmax_backward(p, g, axis))

    return Tensor(p, parents=(x,), backward=backward)


def layer_norm(x, gain, bias) -> Tensor:
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
    out, cache = layer_norm_forward(x.data, gain.data, bias.data)
    return _node(out, (x, gain, bias),
                 lambda g, grads: layer_norm_backward(cache, g, grads))


def cosine_sim_matrix(a, b) -> Tensor:
    """Pairwise cosine similarities between rows of `a` and rows of `b`,
    as one tape node over `cosine_sim_forward` and `cosine_sim_backward`.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ShapeMismatch(
            f"cosine_sim_matrix: incompatible shapes {a.shape} vs {b.shape}"
        )
    S, cache = cosine_sim_forward(a.data, b.data)
    return _node(S, (a, b), lambda g, out: cosine_sim_backward(cache, g, out))


def cross_entropy(p, y) -> Tensor:
    """`cross_entropy_forward` as one tape node over
    `cross_entropy_backward`."""
    p = as_tensor(p)
    value, cache = cross_entropy_forward(p.data, y)

    def backward(g):
        if p.requires_grad:
            p._accumulate(cross_entropy_backward(cache, g))

    return Tensor(value, parents=(p,), backward=backward)


def gradcheck(f, inputs, h: float = 1e-5, tol: float = 1e-4
              ) -> GradCheckReport:
    """Compare the tape's gradients of scalar `f(*inputs)` with central
    differences through `check_gradients`. `inputs` is a sequence of
    array-likes, each passed to `f` as a Tensor."""
    # C-order copies, so that check_gradients perturbs them in place
    leaves = [parameter(np.array(x, dtype=np.float64, order="C"))
              for x in inputs]
    out = f(*leaves)
    if not np.isfinite(out.data).all():
        raise NumericError("gradcheck: non-finite loss at the base point")
    out.backward()
    analytic = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data)
                for t in leaves]
    return check_gradients(lambda: float(f(*leaves).data),
                           [t.data for t in leaves], analytic, h, tol)
