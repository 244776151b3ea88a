"""Dense float64 tensors with reverse-mode gradients.

Small by design: only the operations the contrastive losses and the
recognition head actually need. Everything is double precision so
finite-difference checks can run at tight tolerances.
"""

from __future__ import annotations

import ctypes

import numpy as np

from .errors import NumericError, ShapeMismatch, ValidationError

# glibc's malloc hands freed heap back to the OS once the free top of the
# heap exceeds a threshold it sizes from the largest block freed so far, a
# few MB here. A forward pass allocates and frees the same large
# temporaries every step, so each step would fault those pages back in
# (about 2,500 minor faults per 256-image LGR batch). Fixed thresholds keep
# up to 64 MiB of freed heap mapped for reuse. Other C libraries are left
# as they are.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _retain_freed_heap():
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


_retain_freed_heap()


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

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def zero_grad(self):
        self.grad = None

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

    def __rsub__(self, other):
        return as_tensor(other) + (-self)

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

    def __rtruediv__(self, other):
        return as_tensor(other) * self ** -1.0

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

    def exp(self):
        out_data = np.exp(self.data)
        out = Tensor(out_data, parents=(self,))

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * out_data)

        out._backward = backward
        return out

    def log(self):
        out = Tensor(np.log(self.data), parents=(self,))

        def backward(g):
            if self.requires_grad:
                self._accumulate(g / self.data)

        out._backward = backward
        return out

    def sqrt(self):
        return self ** 0.5

    def tanh(self):
        out_data = np.tanh(self.data)
        out = Tensor(out_data, parents=(self,))

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * (1.0 - out_data ** 2))

        out._backward = backward
        return out

    def relu(self):
        out = Tensor(np.maximum(self.data, 0.0), parents=(self,))

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * (self.data > 0.0))

        out._backward = backward
        return out

    def clip_min(self, floor: float):
        """Elementwise max(x, floor); gradient passes only above the floor."""
        out = Tensor(np.maximum(self.data, floor), parents=(self,))

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * (self.data > floor))

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

    def transpose(self, *axes):
        axes = axes or None
        out = Tensor(self.data.transpose(axes), parents=(self,))

        def backward(g):
            if not self.requires_grad:
                return
            inv = np.argsort(axes) if axes else None
            self._accumulate(g.transpose(inv))

        out._backward = backward
        return out

    @property
    def T(self):
        return self.transpose()

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


# ---- linear algebra ----------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeMismatch(
            f"matmul: incompatible shapes {a.shape} x {b.shape}"
        )
    out = Tensor(a.data @ b.data, parents=(a, b))

    def backward(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    out._backward = backward
    return out


def einsum(spec: str, a: Tensor, b: Tensor) -> Tensor:
    """Binary einsum with gradients; labels must be simple (no repeats,

    every input label appears in the output or the other operand)."""
    a, b = as_tensor(a), as_tensor(b)
    inputs, out_spec = spec.split("->")
    sa, sb = inputs.split(",")
    out = Tensor(np.einsum(spec, a.data, b.data), parents=(a, b))

    def backward(g):
        if a.requires_grad:
            a._accumulate(np.einsum(f"{out_spec},{sb}->{sa}", g, b.data))
        if b.requires_grad:
            b._accumulate(np.einsum(f"{out_spec},{sa}->{sb}", g, a.data))

    out._backward = backward
    return out


# ---- neural-net building blocks -----------------------------------------


def softmax(x: Tensor, axis: int) -> Tensor:
    """Numerically stable softmax along `axis` (max-subtracted)."""
    x = as_tensor(x)
    if not -x.ndim <= axis < x.ndim:
        raise ValidationError(
            f"softmax: axis {axis} invalid for shape {x.shape}"
        )
    shift = Tensor(x.data.max(axis=axis, keepdims=True))  # constant shift
    e = (x - shift).exp()
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int) -> Tensor:
    x = as_tensor(x)
    if not -x.ndim <= axis < x.ndim:
        raise ValidationError(
            f"log_softmax: axis {axis} invalid for shape {x.shape}"
        )
    shift = Tensor(x.data.max(axis=axis, keepdims=True))
    z = x - shift
    return z - z.exp().sum(axis=axis, keepdims=True).log()


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeMismatch(
            f"layer_norm: gain {gain.shape} / bias {bias.shape} "
            f"must match last axis ({d},)"
        )
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = (var + eps) ** -0.5
    return centered * inv * gain + bias


def cosine_sim_matrix(a: Tensor, b: Tensor) -> Tensor:
    """Pairwise cosine similarities between rows of `a` and rows of `b`.

    One tape node. With unit rows na, nb and upstream G, the gradient of
    `a` is (G nb - na * rowsum(na * G nb)) / |a|, and likewise for `b`
    with G^T na.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ShapeMismatch(
            f"cosine_sim_matrix: incompatible shapes {a.shape} vs {b.shape}"
        )
    inv_norms = []
    for name, t in (("a", a), ("b", b)):
        sq = (t.data * t.data).sum(axis=1, keepdims=True)
        bad = np.where(sq[:, 0] == 0.0)[0]
        if bad.size:
            raise ValidationError(
                f"cosine_sim_matrix: zero-norm row {int(bad[0])} in operand {name}"
            )
        inv_norms.append(sq ** -0.5)
    inv_a, inv_b = inv_norms
    na, nb = a.data * inv_a, b.data * inv_b

    def unit_rows_backward(t, unit, inv, g_unit):
        t._accumulate(
            inv * (g_unit - unit * (g_unit * unit).sum(axis=1, keepdims=True)))

    def backward(g):
        if a.requires_grad:
            unit_rows_backward(a, na, inv_a, g @ nb)
        if b.requires_grad:
            unit_rows_backward(b, nb, inv_b, g.T @ na)

    return Tensor(na @ nb.T, parents=(a, b), backward=backward)


def embedding_bag(table: Tensor, ids: np.ndarray, offsets: np.ndarray) -> Tensor:
    """Mean of `table` rows over each bag of `ids`, as one tape node.

    Bag i is ids[offsets[i]:offsets[i + 1]] (the last runs to the end);
    every bag must be non-empty. The backward pass scatter-adds into the
    table rows the bags touched, not the whole table.
    """
    ids = np.asarray(ids, dtype=np.int64)
    offsets = np.asarray(offsets, dtype=np.int64)
    lengths = np.diff(offsets, append=len(ids))
    inv_len = (1.0 / lengths)[:, None]
    out_data = np.add.reduceat(table.data[ids], offsets, axis=0) * inv_len

    def backward(g):
        if not table.requires_grad:
            return
        # over element offsets in the flattened table: a 1-D np.add.at is
        # several times faster than one over rows
        width = table.shape[1]
        flat_ids = (ids[:, None] * width + np.arange(width)).ravel()
        table.grad = np.ascontiguousarray(table._grad_buffer())
        np.add.at(table.grad.reshape(-1), flat_ids,
                  np.repeat(g * inv_len, lengths, axis=0).ravel())

    return Tensor(out_data, parents=(table,), backward=backward)


def cross_entropy(p: Tensor, y) -> Tensor:
    """-log p[y] on probability rows, floored at 1e-12.

    `p` may be a single row or a batch; a batch is averaged.
    """
    p = as_tensor(p)
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
    sums = rows.data.sum(axis=1)
    if np.abs(sums - 1.0).max() > 1e-6:
        raise ValidationError(
            "cross_entropy: input rows are not probability vectors"
        )
    picked = rows[np.arange(n), labels]
    return -(picked.clip_min(1e-12).log().mean())
