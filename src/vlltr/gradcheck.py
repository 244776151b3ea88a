"""Central finite-difference verification of analytic gradients."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError
from .tensor import Tensor


@dataclass
class GradCheckReport:
    max_rel_err: float
    passed: bool
    tol: float
    per_input: list = field(default_factory=list)

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        return f"{status} max_rel_err={self.max_rel_err:.3e} (tol={self.tol:.1e})"


def gradcheck(f, inputs, h: float = 1e-5, tol: float = 1e-4) -> GradCheckReport:
    """Compare the tape's gradients of scalar `f(*inputs)` with central
    differences (see `check_gradients`). `inputs` is a sequence of
    array-likes, each passed to `f` as a Tensor."""
    # C-order copies, so that check_gradients perturbs them through flat views
    tensors = [Tensor(np.array(x, dtype=np.float64, order="C"),
                      requires_grad=True) for x in inputs]
    out = f(*tensors)
    if not np.isfinite(out.data).all():
        raise NumericError("gradcheck: non-finite loss at the base point")
    out.backward()
    analytic = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data)
                for t in tensors]
    return check_gradients(lambda: float(f(*tensors).data),
                           [t.data for t in tensors], analytic, h, tol)


def check_gradients(loss, arrays, analytic, h: float = 1e-5,
                    tol: float = 1e-4) -> GradCheckReport:
    """Compare `analytic`, one gradient per array of `arrays`, with central
    differences of the float `loss()`, which reads the arrays, each
    C-contiguous.

    Every coordinate of every array is perturbed in place by +-h and
    restored. Relative error uses max(1, |analytic|, |numeric|) as the
    denominator so near-zero gradients are judged absolutely.
    """
    worst = 0.0
    per_input = []
    for idx, array in enumerate(arrays):
        numeric = np.zeros_like(array)
        flat = array.reshape(-1)
        nflat = numeric.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            fp = loss()
            flat[j] = orig - h
            fm = loss()
            flat[j] = orig
            if not (np.isfinite(fp) and np.isfinite(fm)):
                raise NumericError(
                    f"gradcheck: non-finite loss while perturbing input {idx}"
                )
            nflat[j] = (fp - fm) / (2.0 * h)
        denom = np.maximum(1.0, np.maximum(np.abs(analytic[idx]),
                                           np.abs(numeric)))
        err = float((np.abs(analytic[idx] - numeric) / denom).max()) \
            if numeric.size else 0.0
        per_input.append(err)
        worst = max(worst, err)
    return GradCheckReport(max_rel_err=worst, passed=worst <= tol,
                           tol=tol, per_input=per_input)
