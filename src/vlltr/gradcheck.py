"""Central finite-difference verification of analytic gradients."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError


@dataclass
class GradCheckReport:
    max_rel_err: float
    passed: bool
    tol: float

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        return f"{status} max_rel_err={self.max_rel_err:.3e} (tol={self.tol:.1e})"


def check_gradients(loss, arrays, analytic, h: float = 1e-5,
                    tol: float = 1e-4) -> GradCheckReport:
    """Compare `analytic`, one gradient per array of `arrays`, with central
    differences of the float `loss()`, which reads the arrays, each
    C-contiguous: a strided array is a ValidationError, because its flat
    view would be a copy that the loss never reads.

    Every coordinate of every array is perturbed in place by +-h and
    restored. Relative error uses max(1, |analytic|, |numeric|) as the
    denominator so near-zero gradients are judged absolutely.
    """
    for idx, array in enumerate(arrays):
        if not array.flags.c_contiguous:
            raise ValidationError(
                f"gradcheck: input {idx} is not C-contiguous")
    worst = 0.0
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
        worst = max(worst, err)
    return GradCheckReport(max_rel_err=worst, passed=worst <= tol, tol=tol)
