"""Tests for the finite-difference gradient checker and the bundled check suite."""

import numpy as np
import pytest

from vlltr.errors import NumericError
from vlltr.gradcheck import gradcheck
from vlltr.gradsuite import default_suite, pretrain_loss_check, run_suite
from vlltr.tensor import Tensor, as_tensor


class TestGradcheck:
    def test_linear_function_exact(self):
        report = gradcheck(lambda t: t.sum(), [np.array([1.0, 2.0, 3.0])])
        assert report.passed
        assert report.max_rel_err < 1e-9

    def test_contrastive_loss_passes(self):
        """L_ccl, `pretrain_loss` at lam 1, on arrays."""
        rng = np.random.default_rng(0)
        s = rng.normal(size=(4, 4))
        labels = np.array([0, 1, 1, 2])
        report = pretrain_loss_check(s, None, labels, 0.3, lam=1.0)
        assert report.passed, str(report)

    def test_recognition_loss_passes(self):
        from vlltr.gradsuite import head_loss_check, random_head

        for head in ("lgr", "fc", "knn"):
            report = head_loss_check(head, *random_head(
                np.random.default_rng(1), head, C=3, M=2, D=4))
            assert report.passed, f"{head}: {report}"

    def test_detects_corrupted_gradient(self):
        def bad_exp(t):
            def backward(grad):
                # wrong on purpose: drops the exp factor from the chain rule
                t.grad = (t.grad if t.grad is not None else 0.0) + grad

            return Tensor(np.exp(t.data), parents=(t,), backward=backward)

        report = gradcheck(lambda t: bad_exp(t).sum(), [np.array([1.0, 2.0])], tol=1e-4)
        assert not report.passed
        assert report.max_rel_err > 1e-2

    def test_non_contiguous_input(self):
        """A transposed input is perturbed like any other, not through a
        copy that the loss never reads."""
        x = np.arange(6.0).reshape(2, 3)
        report = gradcheck(lambda t: (t * t).sum(), [x.T])
        assert report.passed, str(report)
        np.testing.assert_array_equal(x, np.arange(6.0).reshape(2, 3))

    def test_non_finite_raises(self):
        with pytest.raises(NumericError):
            gradcheck(lambda t: (t * np.nan).sum(), [np.array([1.0])])

    def test_report_string_format(self):
        report = gradcheck(lambda t: (t * t).sum(), [np.array([2.0])], tol=1e-4)
        text = str(report)
        assert "PASS" in text
        assert "max_rel_err" in text


class TestSuite:
    def test_default_suite_passes(self):
        ok, lines = run_suite(default_suite(seed=0, instances=1))
        assert ok, "\n".join(l for l in lines if "FAIL" in l)
        names = {line.split(":")[0] for line in lines}
        for op in ("matmul", "matmul_batched", "softmax", "layer_norm", "cosine_sim_matrix",
                   "cross_entropy", "linguistic_encoder", "visual_encoder",
                   "pretrain_step"):
            assert any(op in n for n in names)
        for loss in ("L_ccl", "L_dis", "L_pre", "L_rec"):
            assert any(loss in n for n in names)

    def test_suite_negative_control_names_failure(self):
        def broken():
            # output depends on the input but declares no backward rule, so the
            # analytic gradient stays zero while the numeric one does not
            return gradcheck(lambda t: Tensor(t.data.sum(), parents=(t,)),
                             [np.array([1.0])], tol=1e-4)

        # A check whose analytic gradient is missing entirely must be reported
        # as a failure under its own name.
        ok, lines = run_suite([("broken_op", broken)])
        assert not ok
        assert any(line.startswith("broken_op") and "FAIL" in line for line in lines)
