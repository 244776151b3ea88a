"""Tests for the finite-difference gradient checker and the bundled check suite."""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from vlltr import encoders, gradsuite, head, pretrain, tensor
from vlltr.encoders import LinguisticEncoder, VisualEncoder
from vlltr.errors import NumericError, ValidationError
from vlltr.gradcheck import check_gradients
from vlltr.gradsuite import default_suite, pretrain_loss_check, run_suite


class TestGradcheck:
    def test_linear_function_exact(self):
        x = np.array([1.0, 2.0, 3.0])
        report = check_gradients(lambda: float(x.sum()), [x], [np.ones(3)])
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
        x = np.array([1.0, 2.0])
        # wrong on purpose: drops the exp factor from the chain rule
        report = check_gradients(lambda: float(np.exp(x).sum()), [x],
                                 [np.ones(2)], tol=1e-4)
        assert not report.passed
        assert report.max_rel_err > 1e-2

    def test_non_contiguous_input(self):
        """A transposed input is rejected, naming it, not perturbed
        through a copy that the loss never reads."""
        x = np.arange(6.0).reshape(2, 3)
        with pytest.raises(ValidationError) as exc:
            check_gradients(lambda: float((x.T * x.T).sum()),
                            [np.ones(1), x.T], [np.zeros(1), 2.0 * x.T])
        assert str(exc.value) == "gradcheck: input 1 is not C-contiguous"
        np.testing.assert_array_equal(x, np.arange(6.0).reshape(2, 3))

    def test_non_finite_raises(self):
        x = np.array([1.0])
        with pytest.raises(NumericError):
            check_gradients(lambda: float((x * np.nan).sum()), [x],
                            [np.zeros(1)])

    def test_report_string_format(self):
        x = np.array([2.0])
        report = check_gradients(lambda: float((x * x).sum()), [x], [2.0 * x],
                                 tol=1e-4)
        text = str(report)
        assert "PASS" in text
        assert "max_rel_err" in text


class TestSuite:
    def test_default_suite_passes(self):
        ok, lines = run_suite(default_suite(seed=0, instances=1))
        assert ok, "\n".join(l for l in lines if "FAIL" in l)
        names = {line.split(":")[0] for line in lines}
        for op in ("softmax", "layer_norm", "cosine_sim", "cross_entropy",
                   "linguistic_encoder", "visual_encoder",
                   "visual_encoder_node", "pretrain_step"):
            assert any(op in n for n in names)
        for loss in ("L_ccl", "L_dis", "L_pre", "L_rec"):
            assert any(loss in n for n in names)

    def test_suite_negative_control_names_failure(self):
        def broken():
            # the loss depends on the input but the analytic gradient is
            # zero, as for an op that declares no backward rule
            x = np.array([1.0])
            return check_gradients(lambda: float(x.sum()), [x],
                                   [np.zeros(1)], tol=1e-4)

        # A check whose analytic gradient is missing entirely must be reported
        # as a failure under its own name.
        ok, lines = run_suite([("broken_op", broken)])
        assert not ok
        assert any(line.startswith("broken_op") and "FAIL" in line for line in lines)

    def test_default_suite_calls_every_backward(self, monkeypatch):
        """Each array backward, each encoder's backward and each head's
        backward runs at least once, so none ships without a check."""
        calls = Counter()

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        pairs = ("softmax_backward", "layer_norm_backward",
                 "cosine_sim_backward", "cross_entropy_backward")
        for name in pairs:
            fn = getattr(tensor, name)
            for module in (tensor, encoders, gradsuite, head, pretrain):
                if getattr(module, name, None) is fn:
                    monkeypatch.setattr(module, name, counting(name, fn))
        for cls in (VisualEncoder, LinguisticEncoder):
            monkeypatch.setattr(cls, "backward", staticmethod(
                counting(cls.__name__, cls.backward)))
        for name, h in head.HEADS.items():
            monkeypatch.setitem(head.HEADS, name, dataclasses.replace(
                h, backward=counting(f"HEADS[{name}]", h.backward)))
        ok, lines = run_suite(default_suite(seed=0, instances=1))
        assert ok, "\n".join(lines)
        assert set(calls) == {*pairs, "VisualEncoder", "LinguisticEncoder",
                              *(f"HEADS[{name}]" for name in head.HEADS)}
