"""Tests for the test tape (tape.py) that the composite oracles are built
from: forward semantics and gradient accuracy."""

import math

import numpy as np
import pytest

from tape import (
    Tensor,
    as_tensor,
    cosine_sim_matrix,
    cross_entropy,
    gradcheck,
    layer_norm,
    matmul,
    softmax,
)
from vlltr.errors import NumericError, ShapeMismatch, ValidationError


class TestMatmul:
    def test_identity(self):
        a = np.arange(6.0).reshape(2, 3)
        out = matmul(as_tensor(a), as_tensor(np.eye(3)))
        np.testing.assert_array_equal(out.data, a)

    def test_small_product(self):
        out = matmul(as_tensor([[1.0, 2.0]]), as_tensor([[3.0], [7.0]]))
        np.testing.assert_array_equal(out.data, [[17.0]])

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeMismatch) as exc:
            matmul(as_tensor(np.zeros((2, 3))), as_tensor(np.zeros((4, 5))))
        assert "(2, 3)" in str(exc.value)
        assert "(4, 5)" in str(exc.value)

    def test_gradcheck(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        report = gradcheck(lambda x, y: matmul(x, y).sum(), [a, b], tol=1e-6)
        assert report.passed, str(report)

    def test_batched_matches_per_batch_products(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(3, 2, 4)), rng.normal(size=(3, 4, 5))
        out = matmul(as_tensor(a), as_tensor(b))
        for i in range(3):
            np.testing.assert_allclose(out.data[i], a[i] @ b[i], atol=1e-14)

    def test_batched_gradcheck(self):
        rng = np.random.default_rng(10)
        a = rng.normal(size=(2, 3, 4))
        b = rng.normal(size=(2, 4, 5))
        w = Tensor(rng.normal(size=(2, 3, 5)))
        report = gradcheck(lambda x, y: (matmul(x, y) * w).sum(), [a, b],
                           tol=1e-6)
        assert report.passed, str(report)

    @pytest.mark.parametrize("shapes", [((2, 3, 4), (3, 4, 5)),
                                        ((2, 3, 4), (4, 5)),
                                        ((4,), (4, 5))])
    def test_batch_mismatch_raises(self, shapes):
        a, b = (as_tensor(np.zeros(s)) for s in shapes)
        with pytest.raises(ShapeMismatch) as exc:
            matmul(a, b)
        assert str(shapes[0]) in str(exc.value)


class TestSoftmax:
    def test_symmetry(self):
        out = softmax(as_tensor([0.0, 0.0]), axis=0)
        np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-15)

    def test_large_logit_stability(self):
        out = softmax(as_tensor([1000.0, 0.0]), axis=0)
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-300)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 5, 3)) * 10
        out = softmax(as_tensor(x), axis=2)
        np.testing.assert_allclose(out.data.sum(axis=2), 1.0, atol=1e-9)

    def test_invalid_axis(self):
        with pytest.raises(ValidationError) as exc:
            softmax(as_tensor(np.zeros((2, 3))), axis=5)
        assert "axis" in str(exc.value)

    def test_gradcheck(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(3, 4))
        report = gradcheck(
            lambda t: (softmax(t, axis=1) * as_tensor(w)).sum(), [x], tol=1e-6
        )
        assert report.passed, str(report)

    def test_log_softmax_matches_log_of_softmax(self):
        from composite_oracles import log_softmax

        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 6))
        a = log_softmax(as_tensor(x), axis=1).data
        b = np.log(softmax(as_tensor(x), axis=1).data)
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestLayerNorm:
    def test_constant_row_maps_to_bias(self):
        d = 5
        gain = as_tensor(np.ones(d))
        bias = as_tensor(np.zeros(d))
        out = layer_norm(as_tensor(np.full((2, d), 3.0)), gain, bias)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_already_normalized_row_fixed_point(self):
        x = np.array([[1.0, -1.0]])
        gain = as_tensor(np.ones(2))
        bias = as_tensor(np.zeros(2))
        out = layer_norm(as_tensor(x), gain, bias)
        np.testing.assert_allclose(out.data, x, atol=1e-4)

    def test_rows_standardized(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(6, 9)) * 4 + 2
        gain = as_tensor(np.ones(9))
        bias = as_tensor(np.zeros(9))
        out = layer_norm(as_tensor(x), gain, bias).data
        np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.var(axis=1), 1.0, atol=1e-4)

    def test_gain_bias_shape_error(self):
        with pytest.raises(ShapeMismatch):
            layer_norm(
                as_tensor(np.zeros((2, 3))),
                as_tensor(np.ones(4)),
                as_tensor(np.zeros(3)),
            )

    def test_gradcheck(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 5))
        g = rng.normal(size=5)
        b = rng.normal(size=5)
        w = rng.normal(size=(3, 5))
        report = gradcheck(
            lambda t, gg, bb: (layer_norm(t, gg, bb) * as_tensor(w)).sum(),
            [x, g, b],
            tol=1e-6,
        )
        assert report.passed, str(report)


class TestCosineSimMatrix:
    def test_orthonormal_rows_give_identity(self):
        e = np.eye(4)
        out = cosine_sim_matrix(as_tensor(e), as_tensor(e))
        np.testing.assert_allclose(out.data, np.eye(4), atol=1e-12)

    def test_antipodal_rows(self):
        a = np.array([[2.0, 0.0]])
        b = np.array([[-5.0, 0.0]])
        out = cosine_sim_matrix(as_tensor(a), as_tensor(b))
        np.testing.assert_allclose(out.data, [[-1.0]], atol=1e-12)

    def test_naive_loop_oracle(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(5, 7))
        b = rng.normal(size=(4, 7))
        out = cosine_sim_matrix(as_tensor(a), as_tensor(b)).data
        expect = np.empty((5, 4))
        for i in range(5):
            for j in range(4):
                expect[i, j] = float(
                    np.dot(a[i], b[j])
                    / (np.linalg.norm(a[i]) * np.linalg.norm(b[j]))
                )
        np.testing.assert_allclose(out, expect, atol=1e-12)

    def test_entries_bounded(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(8, 3)) * 100
        out = cosine_sim_matrix(as_tensor(a), as_tensor(a)).data
        assert np.all(out <= 1.0 + 1e-12)
        assert np.all(out >= -1.0 - 1e-12)

    def test_zero_norm_row_identified(self):
        """The error names the row, the function that normalized it and
        its operand, also when that is not `cosine_sim_matrix`."""
        from vlltr.data import token_table
        from vlltr.encoders import CvlpModel, TeacherPair

        a = np.ones((3, 2))
        a[1] = 0.0
        with pytest.raises(ValidationError) as exc:
            cosine_sim_matrix(as_tensor(a), as_tensor(np.ones((2, 2))))
        assert str(exc.value) == \
            "cosine_sim_forward operand a: zero-norm row 1"

        model = CvlpModel(4, 4, 12, seed=0)
        for p in model.vis.params().values():
            p.data[...] = 0.0
        with pytest.raises(ValidationError) as exc:
            TeacherPair(model).unit_embeddings(np.ones((2, 4)),
                                               token_table([[2, 3]], 77))
        assert str(exc.value) == \
            "TeacherPair.unit_embeddings operand images: zero-norm row 0"

    def test_gradcheck(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(2, 4))
        w = rng.normal(size=(3, 2))
        report = gradcheck(
            lambda x, y: (cosine_sim_matrix(x, y) * as_tensor(w)).sum(),
            [a, b],
            tol=1e-6,
        )
        assert report.passed, str(report)


class TestCrossEntropy:
    def test_uniform_two_class(self):
        p = as_tensor([[0.5, 0.5]])
        out = cross_entropy(p, np.array([0]))
        assert math.isclose(float(out.data), math.log(2.0), abs_tol=1e-12)

    def test_confident_correct_is_zero(self):
        p = as_tensor([[0.0, 1.0, 0.0]])
        out = cross_entropy(p, np.array([1]))
        assert float(out.data) < 1e-10

    def test_label_out_of_range(self):
        with pytest.raises(ValidationError):
            cross_entropy(as_tensor([[0.5, 0.5]]), np.array([2]))

    @pytest.mark.parametrize("y,shape", [(0, "()"), ([0, 1], "(2,)")])
    def test_labels_are_one_per_row(self, y, shape):
        """A 0-d label is refused like a wrong count, not broadcast."""
        with pytest.raises(ShapeMismatch) as exc:
            cross_entropy(as_tensor([[0.5, 0.5]]), np.array(y))
        assert str(exc.value) == f"cross_entropy: labels {shape} for 1 rows"

    def test_rows_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            cross_entropy(as_tensor([[0.4, 0.4]]), np.array([0]))

    def test_gradcheck_through_softmax(self):
        rng = np.random.default_rng(9)
        logits = rng.normal(size=(4, 3))
        labels = np.array([0, 2, 1, 1])
        report = gradcheck(
            lambda t: cross_entropy(softmax(t, axis=1), labels), [logits], tol=1e-6
        )
        assert report.passed, str(report)


class TestBackwardMachinery:
    def test_backward_requires_scalar(self):
        t = as_tensor(np.zeros(3))
        t.requires_grad = True
        with pytest.raises(ValidationError):
            t.backward()

    def test_non_finite_loss_raises(self):
        x = Tensor(np.array(1.0), requires_grad=True)
        loss = x * np.nan
        with pytest.raises(NumericError):
            loss.backward()

    def test_getitem_grad_accumulates(self):
        x = np.array([1.0, 2.0, 3.0])
        report = gradcheck(lambda t: t[0] + t[0] + t[2], [x], tol=1e-6)
        assert report.passed, str(report)
