"""Tests for the cosine learning-rate schedule and the AdamW optimizer."""

import numpy as np
import pytest

import composite_oracles as oracle
from tape import Tensor, matmul, parameter
from vlltr.errors import ShapeMismatch, ValidationError
from vlltr.optim import AdamW, cosine_lr


class TestCosineLr:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(1.0, 0, 100) == pytest.approx(1.0, abs=1e-12)
        assert cosine_lr(1.0, 100, 100) == pytest.approx(0.0, abs=1e-12)
        assert cosine_lr(1.0, 50, 100) == pytest.approx(0.5, abs=1e-12)

    def test_out_of_range_step(self):
        with pytest.raises(ValidationError):
            cosine_lr(1.0, 11, 10)
        with pytest.raises(ValidationError):
            cosine_lr(1.0, -1, 10)

    def test_monotone_non_increasing(self):
        values = [cosine_lr(0.1, s, 57) for s in range(58)]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestAdamW:
    def test_zero_grad_no_decay_leaves_params(self):
        p = parameter(np.array([1.0, -2.0, 3.0]))
        opt = AdamW({"p": p}, base_lr=0.1, weight_decay=0.0)
        opt.step()
        np.testing.assert_array_equal(p.data, [1.0, -2.0, 3.0])

    def test_decoupled_weight_decay_factor(self):
        p = parameter(np.array([2.0, -4.0]))
        opt = AdamW({"p": p}, base_lr=1.0, weight_decay=0.05)
        opt.step()
        np.testing.assert_allclose(p.data, np.array([2.0, -4.0]) * (1 - 0.05), atol=1e-15)

    def test_quadratic_convergence(self):
        p = parameter(np.array(5.0))
        opt = AdamW({"p": p}, base_lr=0.1, weight_decay=0.0)
        for _ in range(200):
            opt.zero_grad()
            loss = (p * p)
            loss.backward()
            opt.step()
        assert abs(float(p.data)) < 1e-3

    def test_bitwise_reproducible(self):
        def run():
            rng = np.random.default_rng(0)
            p = parameter(rng.normal(size=4))
            opt = AdamW({"p": p}, base_lr=0.01, weight_decay=0.05)
            for _ in range(50):
                opt.zero_grad()
                ((p * p).sum()).backward()
                opt.step()
            return p.data.copy()

        np.testing.assert_array_equal(run(), run())

    def test_grad_shape_mismatch_names_param(self):
        p = parameter(np.zeros((2, 2)))
        p.grad = np.zeros(3)
        opt = AdamW({"w_bad": p}, base_lr=0.1)
        with pytest.raises(ShapeMismatch) as exc:
            opt.step()
        assert "w_bad" in str(exc.value)

    def test_same_tensor_under_two_names_rejected(self):
        p = parameter(np.ones(3))
        with pytest.raises(ValidationError) as exc:
            AdamW({"vis.w": p, "alias": p}, base_lr=0.1)
        assert "vis.w" in str(exc.value) and "alias" in str(exc.value)

    def test_replaced_data_is_stepped_and_rebound(self):
        p = parameter(np.array([1.0, 2.0]))
        opt = AdamW({"p": p}, base_lr=0.1, weight_decay=0.5)
        p.data = np.array([4.0, 8.0])
        opt.step()
        np.testing.assert_array_equal(p.data, [4.0 * 0.95, 8.0 * 0.95])
        view = p.data
        opt.step()
        assert p.data is view

    def test_owned_gradients_match_the_per_tensor_oracle(self):
        """20 steps against `composite_oracles.AdamW`, bit for bit, with a
        parameter outside the graph, a 0-d parameter, and on some steps a
        gradient set to None, a gradient replaced by another array and
        replaced parameter data. Gradients stay readable after `step`."""
        rng = np.random.default_rng(3)
        init = {"w": rng.normal(size=(4, 3)), "b": rng.normal(size=3),
                "t": np.array(0.7), "idle": rng.normal(size=2)}
        x = Tensor(rng.normal(size=(5, 4)))
        runs = []
        for make_opt in (AdamW, oracle.AdamW):
            params = {k: parameter(v.copy()) for k, v in init.items()}
            runs.append((params, make_opt(params, 0.05, weight_decay=0.1)))
        for step in range(20):
            for params, opt in runs:
                opt.zero_grad()
                ((matmul(x, params["w"]) + params["b"]) * params["t"]) \
                    .relu().sum().backward()
                if step % 5 == 1:
                    params["b"].grad = None
                elif step % 5 == 2:
                    params["w"].grad = params["w"].grad * 2.0
                elif step % 5 == 3:
                    params["t"].data = params["t"].data + 0.01
                grads = {k: None if p.grad is None else p.grad.copy()
                         for k, p in params.items()}
                opt.step(lr=0.05 * (1.0 - step / 20))
                for k, p in params.items():
                    if grads[k] is not None:
                        np.testing.assert_array_equal(p.grad, grads[k])
            (mine, _), (theirs, _) = runs
            for k in init:
                np.testing.assert_array_equal(mine[k].data, theirs[k].data)
                assert mine[k].data.shape == init[k].shape
                np.testing.assert_array_equal(
                    np.zeros(init[k].shape) if mine[k].grad is None
                    else mine[k].grad,
                    np.zeros(init[k].shape) if theirs[k].grad is None
                    else theirs[k].grad)

    def test_backward_adds_into_the_bound_gradients(self):
        """After `zero_grad` a backward pass fills the arrays `zero_grad`
        bound, and a second pass without it adds to them."""
        w = parameter(np.array([1.0, -2.0]))
        opt = AdamW({"w": w}, base_lr=0.1)
        opt.zero_grad()
        bound = w.grad
        np.testing.assert_array_equal(bound, [0.0, 0.0])
        (w * w).sum().backward()
        assert w.grad is bound
        np.testing.assert_array_equal(bound, [2.0, -4.0])
        (w * w).sum().backward()
        np.testing.assert_array_equal(w.grad, [4.0, -8.0])
        opt.zero_grad()
        assert w.grad is bound
        np.testing.assert_array_equal(bound, [0.0, 0.0])

    def test_replaced_data_of_another_shape_names_param(self):
        p = parameter(np.zeros((2, 2)))
        opt = AdamW({"w_bad": p}, base_lr=0.1)
        p.data = np.zeros(3)
        with pytest.raises(ShapeMismatch) as exc:
            opt.step()
        assert "w_bad" in str(exc.value)
