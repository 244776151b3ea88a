"""Tests for the cosine learning-rate schedule and the AdamW optimizer."""

import numpy as np
import pytest

from vlltr.errors import ShapeMismatch, ValidationError
from vlltr.optim import AdamW, LrSchedule, cosine_lr
from vlltr.tensor import parameter


class TestCosineLr:
    def test_endpoints_and_midpoint(self):
        sched = LrSchedule(base_lr=1.0, min_lr=0.0, total_steps=100)
        assert cosine_lr(sched, 0) == pytest.approx(1.0, abs=1e-12)
        assert cosine_lr(sched, 100) == pytest.approx(0.0, abs=1e-12)
        assert cosine_lr(sched, 50) == pytest.approx(0.5, abs=1e-12)

    def test_min_lr_floor(self):
        sched = LrSchedule(base_lr=3e-3, min_lr=1e-4, total_steps=10)
        assert cosine_lr(sched, 10) == pytest.approx(1e-4, abs=1e-15)
        assert cosine_lr(sched, 0) == pytest.approx(3e-3, abs=1e-15)

    def test_out_of_range_step(self):
        sched = LrSchedule(base_lr=1.0, min_lr=0.0, total_steps=10)
        with pytest.raises(ValidationError):
            cosine_lr(sched, 11)
        with pytest.raises(ValidationError):
            cosine_lr(sched, -1)

    def test_monotone_non_increasing(self):
        sched = LrSchedule(base_lr=0.1, min_lr=1e-5, total_steps=57)
        values = [cosine_lr(sched, s) for s in range(58)]
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

    def test_replaced_data_of_another_shape_names_param(self):
        p = parameter(np.zeros((2, 2)))
        opt = AdamW({"w_bad": p}, base_lr=0.1)
        p.data = np.zeros(3)
        with pytest.raises(ShapeMismatch) as exc:
            opt.step()
        assert "w_bad" in str(exc.value)
