"""Tests for the contrastive and distillation losses and the pre-training loop."""

import math

import numpy as np
import pytest

from vlltr.data import SqrtSampler, gen_corpus, gen_synthetic
from vlltr.encoders import CvlpModel, TeacherPair
from vlltr.errors import NumericError, ShapeMismatch, ValidationError
from vlltr.pretrain import (
    PretrainConfig,
    ccl_loss,
    distill_loss,
    pretrain_loss,
    run_pretrain,
    sample_paired_batch,
    save_trace,
)
from vlltr.tensor import as_tensor

# frozen by hand: 2 * ln(1 + e^-1) for the N=2 identity-matrix, tau=1 case
TWO_POINT_IDENTITY_LOSS = 0.6265233750364456


def naive_ccl(S, labels, tau):
    """Independent loop transcription of the class-wise contrastive loss."""
    n = len(labels)
    logits = S / tau
    total = 0.0
    for axis in (1, 0):
        for i in range(n):
            row = logits[i, :] if axis == 1 else logits[:, i]
            log_p = row - math.log(np.exp(row - row.max()).sum()) - row.max()
            pos = [j for j in range(n) if labels[j] == labels[i]]
            total += -sum(log_p[j] for j in pos) / len(pos) / n
    return total


def naive_distill(S, St, tau, tau_t):
    n = S.shape[0]
    total = 0.0
    for axis in (1, 0):
        for i in range(n):
            t_row = (St[i, :] if axis == 1 else St[:, i]) / tau_t
            s_row = (S[i, :] if axis == 1 else S[:, i]) / tau
            t_p = np.exp(t_row - t_row.max())
            t_p /= t_p.sum()
            s_log_p = s_row - s_row.max() - math.log(
                np.exp(s_row - s_row.max()).sum())
            total += -(t_p[i] * s_log_p[i]) / n
    return total


class TestCclIdentities:
    def test_single_pair_is_zero(self):
        _, _, l = ccl_loss(np.array([[0.37]]), np.array([5]), tau=0.5)
        assert abs(float(l.data)) < 1e-12

    def test_all_same_class_uniform_matrix(self):
        n = 3
        _, _, l = ccl_loss(np.full((n, n), 0.8), np.zeros(n, dtype=int), tau=0.2)
        assert float(l.data) == pytest.approx(2 * math.log(n), abs=1e-12)

    def test_two_point_identity(self):
        _, _, l = ccl_loss(np.eye(2), np.array([0, 1]), tau=1.0)
        assert float(l.data) == pytest.approx(TWO_POINT_IDENTITY_LOSS, abs=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        S = rng.normal(size=(5, 5))
        labels = rng.integers(0, 3, size=5)
        a = float(ccl_loss(S, labels, 0.3)[2].data)
        b = float(ccl_loss(S + 7.5, labels, 0.3)[2].data)
        assert abs(a - b) <= 1e-10

    def test_non_negative(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            S = rng.normal(size=(n, n))
            labels = rng.integers(0, max(1, n - 1) + 1, size=n)
            assert float(ccl_loss(S, labels, 0.5)[2].data) >= -1e-12

    def test_same_class_swap_invariance(self):
        rng = np.random.default_rng(2)
        S = rng.normal(size=(4, 4))
        labels = np.array([0, 0, 1, 2])
        a = float(ccl_loss(S, labels, 0.4)[2].data)
        swapped = S[[1, 0, 2, 3]][:, [1, 0, 2, 3]]
        b = float(ccl_loss(swapped, labels, 0.4)[2].data)
        assert a == pytest.approx(b, abs=1e-12)

    def test_naive_loop_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            S = rng.normal(size=(n, n))
            labels = rng.integers(0, n, size=n)
            tau = float(rng.uniform(0.1, 1.0))
            got = float(ccl_loss(S, labels, tau)[2].data)
            assert got == pytest.approx(naive_ccl(S, labels, tau), abs=1e-10)

    def test_shape_errors(self):
        with pytest.raises(ShapeMismatch):
            ccl_loss(np.zeros((2, 3)), np.array([0, 1]), 0.5)
        with pytest.raises(ShapeMismatch):
            ccl_loss(np.zeros((2, 2)), np.array([0, 1, 2]), 0.5)


class TestDistill:
    def test_single_pair_is_zero(self):
        l = distill_loss(np.array([[1.3]]), np.array([[0.2]]), 0.5, 0.7)
        assert abs(float(l.data)) < 1e-12

    def test_uniform_teacher_weights(self):
        rng = np.random.default_rng(4)
        S = rng.normal(size=(3, 3))
        St = np.full((3, 3), 0.6)
        got = float(distill_loss(S, St, 0.3, 0.9).data)
        assert got == pytest.approx(naive_distill(S, St, 0.3, 0.9), abs=1e-12)
        # constant teacher similarities put probability 1/N on each diagonal
        n = 3
        idx = np.arange(n)
        z = S / 0.3
        lp_rows = z - z.max(axis=1, keepdims=True)
        lp_rows = lp_rows - np.log(np.exp(lp_rows).sum(axis=1, keepdims=True))
        lp_cols = z - z.max(axis=0, keepdims=True)
        lp_cols = lp_cols - np.log(np.exp(lp_cols).sum(axis=0, keepdims=True))
        expect = -(lp_rows[idx, idx] / n).mean() - (lp_cols[idx, idx] / n).mean()
        assert got == pytest.approx(expect, abs=1e-12)

    def test_naive_loop_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            S = rng.normal(size=(n, n))
            St = rng.normal(size=(n, n))
            tau, tau_t = rng.uniform(0.1, 1.0, size=2)
            got = float(distill_loss(S, St, float(tau), float(tau_t)).data)
            assert got == pytest.approx(
                naive_distill(S, St, float(tau), float(tau_t)), abs=1e-10)

    def test_shape_error(self):
        with pytest.raises(ShapeMismatch):
            distill_loss(np.zeros((2, 2)), np.zeros((3, 3)), 0.5, 0.5)


class TestPretrainLoss:
    def test_lam_one_bit_exact_and_teacher_untouched(self):
        class Poison:
            def __array__(self, *a, **k):
                raise AssertionError("teacher evaluated at lam == 1")

        rng = np.random.default_rng(6)
        S = rng.normal(size=(3, 3))
        labels = np.array([0, 1, 1])
        loss, l_ccl, l_dis = pretrain_loss(S, Poison(), labels, 0.4, 0.9, lam=1.0)
        assert l_dis is None
        assert float(loss.data) == float(ccl_loss(S, labels, 0.4)[2].data)

    def test_lam_zero_bit_exact(self):
        rng = np.random.default_rng(7)
        S = rng.normal(size=(3, 3))
        St = rng.normal(size=(3, 3))
        labels = np.array([0, 1, 2])
        loss, _, l_dis = pretrain_loss(S, St, labels, 0.4, 0.9, lam=0.0)
        assert float(loss.data) == float(distill_loss(S, St, 0.4, 0.9).data)
        assert float(loss.data) == float(l_dis.data)

    def test_half_lam_is_mean(self):
        rng = np.random.default_rng(8)
        S = rng.normal(size=(4, 4))
        St = rng.normal(size=(4, 4))
        labels = np.array([0, 0, 1, 2])
        loss, l_ccl, l_dis = pretrain_loss(S, St, labels, 0.3, 0.5, lam=0.5)
        expect = 0.5 * float(l_ccl.data) + 0.5 * float(l_dis.data)
        assert float(loss.data) == pytest.approx(expect, abs=1e-15)

    def test_lam_out_of_range(self):
        with pytest.raises(ValidationError):
            pretrain_loss(np.eye(2), np.eye(2), np.array([0, 1]), 0.5, 0.5, lam=1.5)
        with pytest.raises(ValidationError):
            PretrainConfig(epochs=1, batch_size=2, base_lr=0.1, lam=-0.1)


def tiny_setup(seed=0, C=4, sigma=0.25):
    ds = gen_synthetic(C, [12] * C, d_img=6, noise_sigma=sigma, seed=seed,
                       test_per_class=4)
    corpus, _ = gen_corpus(C, 6, 4, vocab_size=64, noise_fraction=0.0,
                           seed=seed)
    model = CvlpModel(6, 6, 64, seed=seed)
    return ds, corpus, model


class TestSamplePairedBatch:
    def test_same_draws_as_one_per_image(self):
        """The sentence picks are the stream of one rng.integers call per
        image, in batch order."""
        ds, corpus, _ = tiny_setup(seed=4)
        sampler, rng = SqrtSampler(ds.counts, seed=4), np.random.default_rng(9)
        batches = [sample_paired_batch(ds, corpus, sampler, rng, 7)
                   for _ in range(3)]
        sampler = SqrtSampler(ds.counts, seed=4)
        ref_rng = np.random.default_rng(9)
        for _, sequences, labels in batches:
            np.testing.assert_array_equal(labels, ds.y[sampler.draw(7)])
            for c, seq in zip(labels, sequences):
                options = corpus.for_class(int(c))
                want = options[int(ref_rng.integers(len(options)))].tokens
                assert seq.tolist() == want.tolist()
        assert rng.random() == ref_rng.random()


class TestRunPretrain:
    def test_zero_epochs_leaves_model(self):
        ds, corpus, model = tiny_setup()
        before = {k: v.copy() for k, v in model.state().items()}
        trace = run_pretrain(ds, corpus, model, None,
                             PretrainConfig(epochs=0, batch_size=4, base_lr=0.01,
                                            lam=1.0))
        assert trace == []
        for k, v in model.state().items():
            np.testing.assert_array_equal(v, before[k])

    def test_bitwise_deterministic(self):
        results = []
        for _ in range(2):
            ds, corpus, model = tiny_setup(seed=3)
            run_pretrain(ds, corpus, model, None,
                         PretrainConfig(epochs=2, batch_size=4, base_lr=0.01,
                                        lam=1.0, seed=3))
            results.append(model.state())
        for k in results[0]:
            np.testing.assert_array_equal(results[0][k], results[1][k])

    def test_lam_below_one_requires_teacher(self):
        ds, corpus, model = tiny_setup()
        with pytest.raises(ValidationError):
            run_pretrain(ds, corpus, model, None,
                         PretrainConfig(epochs=1, batch_size=4, base_lr=0.01,
                                        lam=0.5))

    def test_trace_lambda_identity(self, tmp_path):
        ds, corpus, model = tiny_setup(seed=1)
        teacher = TeacherPair(CvlpModel(6, 6, 64, seed=11))
        trace = run_pretrain(ds, corpus, model, teacher,
                             PretrainConfig(epochs=1, batch_size=4, base_lr=0.01,
                                            lam=0.5, seed=1))
        assert trace
        for _, _, l_ccl, l_dis, l_pre, tau in trace:
            assert l_pre == pytest.approx(0.5 * l_ccl + 0.5 * l_dis, abs=1e-12)
            assert 0.01 <= tau <= 1.0
        path = tmp_path / "trace.tsv"
        save_trace(path, trace)
        rows = [line.split("\t") for line in path.read_text().splitlines()]
        assert all(len(r) == 6 for r in rows)
        # repr round-trip: parsed floats must be bit-identical to the trace
        assert float(rows[0][2]) == trace[0][2]

    def test_lam_one_logs_zero_distill(self):
        ds, corpus, model = tiny_setup(seed=2)
        trace = run_pretrain(ds, corpus, model, None,
                             PretrainConfig(epochs=1, batch_size=4, base_lr=0.01,
                                            lam=1.0, seed=2))
        assert all(entry[3] == 0.0 for entry in trace)

    def test_training_separates_classes(self):
        ds = gen_synthetic(20, [20] * 20, d_img=16, noise_sigma=0.25, seed=0,
                           test_per_class=4)
        corpus, _ = gen_corpus(20, 20, 8, vocab_size=128, noise_fraction=0.0,
                               seed=0)
        model = CvlpModel(16, 16, 128, seed=0)
        trace = run_pretrain(ds, corpus, model, None,
                             PretrainConfig(epochs=30, batch_size=32,
                                            base_lr=3e-3, lam=1.0, seed=0))
        assert trace[-1][2] < trace[0][2]
        seqs = [corpus.for_class(c)[0].tokens for c in range(20)]
        S = model.similarity(ds.test_X.astype(np.float64), seqs).data
        diag = np.array([S[i, ds.test_y[i]] for i in range(len(ds.test_y))])
        mask = np.ones_like(S, dtype=bool)
        mask[np.arange(len(ds.test_y)), ds.test_y] = False
        separation = diag.mean() - S[mask].mean()
        assert separation >= 0.2

    def test_non_finite_loss_aborts(self):
        ds, corpus, model = tiny_setup()
        model.tau.data = np.array(0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(NumericError) as exc:
                run_pretrain(ds, corpus, model, None,
                             PretrainConfig(epochs=1, batch_size=4,
                                            base_lr=0.01, lam=1.0))
        assert "step 0" in str(exc.value)
