"""Tests for the contrastive and distillation losses and the pre-training loop."""

import math

import numpy as np
import pytest

from composite_oracles import class_sentences
from vlltr import pretrain as pretrain_module
from vlltr.data import ClassCorpus, SqrtSampler, gen_corpus, gen_synthetic
from vlltr.encoders import CvlpModel, TeacherPair
from vlltr.errors import NumericError, ShapeMismatch, ValidationError
from vlltr.optim import AdamW, LrSchedule, cosine_lr
from vlltr.pretrain import (
    PretrainConfig,
    ccl_loss,
    distill_loss,
    pretrain_loss,
    pretrain_step,
    run_pretrain,
    sample_epoch,
    sample_paired_batch,
    save_trace,
)
from vlltr.tensor import Tensor, as_tensor

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
        assert float(loss.data) == l_dis

    def test_half_lam_is_mean(self):
        rng = np.random.default_rng(8)
        S = rng.normal(size=(4, 4))
        St = rng.normal(size=(4, 4))
        labels = np.array([0, 0, 1, 2])
        loss, l_ccl, l_dis = pretrain_loss(S, St, labels, 0.3, 0.5, lam=0.5)
        expect = 0.5 * l_ccl + 0.5 * l_dis
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
        table = corpus.token_table()
        batches = [sample_paired_batch(ds, table, sampler, rng, 7)
                   for _ in range(3)]
        sampler = SqrtSampler(ds.counts, seed=4)
        ref_rng = np.random.default_rng(9)
        for batch in batches:
            np.testing.assert_array_equal(batch.labels,
                                          ds.y[sampler.draw(7)])
            for c, seq in zip(batch.labels, batch.sequences):
                options = class_sentences(corpus, int(c))
                want = options[int(ref_rng.integers(len(options)))]
                assert seq.tolist() == want.tolist()
        assert rng.random() == ref_rng.random()

    def test_rows_locate_the_batch(self):
        """`idx` are the images' dataset rows and `rows` the sentences'
        rows of the corpus table, and the batch's bags hold exactly those
        sentences."""
        ds, corpus, _ = tiny_setup(seed=5)
        sampler, rng = SqrtSampler(ds.counts, seed=5), np.random.default_rng(2)
        table = corpus.token_table()
        everything = table.sequences()
        starts = table.class_starts
        for _ in range(4):
            batch = sample_paired_batch(ds, table, sampler, rng, 9)
            np.testing.assert_array_equal(batch.images,
                                          ds.X[batch.idx].astype(np.float64))
            np.testing.assert_array_equal(batch.labels, ds.y[batch.idx])
            assert len(batch.sequences) == len(batch.rows) == 9
            np.testing.assert_array_equal(
                batch.bags.ids, np.concatenate([everything[r]
                                                for r in batch.rows]))
            for c, r, seq in zip(batch.labels, batch.rows, batch.sequences):
                assert starts[c] <= r < starts[c] + table.class_sizes[c]
                np.testing.assert_array_equal(seq, everything[r])


def per_step_batches(ds, table, sampler, rng, batch_size, steps):
    """(images, labels, idx, rows, sentences) per step, drawn one batch
    at a time: a class draw, a draw inside the classes, and one
    rng.integers call over the batch's class sizes."""
    counts = np.asarray(ds.counts)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    out = []
    for _ in range(steps):
        classes = sampler.draw_classes(batch_size)
        within = (sampler.rng.random(batch_size)
                  * counts[classes]).astype(np.int64)
        idx = offsets[classes] + within
        labels = ds.y[idx]
        rows = table.class_starts[labels] \
            + rng.integers(table.class_sizes[labels])
        sentences = table.sequences()
        out.append((ds.X[idx].astype(np.float64), labels, idx, rows,
                    [sentences[r] for r in rows]))
    return out


class TestSampleEpoch:
    @pytest.mark.parametrize("seed", [0, 5, 1000])
    @pytest.mark.parametrize("batch_size", [1, 5, 32])
    @pytest.mark.parametrize("counts", [[12, 12, 12, 12], [2, 1]])
    def test_equals_batches_drawn_one_by_one(self, seed, batch_size,
                                             counts):
        """`sample_epoch` gives the batches that `steps` calls of
        `sample_paired_batch` and a per-step oracle give, and leaves both
        generators in the same state; [2, 1] is a dataset smaller than
        one batch."""
        ds = gen_synthetic(len(counts), counts, d_img=6, noise_sigma=0.25,
                           seed=seed, test_per_class=2)
        corpus, _ = gen_corpus(len(counts), 6, 4, vocab_size=64,
                               noise_fraction=0.0, seed=seed)
        table, steps = corpus.token_table(), 4

        def streams():
            return (SqrtSampler(ds.counts, seed=seed),
                    np.random.default_rng(seed + 1))

        sampler, rng = streams()
        epoch = sample_epoch(ds, table, sampler, rng, batch_size, steps)
        one_sampler, one_rng = streams()
        one_by_one = [sample_paired_batch(ds, table, one_sampler, one_rng,
                                          batch_size) for _ in range(steps)]
        oracle_sampler, oracle_rng = streams()
        oracle = per_step_batches(ds, table, oracle_sampler, oracle_rng,
                                  batch_size, steps)
        assert len(epoch) == steps
        for batch, single, (images, labels, idx, rows, sentences) in zip(
                epoch, one_by_one, oracle):
            for got in (batch, single):
                np.testing.assert_array_equal(got.images, images)
                assert got.images.dtype == np.float64
                np.testing.assert_array_equal(got.labels, labels)
                np.testing.assert_array_equal(got.idx, idx)
                np.testing.assert_array_equal(got.rows, rows)
                assert [s.tolist() for s in got.sequences] == \
                    [s.tolist() for s in sentences]
                np.testing.assert_array_equal(got.bags.ids,
                                              np.concatenate(sentences))
                assert got.bags.offsets[0] == 0
                assert got.bags.class_sizes.tolist() == [batch_size]
        for group in ((sampler, one_sampler, oracle_sampler),
                      (rng, one_rng, oracle_rng)):
            draws = [g.rng.random() if isinstance(g, SqrtSampler)
                     else g.random() for g in group]
            assert draws[0] == draws[1] == draws[2]


def oracle_pretrain(dataset, corpus, model, teacher, cfg):
    """`run_pretrain` fed a list of token arrays per batch, one sentence
    drawn per image from the class's sentences, with the teacher matrix
    from `TeacherPair.similarity` on the same lists."""
    steps_per_epoch = max(1, int(np.ceil(len(dataset.y) / cfg.batch_size)))
    sched = LrSchedule(cfg.base_lr, 0.0, cfg.epochs * steps_per_epoch)
    opt = AdamW(model.params(), cfg.base_lr, weight_decay=cfg.weight_decay)
    sampler = SqrtSampler(dataset.counts, seed=cfg.seed)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x9E7]))
    distill = cfg.lam < 1.0
    tau_teacher = teacher.tau if distill else 1.0
    trace, step = [], 0
    for epoch in range(cfg.epochs):
        for _ in range(steps_per_epoch):
            idx = sampler.draw(cfg.batch_size)
            images, labels = dataset.X[idx].astype(np.float64), dataset.y[idx]
            sequences = []
            for c in labels.tolist():
                options = class_sentences(corpus, c)
                sequences.append(options[int(rng.integers(len(options)))])
            S = model.similarity(images, sequences)
            S_teacher = (teacher.similarity(images, sequences)
                         if distill else None)
            loss, l_ccl, l_dis = pretrain_loss(
                S, S_teacher, labels, model.tau, tau_teacher, cfg.lam)
            opt.zero_grad()
            loss.backward()
            opt.step(lr=cosine_lr(sched, step))
            model.clamp_tau()
            trace.append((epoch, step, l_ccl,
                          l_dis if l_dis is not None else 0.0,
                          float(loss.data), float(model.tau.data)))
            step += 1
    return trace


class TestRunPretrain:
    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
    def test_matches_list_fed_oracle_loop(self, lam):
        """24 steps: the trace and the final parameters, bit for bit."""
        cfg = PretrainConfig(epochs=2, batch_size=4, base_lr=0.01, lam=lam,
                             seed=6)
        runs = []
        for loop in (run_pretrain, oracle_pretrain):
            ds, corpus, model = tiny_setup(seed=6)
            teacher = TeacherPair(CvlpModel(6, 6, 64, seed=13))
            runs.append((loop(ds, corpus, model, teacher, cfg),
                         model.state()))
        (trace, state), (want_trace, want_state) = runs
        assert len(trace) == 24
        np.testing.assert_array_equal(np.array(trace), np.array(want_trace))
        for name, value in want_state.items():
            np.testing.assert_array_equal(state[name], value)

    @pytest.mark.parametrize("draw_steps", [1, 5, 12])
    def test_draws_in_runs_match_the_oracle_loop(self, monkeypatch,
                                                 draw_steps):
        """Epochs of 12 steps drawn 1, 5 (5 + 5 + 2) or 12 steps at a
        time give the oracle loop's trace and parameters, bit for bit."""
        monkeypatch.setattr(pretrain_module, "DRAW_STEPS", draw_steps)
        cfg = PretrainConfig(epochs=2, batch_size=4, base_lr=0.01, lam=0.5,
                             seed=8)
        runs = []
        for loop in (run_pretrain, oracle_pretrain):
            ds, corpus, model = tiny_setup(seed=8)
            teacher = TeacherPair(CvlpModel(6, 6, 64, seed=15))
            runs.append((loop(ds, corpus, model, teacher, cfg),
                         model.state()))
        (trace, state), (want_trace, want_state) = runs
        assert len(trace) == 24
        np.testing.assert_array_equal(np.array(trace), np.array(want_trace))
        for name, value in want_state.items():
            np.testing.assert_array_equal(state[name], value)

    def test_corpus_reads_do_not_grow_with_steps(self, monkeypatch):
        """The corpus is read once per run into its token table, never
        per step."""
        calls = []
        for name in ("token_table",):
            method = getattr(ClassCorpus, name)

            def counted(self, *args, _method=method, _name=name):
                calls.append(_name)
                return _method(self, *args)

            monkeypatch.setattr(ClassCorpus, name, counted)
        counts = []
        for epochs in (1, 3):
            ds, corpus, model = tiny_setup(seed=7)
            teacher = TeacherPair(CvlpModel(6, 6, 64, seed=14))
            calls.clear()
            run_pretrain(ds, corpus, model, teacher,
                         PretrainConfig(epochs=epochs, batch_size=4,
                                        base_lr=0.01, lam=0.5, seed=7))
            counts.append(sorted(calls))
        assert counts[0] == counts[1]

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
        seqs = [class_sentences(corpus, c)[0] for c in range(20)]
        S = model.similarity(ds.test_X.astype(np.float64), seqs).data
        diag = np.array([S[i, ds.test_y[i]] for i in range(len(ds.test_y))])
        mask = np.ones_like(S, dtype=bool)
        mask[np.arange(len(ds.test_y)), ds.test_y] = False
        separation = diag.mean() - S[mask].mean()
        assert separation >= 0.2

    def test_never_calls_the_tape(self, monkeypatch):
        """Teacher and student steps run without `Tensor.backward`."""
        calls = []
        backward = Tensor.backward

        def counted(self):
            calls.append(self)
            return backward(self)

        monkeypatch.setattr(Tensor, "backward", counted)
        for lam, teacher_seed in ((1.0, None), (0.5, 12)):
            ds, corpus, model = tiny_setup(seed=5)
            teacher = (None if teacher_seed is None else
                       TeacherPair(CvlpModel(6, 6, 64, seed=teacher_seed)))
            trace = run_pretrain(ds, corpus, model, teacher,
                                 PretrainConfig(epochs=1, batch_size=4,
                                                base_lr=0.01, lam=lam))
            assert len(trace) == 12
        assert calls == []

    def test_non_finite_loss_aborts(self):
        ds, corpus, model = tiny_setup()
        model.tau.data = np.array(0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(NumericError) as exc:
                run_pretrain(ds, corpus, model, None,
                             PretrainConfig(epochs=1, batch_size=4,
                                            base_lr=0.01, lam=1.0))
        assert "step 0" in str(exc.value)


class TestPretrainStep:
    # lengths 3, 1, 4, 2 and 3: token 7 repeats within the first and
    # third sentences and across three of them, token 2 in two
    SEQS = [[7, 3, 7], [7], [1, 2, 7, 7], [5, 2], [9, 9, 4]]
    LABELS = np.array([0, 1, 0, 2, 1])

    def batch(self, seed=0):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(5, 6)), rng.normal(size=(5, 5))

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
    def test_matches_the_tape_bit_for_bit(self, lam):
        """The loss, both logged losses and all 8 gradients equal those of
        `pretrain_loss(model.similarity(...)).backward()`, bit for bit,
        and the step's gradients land in AdamW's buffer."""
        images, S_teacher = self.batch()
        got, want = [], []
        for out in (got, want):
            model = CvlpModel(6, 4, 12, seed=2, tau_init=0.3)
            opt = AdamW(model.params(), 0.01)
            opt.zero_grad()
            if out is got:
                losses = pretrain_step(model, images, self.SEQS, self.LABELS,
                                       S_teacher, 0.4, lam)
            else:
                loss, l_ccl, l_dis = pretrain_loss(
                    model.similarity(images, self.SEQS), S_teacher,
                    self.LABELS, model.tau, 0.4, lam)
                loss.backward()
                losses = (float(loss.data), l_ccl, l_dis)
            out.extend([losses, {k: p.grad for k, p in
                                 model.params().items()}, opt])
        assert got[0] == want[0]
        assert (got[0][2] is None) == (lam == 1.0)
        assert sorted(got[1]) == sorted(want[1]) and len(got[1]) == 8
        for name, grad in want[1].items():
            np.testing.assert_array_equal(got[1][name], grad, err_msg=name)
            assert np.shares_memory(got[1][name], got[2]._g)
        assert np.any(got[1]["lin.tok"][7] != 0.0)

    def test_non_finite_loss_writes_no_gradient(self):
        images, _ = self.batch()
        model = CvlpModel(6, 4, 12, seed=2)
        model.tau.data = np.array(0.0)
        for p in model.params().values():
            p.grad = np.full(p.shape, 7.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(NumericError):
                pretrain_step(model, images, self.SEQS, self.LABELS, None,
                              1.0, 1.0)
        for p in model.params().values():
            assert (p.grad == 7.0).all()

    def test_allocates_missing_gradients(self):
        images, S_teacher = self.batch()
        model = CvlpModel(6, 4, 12, seed=2)
        pretrain_step(model, images, self.SEQS, self.LABELS, S_teacher,
                      0.4, 0.5)
        for name, p in model.params().items():
            assert p.grad.shape == p.shape, name
