"""Tests for the contrastive and distillation losses and the pre-training loop."""

import dataclasses
import math

import numpy as np
import pytest

import composite_oracles as oracle
from composite_oracles import class_sentences
from vlltr import cli, pipeline
from vlltr import pretrain as pretrain_module
from vlltr.checkpoint import load_params, sections
from vlltr.config import RunConfig
from vlltr.data import (SqrtSampler, gen_corpus, gen_synthetic,
                        sqrt_class_weights)
from vlltr.encoders import CvlpModel, LinguisticEncoder, TeacherPair, clamp_tau
from vlltr.errors import NumericError, ShapeMismatch, ValidationError
from vlltr.optim import AdamW, cosine_lr
from vlltr.pretrain import (
    pretrain_loss,
    pretrain_step,
    run_pretrain,
    sample_epoch,
    sample_paired_batch,
    save_trace,
)
from vlltr.tensor import Tensor

# frozen by hand: 2 * ln(1 + e^-1) for the N=2 identity-matrix, tau=1 case
TWO_POINT_IDENTITY_LOSS = 0.6265233750364456
TOL = 1e-10


def ccl_loss(S, labels, tau):
    """L_ccl: `pretrain_loss` at lam 1, which never reads the teacher."""
    return pretrain_loss(S, None, labels, tau, 1.0, lam=1.0).value


def distill_loss(S, St, tau, tau_t):
    """L_dis: `pretrain_loss` at lam 0, whose value the labels do not
    enter."""
    return pretrain_loss(S, St, np.zeros(len(S), dtype=int), tau, tau_t,
                         lam=0.0).value


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
        l = ccl_loss(np.array([[0.37]]), np.array([5]), tau=0.5)
        assert abs(l) < 1e-12

    def test_all_same_class_uniform_matrix(self):
        n = 3
        l = ccl_loss(np.full((n, n), 0.8), np.zeros(n, dtype=int), tau=0.2)
        assert l == pytest.approx(2 * math.log(n), abs=1e-12)

    def test_two_point_identity(self):
        l = ccl_loss(np.eye(2), np.array([0, 1]), tau=1.0)
        assert l == pytest.approx(TWO_POINT_IDENTITY_LOSS, abs=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        S = rng.normal(size=(5, 5))
        labels = rng.integers(0, 3, size=5)
        a = ccl_loss(S, labels, 0.3)
        b = ccl_loss(S + 7.5, labels, 0.3)
        assert abs(a - b) <= 1e-10

    def test_non_negative(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            S = rng.normal(size=(n, n))
            labels = rng.integers(0, max(1, n - 1) + 1, size=n)
            assert ccl_loss(S, labels, 0.5) >= -1e-12

    def test_same_class_swap_invariance(self):
        rng = np.random.default_rng(2)
        S = rng.normal(size=(4, 4))
        labels = np.array([0, 0, 1, 2])
        a = ccl_loss(S, labels, 0.4)
        swapped = S[[1, 0, 2, 3]][:, [1, 0, 2, 3]]
        b = ccl_loss(swapped, labels, 0.4)
        assert a == pytest.approx(b, abs=1e-12)

    def test_naive_loop_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            S = rng.normal(size=(n, n))
            labels = rng.integers(0, n, size=n)
            tau = float(rng.uniform(0.1, 1.0))
            got = ccl_loss(S, labels, tau)
            assert got == pytest.approx(naive_ccl(S, labels, tau), abs=1e-10)

    def test_shape_errors(self):
        with pytest.raises(ShapeMismatch):
            ccl_loss(np.zeros((2, 3)), np.array([0, 1]), 0.5)
        with pytest.raises(ShapeMismatch):
            ccl_loss(np.zeros((2, 2)), np.array([0, 1, 2]), 0.5)


class TestDistill:
    def test_single_pair_is_zero(self):
        l = distill_loss(np.array([[1.3]]), np.array([[0.2]]), 0.5, 0.7)
        assert abs(l) < 1e-12

    def test_uniform_teacher_weights(self):
        rng = np.random.default_rng(4)
        S = rng.normal(size=(3, 3))
        St = np.full((3, 3), 0.6)
        got = distill_loss(S, St, 0.3, 0.9)
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
            got = distill_loss(S, St, float(tau), float(tau_t))
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
        loss = pretrain_loss(S, Poison(), labels, 0.4, 0.9, lam=1.0)
        assert loss.l_dis is None
        both = pretrain_loss(S, rng.normal(size=(3, 3)), labels, 0.4, 0.9,
                             lam=0.5)
        assert loss.value == loss.l_ccl == both.l_ccl

    def test_lam_zero_bit_exact(self):
        rng = np.random.default_rng(7)
        S = rng.normal(size=(3, 3))
        St = rng.normal(size=(3, 3))
        labels = np.array([0, 1, 2])
        loss = pretrain_loss(S, St, labels, 0.4, 0.9, lam=0.0)
        both = pretrain_loss(S, St, labels, 0.4, 0.9, lam=0.5)
        assert loss.value == both.l_dis
        assert loss.value == loss.l_dis

    def test_half_lam_is_mean(self):
        rng = np.random.default_rng(8)
        S = rng.normal(size=(4, 4))
        St = rng.normal(size=(4, 4))
        labels = np.array([0, 0, 1, 2])
        loss, l_ccl, l_dis, _, _ = pretrain_loss(S, St, labels, 0.3, 0.5,
                                                 lam=0.5)
        expect = 0.5 * l_ccl + 0.5 * l_dis
        assert loss == pytest.approx(expect, abs=1e-15)

    def test_lam_out_of_range(self):
        with pytest.raises(ValidationError):
            pretrain_loss(np.eye(2), np.eye(2), np.array([0, 1]), 0.5, 0.5, lam=1.5)


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
        table = corpus.table
        batches = [sample_paired_batch(ds, table, sampler, rng, 7)
                   for _ in range(3)]
        sampler = SqrtSampler(ds.counts, seed=4)
        ref_rng = np.random.default_rng(9)
        for batch in batches:
            np.testing.assert_array_equal(batch.labels,
                                          ds.y[sampler.draw_epoch(1, 7)[0]])
            for c, seq in zip(batch.labels, batch.bags.sequences()):
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
        table = corpus.table
        everything = table.sequences()
        starts = table.class_starts
        for _ in range(4):
            batch = sample_paired_batch(ds, table, sampler, rng, 9)
            np.testing.assert_array_equal(batch.images,
                                          ds.X[batch.idx].astype(np.float64))
            np.testing.assert_array_equal(batch.labels, ds.y[batch.idx])
            assert len(batch.bags.sequences()) == len(batch.rows) == 9
            np.testing.assert_array_equal(
                batch.bags.ids, np.concatenate([everything[r]
                                                for r in batch.rows]))
            for c, r, seq in zip(batch.labels, batch.rows, batch.bags.sequences()):
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
        classes = sampler.rng.choice(len(counts), size=batch_size,
                                     p=sqrt_class_weights(counts))
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
        table, steps = corpus.table, 4

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
                assert [s.tolist() for s in got.bags.sequences()] == \
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


def pretrain_cfg(epochs, lam, seed=0, batch=4, lr=0.01):
    """A RunConfig whose fields `run_pretrain` reads are set."""
    return RunConfig(pretrain_epochs=epochs, pretrain_batch=batch,
                     pretrain_lr=lr, lam=lam, seed=seed)


def oracle_pretrain(dataset, corpus, model, teacher, cfg):
    """`run_pretrain` fed a list of token arrays per batch, one sentence
    drawn per image from the class's sentences, with the teacher matrix
    from `TeacherPair.similarity` on the same lists."""
    steps_per_epoch = max(1, int(np.ceil(len(dataset.y)
                                         / cfg.pretrain_batch)))
    total_steps = cfg.pretrain_epochs * steps_per_epoch
    opt = AdamW(model.params(), cfg.weight_decay)
    sampler = SqrtSampler(dataset.counts, seed=cfg.seed)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x9E7]))
    distill = cfg.lam < 1.0
    tau_teacher = teacher.tau if distill else 1.0
    trace, step = [], 0
    for epoch in range(cfg.pretrain_epochs):
        for _ in range(steps_per_epoch):
            idx = sampler.draw_epoch(1, cfg.pretrain_batch)[0]
            images, labels = dataset.X[idx].astype(np.float64), dataset.y[idx]
            sequences = []
            for c in labels.tolist():
                options = class_sentences(corpus, c)
                sequences.append(options[int(rng.integers(len(options)))])
            S_teacher = (teacher.similarity(images, sequences)
                         if distill else None)
            opt.zero_grad()
            loss, l_ccl, l_dis = pretrain_step(
                model, images, sequences, labels, S_teacher, tau_teacher,
                cfg.lam)
            opt.step(cosine_lr(cfg.pretrain_lr, step, total_steps))
            clamp_tau(model.tau)
            trace.append((epoch, step, l_ccl,
                          l_dis if l_dis is not None else 0.0,
                          loss, float(model.tau.data)))
            step += 1
    return trace


class TestRunPretrain:
    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
    def test_matches_list_fed_oracle_loop(self, lam):
        """24 steps: the trace and the final parameters, bit for bit."""
        cfg = pretrain_cfg(2, lam, seed=6)
        runs = []
        for loop in (run_pretrain, oracle_pretrain):
            ds, corpus, model = tiny_setup(seed=6)
            teacher = TeacherPair(CvlpModel(6, 6, 64, seed=13))
            runs.append((loop(ds, corpus, model, teacher, cfg),
                         sections(model.params())))
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
        cfg = pretrain_cfg(2, 0.5, seed=8)
        runs = []
        for loop in (run_pretrain, oracle_pretrain):
            ds, corpus, model = tiny_setup(seed=8)
            teacher = TeacherPair(CvlpModel(6, 6, 64, seed=15))
            runs.append((loop(ds, corpus, model, teacher, cfg),
                         sections(model.params())))
        (trace, state), (want_trace, want_state) = runs
        assert len(trace) == 24
        np.testing.assert_array_equal(np.array(trace), np.array(want_trace))
        for name, value in want_state.items():
            np.testing.assert_array_equal(state[name], value)

    def test_corpus_reads_do_not_grow_with_steps(self):
        """The corpus is read once per run into its token table, never
        per step."""
        calls = []

        class Counted:
            def __init__(self, corpus):
                self._corpus = corpus

            def __getattr__(self, name):
                calls.append(name)
                return getattr(self._corpus, name)

        counts = []
        for epochs in (1, 3):
            ds, corpus, model = tiny_setup(seed=7)
            teacher = TeacherPair(CvlpModel(6, 6, 64, seed=14))
            calls.clear()
            run_pretrain(ds, Counted(corpus), model, teacher,
                         pretrain_cfg(epochs, 0.5, seed=7))
            counts.append(sorted(calls))
        assert counts[0] == counts[1] == ["table"]

    def test_zero_epochs_leaves_model(self):
        ds, corpus, model = tiny_setup()
        before = {k: v.copy() for k, v in sections(model.params()).items()}
        trace = run_pretrain(ds, corpus, model, None,
                             pretrain_cfg(0, 1.0))
        assert trace == []
        for k, v in sections(model.params()).items():
            np.testing.assert_array_equal(v, before[k])

    def test_bitwise_deterministic(self):
        results = []
        for _ in range(2):
            ds, corpus, model = tiny_setup(seed=3)
            run_pretrain(ds, corpus, model, None,
                         pretrain_cfg(2, 1.0, seed=3))
            results.append(sections(model.params()))
        for k in results[0]:
            np.testing.assert_array_equal(results[0][k], results[1][k])

    def test_lam_below_one_requires_teacher(self):
        ds, corpus, model = tiny_setup()
        with pytest.raises(ValidationError):
            run_pretrain(ds, corpus, model, None,
                         pretrain_cfg(1, 0.5))

    def test_trace_lambda_identity(self, tmp_path):
        ds, corpus, model = tiny_setup(seed=1)
        teacher = TeacherPair(CvlpModel(6, 6, 64, seed=11))
        trace = run_pretrain(ds, corpus, model, teacher,
                             pretrain_cfg(1, 0.5, seed=1))
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
                             pretrain_cfg(1, 1.0, seed=2))
        assert all(entry[3] == 0.0 for entry in trace)

    def test_training_separates_classes(self):
        ds = gen_synthetic(20, [20] * 20, d_img=16, noise_sigma=0.25, seed=0,
                           test_per_class=4)
        corpus, _ = gen_corpus(20, 20, 8, vocab_size=128, noise_fraction=0.0,
                               seed=0)
        model = CvlpModel(16, 16, 128, seed=0)
        trace = run_pretrain(ds, corpus, model, None,
                             pretrain_cfg(30, 1.0, seed=0, batch=32, lr=3e-3))
        assert trace[-1][2] < trace[0][2]
        seqs = [class_sentences(corpus, c)[0] for c in range(20)]
        S = model.similarity(ds.test_X.astype(np.float64), seqs)
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
                                 pretrain_cfg(1, lam))
            assert len(trace) == 12
        assert calls == []

    def test_non_finite_loss_aborts(self):
        ds, corpus, model = tiny_setup()
        model.tau.data = np.array(0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(NumericError) as exc:
                run_pretrain(ds, corpus, model, None,
                             pretrain_cfg(1, 1.0))
        assert "step 0" in str(exc.value)


@pytest.mark.parametrize("head", ["lgr", "fc", "knn"])
@pytest.mark.parametrize("lam", [0.5, 1.0])
def test_the_tape_carries_only_finetuning(monkeypatch, tmp_path, mini_cfg,
                                          head, lam):
    """Over a whole run, every `Tensor.backward` call is a step of
    `run_finetune`, one per step, over a graph of exactly two nodes
    with a backward: the visual encoder and the head's loss. The text
    encoder returns arrays and `classify_dataset` constructs no
    Tensor. Over the run and a `retrieve`, no Tensor with parents or a
    backward is built outside `run_finetune`: anchor selection and
    retrieval embed images through the encoder's array forward."""
    backward, finetune = Tensor.backward, pipeline.run_finetune
    classify, init = pipeline.classify_dataset, Tensor.__init__
    encode = LinguisticEncoder.__call__
    depths, steps, inner, encoded = [], [], [], set()
    depth, classifying, built, stray = [0], [0], [0], []

    def counted_backward(self):
        depths.append(depth[0])
        seen, todo = set(), [self]
        while todo:
            node = todo.pop()
            if id(node) not in seen:
                seen.add(id(node))
                todo.extend(node._parents)
                inner.append(node._backward is not None)
        return backward(self)

    def counted_finetune(*args, **kwargs):
        depth[0] += 1
        try:
            result = finetune(*args, **kwargs)
        finally:
            depth[0] -= 1
        steps.append(len(result[2]))
        return result

    def counted_classify(*args, **kwargs):
        classifying[0] += 1
        try:
            return classify(*args, **kwargs)
        finally:
            classifying[0] -= 1

    def counted_init(self, *args, **kwargs):
        built[0] += classifying[0]
        init(self, *args, **kwargs)
        if not depth[0] and (self._parents or self._backward is not None):
            stray.append(self.shape)

    def typed_encode(self, sequences):
        out = encode(self, sequences)
        encoded.add(type(out))
        return out

    monkeypatch.setattr(Tensor, "backward", counted_backward)
    monkeypatch.setattr(Tensor, "__init__", counted_init)
    monkeypatch.setattr(pipeline, "run_finetune", counted_finetune)
    monkeypatch.setattr(pipeline, "classify_dataset", counted_classify)
    monkeypatch.setattr(LinguisticEncoder, "__call__", typed_encode)
    cfg = dataclasses.replace(mini_cfg, head=head, lam=lam)
    pipeline.run_all(cfg, tmp_path)
    cli._cmd_retrieve(cfg, tmp_path, "0 7 1", 3)
    assert stray == []
    assert len(steps) == 1 and steps[0] > 0
    assert depths == [1] * steps[0]
    assert sum(inner) == 2 * steps[0]
    assert encoded == {np.ndarray}
    assert built == [0]


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
        """The loss and both logged losses are `pretrain_loss`'s floats on
        `model.similarity`, bit for bit; all 8 gradients land in AdamW's
        buffer and equal, within TOL, those of the composite-oracle tape
        of the same loss."""
        images, S_teacher = self.batch()
        model = CvlpModel(6, 4, 12, seed=2, tau_init=0.3)
        opt = AdamW(model.params(), weight_decay=0.05)
        opt.zero_grad()
        losses = pretrain_step(model, images, self.SEQS, self.LABELS,
                               S_teacher, 0.4, lam)
        want = pretrain_loss(model.similarity(images, self.SEQS), S_teacher,
                             self.LABELS, model.tau.data, 0.4, lam)
        assert losses == (want.value, want.l_ccl, want.l_dis)
        assert (losses[2] is None) == (lam == 1.0)

        twin = CvlpModel(6, 4, 12, seed=0)
        load_params(twin.params(), sections(model.params()), "model.ck")
        oracle.pretrain_loss(
            oracle.cosine_sim_matrix(oracle.visual_encode(twin.vis, images),
                                     oracle.bag_encode(twin.lin, self.SEQS)),
            S_teacher, self.LABELS, twin.tau, 0.4, lam).backward()
        grads = {k: p.grad for k, p in model.params().items()}
        assert sorted(grads) == sorted(twin.params()) and len(grads) == 8
        for name, p in twin.params().items():
            np.testing.assert_allclose(grads[name], p.grad, rtol=0, atol=TOL,
                                       err_msg=name)
            assert np.shares_memory(grads[name], opt._g)
        assert np.any(grads["lin.tok"][7] != 0.0)

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
