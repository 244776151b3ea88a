"""Tests for the recognition heads, cache file, and fine-tuning."""

import dataclasses
import hashlib

import numpy as np
import pytest

from vlltr.anchors import AnchorSet, select_anchors
from vlltr.checkpoint import sections
from vlltr.data import gen_corpus, gen_synthetic
from vlltr.encoders import CvlpModel, VisualEncoder
from vlltr.errors import ShapeMismatch, ValidationError
from vlltr.head import (
    HEADS,
    FcParams,
    Head,
    LgrParams,
    classify_dataset,
    compute_anchor_embeddings,
    fc_forward,
    knn_forward,
    knn_keys,
    lgr_forward,
    lgr_keys,
    load_anchor_embeddings,
    rec_loss,
    run_finetune,
    save_anchor_embeddings,
)
from vlltr.tensor import parameter


def make_params(D, C, seed=0, tau=0.3):
    return LgrParams(D, C, tau_init=tau, rng=np.random.default_rng(seed))


def naive_lgr(E_I, anchors, params):
    """Pure-numpy nested-loop transcription of the head forward pass."""
    x = np.atleast_2d(np.asarray(E_I, dtype=np.float64))
    anchors = np.asarray(anchors, dtype=np.float64)
    C, M, D = anchors.shape
    N = len(x)

    def ln(v, g, b):
        mu, var = v.mean(), v.var()
        return (v - mu) / np.sqrt(var + 1e-5) * g + b

    q = np.stack([ln(x[i], params.q_ln_g.data, params.q_ln_b.data)
                  @ params.q_w.data + params.q_b.data for i in range(N)])
    att = np.empty((N, C, M))
    g_rows = np.empty((N, C, D))
    cos = np.empty((N, C))
    for i in range(N):
        for c in range(C):
            scores = np.empty(M)
            for m in range(M):
                k = ln(anchors[c, m], params.k_ln_g.data, params.k_ln_b.data) \
                    @ params.k_w.data + params.k_b.data
                scores[m] = q[i] @ k / np.sqrt(D)
            e = np.exp(scores - scores.max())
            att[i, c] = e / e.sum()
            g_rows[i, c] = att[i, c] @ anchors[c]
            cos[i, c] = x[i] @ g_rows[i, c] / (
                np.linalg.norm(x[i]) * np.linalg.norm(g_rows[i, c]))
    z = cos / float(params.tau.data)
    e = np.exp(z - z.max(axis=1, keepdims=True))
    p_t = e / e.sum(axis=1, keepdims=True)
    h = np.maximum(x @ params.mlp_w1.data + params.mlp_b1.data, 0.0)
    zi = h @ params.mlp_w2.data + params.mlp_b2.data
    ei = np.exp(zi - zi.max(axis=1, keepdims=True))
    p_i = ei / ei.sum(axis=1, keepdims=True)
    return p_i, p_t, att, g_rows


class TestLgrForward:
    def test_single_anchor_reduces_to_plain_gather(self):
        rng = np.random.default_rng(0)
        anchors = rng.normal(size=(3, 1, 4))
        params = make_params(4, 3)
        out = lgr_forward(rng.normal(size=(2, 4)), anchors, params,
                          lgr_keys(anchors))
        np.testing.assert_allclose(out.attention, 1.0, atol=1e-12)
        np.testing.assert_allclose(out.G,
                                   np.broadcast_to(anchors[:, 0], (2, 3, 4)),
                                   atol=1e-12)

    def test_single_class_text_path_is_certain(self):
        rng = np.random.default_rng(1)
        x, anchors = rng.normal(size=(2, 4)), rng.normal(size=(1, 3, 4))
        out = lgr_forward(x, anchors, make_params(4, 1), lgr_keys(anchors))
        np.testing.assert_allclose(out.P_T, 1.0, atol=1e-12)

    def test_naive_loop_oracle(self):
        rng = np.random.default_rng(2)
        for trial in range(30):
            N = int(rng.integers(1, 5))
            C = int(rng.integers(1, 5))
            M = int(rng.integers(1, 4))
            D = int(rng.integers(2, 6))
            params = make_params(D, C, seed=trial,
                                 tau=float(rng.uniform(0.1, 1.0)))
            x = rng.normal(size=(N, D))
            anchors = rng.normal(size=(C, M, D))
            out = lgr_forward(x, anchors, params, lgr_keys(anchors))
            p_i, p_t, att, g = naive_lgr(x, anchors, params)
            np.testing.assert_allclose(out.P_I, p_i, atol=1e-10)
            np.testing.assert_allclose(out.P_T, p_t, atol=1e-10)
            np.testing.assert_allclose(out.attention, att, atol=1e-10)
            np.testing.assert_allclose(out.G, g, atol=1e-10)

    def test_probability_normalization(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x, anchors = rng.normal(size=(3, 5)), rng.normal(size=(4, 2, 5))
            out = lgr_forward(x, anchors, make_params(5, 4),
                              lgr_keys(anchors))
            np.testing.assert_allclose(out.P_I.sum(axis=1), 1.0, atol=1e-6)
            np.testing.assert_allclose(out.P_T.sum(axis=1), 1.0, atol=1e-6)
            np.testing.assert_allclose(out.attention.sum(axis=2), 1.0,
                                       atol=1e-6)

    def test_batch_matches_per_sample(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 4))
        anchors = rng.normal(size=(2, 3, 4))
        params = make_params(4, 2)
        full = lgr_forward(x, anchors, params, lgr_keys(anchors))
        for i in range(3):
            solo = lgr_forward(x[i:i + 1], anchors, params, lgr_keys(anchors))
            np.testing.assert_allclose(
                full.P_I[i] + full.P_T[i],
                solo.P_I[0] + solo.P_T[0], atol=1e-12)

    def test_mlp_bias_shift_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 4))
        anchors = rng.normal(size=(3, 2, 4))
        params = make_params(4, 3)
        keys = lgr_keys(anchors)
        before = lgr_forward(x, anchors, params, keys).P_I
        params.mlp_b2.data = params.mlp_b2.data + 11.0
        after = lgr_forward(x, anchors, params, keys).P_I
        np.testing.assert_allclose(before, after, atol=1e-12)

    def test_anchor_scale_invariant_attention(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 4))
        anchors = rng.normal(size=(3, 2, 4))
        params = make_params(4, 3)
        base = lgr_forward(x, anchors, params, lgr_keys(anchors))
        scaled = anchors.copy()
        scaled[1] *= 4.0  # keys are layer-normed, so per-class scale drops out
        out = lgr_forward(x, scaled, params, lgr_keys(scaled))
        # equality holds only up to the layer-norm epsilon
        np.testing.assert_allclose(out.attention, base.attention,
                                   atol=1e-5)

    def test_shape_and_zero_norm_errors(self):
        params = make_params(4, 2)
        anchors = np.ones((2, 2, 4))
        keys = lgr_keys(anchors)
        with pytest.raises(ShapeMismatch):
            lgr_forward(np.ones((2, 3)), anchors, params, keys)
        with pytest.raises(ValidationError):
            lgr_forward(np.zeros((1, 4)), anchors, params, keys)


@pytest.mark.parametrize("forward", ["lgr", "fc", "knn"])
def test_a_single_row_is_a_shape_mismatch(forward):
    """Embeddings are (N, D): a (D,) row is refused, not reshaped."""
    anchors = np.random.default_rng(7).normal(size=(2, 2, 4))
    with pytest.raises(ShapeMismatch, match=r"embeddings \(4,\)"):
        if forward == "lgr":
            lgr_forward(np.ones(4), anchors, make_params(4, 2),
                        lgr_keys(anchors))
        elif forward == "fc":
            fc_forward(np.ones(4), FcParams(4, 2, np.random.default_rng(0)))
        else:
            knn_forward(np.ones(4), anchors, 0.1, knn_keys(anchors))


def test_fc_embeddings_of_another_width_are_a_shape_mismatch():
    fc = FcParams(4, 3, np.random.default_rng(0))
    with pytest.raises(ShapeMismatch,
                       match=r"fc_forward: embeddings \(2, 5\) vs weights "
                             r"\(4, 3\)"):
        fc_forward(np.ones((2, 5)), fc)


class TestRecLossAndPredict:
    def test_certain_output_zero_loss(self):
        p = np.array([[0.0, 1.0]])
        assert float(rec_loss((p, p), np.array([1]))[0]) < 1e-10

    def test_uniform_output_loss(self):
        """Each path adds its cross entropy; a path the head lacks adds
        nothing."""
        C = 4
        p = np.full((2, C), 1.0 / C)
        y = np.array([0, 3])
        assert float(rec_loss((p, p), y)[0]) == \
            pytest.approx(2 * np.log(C), abs=1e-12)
        for paths in ((p, None), (None, p)):
            value, backward = rec_loss(paths, y)
            assert float(value) == pytest.approx(np.log(C), abs=1e-12)
            assert [g is None for g in backward(1.0)] == \
                [q is None for q in paths]

    @staticmethod
    def classify_fixed(monkeypatch, p_i, p_t):
        """`classify_dataset` under a head whose paths are fixed rows:
        the labels are the argmax of P_I + P_T."""
        monkeypatch.setitem(HEADS, "fixed", Head(
            params=None, keys=lambda anchor_emb: None,
            forward=lambda emb, anchor_emb, keys, params: (p_i, p_t, None),
            backward=None))
        vis = VisualEncoder(2, 2, np.random.default_rng(0))
        labels, logged_i, logged_t = classify_dataset(
            np.ones((1, 2)), vis, "fixed", None, None)
        np.testing.assert_array_equal(logged_i, p_i[0, labels])
        np.testing.assert_array_equal(logged_t, p_t[0, labels])
        return labels.tolist()

    def test_predict_sums_paths(self, monkeypatch):
        p_i = np.array([[0.0, 0.0, 1.0]])
        p_t = np.array([[1 / 3, 1 / 3, 1 / 3]])
        assert self.classify_fixed(monkeypatch, p_i, p_t) == [2]
        # the text path alone can outweigh the image path
        assert self.classify_fixed(monkeypatch, np.array([[0.5, 0.4, 0.1]]),
                                   np.array([[0.0, 0.3, 0.7]])) == [2]

    def test_predict_tie_goes_to_smaller_id(self, monkeypatch):
        p = np.array([[0.4, 0.4, 0.2]])
        assert self.classify_fixed(monkeypatch, p, p) == [0]


class TestBaselineHeads:
    def test_fc_zero_weights_uniform(self):
        fc = FcParams(4, 5, np.random.default_rng(0))
        fc.w.data[...] = 0.0
        probs = fc_forward(np.ones((2, 4)), fc)[0]
        np.testing.assert_allclose(probs, 0.2, atol=1e-12)

    def test_knn_exact_anchor_match(self):
        rng = np.random.default_rng(1)
        anchors = np.zeros((3, 2, 4))
        anchors[0, :, 0] = 1.0
        anchors[1, :, 1] = 1.0
        anchors[2, :, 2] = 1.0
        probs = knn_forward(np.array([[0.0, 1.0, 0.0, 0.0]]), anchors,
                            0.05, knn_keys(anchors))[0]
        assert probs.argmax() == 1
        assert probs[0, 1] > 0.99

    def test_knn_brute_force_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 5))
        anchors = rng.normal(size=(3, 4, 5))
        tau = 0.3
        got = knn_forward(x, anchors, tau, knn_keys(anchors))[0]
        best = np.empty((4, 3))
        for i in range(4):
            for c in range(3):
                best[i, c] = max(
                    x[i] @ anchors[c, m]
                    / (np.linalg.norm(x[i]) * np.linalg.norm(anchors[c, m]))
                    for m in range(4))
        e = np.exp(best / tau - (best / tau).max(axis=1, keepdims=True))
        np.testing.assert_allclose(got, e / e.sum(axis=1, keepdims=True),
                                   atol=1e-12)


class TestAnchorEmbeddingCache:
    def test_round_trip_and_size(self, tmp_path):
        rng = np.random.default_rng(0)
        emb = rng.normal(size=(3, 2, 5))
        digest = hashlib.sha256(b"model").digest()
        path = tmp_path / "cache.vlae"
        save_anchor_embeddings(path, emb, digest)
        assert path.stat().st_size == 4 + 16 + 32 + 3 * 2 * 5 * 8
        back, back_hash = load_anchor_embeddings(path)
        np.testing.assert_array_equal(back, emb)
        assert back_hash == digest

    def test_bad_hash_length(self, tmp_path):
        with pytest.raises(ValidationError):
            save_anchor_embeddings(tmp_path / "c.vlae", np.zeros((1, 1, 1)),
                                   b"short")

    @pytest.mark.parametrize("keep", [10, 30, 4 + 16 + 32 + 100, -1])
    def test_truncated_cache_is_validation_error(self, tmp_path, keep):
        """Cut inside the header, inside the checkpoint hash, mid-payload,
        and one byte short of the end."""
        path = tmp_path / "cache.vlae"
        save_anchor_embeddings(path, np.ones((3, 2, 5)),
                               hashlib.sha256(b"model").digest())
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(ValidationError) as exc:
            load_anchor_embeddings(path)
        assert str(path) in str(exc.value)
        assert "truncated" in str(exc.value)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.vlae"
        path.write_bytes(b"WRNG" + b"\0" * 60)
        with pytest.raises(ValidationError):
            load_anchor_embeddings(path)


def finetune_config(mini_cfg, **changes):
    """`mini_cfg` (`small_config()`) fine-tuning 2 epochs at batch 4 and
    lr 0.01, with `changes` on top."""
    return dataclasses.replace(mini_cfg, **{
        "finetune_epochs": 2, "finetune_batch": 4, "finetune_lr": 0.01,
        **changes})


def finetune_world(seed=0):
    C = 3
    ds = gen_synthetic(C, [10] * C, d_img=6, noise_sigma=0.2, seed=seed,
                       test_per_class=4)
    corpus, _ = gen_corpus(C, 6, 2, vocab_size=64, noise_fraction=0.0,
                           seed=seed)
    model = CvlpModel(6, 6, 64, seed=seed)
    anchors = select_anchors(corpus, ds, model, M=3, cap=5, seed=seed)
    return ds, corpus, model, anchors


class TestAnchorEmbeddings:
    @pytest.mark.parametrize("entries", [
        [[(0, 0.0)], [(8, 0.0)], [(1, 0.0)]],     # past class 1's 8 sentences
        [[(0, 0.0)], [(-1, 0.0)], [(1, 0.0)]],    # negative
        [[(0, 0.0)], [(1, 0.0)]]])                # two classes of three
    def test_anchors_off_the_corpus_are_validation_errors(self, entries):
        """An id that would read a row of another class or a row from the
        end, and a class count that differs from the corpus's."""
        _, corpus, model, _ = finetune_world()
        anchors = AnchorSet("AnSS", 1, entries)
        with pytest.raises(ValidationError, match="do not fit the corpus"):
            compute_anchor_embeddings(anchors, corpus, model)

    def test_rows_are_each_class_s_sentences(self):
        _, corpus, model, _ = finetune_world()
        anchors = AnchorSet("AnSS", 2, [[(7, 0.0), (0, 0.0)]] * 3)
        table = corpus.table
        want = [model.lin([table.sequences()[int(table.class_starts[c]) + s]
                           for s in (7, 0)]).data for c in range(3)]
        np.testing.assert_array_equal(
            compute_anchor_embeddings(anchors, corpus, model), np.stack(want))


class TestFinetune:
    def test_zero_epochs_leaves_encoder(self, mini_cfg):
        ds, corpus, model, anchors = finetune_world()
        before = sections(model.params())
        _, emb, trace = run_finetune(
            ds, anchors, corpus, model,
            finetune_config(mini_cfg, finetune_epochs=0))
        assert trace == []
        for k, v in sections(model.params()).items():
            np.testing.assert_array_equal(v, before[k])
        np.testing.assert_array_equal(
            emb, compute_anchor_embeddings(anchors, corpus, model))

    def test_deterministic(self, mini_cfg):
        outs = []
        for _ in range(2):
            ds, corpus, model, anchors = finetune_world(seed=2)
            head, emb, _ = run_finetune(
                ds, anchors, corpus, model,
                finetune_config(mini_cfg, finetune_lr=0.005, seed=2))
            outs.append((sections(model.params()),
                         {k: v.data.copy() for k, v in head.params().items()},
                         emb))
        for k in outs[0][0]:
            np.testing.assert_array_equal(outs[0][0][k], outs[1][0][k])
        for k in outs[0][1]:
            np.testing.assert_array_equal(outs[0][1][k], outs[1][1][k])
        np.testing.assert_array_equal(outs[0][2], outs[1][2])

    def test_text_encoder_frozen(self, mini_cfg):
        ds, corpus, model, anchors = finetune_world(seed=3)
        lin_before = {k: v.data.copy() for k, v in model.lin.params().items()}
        run_finetune(ds, anchors, corpus, model, finetune_config(mini_cfg))
        for k, v in model.lin.params().items():
            np.testing.assert_array_equal(v.data, lin_before[k])
            assert v.grad is None

    @pytest.mark.parametrize("head", list(HEADS))
    def test_all_heads_train_and_classify(self, head, mini_cfg):
        ds, corpus, model, anchors = finetune_world(seed=4)
        head_params, emb, trace = run_finetune(
            ds, anchors, corpus, model,
            finetune_config(mini_cfg, finetune_epochs=1, head=head))
        assert (head_params.params().get("tau") is model.tau) == (head == "knn")
        assert trace and all(np.isfinite(t[2]) for t in trace)
        preds, p_i, p_t = classify_dataset(
            ds.test_X, model.vis, head, head_params, emb)
        assert preds.shape == (len(ds.test_y),)
        assert np.all((0 <= preds) & (preds < ds.C))
        if head == "fc":
            assert np.all(p_t == 0.0)
        if head == "knn":
            assert np.all(p_i == 0.0)

    def test_unknown_head_rejected(self, mini_cfg):
        ds, corpus, model, anchors = finetune_world(seed=6)
        with pytest.raises(ValidationError):
            run_finetune(ds, anchors, corpus, model, finetune_config(
                mini_cfg, finetune_epochs=1, head="transformer"))
        with pytest.raises(ValidationError):
            classify_dataset(ds.test_X, model.vis, "transformer", None, None)

    def test_classify_batching_invariant(self, mini_cfg):
        ds, corpus, model, anchors = finetune_world(seed=7)
        head_params, emb, _ = run_finetune(
            ds, anchors, corpus, model,
            finetune_config(mini_cfg, finetune_epochs=1))
        a = classify_dataset(ds.test_X, model.vis, "lgr", head_params, emb,
                             batch=256)
        b = classify_dataset(ds.test_X, model.vis, "lgr", head_params, emb,
                             batch=2)
        for x, y in zip(a, b):
            np.testing.assert_allclose(x, y, atol=1e-12)


@pytest.mark.parametrize("head", list(HEADS))
def test_classify_labels_independent_of_batch_size(head):
    """BLAS picks its blocking by operand size, so one image can be
    summed in another order at batch 256 than at 64 or 1; the labels
    must not change with it. Reference shapes: C=20, M=64, D=16."""
    from vlltr.encoders import VisualEncoder

    rng = np.random.default_rng(13)
    C, M, D = 20, 64, 16
    vis = VisualEncoder(32, D, rng)
    head_params = HEADS[head].params(D, C, parameter(np.array(0.3)), rng)
    anchors = rng.normal(size=(C, M, D))
    images = rng.normal(size=(300, 32))
    runs = [classify_dataset(images, vis, head, head_params, anchors,
                             batch=batch) for batch in (256, 64, 1)]
    for labels, p_i, p_t in runs[1:]:
        np.testing.assert_array_equal(labels, runs[0][0])
        np.testing.assert_allclose(p_i, runs[0][1], rtol=0, atol=1e-12)
        np.testing.assert_allclose(p_t, runs[0][2], rtol=0, atol=1e-12)


@pytest.mark.parametrize("head", list(HEADS))
def test_inference_head_reproduces_predictions(head, mini_cfg, mini_run,
                                               tmp_path):
    """The head and visual encoder that `load_inference_head` rebuilds
    from the final checkpoint give back the labels and both logged path
    probabilities of `predictions.tsv`, exactly, for every head."""
    import dataclasses
    import shutil

    from vlltr import pipeline
    from vlltr.data import load_dataset

    _, run_dir, _ = mini_run
    cfg = dataclasses.replace(mini_cfg, head=head)
    work = tmp_path / "run"
    work.mkdir()
    for stage in ("gen_data", "pretrain", "select_anchors"):
        for name in pipeline.outputs(stage):
            shutil.copy(pipeline.artifact(run_dir, name),
                        pipeline.artifact(work, name))
    pipeline.cmd_finetune(cfg, work)
    pipeline.cmd_eval(cfg, work)

    rows = [line.split("\t") for line in
            pipeline.artifact(work, "predictions").read_text().splitlines()]
    logged = np.array([[float(v) for v in row[2:]] for row in rows])
    dataset = load_dataset(pipeline.artifact(work, "dataset"))
    vis, head_params, _ = pipeline.load_inference_head(cfg, work)
    emb, _ = load_anchor_embeddings(pipeline.artifact(work, "cache"))
    labels, p_i, p_t = classify_dataset(dataset.test_X, vis, head,
                                        head_params, emb)
    assert len(rows) == len(dataset.test_y)
    np.testing.assert_array_equal(labels, logged[:, 0])
    np.testing.assert_array_equal(p_i, logged[:, 1])
    np.testing.assert_array_equal(p_t, logged[:, 2])
    assert (head == "fc") == bool(np.all(p_t == 0.0))
    assert (head == "knn") == bool(np.all(p_i == 0.0))


def test_predictions_fields_parse(mini_run):
    """Every row of `predictions.tsv` is index, true label and predicted
    label as ints, then both path probabilities as floats in [0, 1]."""
    from vlltr import pipeline

    _, run_dir, report = mini_run
    rows = [line.split("\t") for line in
            pipeline.artifact(run_dir, "predictions").read_text().splitlines()]
    assert len(rows) == report.total
    for i, row in enumerate(rows):
        assert len(row) == 5
        assert int(row[0]) == i and int(row[1]) >= 0 and int(row[2]) >= 0
        assert all(0.0 <= float(v) <= 1.0 for v in row[3:])
