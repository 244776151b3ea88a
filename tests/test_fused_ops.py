"""The single-node losses, cosine similarity, text pooling, softmax and
layer norm, and the fused LGR and matmul KNN heads, against their
composite-op oracles (composite_oracles.py): the value and every
gradient must agree to 1e-10. The one-node text and visual encoders and
the flat-buffer AdamW must agree with theirs bit for bit. Also checks that a
forward and backward pass leaves no reference cycles behind, and that
freeing its graph does not hand memory back to the OS only to fault it
in again."""

import gc
import platform
import resource

import numpy as np
import pytest

import composite_oracles as oracle
from vlltr import pretrain
from vlltr.checkpoint import load_params
from vlltr.data import SqrtSampler, gen_corpus, gen_synthetic, token_table
from vlltr.encoders import CvlpModel, LinguisticEncoder, VisualEncoder
from vlltr.errors import ValidationError
from vlltr.gradsuite import LGR_PARAM_NAMES, lgr_params_from
from vlltr.head import LgrParams, knn_forward, lgr_forward, rec_loss
from vlltr.optim import AdamW, LrSchedule, cosine_lr
from vlltr.tensor import (Tensor, cosine_sim_matrix, cross_entropy,
                          layer_norm, matmul, parameter, softmax)

TOL = 1e-10

LABEL_CASES = {
    "n1": np.array([4]),
    "singletons": np.array([0, 1, 2, 3, 4]),
    "all_same": np.array([2, 2, 2, 2]),
    "mixed": np.array([0, 1, 1, 2, 0, 1]),
}
LAMS = (0.0, 0.3, 0.5, 1.0)


def value_and_grads(f, arrays):
    leaves = [Tensor(np.array(a, dtype=np.float64), requires_grad=True)
              for a in arrays]
    out = f(*leaves)
    out.backward()
    return float(out.data), [
        t.grad if t.grad is not None else np.zeros_like(t.data)
        for t in leaves]


def assert_same(fused, composite, arrays):
    got, got_grads = value_and_grads(fused, arrays)
    want, want_grads = value_and_grads(composite, arrays)
    assert abs(got - want) <= TOL
    for g, w in zip(got_grads, want_grads):
        np.testing.assert_allclose(g, w, rtol=0, atol=TOL)


def encoder_value_and_grads(enc, encode, x, w):
    """An encoder's output on `x` and each parameter's gradient of the
    `w`-weighted sum of it."""
    for p in enc.params().values():
        p.zero_grad()
    out = encode(enc, x)
    (out * w).sum().backward()
    return [out.data] + [p.grad for p in enc.params().values()]


def loss_inputs(labels, seed=0):
    rng = np.random.default_rng(seed)
    n = len(labels)
    return (rng.normal(size=(n, n)), rng.normal(size=(n, n)),
            np.array(rng.uniform(0.05, 0.8)))


class TestContrastiveLoss:
    @pytest.mark.parametrize("case", sorted(LABEL_CASES))
    @pytest.mark.parametrize("term", [0, 1, 2])
    def test_matches_composite(self, case, term):
        labels = LABEL_CASES[case]
        S, _, tau = loss_inputs(labels)
        assert_same(lambda s, t: pretrain.ccl_loss(s, labels, t)[term],
                    lambda s, t: oracle.ccl_loss(s, labels, t)[term],
                    [S, tau])

    def test_is_one_node_over_s_and_tau(self):
        S = Tensor(np.eye(3), requires_grad=True)
        tau = Tensor(np.array(0.5), requires_grad=True)
        for term in pretrain.ccl_loss(S, [0, 1, 1], tau):
            assert term._parents == (S, tau)


class TestDistillLoss:
    @pytest.mark.parametrize("case", sorted(LABEL_CASES))
    def test_matches_composite(self, case):
        S, St, tau = loss_inputs(LABEL_CASES[case], seed=1)
        assert_same(lambda s, t: pretrain.distill_loss(s, St, t, 0.35),
                    lambda s, t: oracle.distill_loss(s, St, t, 0.35),
                    [S, tau])


class TestPretrainLoss:
    @pytest.mark.parametrize("case", sorted(LABEL_CASES))
    @pytest.mark.parametrize("lam", LAMS)
    def test_matches_composite(self, case, lam):
        labels = LABEL_CASES[case]
        S, St, tau = loss_inputs(labels, seed=2)
        assert_same(
            lambda s, t: pretrain.pretrain_loss(s, St, labels, t, 0.6, lam)[0],
            lambda s, t: oracle.pretrain_loss(s, St, labels, t, 0.6, lam),
            [S, tau])

    @pytest.mark.parametrize("case", sorted(LABEL_CASES))
    @pytest.mark.parametrize("lam", LAMS)
    def test_logged_losses_are_floats_of_the_oracles(self, case, lam):
        """l_ccl and l_dis come back as floats equal to the composite
        losses, and to the fused ones bit for bit; only `loss` is a tape
        node, and its one node reads S and tau."""
        labels = LABEL_CASES[case]
        S, St, tau = (Tensor(a, requires_grad=True)
                      for a in loss_inputs(labels, seed=2))
        loss, l_ccl, l_dis = pretrain.pretrain_loss(S, St.data, labels, tau,
                                                    0.6, lam)
        assert loss._parents == (S, tau)
        assert type(l_ccl) is float
        assert l_ccl == float(pretrain.ccl_loss(S, labels, tau)[2].data)
        assert abs(l_ccl - float(
            oracle.ccl_loss(S, labels, tau)[2].data)) <= TOL
        if lam == 1.0:
            assert l_dis is None
            return
        assert type(l_dis) is float
        assert l_dis == float(
            pretrain.distill_loss(S, St.data, tau, 0.6).data)
        assert abs(l_dis - float(
            oracle.distill_loss(S, St.data, tau, 0.6).data)) <= TOL


class TestCosineSimMatrix:
    @pytest.mark.parametrize("shapes", [((3, 4), (2, 4)), ((1, 3), (1, 3)),
                                        ((5, 2), (6, 2))])
    def test_matches_composite(self, shapes):
        rng = np.random.default_rng(3)
        a, b = (rng.normal(size=s) for s in shapes)
        w = Tensor(rng.normal(size=(shapes[0][0], shapes[1][0])))
        assert_same(lambda x, y: (cosine_sim_matrix(x, y) * w).sum(),
                    lambda x, y: (oracle.cosine_sim_matrix(x, y) * w).sum(),
                    [a, b])

    def test_same_operand_twice(self):
        rng = np.random.default_rng(4)
        w = Tensor(rng.normal(size=(4, 4)))
        assert_same(lambda x: (cosine_sim_matrix(x, x) * w).sum(),
                    lambda x: (oracle.cosine_sim_matrix(x, x) * w).sum(),
                    [rng.normal(size=(4, 3))])


class TestTextPooling:
    SEQUENCES = [[0, 5, 5, 1], np.array([0, 2, 1]), [7], [0, 5, 3, 2, 9, 1]]

    def grads(self, enc, encode, w):
        for p in enc.params().values():
            p.zero_grad()
        out = encode(enc, self.SEQUENCES)
        (out * w).sum().backward()
        return out.data, {k: p.grad.copy() for k, p in enc.params().items()}

    def test_encoder_matches_pool_matrix(self):
        enc = LinguisticEncoder(12, 4, np.random.default_rng(5))
        w = Tensor(np.random.default_rng(6).normal(size=(4, 4)))
        out, grads = self.grads(enc, LinguisticEncoder.__call__, w)
        want_out, want_grads = self.grads(enc, oracle.linguistic_encode, w)
        np.testing.assert_allclose(out, want_out, rtol=0, atol=TOL)
        for name in want_grads:
            np.testing.assert_allclose(grads[name], want_grads[name],
                                       rtol=0, atol=TOL)

    def test_untouched_rows_get_zero_gradient(self):
        enc = LinguisticEncoder(6, 2, np.random.default_rng(0))
        enc([[1], [4, 4]]).sum().backward()
        np.testing.assert_array_equal(
            enc.tok.grad.any(axis=1), [False, True, False, False, True, False])

    @pytest.mark.parametrize("case", ["one_row", "one_token_rows",
                                      "max_tokens_rows", "rows32",
                                      "rows256"])
    def test_matches_bag_matmul_bias_bitwise(self, case):
        """Value and all three gradients against the bag pool, product and
        bias add of composite_oracles.bag_encode, at the reference widths
        (vocab 384, D 16)."""
        rng = np.random.default_rng(len(case))
        enc = LinguisticEncoder(384, 16, rng, max_tokens=77)
        enc.proj_b.data = rng.normal(size=16)
        n, lengths = {"one_row": (1, [5]), "one_token_rows": (32, [1]),
                      "max_tokens_rows": (4, [77]), "rows32": (32, None),
                      "rows256": (256, None)}[case]
        if lengths is None:
            lengths = rng.integers(1, 12, size=n)
        sequences = [rng.integers(384, size=int(lengths[i % len(lengths)]))
                     for i in range(n)]
        w = Tensor(rng.normal(size=(n, 16)))
        got = encoder_value_and_grads(enc, LinguisticEncoder.__call__,
                                      sequences, w)
        want = encoder_value_and_grads(enc, oracle.bag_encode, sequences, w)
        for g, wanted in zip(got, want):
            assert g.tobytes() == wanted.tobytes()

    def test_table_rows_encode_as_their_list(self):
        """A corpus table and rows gathered from it give the bits of the
        same sentences passed as a list."""
        corpus, _ = gen_corpus(3, 5, 2, vocab_size=48, noise_fraction=0.2,
                               seed=3)
        enc = LinguisticEncoder(48, 6, np.random.default_rng(2))
        table = corpus.token_table()
        rows = np.array([7, 0, 20, 7, 3])
        pool = table.sequences()
        assert enc(table).data.tobytes() == enc(pool).data.tobytes()
        assert enc(table.take(rows)).data.tobytes() == \
            enc([pool[r] for r in rows]).data.tobytes()

    @pytest.mark.parametrize("source", ["list", "corpus", "wider_table"])
    def test_length_errors_keep_their_messages(self, source):
        """From a list, from a table built with class rows, as a corpus
        table is, and from a table checked at a
        larger limit than the encoder's."""
        enc = LinguisticEncoder(10, 2, np.random.default_rng(0), max_tokens=4)
        for bad, message in (
                ([], "LinguisticEncoder: empty sequence 1"),
                ([0, 2, 3, 4, 1], "LinguisticEncoder: sequence 1 has 5 "
                 "tokens, limit is 4; truncate explicitly if intended")):
            sequences = [[0, 1], bad, [0, 3, 1]]
            with pytest.raises(ValidationError) as exc:
                if source == "list":
                    enc(sequences)
                elif source == "corpus":
                    token_table(sequences, 4, [len(sequences)])
                else:
                    enc(token_table(sequences, 77))
            assert str(exc.value) == message

    def test_is_one_node_over_the_weights(self):
        enc = LinguisticEncoder(6, 2, np.random.default_rng(0))
        assert enc([[1, 2], [3]])._parents == (enc.tok, enc.proj_w,
                                                enc.proj_b)


class TestSoftmax:
    @pytest.mark.parametrize("shape,axis", [((5,), 0), ((3, 4), 0),
                                            ((3, 4), 1), ((3, 4), -1),
                                            ((2, 3, 4), 1), ((2, 3, 4), 2),
                                            ((1, 1), 1)])
    def test_matches_composite(self, shape, axis):
        rng = np.random.default_rng(9)
        w = Tensor(rng.normal(size=shape))
        assert_same(lambda x: (softmax(x, axis) * w).sum(),
                    lambda x: (oracle.softmax(x, axis) * w).sum(),
                    [3.0 * rng.normal(size=shape)])

    def test_large_logits(self):
        w = Tensor(np.array([[0.5, -1.0, 2.0]]))
        assert_same(lambda x: (softmax(x, 1) * w).sum(),
                    lambda x: (oracle.softmax(x, 1) * w).sum(),
                    [np.array([[1000.0, 999.0, -1000.0]])])

    def test_is_one_node(self):
        x = Tensor(np.zeros((2, 3)), requires_grad=True)
        assert softmax(x, 1)._parents == (x,)


class TestLayerNorm:
    @pytest.mark.parametrize("shape,spread", [((1, 1), 3.0), ((3, 5), 3.0),
                                              ((2, 3, 4), 3.0),
                                              ((1280, 16), 3.0),
                                              ((2, 3), 0.0)])
    def test_matches_composite(self, shape, spread):
        """Spread 0 gives constant rows: zero variance, so the rows map
        to the bias and the input gradient is scaled by 1/sqrt(eps)."""
        rng = np.random.default_rng(14)
        d = shape[-1]
        w = Tensor(rng.normal(size=shape))
        assert_same(lambda x, g, b: (layer_norm(x, g, b) * w).sum(),
                    lambda x, g, b: (oracle.layer_norm(x, g, b) * w).sum(),
                    [spread * rng.normal(size=shape) + 1.0,
                     rng.normal(size=d), rng.normal(size=d)])

    def test_is_one_node_over_its_operands(self):
        x, g, b = (Tensor(np.ones(s), requires_grad=True)
                   for s in ((2, 3), 3, 3))
        assert layer_norm(x, g, b)._parents == (x, g, b)


class TestCrossEntropy:
    CASES = {
        "batch": (np.array([[0.2, 0.5, 0.3], [0.6, 0.1, 0.3],
                            [0.25, 0.25, 0.5], [0.1, 0.8, 0.1]]),
                  np.array([1, 0, 2, 2])),
        "one_row": (np.array([0.2, 0.7, 0.1]), 1),
        "batch_of_one": (np.array([[0.3, 0.3, 0.4]]), np.array([2])),
        "below_floor": (np.array([[1e-15, 1.0 - 1e-15], [0.5, 0.5]]),
                        np.array([0, 1])),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_composite_bitwise(self, case):
        """Value and gradient, with an upstream gradient other than 1
        and a second use of the input accumulating into its gradient."""
        p, y = self.CASES[case]

        def loss(ce):
            return lambda t: ce(t, y) * 0.37 + ce(t, y)

        got, (got_grad,) = value_and_grads(loss(cross_entropy), [p])
        want, (want_grad,) = value_and_grads(loss(oracle.cross_entropy), [p])
        assert got == want
        assert got_grad.tobytes() == want_grad.tobytes()

    def test_matches_composite_bitwise_through_softmax(self):
        z = np.random.default_rng(4).normal(size=(5, 3))
        y = np.array([0, 2, 1, 1, 0])
        got, (got_grad,) = value_and_grads(
            lambda t: cross_entropy(softmax(t, 1), y), [z])
        want, (want_grad,) = value_and_grads(
            lambda t: oracle.cross_entropy(softmax(t, 1), y), [z])
        assert got == want
        assert got_grad.tobytes() == want_grad.tobytes()

    def test_is_one_node(self):
        p = Tensor(np.full((2, 2), 0.5), requires_grad=True)
        assert cross_entropy(p, np.array([0, 1]))._parents == (p,)


class TestVisualEncoder:
    @pytest.mark.parametrize("n", [1, 32, 256])
    def test_matches_composite_bitwise(self, n):
        """Value and all four gradients, at the reference widths (16 in,
        32 hidden, 16 out) and batch 1, 32 and 256."""
        rng = np.random.default_rng(n)
        enc = VisualEncoder(16, 16, rng)
        enc.b1.data = rng.normal(size=enc.b1.shape)
        enc.b2.data = rng.normal(size=enc.b2.shape)
        x = rng.normal(size=(n, 16))
        w = Tensor(rng.normal(size=(n, 16)))
        got = encoder_value_and_grads(enc, VisualEncoder.__call__, x, w)
        want = encoder_value_and_grads(enc, oracle.visual_encode, x, w)
        for g, wanted in zip(got, want):
            assert g.tobytes() == wanted.tobytes()

    def test_is_one_node_over_the_weights(self):
        enc = VisualEncoder(3, 2, np.random.default_rng(0))
        assert enc(np.ones((4, 3)))._parents == (enc.w1, enc.b1, enc.w2,
                                                 enc.b2)

    def test_frozen_weights_get_no_gradient(self):
        enc = VisualEncoder(3, 2, np.random.default_rng(0))
        enc.b2.requires_grad = enc.w1.requires_grad = False
        (enc(np.ones((4, 3))) * Tensor(np.ones((4, 2)))).sum().backward()
        assert enc.w1.grad is None and enc.b2.grad is None
        assert enc.b1.grad is not None and enc.w2.grad is not None


class TestAdamW:
    STEPS = 50

    @staticmethod
    def params(seed):
        """Mixed shapes, a 0-d temperature and a parameter no loss uses,
        whose gradient stays None."""
        rng = np.random.default_rng(seed)
        return {"w": parameter(rng.normal(size=(3, 4))),
                "b": parameter(rng.normal(size=4)),
                "tok": parameter(rng.normal(size=(5, 2))),
                "tau": parameter(np.array(0.3)),
                "idle": parameter(rng.normal(size=(2, 2)))}

    @staticmethod
    def loss(params, x, step):
        """The token table is used on even steps only, so its gradient
        is None on odd ones."""
        h = oracle.tanh(matmul(x, params["w"]) + params["b"])
        loss = (h * h).sum() / params["tau"]
        if step % 2 == 0:
            row = params["tok"][step % 5]
            loss = loss + (row * row).sum() * params["tau"]
        return loss

    def trajectory(self, make_opt, clip, weight_decay):
        params = self.params(0)
        opt = make_opt(params, 0.05, weight_decay=weight_decay)
        sched = LrSchedule(0.05, 0.0, self.STEPS)
        rng = np.random.default_rng(1)
        states = []
        for step in range(self.STEPS):
            if step == self.STEPS // 2:   # a checkpoint load mid-run
                load_params(params, {k: p.data * 0.5 + 0.1
                                     for k, p in params.items()})
            opt.zero_grad()
            self.loss(params, rng.normal(size=(6, 3)), step).backward()
            opt.step(lr=cosine_lr(sched, step))
            clip(params["tau"])
            states.append({k: p.data.tobytes() for k, p in params.items()})
        return states

    @pytest.mark.parametrize("weight_decay", [0.0, 0.05])
    def test_trajectory_matches_per_tensor_oracle_bitwise(self,
                                                          weight_decay):
        def clip_in_place(tau):
            np.clip(tau.data, 0.01, 1.0, out=tau.data)

        def clip_rebind(tau):
            tau.data = np.clip(tau.data, 0.01, 1.0)

        got = self.trajectory(AdamW, clip_in_place, weight_decay)
        want = self.trajectory(oracle.AdamW, clip_rebind, weight_decay)
        for step, (g, w) in enumerate(zip(got, want)):
            assert g == w, f"step {step}"

    def test_parameters_are_views_of_one_buffer(self):
        params = self.params(2)
        before = {k: p.data.copy() for k, p in params.items()}
        AdamW(params, 0.1)
        bases = {id(p.data.base) for p in params.values()}
        assert len(bases) == 1
        for k, p in params.items():
            np.testing.assert_array_equal(p.data, before[k])


def graph_size(root):
    """The number of tape nodes reachable from `root`."""
    seen, todo = set(), [root]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            todo.extend(node._parents)
    return len(seen)


def test_lam_one_pretrain_graph_has_twelve_nodes():
    """Four visual weights and one encoder node, three text weights and
    one encoder node, the cosine matrix, the temperature and the loss."""
    ds = gen_synthetic(3, [5, 4, 3], d_img=6, noise_sigma=0.2, seed=0,
                       test_per_class=1)
    corpus, _ = gen_corpus(3, 4, 2, vocab_size=48, noise_fraction=0.0,
                           seed=0)
    model = CvlpModel(6, 6, 48, seed=0)
    batch = pretrain.sample_paired_batch(ds, corpus.token_table(),
                                         SqrtSampler(ds.counts, 0),
                                         np.random.default_rng(0), 5)
    loss, _, _ = pretrain.pretrain_loss(
        model.similarity(batch.images, batch.bags), None, batch.labels,
        model.tau, 1.0, 1.0)
    assert graph_size(loss) == 12


def test_lgr_finetune_graph_has_forty_one_nodes():
    """One LGR fine-tune loss: four visual weights and the encoder node,
    the frozen anchors and thirteen head parameters (19); the query's
    layer norm, matmul and bias add, the keys' reshape, layer norm,
    matmul and bias add (7); the attention, gather and cosine nodes,
    the temperature's inverse, the product and the P_T softmax (6);
    five perceptron nodes and the P_I softmax (6); one cross-entropy
    node per path and their sum (3). As composite ops it was 99."""
    rng = np.random.default_rng(0)
    vis = VisualEncoder(6, 4, rng)
    out = lgr_forward(vis(rng.normal(size=(5, 6))),
                      rng.normal(size=(3, 2, 4)), LgrParams(4, 3, 0.3, rng))
    assert graph_size(rec_loss(out, np.array([0, 1, 2, 0, 1]))) == 41


# (N, C, M, D): one image, one class, one anchor, and the reference shapes
HEAD_SHAPES = [(1, 3, 4, 5), (6, 1, 4, 5), (6, 3, 1, 5), (256, 20, 64, 16)]


def lgr_outputs_and_grads(forward, e_i, anchors, arrays, seed):
    """Every HeadOutput field, and the gradient of a random weighting of
    all of them with respect to the image embedding and each parameter."""
    C, _, D = anchors.shape
    leaves = [Tensor(a.copy(), requires_grad=True) for a in [e_i] + arrays]
    out = forward(leaves[0], anchors, lgr_params_from(leaves[1:], D, C))
    parts = (out.P_I, out.P_T, out.attention, out.G)
    rng = np.random.default_rng(seed)
    total = sum((p * Tensor(rng.normal(size=p.shape))).sum() for p in parts)
    total.backward()
    return [p.data for p in parts], [leaf.grad for leaf in leaves]


class TestLgrForward:
    @pytest.mark.parametrize("shape", HEAD_SHAPES)
    def test_matches_einsum_oracle(self, shape):
        N, C, M, D = shape
        rng = np.random.default_rng(10)
        params = LgrParams(D, C, tau_init=0.3, rng=rng)
        # move every parameter but the temperature off its initial value
        arrays = [getattr(params, n).data
                  + (0.0 if n == "tau" else 0.1) * rng.normal(
                      size=getattr(params, n).shape)
                  for n in LGR_PARAM_NAMES]
        e_i, anchors = rng.normal(size=(N, D)), rng.normal(size=(C, M, D))
        got, got_grads = lgr_outputs_and_grads(lgr_forward, e_i, anchors,
                                               arrays, seed=11)
        want, want_grads = lgr_outputs_and_grads(oracle.lgr_forward, e_i,
                                                 anchors, arrays, seed=11)
        for g, w in zip(got + got_grads, want + want_grads):
            assert g.shape == w.shape
            np.testing.assert_allclose(g, w, rtol=0, atol=TOL)

    def test_anchor_gradient_matches_einsum_oracle(self):
        """The anchors are frozen in the pipeline, but a trainable anchor
        block gets the gradient of both its key and its gather paths."""
        rng = np.random.default_rng(15)
        N, C, M, D = 4, 3, 5, 6
        params = LgrParams(D, C, tau_init=0.3, rng=rng)
        e_i = rng.normal(size=(N, D))
        weights = [Tensor(rng.normal(size=shape))
                   for shape in ((N, C), (N, C), (N, C, M), (N, C, D))]

        def weighted(forward):
            def f(anchors):
                out = forward(e_i, anchors, params)
                return sum((p * w).sum() for p, w in zip(
                    (out.P_I, out.P_T, out.attention, out.G), weights))
            return f

        assert_same(weighted(lgr_forward), weighted(oracle.lgr_forward),
                    [rng.normal(size=(C, M, D))])


class TestKnnForward:
    @pytest.mark.parametrize("shape", HEAD_SHAPES)
    def test_matches_einsum_oracle(self, shape):
        N, C, M, D = shape
        rng = np.random.default_rng(12)
        e_i, anchors = rng.normal(size=(N, D)), rng.normal(size=(C, M, D))
        np.testing.assert_allclose(knn_forward(e_i, anchors, 0.2).data,
                                   oracle.knn_forward(e_i, anchors, 0.2).data,
                                   rtol=0, atol=TOL)
        w = Tensor(rng.normal(size=(N, C)))
        assert_same(lambda x, t: (knn_forward(x, anchors, t) * w).sum(),
                    lambda x, t: (oracle.knn_forward(x, anchors, t) * w).sum(),
                    [e_i, np.array(0.2)])


def _one_training_step_and_head_pass():
    rng = np.random.default_rng(7)
    model = CvlpModel(4, 4, 16, seed=0)
    seqs = [[0, 2, 1], [0, 3, 4, 1], [0, 5, 1]]
    S = model.similarity(rng.normal(size=(3, 4)), seqs)
    loss, _, _ = pretrain.pretrain_loss(S, rng.normal(size=(3, 3)),
                                        np.array([0, 1, 1]), model.tau,
                                        0.5, 0.5)
    loss.backward()
    params = LgrParams(4, 3, tau_init=0.3, rng=rng)
    out = lgr_forward(rng.normal(size=(2, 4)), rng.normal(size=(3, 2, 4)),
                      params)
    rec_loss(out, np.array([0, 2])).backward()


def test_graphs_leave_no_reference_cycles():
    """Every tape node is freed by reference counting once the caller
    drops it: with the cyclic collector off, nothing is left for it."""
    gc.collect()
    gc.disable()
    try:
        _one_training_step_and_head_pass()
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap thresholds are set for glibc only")
def test_repeated_forward_reuses_freed_memory():
    """Each pass frees a graph of multi-MB temporaries. With glibc's
    default thresholds that heap is trimmed and faulted in again on the
    next pass, about 2,500 minor faults per pass at this size."""
    rng = np.random.default_rng(8)
    params = LgrParams(16, 20, tau_init=0.3, rng=rng)
    x, anchors = rng.normal(size=(256, 16)), rng.normal(size=(20, 64, 16))

    def minor_faults():
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    for _ in range(2):
        lgr_forward(x, anchors, params)
    before = minor_faults()
    for _ in range(5):
        lgr_forward(x, anchors, params)
    assert minor_faults() - before < 100
