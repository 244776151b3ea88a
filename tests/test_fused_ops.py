"""The pre-training losses on arrays, the single-node cosine similarity,
softmax and layer norm, the text pooling, and the array LGR and matmul
KNN heads, against their composite-op oracles (composite_oracles.py):
the value and every gradient must agree to 1e-10. The text encoder's
array forward and backward, the one-node visual encoder, each head's
one-node fine-tuning loss and the flat-buffer AdamW must agree with
theirs bit for bit. Also checks that a forward and backward pass leaves
no reference cycles behind, and that freeing its graph does not hand
memory back to the OS only to fault it in again."""

import gc
import platform
import resource

import numpy as np
import pytest

import composite_oracles as oracle
from tape import (Tensor, cosine_sim_matrix, cross_entropy, layer_norm,
                  matmul, parameter, softmax)
from vlltr import pretrain
from vlltr.checkpoint import load_params
from vlltr.data import gen_corpus, token_table
from vlltr.encoders import CvlpModel, LinguisticEncoder, VisualEncoder
from vlltr.errors import ValidationError
from vlltr.gradsuite import random_head
from vlltr.head import (HEADS, LGR_PARAM_NAMES, LgrParams, head_loss,
                        knn_backward, knn_forward, knn_keys, lgr_backward,
                        lgr_forward, lgr_keys)
from vlltr.optim import AdamW, cosine_lr

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
        p.grad = None
    out = encode(enc, x)
    (out * w).sum().backward()
    return [out.data] + [p.grad for p in enc.params().values()]


def lin_value_and_grads(enc, sequences, w):
    """The text encoder's embeddings of `sequences` and each parameter's
    gradient of the `w`-weighted sum of them, through its array
    `forward` and `backward`."""
    out, cache = enc.forward(sequences)
    grads = [np.empty(p.shape) for p in enc.params().values()]
    enc.backward(cache, w, grads)
    return [out] + grads


def assert_loss_matches(value, logits, G, composite, S, tau):
    """An array loss of value `value` and logit gradient G against the
    composite oracle's value and gradients of (S, tau)."""
    grads = [np.empty(S.shape), np.empty(())]
    logits.backward(G, grads)
    want, want_grads = value_and_grads(composite, [S, tau])
    assert abs(value - want) <= TOL
    for g, w in zip(grads, want_grads):
        np.testing.assert_allclose(g, w, rtol=0, atol=TOL)


def loss_inputs(labels, seed=0):
    rng = np.random.default_rng(seed)
    n = len(labels)
    return (rng.normal(size=(n, n)), rng.normal(size=(n, n)),
            np.array(rng.uniform(0.05, 0.8)))


class TestContrastiveLoss:
    @pytest.mark.parametrize("case", sorted(LABEL_CASES))
    @pytest.mark.parametrize("term", [0, 1, 2])
    def test_matches_composite(self, case, term):
        """L_vis, L_lin and their sum L_ccl, which is `pretrain_loss`
        at lam 1."""
        labels = LABEL_CASES[case]
        S, _, tau = loss_inputs(labels)
        if term == 2:
            loss = pretrain.pretrain_loss(S, None, labels, tau, 1.0, 1.0)
            value, logits, G = loss.value, loss.logits, loss.G
        else:
            logits = pretrain._Logits(S, tau)
            value, G = pretrain._ccl_terms(logits, labels)[term]
        assert_loss_matches(
            value, logits, G,
            lambda s, t: oracle.ccl_loss(s, labels, t)[term], S, tau)


class TestDistillLoss:
    @pytest.mark.parametrize("case", sorted(LABEL_CASES))
    def test_matches_composite(self, case):
        """L_dis, `pretrain_loss` at lam 0."""
        labels = LABEL_CASES[case]
        S, St, tau = loss_inputs(labels, seed=1)
        loss = pretrain.pretrain_loss(S, St, labels, tau, 0.35, 0.0)
        assert_loss_matches(
            loss.value, loss.logits, loss.G,
            lambda s, t: oracle.distill_loss(s, St, t, 0.35), S, tau)


class TestPretrainLoss:
    @pytest.mark.parametrize("case", sorted(LABEL_CASES))
    @pytest.mark.parametrize("lam", LAMS)
    def test_matches_composite(self, case, lam):
        labels = LABEL_CASES[case]
        S, St, tau = loss_inputs(labels, seed=2)
        loss = pretrain.pretrain_loss(S, St, labels, tau, 0.6, lam)
        assert_loss_matches(
            loss.value, loss.logits, loss.G,
            lambda s, t: oracle.pretrain_loss(s, St, labels, t, 0.6, lam),
            S, tau)

    @pytest.mark.parametrize("case", sorted(LABEL_CASES))
    @pytest.mark.parametrize("lam", LAMS)
    def test_logged_losses_are_floats_of_the_oracles(self, case, lam):
        """The loss, l_ccl and l_dis come back as floats, l_ccl and l_dis
        equal to the composite losses, and bit for bit to the values of
        `pretrain_loss` at lam 1 and at lam 0."""
        labels = LABEL_CASES[case]
        S, St, tau = loss_inputs(labels, seed=2)
        loss, l_ccl, l_dis, _, _ = pretrain.pretrain_loss(S, St, labels, tau,
                                                          0.6, lam)
        assert type(loss) is float and type(l_ccl) is float
        assert l_ccl == pretrain.pretrain_loss(S, St, labels, tau, 0.6,
                                               1.0).value
        assert abs(l_ccl - float(
            oracle.ccl_loss(S, labels, tau)[2].data)) <= TOL
        if lam == 1.0:
            assert l_dis is None
            return
        assert type(l_dis) is float
        assert l_dis == pretrain.pretrain_loss(S, St, labels, tau, 0.6,
                                               0.0).value
        assert abs(l_dis - float(
            oracle.distill_loss(S, St, tau, 0.6).data)) <= TOL


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

    def test_encoder_matches_pool_matrix(self):
        enc = LinguisticEncoder(12, 4, np.random.default_rng(5))
        w = Tensor(np.random.default_rng(6).normal(size=(4, 4)))
        got = lin_value_and_grads(enc, self.SEQUENCES, w.data)
        want = encoder_value_and_grads(enc, oracle.linguistic_encode,
                                       self.SEQUENCES, w)
        for g, wanted in zip(got, want):
            np.testing.assert_allclose(g, wanted, rtol=0, atol=TOL)

    def test_untouched_rows_get_zero_gradient(self):
        enc = LinguisticEncoder(6, 2, np.random.default_rng(0))
        _, gtok, _, _ = lin_value_and_grads(enc, [[1], [4, 4]],
                                            np.ones((2, 2)))
        np.testing.assert_array_equal(
            gtok.any(axis=1), [False, True, False, False, True, False])

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
        got = lin_value_and_grads(enc, sequences, w.data)
        want = encoder_value_and_grads(enc, oracle.bag_encode, sequences, w)
        for g, wanted in zip(got, want):
            assert g.tobytes() == wanted.tobytes()

    def test_table_rows_encode_as_their_list(self):
        """A corpus table and rows gathered from it give the bits of the
        same sentences passed as a list."""
        corpus, _ = gen_corpus(3, 5, 2, vocab_size=48, noise_fraction=0.2,
                               seed=3)
        enc = LinguisticEncoder(48, 6, np.random.default_rng(2))
        table = corpus.table
        rows = np.array([7, 0, 20, 7, 3])
        pool = table.sequences()
        assert enc(table).tobytes() == enc(pool).tobytes()
        assert enc(table.take(rows)).tobytes() == \
            enc([pool[r] for r in rows]).tobytes()

    @pytest.mark.parametrize("source", ["list", "corpus"])
    def test_length_errors_keep_their_messages(self, source):
        """From a list, and from a table built with class rows, as a
        corpus table is."""
        enc = LinguisticEncoder(10, 2, np.random.default_rng(0), max_tokens=4)
        for bad, message in (
                ([], "LinguisticEncoder: empty sequence 1"),
                ([0, 2, 3, 4, 1], "LinguisticEncoder: sequence 1 has 5 "
                 "tokens, limit is 4; truncate explicitly if intended")):
            sequences = [[0, 1], bad, [0, 3, 1]]
            with pytest.raises(ValidationError) as exc:
                if source == "list":
                    enc(sequences)
                else:
                    token_table(sequences, 4, [len(sequences)])
            assert str(exc.value) == message


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
        "one_row": (np.array([[0.2, 0.7, 0.1]]), 1),
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
        opt = make_opt(params, weight_decay)
        rng = np.random.default_rng(1)
        states = []
        for step in range(self.STEPS):
            if step == self.STEPS // 2:   # a checkpoint load mid-run
                load_params(params, {k: p.data * 0.5 + 0.1
                                     for k, p in params.items()}, "mid.ck")
            opt.zero_grad()
            self.loss(params, rng.normal(size=(6, 3)), step).backward()
            opt.step(cosine_lr(0.05, step, self.STEPS))
            clip(params["tau"])
            states.append({k: p.data.tobytes() for k, p in params.items()})
        return states

    @pytest.mark.parametrize("weight_decay", [0.0, 0.05])
    def test_trajectory_matches_per_tensor_oracle_bitwise(self,
                                                          weight_decay):
        def clip_in_place(tau):
            np.clip(tau.data, 0.01, 1.0, out=tau.data)

        def clip_rebind(tau):   # a 0-d array, as `Tensor` holds
            tau.data = np.asarray(np.clip(tau.data, 0.01, 1.0))

        got = self.trajectory(AdamW, clip_in_place, weight_decay)
        want = self.trajectory(oracle.AdamW, clip_rebind, weight_decay)
        for step, (g, w) in enumerate(zip(got, want)):
            assert g == w, f"step {step}"

    def test_parameters_are_views_of_one_buffer(self):
        params = self.params(2)
        before = {k: p.data.copy() for k, p in params.items()}
        AdamW(params, weight_decay=0.05)
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


def test_lgr_finetune_graph_has_nineteen_nodes():
    """One LGR fine-tune loss: four visual weights and the encoder node,
    thirteen head parameters and the one loss node over the embedding
    and them. As single tape nodes it was 41, as composite ops 99."""
    rng = np.random.default_rng(0)
    vis = VisualEncoder(6, 4, rng)
    anchors = rng.normal(size=(3, 2, 4))
    loss = head_loss(HEADS["lgr"], vis(rng.normal(size=(5, 6))), anchors,
                     lgr_keys(anchors), LgrParams(4, 3, 0.3, rng),
                     np.array([0, 1, 2, 0, 1]))
    assert graph_size(loss) == 19


# (N, C, M, D): one image, one class, one anchor, and the reference shapes
HEAD_SHAPES = [(1, 3, 4, 5), (6, 1, 4, 5), (6, 3, 1, 5), (256, 20, 64, 16)]


def lgr_params_from(param_tensors, D, C) -> LgrParams:
    """LgrParams holding the given tensors, in LGR_PARAM_NAMES order."""
    params = LgrParams.__new__(LgrParams)
    params.D, params.C = D, C
    for name, t in zip(LGR_PARAM_NAMES, param_tensors):
        setattr(params, name, t)
    return params


@pytest.mark.parametrize("shape", HEAD_SHAPES)
@pytest.mark.parametrize("name", list(HEADS))
def test_head_loss_matches_the_tape_bit_for_bit(name, shape):
    """The one-node loss of each head and the gradients it leaves in the
    embedding and every head parameter equal, bit for bit, those of the
    single-node tape that fine-tuning built before. The embedding sums
    up to three terms, so this pins the tape's order."""
    N, C, M, D = shape
    e_i, anchors, y, params = random_head(np.random.default_rng(16), name,
                                          C, M, D, N)
    leaves = list(params.params().values())
    got_emb, want_emb = (Tensor(e_i.copy(), requires_grad=True)
                         for _ in range(2))

    def run(emb, loss_fn):
        for p in leaves:
            p.grad = None
        loss = loss_fn(emb)
        loss.backward()
        return loss.data, [emb.grad] + [p.grad for p in leaves]

    head = HEADS[name]
    got = run(got_emb, lambda emb: head_loss(
        head, emb, anchors, head.keys(anchors), params, y))
    want = run(want_emb, lambda emb: oracle.tape_head_loss(
        name, emb, anchors, params, y))
    assert got[0].tobytes() == want[0].tobytes()
    assert len(got[1]) == len(want[1]) == 1 + len(leaves)
    for g, w in zip(got[1], want[1]):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


def lgr_outputs_and_grads(e_i, anchors, arrays, seed):
    """Every field of `lgr_forward`'s output and `lgr_backward`'s
    gradients for a random weighting of P_I and P_T, against the einsum
    oracle's tape."""
    C, _, D = anchors.shape
    rng = np.random.default_rng(seed)
    w_i, w_t = rng.normal(size=(2, len(e_i), C))
    out = lgr_forward(e_i, anchors, lgr_params_from(
        [Tensor(a) for a in arrays], D, C), lgr_keys(anchors))
    got = ([out.P_I, out.P_T, out.attention, out.G],
           lgr_backward(out, w_i, w_t))
    leaves = [Tensor(a.copy(), requires_grad=True) for a in [e_i] + arrays]
    ref = oracle.lgr_forward(leaves[0], anchors,
                             lgr_params_from(leaves[1:], D, C))
    ((ref.P_I * Tensor(w_i)).sum() + (ref.P_T * Tensor(w_t)).sum()).backward()
    want = ([ref.P_I.data, ref.P_T.data, ref.attention.data, ref.G.data],
            [leaf.grad for leaf in leaves])
    return got, want


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
        got, want = lgr_outputs_and_grads(e_i, anchors, arrays, seed=11)
        for g, w in zip(got[0] + got[1], want[0] + want[1]):
            assert g.shape == w.shape
            np.testing.assert_allclose(g, w, rtol=0, atol=TOL)


class TestKnnForward:
    @pytest.mark.parametrize("shape", HEAD_SHAPES)
    def test_matches_einsum_oracle(self, shape):
        N, C, M, D = shape
        rng = np.random.default_rng(12)
        e_i, anchors = rng.normal(size=(N, D)), rng.normal(size=(C, M, D))
        w = rng.normal(size=(N, C))
        p, cache = knn_forward(e_i, anchors, 0.2, knn_keys(anchors))
        got = [p] + knn_backward(cache, None, w)
        leaves = [Tensor(a, requires_grad=True)
                  for a in (e_i.copy(), np.array(0.2))]
        ref = oracle.knn_forward(leaves[0], anchors, leaves[1])
        (ref * Tensor(w)).sum().backward()
        for g, want in zip(got, [ref.data] + [t.grad for t in leaves]):
            np.testing.assert_allclose(g, want, rtol=0, atol=TOL)


def _one_training_step_and_head_pass():
    rng = np.random.default_rng(7)
    model = CvlpModel(4, 4, 16, seed=0)
    seqs = [[0, 2, 1], [0, 3, 4, 1], [0, 5, 1]]
    pretrain.pretrain_step(model, rng.normal(size=(3, 4)), seqs,
                           np.array([0, 1, 1]), rng.normal(size=(3, 3)),
                           0.5, 0.5)
    images, anchors = rng.normal(size=(2, 4)), rng.normal(size=(3, 2, 4))
    head_loss(HEADS["lgr"], model.vis(images), anchors, lgr_keys(anchors),
              LgrParams(4, 3, tau_init=0.3, rng=rng),
              np.array([0, 2])).backward()


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

    keys = lgr_keys(anchors)
    for _ in range(2):
        lgr_forward(x, anchors, params, keys)
    before = minor_faults()
    for _ in range(5):
        lgr_forward(x, anchors, params, keys)
    assert minor_faults() - before < 100
