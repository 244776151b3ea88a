"""The single-node losses, cosine similarity and text pooling against
their composite-op oracles (composite_oracles.py): the value and every
gradient must agree to 1e-10. Also checks that a forward and backward
pass leaves no reference cycles behind, and that freeing its graph does
not hand memory back to the OS only to fault it in again."""

import gc
import platform
import resource

import numpy as np
import pytest

import composite_oracles as oracle
from vlltr import pretrain
from vlltr.encoders import CvlpModel, LinguisticEncoder
from vlltr.head import LgrParams, lgr_forward, rec_loss
from vlltr.tensor import Tensor, cosine_sim_matrix, embedding_bag

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
        table = Tensor(np.ones((6, 2)), requires_grad=True)
        embedding_bag(table, [1, 4, 4], [0, 1]).sum().backward()
        np.testing.assert_array_equal(table.grad[:, 0],
                                      [0.0, 1.0, 0.0, 0.0, 1.0, 0.0])


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
