"""Registered gradient checks over the numeric ops and composite losses."""

from __future__ import annotations

import numpy as np

from .gradcheck import GradCheckReport, gradcheck
from .head import LgrParams, lgr_forward, rec_loss
from .pretrain import ccl_loss, distill_loss, pretrain_loss
from .tensor import (Tensor, cosine_sim_matrix, cross_entropy, embedding_bag,
                     layer_norm, matmul, softmax)

LGR_PARAM_NAMES = ("q_w", "q_b", "q_ln_g", "q_ln_b",
                   "k_w", "k_b", "k_ln_g", "k_ln_b",
                   "mlp_w1", "mlp_b1", "mlp_w2", "mlp_b2", "tau")


def random_lgr_arrays(rng, C, M, D):
    params = LgrParams(D, C, tau_init=float(rng.uniform(0.2, 0.8)), rng=rng)
    arrays = [getattr(params, n).data.copy() for n in LGR_PARAM_NAMES]
    e_i = rng.normal(size=(2, D))
    anchors = rng.normal(size=(C, M, D))
    labels = rng.integers(0, C, size=2)
    return e_i, anchors, labels, arrays


def lgr_loss_fn(anchors, labels, C, M, D):
    """Scalar L_rec through lgr_forward as a function of the image
    embedding plus every head parameter."""
    anchors = np.asarray(anchors)

    def f(e_i, *param_tensors):
        params = LgrParams.__new__(LgrParams)
        params.D, params.C = D, C
        for name, t in zip(LGR_PARAM_NAMES, param_tensors):
            setattr(params, name, t)
        return rec_loss(lgr_forward(e_i, anchors, params), labels)

    return f


def random_batch(rng, n):
    S = rng.normal(size=(n, n))
    labels = rng.integers(0, max(1, n - 1) + 1, size=n)
    S_teacher = rng.normal(size=(n, n))
    tau = float(rng.uniform(0.2, 0.8))
    return S, labels, S_teacher, tau


def default_suite(seed: int = 0, instances: int = 3):
    """(name, thunk) pairs; each thunk returns a GradCheckReport."""
    rng = np.random.default_rng(seed)
    suite = []

    suite.append(("matmul", lambda: gradcheck(
        lambda a, b: matmul(a, b).sum(),
        [rng.normal(size=(3, 4)), rng.normal(size=(4, 2))])))
    w = rng.normal(size=5)
    suite.append(("softmax", lambda: gradcheck(
        lambda x: (softmax(x, 0) * Tensor(w)).sum(), [rng.normal(size=5)])))
    w_ln = rng.normal(size=(2, 4))
    suite.append(("layer_norm", lambda: gradcheck(
        lambda x, g, b: (layer_norm(x, g, b) * Tensor(w_ln)).sum(),
        [rng.normal(size=(2, 4)), np.ones(4), np.zeros(4)])))
    w_cs = rng.normal(size=(3, 2))
    suite.append(("cosine_sim_matrix", lambda: gradcheck(
        lambda a, b: (cosine_sim_matrix(a, b) * Tensor(w_cs)).sum(),
        [rng.normal(size=(3, 4)), rng.normal(size=(2, 4))])))
    y_ce = np.array([1, 0])
    suite.append(("cross_entropy", lambda: gradcheck(
        lambda z: cross_entropy(softmax(z, 1), y_ce),
        [rng.normal(size=(2, 3))])))

    def bag():
        # bags of lengths 2, 1, 3; row 3 repeats within and across bags
        ids, offsets = np.array([3, 0, 3, 1, 2, 3]), np.array([0, 2, 3])
        w_bag = Tensor(rng.normal(size=(3, 2)))
        return gradcheck(
            lambda t: (embedding_bag(t, ids, offsets) * w_bag).sum(),
            [rng.normal(size=(5, 2))])

    suite.append(("embedding_bag", bag))

    for i in range(instances):
        n = int(rng.integers(2, 7))
        S, labels, S_teacher, tau = random_batch(rng, n)

        def ccl(S=S, labels=labels):
            return gradcheck(
                lambda s, t: ccl_loss(s, labels, t)[2], [S, np.array(tau)])

        def dis(S=S, St=S_teacher):
            return gradcheck(
                lambda s, t: distill_loss(s, St, t, 0.5), [S, np.array(tau)])

        def pre(S=S, St=S_teacher, labels=labels):
            return gradcheck(
                lambda s, t: pretrain_loss(s, St, labels, t, 0.5, 0.5)[0],
                [S, np.array(tau)])

        suite.append((f"L_ccl[{i}]", ccl))
        suite.append((f"L_dis[{i}]", dis))
        suite.append((f"L_pre[{i}]", pre))

        C, M, D = int(rng.integers(2, 5)), int(rng.integers(1, 4)), 4
        e_i, anchors, y, arrays = random_lgr_arrays(rng, C, M, D)

        def rec(e_i=e_i, anchors=anchors, y=y, arrays=arrays,
                C=C, M=M, D=D):
            return gradcheck(lgr_loss_fn(anchors, y, C, M, D),
                             [e_i] + arrays)

        suite.append((f"L_rec∘lgr_forward[{i}]", rec))
    return suite


def run_suite(suite) -> tuple[bool, list]:
    lines = []
    all_passed = True
    for name, thunk in suite:
        report: GradCheckReport = thunk()
        lines.append(f"{name}: {report}")
        all_passed &= report.passed
    return all_passed, lines
