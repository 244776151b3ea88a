"""Composite-op versions of the fused tape nodes, kept as oracles.

These build the losses, the cosine similarity and the text pooling out
of elementwise tape ops, one node per op, exactly as the package did
before those paths became single nodes. Values and gradients of the
fused nodes are checked against them in test_fused_ops.py.
"""

import numpy as np

from vlltr.tensor import Tensor, as_tensor, log_softmax, matmul


def ccl_loss(S, labels, tau):
    S = as_tensor(S)
    labels = np.asarray(labels, dtype=np.int64)
    pos = (labels[:, None] == labels[None, :]).astype(np.float64)
    logits = S / as_tensor(tau)
    pos_t = Tensor(pos)
    inv_sizes = Tensor(1.0 / pos.sum(axis=1))
    l_vis = -(((log_softmax(logits, axis=1) * pos_t).sum(axis=1)
               * inv_sizes).mean())
    l_lin = -(((log_softmax(logits, axis=0) * pos_t).sum(axis=0)
               * inv_sizes).mean())
    return l_vis, l_lin, l_vis + l_lin


def distill_loss(S, S_teacher, tau, tau_teacher):
    S = as_tensor(S)
    St = np.asarray(S_teacher, dtype=np.float64)
    idx = np.arange(S.shape[0])

    def diag_softmax(mat, t, axis):
        z = mat / t
        z = z - z.max(axis=axis, keepdims=True)
        e = np.exp(z)
        return (e / e.sum(axis=axis, keepdims=True))[idx, idx]

    w_text = Tensor(diag_softmax(St, tau_teacher, axis=1))
    w_img = Tensor(diag_softmax(St, tau_teacher, axis=0))
    logits = S / as_tensor(tau)
    log_p_text = log_softmax(logits, axis=1)[idx, idx]
    log_p_img = log_softmax(logits, axis=0)[idx, idx]
    return -((w_text * log_p_text).mean()) - ((w_img * log_p_img).mean())


def pretrain_loss(S, S_teacher, labels, tau, tau_teacher, lam):
    _, _, l_ccl = ccl_loss(S, labels, tau)
    if lam == 1.0:
        return l_ccl
    l_dis = distill_loss(S, S_teacher, tau, tau_teacher)
    if lam == 0.0:
        return l_dis
    return lam * l_ccl + (1.0 - lam) * l_dis


def cosine_sim_matrix(a, b):
    a, b = as_tensor(a), as_tensor(b)
    na = a * ((a * a).sum(axis=1, keepdims=True) ** -0.5)
    nb = b * ((b * b).sum(axis=1, keepdims=True) ** -0.5)
    return matmul(na, nb.T)


def linguistic_encode(enc, sequences):
    """`LinguisticEncoder.__call__` through a dense (N x total tokens)
    pool matrix over the gathered token rows."""
    flat, pool_rows = [], []
    for seq in sequences:
        pool_rows.append((len(flat), len(seq)))
        flat.extend(int(t) for t in seq)
    pool = np.zeros((len(sequences), len(flat)))
    for i, (start, length) in enumerate(pool_rows):
        pool[i, start:start + length] = 1.0 / length
    gathered = enc.tok[np.array(flat, dtype=np.int64)]
    return matmul(matmul(Tensor(pool), gathered), enc.proj_w) + enc.proj_b
