"""Stage 2: the language-guided recognition head, its ablation heads
(FC, KNN), fine-tuning, and the precomputed anchor-embedding cache.

Each head is an array forward and an array backward. A fine-tuning step
is a two-node tape: the visual encoder, then `head_loss`, one node over
the image embedding and the head's parameters."""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass
from functools import reduce
from typing import Callable

import numpy as np

from . import checkpoint as ckpt
from .anchors import AnchorSet
from .data import ClassCorpus, LongTailDataset, SqrtSampler
from .encoders import CvlpModel, clamp_tau
from .errors import NumericError, ShapeMismatch, ValidationError
from .optim import AdamW, cosine_lr
from .tensor import (Tensor, cosine_sim_backward, cross_entropy_backward,
                     cross_entropy_forward, grad_node, layer_norm_backward,
                     layer_norm_forward, normalize_rows, parameter,
                     softmax_backward, softmax_forward, unit_rows)

CACHE_MAGIC = b"VLAE"
CACHE_VERSION = 1

#: The LGR head's parameter names, in checkpoint order.
LGR_PARAM_NAMES = ("q_w", "q_b", "q_ln_g", "q_ln_b",
                   "k_w", "k_b", "k_ln_g", "k_ln_b",
                   "mlp_w1", "mlp_b1", "mlp_w2", "mlp_b2", "tau")


class LgrParams:
    """Query/key projections with their layer norms, the image classifier
    perceptron, and the temperature (initialized from pre-training)."""

    def __init__(self, D: int, C: int, tau_init: float,
                 rng: np.random.Generator):
        self.D, self.C = D, C
        # identity projections make the initial attention a plain
        # normalized-similarity lookup; training refines it from there
        self.q_w = parameter(1.5 * np.eye(D))
        self.q_b = parameter(np.zeros(D))
        self.q_ln_g = parameter(np.ones(D))
        self.q_ln_b = parameter(np.zeros(D))
        self.k_w = parameter(1.5 * np.eye(D))
        self.k_b = parameter(np.zeros(D))
        self.k_ln_g = parameter(np.ones(D))
        self.k_ln_b = parameter(np.zeros(D))
        self.mlp_w1 = parameter(rng.normal(size=(D, D)) / np.sqrt(D))
        self.mlp_b1 = parameter(np.zeros(D))
        self.mlp_w2 = parameter(rng.normal(size=(D, C)) / np.sqrt(D))
        self.mlp_b2 = parameter(np.zeros(C))
        self.tau = parameter(np.array(tau_init))

    def params(self) -> dict:
        return {"lgr." + name: getattr(self, name) for name in LGR_PARAM_NAMES}


@dataclass
class LgrOutput:
    """`lgr_forward`'s arrays, and the cache `lgr_backward` reads."""
    P_I: np.ndarray        # (N, C) probabilities from the image classifier
    P_T: np.ndarray        # (N, C) probabilities from the anchor attention path
    attention: np.ndarray  # (N, C, M), rows over M sum to 1
    G: np.ndarray          # (N, C, D) per-class gathers
    cache: tuple


def lgr_keys(anchors) -> np.ndarray:
    """The rows of the frozen (C, M, D) anchor block normalized as the key
    layer norm normalizes them, (C*M, D), before its gain and bias: a
    constant of a fine-tuning run."""
    C, M, D = np.shape(anchors)
    return normalize_rows(
        np.asarray(anchors, dtype=np.float64).reshape(C * M, D))[0]


# The attention, gather and cosine keep the image axis last, in (C, M, N)
# and (C, D, N) buffers behind (N, C, M) and (N, C, D) views, so that
# every reduction over M or D runs across whole rows of N images.


def lgr_forward(E_I, anchors, params: LgrParams, keys) -> LgrOutput:
    """Attention of the image query over each class's M anchor embeddings
    (softmax within the class), then the additive two-path probability,
    on arrays.

    `E_I` is (N, D); `anchors` is the frozen (C, M, D) block and `keys`
    its `lgr_keys`. A zero image or gather row is a ValidationError.
    """
    x = np.asarray(E_I, dtype=np.float64)
    anchors = np.asarray(anchors, dtype=np.float64)
    C, M, D = anchors.shape
    if x.shape[1:] != (D,) or (params.D, params.C) != (D, C):
        raise ShapeMismatch(
            f"lgr_forward: embeddings {x.shape}, anchors {anchors.shape}, "
            f"params (D={params.D}, C={params.C}) disagree"
        )
    N = len(x)
    q_ln, q_ln_cache = layer_norm_forward(x, params.q_ln_g.data,
                                          params.q_ln_b.data)
    q = q_ln @ params.q_w.data + params.q_b.data           # (N, D)
    k_ln = keys * params.k_ln_g.data
    k_ln += params.k_ln_b.data
    k = k_ln @ params.k_w.data + params.k_b.data            # (C*M, D)
    # softmax(q k^T / sqrt(D)) over each class's M keys, max-shifted,
    # exponentiated and normalized in one buffer
    q_scaled = q / np.sqrt(D)
    att = (k @ q_scaled.T).reshape(C, -1, N)                # (C, M, N)
    att -= att.max(axis=1, keepdims=True)
    np.exp(att, out=att)
    att /= att.sum(axis=1, keepdims=True)
    # G[n, c] = attention[n, c] @ anchors[c], as C batched matmuls
    g_t = anchors.transpose(0, 2, 1) @ att                  # (C, D, N)
    # cos[n, c] between x[n] and G[n, c]
    x_t = x.T
    x_sq, g_sq = (x_t * x_t).sum(axis=0), (g_t * g_t).sum(axis=1)
    if (x_sq == 0.0).any():
        raise ValidationError("lgr_forward: zero-norm image embedding")
    if (g_sq == 0.0).any():
        raise ValidationError("lgr_forward: zero-norm gather row")
    inv_x, inv_g = x_sq ** -0.5, g_sq ** -0.5
    cos = (g_t * x_t).sum(axis=1) * inv_x * inv_g          # (C, N)
    tau_inv = params.tau.data ** -1.0
    p_t = softmax_forward(cos.T * tau_inv, 1)
    h = x @ params.mlp_w1.data + params.mlp_b1.data
    r = np.maximum(h, 0.0)
    p_i = softmax_forward(r @ params.mlp_w2.data + params.mlp_b2.data, 1)
    return LgrOutput(P_I=p_i, P_T=p_t, attention=att.transpose(2, 0, 1),
                     G=g_t.transpose(2, 0, 1),
                     cache=(x, anchors, keys, params, q_ln_cache, q_ln, k_ln,
                            k, q_scaled, att, g_t, inv_x, inv_g, cos,
                            tau_inv, h, r))


def lgr_backward(out: LgrOutput, g_i, g_t) -> list:
    """The gradients of (E_I, *params in LGR_PARAM_NAMES order) for
    upstream g_i on P_I and g_t on P_T; the anchors are frozen.

    Each is computed in the same float operations as the tape of single
    nodes that fine-tuning built before, so every bit agrees: reductions
    and matmuls round by memory layout, so each runs on operands laid
    out as there, and the image embedding's three terms are summed in
    the tape's order: gather cosine, query layer norm, perceptron.
    """
    (x, anchors, keys, params, q_ln_cache, q_ln, k_ln, k, q_scaled, att,
     g_t_rows, inv_x, inv_g, cos, tau_inv, h, r) = out.cache
    N, D = x.shape
    # P_T = softmax(cos^T * tau^-1), whose rows lie transposed
    g_z = np.ascontiguousarray(softmax_backward(out.P_T, g_t, 1))
    g_cos = g_z * tau_inv                                    # (N, C)
    g_tau = ((g_z * cos.T).sum(axis=0).sum(axis=0) * -1.0
             * params.tau.data ** -2.0)
    # the cosine: with inverse norms rx, rg, unit rows ux and w = g rg,
    # x receives rx (sum_c w G - ux sum_c g cos) and G[n, c]
    # w (ux - cos rg G[n, c])
    w, ux = g_cos.T * inv_g, x.T * inv_x
    g_x = (inv_x * ((w[:, None] * g_t_rows).sum(axis=0)
                    - ux * (g_cos.T * cos).sum(axis=0))).T
    g_gather = w[:, None] * ux - (w * cos * inv_g)[:, None] * g_t_rows
    # the gather: the attention receives anchors[c] @ g per class
    g_att = anchors @ g_gather                               # (C, M, N)
    # the attention softmax: the scores receive p * (g - sum_M(g p))
    s = np.multiply(att, g_att, out=g_att)
    s_p = att * s.sum(axis=1, keepdims=True)
    s = np.subtract(s, s_p, out=s).reshape(-1, N)
    g_q = s.T @ k / np.sqrt(D)
    # the keys, layer-normed frozen anchors times k_w plus k_b: k_b and
    # the key layer norm's bias and gain receive column sums over the
    # C*M key rows of g_k, of g_k_ln and of g_k_ln * keys, taken in one
    # reduction of the three side by side
    sums = np.empty((len(s), 3 * D))
    g_k = np.matmul(s, q_scaled, out=sums[:, :D])
    g_k_ln = np.matmul(g_k, params.k_w.data.T, out=sums[:, D:2 * D])
    np.multiply(g_k_ln, keys, out=sums[:, 2 * D:])
    g_k_b, g_k_ln_b, g_k_ln_g = np.split(sums.sum(axis=0), 3)
    # the query, layer-normed x times q_w plus q_b
    g_q_ln = g_q @ params.q_w.data.T
    g_x_ln, g_q_ln_g, g_q_ln_b = np.empty(x.shape), np.empty(D), np.empty(D)
    layer_norm_backward(q_ln_cache, g_q_ln, (g_x_ln, g_q_ln_g, g_q_ln_b))
    g_x = g_x + g_x_ln
    # P_I = softmax(relu(x mlp_w1 + mlp_b1) mlp_w2 + mlp_b2)
    g_logits = softmax_backward(out.P_I, g_i, 1)
    g_h = (g_logits @ params.mlp_w2.data.T) * (h > 0.0)
    g_x += g_h @ params.mlp_w1.data.T
    return [g_x, q_ln.T @ g_q, g_q.sum(axis=0), g_q_ln_g, g_q_ln_b,
            k_ln.T @ g_k, g_k_b, g_k_ln_g, g_k_ln_b,
            x.T @ g_h, g_h.sum(axis=0), r.T @ g_logits, g_logits.sum(axis=0),
            g_tau]


def rec_loss(paths, y):
    """The recognition loss on arrays: cross entropy on each of a head's
    probability paths (P_I, P_T), summed in that order; a None path, one
    the head lacks, is skipped. Returns (the loss, `backward`), where
    `backward(g)` gives each path's gradient for upstream g, None for a
    skipped path."""
    terms = [None if p is None else cross_entropy_forward(p, y)
             for p in paths]
    value = reduce(operator.add, [t[0] for t in terms if t is not None])

    def backward(g):
        return [None if t is None else cross_entropy_backward(t[1], g)
                for t in terms]

    return value, backward


# ---- ablation heads ---------------------------------------------------------


class FcParams:
    """Single linear layer D -> C (vision-only baseline head)."""

    def __init__(self, D: int, C: int, rng: np.random.Generator):
        self.w = parameter(rng.normal(size=(D, C)) / np.sqrt(D))
        self.b = parameter(np.zeros(C))

    def params(self) -> dict:
        return {"fc.w": self.w, "fc.b": self.b}


def fc_forward(E_I, fc: FcParams):
    """(softmax(E_I w + b), the cache `fc_backward` reads) on arrays."""
    x = np.asarray(E_I, dtype=np.float64)
    p = softmax_forward(x @ fc.w.data + fc.b.data, 1)
    return p, (x, fc, p)


def fc_backward(cache, g_i, g_t) -> list:
    """The gradients of (E_I, w, b) for upstream g_i on the
    probabilities; the head has no P_T, so g_t is None."""
    x, fc, p = cache
    g_z = softmax_backward(p, g_i, 1)
    return [g_z @ fc.w.data.T, x.T @ g_z, g_z.sum(axis=0)]


def knn_keys(anchors) -> tuple:
    """The rows of the frozen (C, M, D) anchor block scaled to unit
    length, with their inverse norms, (C*M, D) and (C*M, 1): a constant
    of a fine-tuning run. A zero row is a ValidationError."""
    C, M, D = np.shape(anchors)
    return unit_rows(np.asarray(anchors, dtype=np.float64)
                     .reshape(C * M, D), "knn_forward anchors")


def knn_forward(E_I, anchors, tau, keys):
    """Per class, the best cosine match among its M anchors, softmaxed
    over classes with the temperature, on arrays: (the probabilities,
    the cache `knn_backward` reads). Training-free on the text side.
    `E_I` is (N, D) and `keys` is the anchors' `knn_keys`."""
    x = np.asarray(E_I, dtype=np.float64)
    C, M, D = np.shape(anchors)
    if x.shape[1:] != (D,):
        raise ShapeMismatch(
            f"knn_forward: embeddings {x.shape} vs anchors {np.shape(anchors)}"
        )
    unit_x, inv_x = unit_rows(x, "knn_forward embeddings")
    cos = (unit_x @ keys[0].T).reshape(-1, C, M)            # (N, C, M)
    best = cos.max(axis=2)                                  # (N, C)
    tau = np.asarray(tau, dtype=np.float64)
    tau_inv = tau ** -1.0
    p = softmax_forward(best * tau_inv, 1)
    return p, ((unit_x, inv_x, *keys), cos, best, tau, tau_inv, p)


def knn_backward(cache, g_i, g_t) -> list:
    """The gradients of (E_I, tau) for upstream g_t on the
    probabilities; the head has no P_I, so g_i is None. Cosines tied at
    a class's max share its gradient evenly."""
    cos_cache, cos, best, tau, tau_inv, p = cache
    g_z = softmax_backward(p, g_t, 1)
    g_tau = (g_z * best).sum(axis=0).sum(axis=0) * -1.0 * tau ** -2.0
    at_max = (cos == best[:, :, None]).astype(np.float64)
    at_max /= at_max.sum(axis=2, keepdims=True)
    g_cos = (at_max * (g_z * tau_inv)[:, :, None]).reshape(len(cos), -1)
    g_x = np.empty(cos_cache[0].shape)
    cosine_sim_backward(cos_cache, g_cos, (g_x, None))
    return [g_x, g_tau]


class KnnParams:
    """The KNN head's one trainable parameter: the model temperature."""

    def __init__(self, tau: Tensor):
        self.tau = tau

    def params(self) -> dict:
        return {"tau": self.tau}


# ---- the head table ---------------------------------------------------------


@dataclass(frozen=True)
class Head:
    """`params(D, C, tau, rng)` builds the head's parameters, where `tau`
    is the model temperature tensor; `keys(anchor_emb)` computes the
    constants of the frozen anchor block that the head reads;
    `forward(emb, anchor_emb, keys, params)` returns the path
    probabilities (P_I, P_T) and a cache on arrays, None for a path the
    head lacks; `backward(cache, g_i, g_t)` returns the gradients of
    (emb, *params.params().values()) for upstream g_i on P_I and g_t on
    P_T."""
    params: Callable
    keys: Callable
    forward: Callable
    backward: Callable


def _lgr_paths(emb, anchor_emb, keys, params):
    out = lgr_forward(emb, anchor_emb, params, keys)
    return out.P_I, out.P_T, out


def _fc_paths(emb, anchor_emb, keys, params):
    p, cache = fc_forward(emb, params)
    return p, None, cache


def _knn_paths(emb, anchor_emb, keys, params):
    p, cache = knn_forward(emb, anchor_emb, params.tau.data, keys)
    return None, p, cache


# The forwards look the head functions up in this module at call time,
# so wrapping `head.lgr_forward` and friends sees every call.
HEADS = {
    "lgr": Head(lambda D, C, tau, rng: LgrParams(D, C, float(tau.data), rng),
                lgr_keys, _lgr_paths, lgr_backward),
    "fc": Head(lambda D, C, tau, rng: FcParams(D, C, rng),
               lambda anchor_emb: None, _fc_paths, fc_backward),
    "knn": Head(lambda D, C, tau, rng: KnnParams(tau), knn_keys, _knn_paths,
                knn_backward),
}


def get_head(name: str) -> Head:
    if name not in HEADS:
        raise ValidationError(
            f"head must be one of {', '.join(HEADS)}, got {name!r}")
    return HEADS[name]


def head_loss(head: Head, emb: Tensor, anchor_emb, keys, params, y) -> Tensor:
    """`rec_loss` through `head` as one tape node over the image
    embedding `emb` and the head's parameters."""
    p_i, p_t, cache = head.forward(emb.data, anchor_emb, keys, params)
    value, path_grads = rec_loss((p_i, p_t), y)

    def write_grads(g, out):
        for o, grad in zip(out, head.backward(cache, *path_grads(g))):
            np.copyto(o, grad)

    return grad_node(value, (emb, *params.params().values()), write_grads)


# ---- anchor embeddings ------------------------------------------------------


def compute_anchor_embeddings(anchors: AnchorSet, corpus: ClassCorpus,
                              model: CvlpModel) -> np.ndarray:
    """The frozen (C, M, D) anchor text embedding block, each class's
    anchors embedded together. Anchors that do not fit the corpus's
    classes and per-class ids are a ValidationError."""
    table = corpus.table
    sids = np.array([anchors.ids(c) for c in range(len(anchors.entries))],
                    dtype=np.int64)
    if len(sids) != corpus.C or not (
            (sids >= 0) & (sids < table.class_sizes[:, None])).all():
        raise ValidationError("compute_anchor_embeddings: anchors do not "
                              "fit the corpus's classes and sentence ids")
    rows = table.class_starts[:, None] + sids
    return np.stack([model.lin(table.take(r)) for r in rows])


def save_anchor_embeddings(path, embeddings: np.ndarray,
                           checkpoint_hash: bytes):
    if len(checkpoint_hash) != 32:
        raise ValidationError("save_anchor_embeddings: need a 32-byte hash")
    C, M, D = embeddings.shape
    with ckpt.atomic_write(path, binary=True) as f:
        f.write(CACHE_MAGIC)
        f.write(struct.pack("<IIII", CACHE_VERSION, C, M, D))
        f.write(checkpoint_hash)
        f.write(embeddings.astype("<f8").tobytes())


def load_anchor_embeddings(path):
    """(the (C, M, D) block, the checkpoint hash it records); a short or
    truncated file is a ValidationError naming `path`."""
    with open(path, "rb") as f:
        if f.read(4) != CACHE_MAGIC:
            raise ValidationError(f"{path}: not an anchor cache (bad magic)")
        version, C, M, D = ckpt.unpack(f, "<IIII", path, "header")
        if version != CACHE_VERSION:
            raise ValidationError(f"{path}: unsupported version {version}")
        ckpt_hash = ckpt.read_exact(f, 32, path, "checkpoint hash")
        emb = np.frombuffer(
            ckpt.read_exact(f, C * M * D * 8, path, "embeddings"), dtype="<f8")
    return emb.reshape(C, M, D).copy(), ckpt_hash


# ---- fine-tuning ------------------------------------------------------------


def run_finetune(dataset: LongTailDataset, anchors: AnchorSet,
                 corpus: ClassCorpus, model: CvlpModel, cfg):
    """Fine-tune the visual encoder plus the head of RunConfig `cfg` on
    the recognition loss `rec_loss` over the head's paths. The
    linguistic encoder stays frozen and anchor embeddings are computed
    once up front. Returns (head_params, anchor_embeddings, trace).
    """
    head = get_head(cfg.head)
    anchor_emb = compute_anchor_embeddings(anchors, corpus, model)
    keys = head.keys(anchor_emb)

    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xF17E]))
    head_params = head.params(model.D, dataset.C, model.tau, rng)
    trainable = {**model.vis.params(), **head_params.params()}
    taus = [p for name, p in trainable.items() if name.endswith("tau")]

    steps_per_epoch = max(1, int(np.ceil(dataset.y.size / cfg.finetune_batch)))
    total_steps = max(1, cfg.finetune_epochs * steps_per_epoch)
    opt = AdamW(trainable, cfg.weight_decay)
    sampler = SqrtSampler(dataset.counts, seed=cfg.seed)
    trace = []
    step = 0
    for epoch in range(cfg.finetune_epochs):
        idx = sampler.draw_epoch(steps_per_epoch, cfg.finetune_batch)
        for images, labels in zip(dataset.X[idx].astype(np.float64),
                                  dataset.y[idx]):
            loss = head_loss(head, model.vis(images), anchor_emb, keys,
                             head_params, labels)
            if not np.isfinite(loss.data):
                raise NumericError(
                    f"run_finetune: non-finite loss at step {step}")
            opt.zero_grad()
            loss.backward()
            opt.step(cosine_lr(cfg.finetune_lr, step, total_steps))
            for tau in taus:
                clamp_tau(tau)
            trace.append((epoch, step, float(loss.data)))
            step += 1
    return head_params, anchor_emb, trace


def classify_dataset(images: np.ndarray, vis, head: str, head_params,
                     anchor_emb, batch: int = 256):
    """Predictions for an image matrix under any head of HEADS: the
    argmax of the summed path probabilities.

    `vis` is the visual encoder. Returns (labels, p_i_at_pred,
    p_t_at_pred) so prediction dumps can log both path probabilities; a
    path the head lacks logs 0.
    """
    head = get_head(head)
    keys = head.keys(anchor_emb)
    preds, p_i_all, p_t_all = [], [], []
    for start in range(0, len(images), batch):
        emb = vis.forward(images[start:start + batch].astype(np.float64))[0]
        paths = head.forward(emb, anchor_emb, keys, head_params)[:2]
        lab = np.argmax(sum(p for p in paths if p is not None), axis=1)
        rows = np.arange(len(lab))
        p_i, p_t = (np.zeros(len(lab)) if p is None else p[rows, lab]
                    for p in paths)
        preds.append(lab)
        p_i_all.append(p_i)
        p_t_all.append(p_t)
    return (np.concatenate(preds), np.concatenate(p_i_all),
            np.concatenate(p_t_all))
