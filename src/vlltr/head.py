"""Stage 2: the language-guided recognition head, its ablation heads
(FC, KNN), fine-tuning, and the precomputed anchor-embedding cache."""

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
from .optim import AdamW, LrSchedule, cosine_lr
from .tensor import (Tensor, as_tensor, cosine_sim_matrix, cross_entropy,
                     layer_norm, matmul, parameter, softmax)

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

    def params(self, prefix="lgr.") -> dict:
        return {prefix + name: getattr(self, name) for name in LGR_PARAM_NAMES}

    def load_state(self, sections: dict, prefix="lgr."):
        ckpt.load_params(self.params(prefix), sections)


@dataclass
class HeadOutput:
    P_I: Tensor      # (N, C) probabilities from the image classifier
    P_T: Tensor      # (N, C) probabilities from the anchor attention path
    attention: Tensor  # (N, C, M), rows over M sum to 1
    G: Tensor        # (N, C, D) per-class gathers


# The three nodes below keep the image axis last, in (C, M, N) and
# (C, D, N) buffers behind (N, C, M) and (N, C, D) views, so that every
# reduction over M or D runs across whole rows of N images.


def _class_attention(q: Tensor, k: Tensor, C: int) -> Tensor:
    """softmax(q k^T / sqrt(D)) over each class's M keys, (N, C, M), as
    one node max-shifted, exponentiated and normalized in one buffer.
    With output p and upstream g the scores receive p * (g - sum_M(g p))."""
    N, D = q.shape
    q_scaled = q.data / np.sqrt(D)
    p = (k.data @ q_scaled.T).reshape(C, -1, N)            # (C, M, N)
    p -= p.max(axis=1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=1, keepdims=True)

    def backward(g):
        s = p * g.transpose(1, 2, 0)
        s = (s - p * s.sum(axis=1, keepdims=True)).reshape(-1, N)
        if q.requires_grad:
            q._accumulate(s.T @ k.data / np.sqrt(D))
        if k.requires_grad:
            k._accumulate(s @ q_scaled)

    return Tensor(p.transpose(2, 0, 1), parents=(q, k), backward=backward)


def _class_gather(attention: Tensor, anchors: Tensor) -> Tensor:
    """G[n, c] = attention[n, c] @ anchors[c], (N, C, D), as one node of
    C batched matmuls."""
    weights, a = attention.data.transpose(1, 2, 0), anchors.data

    def backward(g):
        g_c = g.transpose(1, 2, 0)                         # (C, D, N)
        if attention.requires_grad:
            attention._accumulate((a @ g_c).transpose(2, 0, 1))
        if anchors.requires_grad:
            anchors._accumulate(weights @ g_c.transpose(0, 2, 1))

    return Tensor((a.transpose(0, 2, 1) @ weights).transpose(2, 0, 1),
                  parents=(attention, anchors), backward=backward)


def _gather_cosine(x: Tensor, G: Tensor) -> Tensor:
    """cos[n, c] between x[n] and G[n, c], (N, C), as one node; a zero
    image or gather row is a ValidationError. With inverse norms rx, rg,
    unit rows ux and upstream g, through w = g rg, x receives
    rx (sum_c w G - ux sum_c g cos) and G[n, c] w (ux - cos rg G[n, c])."""
    x_t, g_t = x.data.T, G.data.transpose(1, 2, 0)         # (D, N), (C, D, N)
    x_sq, g_sq = (x_t * x_t).sum(axis=0), (g_t * g_t).sum(axis=1)
    if (x_sq == 0.0).any():
        raise ValidationError("lgr_forward: zero-norm image embedding")
    if (g_sq == 0.0).any():
        raise ValidationError("lgr_forward: zero-norm gather row")
    inv_x, inv_g = x_sq ** -0.5, g_sq ** -0.5
    cos = (g_t * x_t).sum(axis=1) * inv_x * inv_g          # (C, N)

    def backward(g):
        w, ux = g.T * inv_g, x_t * inv_x
        if x.requires_grad:
            x._accumulate((inv_x * ((w[:, None] * g_t).sum(axis=0)
                                    - ux * (g.T * cos).sum(axis=0))).T)
        if G.requires_grad:
            G._accumulate((w[:, None] * ux - (w * cos * inv_g)[:, None] * g_t)
                          .transpose(2, 0, 1))

    return Tensor(cos.T, parents=(x, G), backward=backward)


def lgr_forward(E_I, anchors, params: LgrParams) -> HeadOutput:
    """Attention of the image query over each class's M anchor embeddings
    (softmax within the class), then the additive two-path probability.

    `E_I` is (N, D) or (D,); `anchors` is the frozen (C, M, D) block.
    """
    x = as_tensor(E_I)
    if x.ndim == 1:
        x = x.reshape(1, -1)
    anchors_t = as_tensor(anchors)
    C, M, D = anchors_t.shape
    if x.shape[1] != D or (params.D, params.C) != (D, C):
        raise ShapeMismatch(
            f"lgr_forward: embeddings {x.shape}, anchors {anchors_t.shape}, "
            f"params (D={params.D}, C={params.C}) disagree"
        )

    q = matmul(layer_norm(x, params.q_ln_g, params.q_ln_b), params.q_w) \
        + params.q_b                                       # (N, D)
    k = matmul(layer_norm(anchors_t.reshape(C * M, D),
                          params.k_ln_g, params.k_ln_b),
               params.k_w) + params.k_b                    # (C*M, D)
    attention = _class_attention(q, k, C)                  # (N, C, M)
    g = _class_gather(attention, anchors_t)                # (N, C, D)
    p_t = softmax(_gather_cosine(x, g) / params.tau, axis=1)

    h = matmul(x, params.mlp_w1) + params.mlp_b1
    logits_i = matmul(h.relu(), params.mlp_w2) + params.mlp_b2
    p_i = softmax(logits_i, axis=1)
    return HeadOutput(P_I=p_i, P_T=p_t, attention=attention, G=g)


def rec_loss(out: HeadOutput, y) -> Tensor:
    """Cross entropy on both probability paths, summed."""
    return cross_entropy(out.P_I, y) + cross_entropy(out.P_T, y)


# ---- ablation heads ---------------------------------------------------------


class FcParams:
    """Single linear layer D -> C (vision-only baseline head)."""

    def __init__(self, D: int, C: int, rng: np.random.Generator):
        self.w = parameter(rng.normal(size=(D, C)) / np.sqrt(D))
        self.b = parameter(np.zeros(C))

    def params(self, prefix="fc.") -> dict:
        return {prefix + "w": self.w, prefix + "b": self.b}


def fc_forward(E_I, fc: FcParams) -> Tensor:
    x = as_tensor(E_I)
    if x.ndim == 1:
        x = x.reshape(1, -1)
    return softmax(matmul(x, fc.w) + fc.b, axis=1)


def knn_forward(E_I, anchors, tau) -> Tensor:
    """Per class, the best cosine match among its M anchors, softmaxed
    over classes with the temperature. Training-free on the text side."""
    x = as_tensor(E_I)
    if x.ndim == 1:
        x = x.reshape(1, -1)
    anchors_t = as_tensor(anchors)
    C, M, D = anchors_t.shape
    if x.shape[1] != D:
        raise ShapeMismatch(
            f"knn_forward: embeddings {x.shape} vs anchors {anchors_t.shape}"
        )
    cos = cosine_sim_matrix(x, anchors_t.reshape(C * M, D))
    best = cos.reshape(-1, C, M).max(axis=2)                # (N, C)
    return softmax(best / as_tensor(tau), axis=1)


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
    is the model temperature tensor; `paths(emb, anchor_emb, params)`
    returns the path probabilities (P_I, P_T), None for a path the head
    lacks."""
    params: Callable
    paths: Callable


def _lgr_paths(emb, anchor_emb, params):
    out = lgr_forward(emb, anchor_emb, params)
    return out.P_I, out.P_T


# The forwards look the head functions up in this module at call time,
# so wrapping `head.lgr_forward` and friends sees every call.
HEADS = {
    "lgr": Head(lambda D, C, tau, rng: LgrParams(D, C, float(tau.data), rng),
                _lgr_paths),
    "fc": Head(lambda D, C, tau, rng: FcParams(D, C, rng),
               lambda emb, anchor_emb, p: (fc_forward(emb, p), None)),
    "knn": Head(lambda D, C, tau, rng: KnnParams(tau),
                lambda emb, anchor_emb, p:
                (None, knn_forward(emb, anchor_emb, p.tau))),
}


def get_head(name: str) -> Head:
    if name not in HEADS:
        raise ValidationError(
            f"head must be one of {', '.join(HEADS)}, got {name!r}")
    return HEADS[name]


# ---- anchor embeddings ------------------------------------------------------


def compute_anchor_embeddings(anchors: AnchorSet, corpus: ClassCorpus,
                              model: CvlpModel) -> np.ndarray:
    """The frozen (C, M, D) anchor text embedding block, each class's
    anchors embedded together. Anchors that do not fit the corpus's
    classes and per-class ids are a ValidationError."""
    table = corpus.token_table()
    sids = np.array([anchors.ids(c) for c in range(len(anchors.entries))],
                    dtype=np.int64)
    if len(sids) != corpus.C or not (
            (sids >= 0) & (sids < table.class_sizes[:, None])).all():
        raise ValidationError("compute_anchor_embeddings: anchors do not "
                              "fit the corpus's classes and sentence ids")
    rows = table.class_starts[:, None] + sids
    return np.stack([model.lin(table.take(r)).data for r in rows])


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


@dataclass
class FinetuneConfig:
    epochs: int
    batch_size: int
    base_lr: float
    weight_decay: float = 0.05
    seed: int = 0
    head: str = "lgr"          # a key of HEADS


def run_finetune(dataset: LongTailDataset, anchors: AnchorSet,
                 corpus: ClassCorpus, model: CvlpModel, cfg: FinetuneConfig):
    """Fine-tune the visual encoder plus the chosen head on the
    recognition loss, cross entropy summed over the head's paths. The
    linguistic encoder stays frozen and anchor embeddings are computed
    once up front. Returns (head_params, anchor_embeddings, trace).
    """
    head = get_head(cfg.head)
    for p in model.lin.params().values():
        p.requires_grad = False
    anchor_emb = compute_anchor_embeddings(anchors, corpus, model)

    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xF17E]))
    head_params = head.params(model.D, dataset.C, model.tau, rng)
    trainable = {**model.vis.params(), **head_params.params()}
    taus = [p for name, p in trainable.items() if name.endswith("tau")]

    steps_per_epoch = max(1, int(np.ceil(len(dataset.y) / cfg.batch_size)))
    total_steps = max(1, cfg.epochs * steps_per_epoch)
    sched = LrSchedule(cfg.base_lr, 0.0, total_steps)
    opt = AdamW(trainable, cfg.base_lr, weight_decay=cfg.weight_decay)
    sampler = SqrtSampler(dataset.counts, seed=cfg.seed)
    trace = []
    step = 0
    for epoch in range(cfg.epochs):
        idx = sampler.draw_epoch(steps_per_epoch, cfg.batch_size)
        for images, labels in zip(dataset.X[idx].astype(np.float64),
                                  dataset.y[idx]):
            paths = head.paths(model.vis(images), anchor_emb, head_params)
            loss = reduce(operator.add, [cross_entropy(p, labels)
                                         for p in paths if p is not None])
            if not np.isfinite(loss.data):
                raise NumericError(
                    f"run_finetune: non-finite loss at step {step}")
            opt.zero_grad()
            loss.backward()
            opt.step(lr=cosine_lr(sched, step))
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
    paths_of = get_head(head).paths
    preds, p_i_all, p_t_all = [], [], []
    for start in range(0, len(images), batch):
        emb = vis(images[start:start + batch].astype(np.float64))
        paths = [None if p is None else p.data
                 for p in paths_of(emb, anchor_emb, head_params)]
        lab = np.argmax(sum(p for p in paths if p is not None), axis=1)
        rows = np.arange(len(lab))
        p_i, p_t = (np.zeros(len(lab)) if p is None else p[rows, lab]
                    for p in paths)
        preds.append(lab)
        p_i_all.append(p_i)
        p_t_all.append(p_t)
    return (np.concatenate(preds), np.concatenate(p_i_all),
            np.concatenate(p_t_all))
