"""Stage 2: the language-guided recognition head, its ablation heads
(FC, KNN), zero-shot classification, fine-tuning, and the precomputed
anchor-embedding cache."""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .anchors import AnchorSet
from .data import ClassCorpus, LongTailDataset, SqrtSampler
from .encoders import TAU_MAX, TAU_MIN, CvlpModel
from .errors import (NumericError, ShapeMismatch, StaleArtifactError,
                     ValidationError)
from .optim import AdamW, LrSchedule, cosine_lr
from .tensor import (Tensor, as_tensor, cross_entropy, einsum, layer_norm,
                     matmul, parameter, softmax)

CACHE_MAGIC = b"VLAE"
CACHE_VERSION = 1


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
        named = {prefix + name: getattr(self, name) for name in (
            "q_w", "q_b", "q_ln_g", "q_ln_b",
            "k_w", "k_b", "k_ln_g", "k_ln_b",
            "mlp_w1", "mlp_b1", "mlp_w2", "mlp_b2")}
        named[prefix + "tau"] = self.tau
        return named

    def load_state(self, sections: dict, prefix="lgr."):
        for k, v in self.params(prefix).items():
            if k not in sections:
                raise ValidationError(f"checkpoint missing section '{k}'")
            v.data = sections[k].reshape(v.data.shape).copy()


@dataclass
class HeadOutput:
    P_I: Tensor      # (N, C) probabilities from the image classifier
    P_T: Tensor      # (N, C) probabilities from the anchor attention path
    attention: Tensor  # (N, C, M), rows over M sum to 1
    G: Tensor        # (N, C, D) per-class gathers

    @property
    def P(self) -> Tensor:
        return self.P_I + self.P_T


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
    if (np.linalg.norm(x.data, axis=1) == 0.0).any():
        raise ValidationError("lgr_forward: zero-norm image embedding")

    q = matmul(layer_norm(x, params.q_ln_g, params.q_ln_b), params.q_w) \
        + params.q_b                                       # (N, D)
    k = einsum("cmd,de->cme",
               layer_norm(anchors_t, params.k_ln_g, params.k_ln_b),
               params.k_w) + params.k_b                    # (C, M, D)
    scores = einsum("nd,cmd->ncm", q, k) * (1.0 / np.sqrt(D))
    attention = softmax(scores, axis=2)                    # (N, C, M)
    g = einsum("ncm,cmd->ncd", attention, anchors_t)       # (N, C, D)

    g_norms = np.linalg.norm(g.data, axis=2)
    if (g_norms == 0.0).any():
        raise ValidationError("lgr_forward: zero-norm gather row")
    x_norm = ((x * x).sum(axis=1, keepdims=True)) ** 0.5   # (N, 1)
    g_norm = ((g * g).sum(axis=2)) ** 0.5                  # (N, C)
    cos = einsum("nd,ncd->nc", x, g) / (x_norm * g_norm)
    p_t = softmax(cos / params.tau, axis=1)

    h = matmul(x, params.mlp_w1) + params.mlp_b1
    logits_i = matmul(h.relu(), params.mlp_w2) + params.mlp_b2
    p_i = softmax(logits_i, axis=1)
    return HeadOutput(P_I=p_i, P_T=p_t, attention=attention, G=g)


def rec_loss(out: HeadOutput, y) -> Tensor:
    """Cross entropy on both probability paths, summed."""
    return cross_entropy(out.P_I, y) + cross_entropy(out.P_T, y)


def predict(out: HeadOutput) -> np.ndarray:
    """Argmax over P = P_I + P_T; ties go to the smaller class id."""
    return np.argmax(out.P.data, axis=1)


# ---- ablation heads ---------------------------------------------------------


class FcParams:
    """Single linear layer D -> C (vision-only baseline head)."""

    def __init__(self, D: int, C: int, rng: np.random.Generator):
        self.w = parameter(rng.normal(size=(D, C)) / np.sqrt(D))
        self.b = parameter(np.zeros(C))

    def params(self, prefix="fc.") -> dict:
        return {prefix + "w": self.w, prefix + "b": self.b}

    def load_state(self, sections: dict, prefix="fc."):
        for k, v in self.params(prefix).items():
            if k not in sections:
                raise ValidationError(f"checkpoint missing section '{k}'")
            v.data = sections[k].reshape(v.data.shape).copy()


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
    a_norm = ((anchors_t * anchors_t).sum(axis=2)) ** 0.5   # (C, M)
    x_norm = ((x * x).sum(axis=1, keepdims=True)) ** 0.5    # (N, 1)
    cos = einsum("nd,cmd->ncm", x, anchors_t) \
        / (x_norm.reshape(-1, 1, 1) * a_norm.reshape(1, C, M))
    best = cos.max(axis=2)                                  # (N, C)
    return softmax(best / as_tensor(tau), axis=1)


def zero_shot_classify(E_I: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """Cosine to each class's mean anchor embedding; no trained head."""
    x = np.atleast_2d(np.asarray(E_I, dtype=np.float64))
    mean = np.asarray(anchors, dtype=np.float64).mean(axis=1)   # (C, D)
    mean = mean / np.linalg.norm(mean, axis=1, keepdims=True)
    xn = x / np.linalg.norm(x, axis=1, keepdims=True)
    return np.argmax(xn @ mean.T, axis=1)


# ---- anchor embeddings ------------------------------------------------------


def compute_anchor_embeddings(anchors: AnchorSet, corpus: ClassCorpus,
                              model: CvlpModel) -> np.ndarray:
    """The frozen (C, M, D) anchor text embedding block."""
    rows = []
    for c in range(corpus.C):
        sentences = corpus.for_class(c)
        tokens = [sentences[sid].tokens for sid in anchors.ids(c)]
        rows.append(model.lin(tokens).data)
    return np.stack(rows)


def save_anchor_embeddings(path, embeddings: np.ndarray,
                           checkpoint_hash: bytes):
    if len(checkpoint_hash) != 32:
        raise ValidationError("save_anchor_embeddings: need a 32-byte hash")
    C, M, D = embeddings.shape
    with open(path, "wb") as f:
        f.write(CACHE_MAGIC)
        f.write(struct.pack("<IIII", CACHE_VERSION, C, M, D))
        f.write(checkpoint_hash)
        f.write(embeddings.astype("<f8").tobytes())


def load_anchor_embeddings(path):
    with open(path, "rb") as f:
        if f.read(4) != CACHE_MAGIC:
            raise ValidationError(f"{path}: not an anchor cache (bad magic)")
        version, C, M, D = struct.unpack("<IIII", f.read(16))
        if version != CACHE_VERSION:
            raise ValidationError(f"{path}: unsupported version {version}")
        ckpt_hash = f.read(32)
        emb = np.frombuffer(f.read(C * M * D * 8), dtype="<f8")
    return emb.reshape(C, M, D).copy(), ckpt_hash


# ---- fine-tuning ------------------------------------------------------------


@dataclass
class FinetuneConfig:
    epochs: int
    batch_size: int
    base_lr: float
    weight_decay: float = 0.05
    seed: int = 0
    head: str = "lgr"          # "lgr" | "fc" | "knn"


def run_finetune(dataset: LongTailDataset, anchors: AnchorSet,
                 corpus: ClassCorpus, model: CvlpModel, cfg: FinetuneConfig,
                 expected_checkpoint_hash: bytes | None = None):
    """Fine-tune the visual encoder plus the chosen head on the
    recognition loss. The linguistic encoder stays frozen and anchor
    embeddings are computed once up front. Returns (head_params,
    anchor_embeddings, trace); head_params is None for the KNN head.
    """
    if expected_checkpoint_hash is not None \
            and anchors.checkpoint_hash != expected_checkpoint_hash:
        raise StaleArtifactError(
            "run_finetune: anchor file was selected under a different "
            "pre-training checkpoint"
        )
    for p in model.lin.params().values():
        p.requires_grad = False
    anchor_emb = compute_anchor_embeddings(anchors, corpus, model)

    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xF17E]))
    trainable = dict(model.vis.params())
    head_params = None
    if cfg.head == "lgr":
        head_params = LgrParams(model.D, dataset.C,
                                float(model.tau.data), rng)
        trainable.update(head_params.params())
    elif cfg.head == "fc":
        head_params = FcParams(model.D, dataset.C, rng)
        trainable.update(head_params.params())
    elif cfg.head == "knn":
        trainable["tau"] = model.tau
    else:
        raise ValidationError(f"run_finetune: unknown head {cfg.head!r}")

    steps_per_epoch = max(1, int(np.ceil(len(dataset.y) / cfg.batch_size)))
    total_steps = max(1, cfg.epochs * steps_per_epoch)
    sched = LrSchedule(cfg.base_lr, 0.0, total_steps)
    opt = AdamW(trainable, cfg.base_lr, weight_decay=cfg.weight_decay)
    sampler = SqrtSampler(dataset.counts, seed=cfg.seed)
    trace = []
    step = 0
    for epoch in range(cfg.epochs):
        for _ in range(steps_per_epoch):
            idx = sampler.draw(cfg.batch_size)
            images = dataset.X[idx].astype(np.float64)
            labels = dataset.y[idx]
            emb = model.vis(images)
            if cfg.head == "lgr":
                out = lgr_forward(emb, anchor_emb, head_params)
                loss = rec_loss(out, labels)
            elif cfg.head == "fc":
                loss = cross_entropy(fc_forward(emb, head_params), labels)
            else:
                loss = cross_entropy(
                    knn_forward(emb, anchor_emb, model.tau), labels)
            if not np.isfinite(loss.data):
                raise NumericError(
                    f"run_finetune: non-finite loss at step {step}")
            opt.zero_grad()
            loss.backward()
            opt.step(lr=cosine_lr(sched, step))
            if cfg.head == "lgr":
                head_params.tau.data = np.clip(head_params.tau.data,
                                                TAU_MIN, TAU_MAX)
            model.clamp_tau()
            trace.append((epoch, step, float(loss.data)))
            step += 1
    return head_params, anchor_emb, trace


def classify_dataset(images: np.ndarray, vis, head: str, head_params,
                     anchor_emb, tau=None, batch: int = 256):
    """Predictions for an image matrix under any of the three heads.

    `vis` is the visual encoder; only the LGR/KNN paths use `anchor_emb`
    and only KNN needs `tau`. Returns (labels, p_i_at_pred, p_t_at_pred)
    so prediction dumps can log both path probabilities.
    """
    preds, p_i_all, p_t_all = [], [], []
    for start in range(0, len(images), batch):
        emb = vis(images[start:start + batch].astype(np.float64))
        if head == "lgr":
            out = lgr_forward(emb, anchor_emb, head_params)
            lab = predict(out)
            rows = np.arange(len(lab))
            p_i, p_t = out.P_I.data[rows, lab], out.P_T.data[rows, lab]
        elif head == "fc":
            probs = fc_forward(emb, head_params).data
            lab = np.argmax(probs, axis=1)
            p_i = probs[np.arange(len(lab)), lab]
            p_t = np.zeros_like(p_i)
        elif head == "knn":
            probs = knn_forward(emb, anchor_emb, tau).data
            lab = np.argmax(probs, axis=1)
            p_t = probs[np.arange(len(lab)), lab]
            p_i = np.zeros_like(p_t)
        else:
            raise ValidationError(f"classify_dataset: unknown head {head!r}")
        preds.append(lab)
        p_i_all.append(p_i)
        p_t_all.append(p_t)
    return (np.concatenate(preds), np.concatenate(p_i_all),
            np.concatenate(p_t_all))
