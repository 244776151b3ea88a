"""Stage 1: class-wise visual-linguistic pre-training.

Positives are class-level: every text of the batch sharing the image's
class counts, and each image gets a freshly sampled same-class sentence
every iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ClassCorpus, LongTailDataset, SqrtSampler
from .encoders import CvlpModel, TeacherPair
from .errors import NumericError, ShapeMismatch, ValidationError
from .optim import AdamW, LrSchedule, cosine_lr
from .tensor import Tensor, as_tensor


@dataclass
class PretrainConfig:
    epochs: int
    batch_size: int
    base_lr: float
    lam: float = 0.5
    weight_decay: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValidationError(f"lam must be in [0, 1], got {self.lam}")


def _log_softmax(z: np.ndarray, axis: int) -> np.ndarray:
    z = z - z.max(axis=axis, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=axis, keepdims=True))


class _Logits:
    """The logits S / tau with their row and column softmaxes and
    log-softmaxes, shared by every loss taken over them."""

    def __init__(self, S: Tensor, tau: Tensor):
        self.S, self.tau = S, tau
        z = S.data / tau.data
        self.log_p_row = _log_softmax(z, axis=1)
        self.log_p_col = _log_softmax(z, axis=0)
        self.p_row, self.p_col = np.exp(self.log_p_row), np.exp(self.log_p_col)

    def loss(self, value, G: np.ndarray) -> Tensor:
        """A scalar loss of these logits as one tape node, given G, its
        gradient with respect to the logits: S receives G / tau and tau
        receives -sum(G * S) / tau^2."""
        S, tau = self.S, self.tau

        def backward(g):
            if S.requires_grad:
                S._accumulate(g * G / tau.data)
            if tau.requires_grad:
                tau._accumulate(-g * (G * S.data).sum() / tau.data ** 2)

        return Tensor(value, parents=(S, tau), backward=backward)


def _ccl_labels(S: Tensor, labels) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    n = S.shape[0]
    if S.ndim != 2 or S.shape != (n, n) or labels.shape != (n,):
        raise ShapeMismatch(
            f"ccl_loss: need square S and matching labels, "
            f"got S {S.shape}, labels {labels.shape}"
        )
    return labels


def _ccl_terms(logits: _Logits, labels: np.ndarray):
    """(value, G) of L_vis and of L_lin. Per direction G is
    (softmax - pos / |pos|) / n."""
    pos = (labels[:, None] == labels[None, :]).astype(np.float64)
    pos_sizes = pos.sum(axis=1)
    if (pos_sizes == 0).any():
        raise ValidationError("ccl_loss: empty positive set")
    n = len(labels)
    # pos is symmetric, so row i and column i both have pos_sizes[i] members
    target_vis = pos / pos_sizes[:, None]
    target_lin = pos / pos_sizes[None, :]
    return [(-(log_p * target).sum() / n, (p - target) / n)
            for log_p, p, target in (
                (logits.log_p_row, logits.p_row, target_vis),
                (logits.log_p_col, logits.p_col, target_lin))]


def _teacher_matrix(S: Tensor, S_teacher) -> np.ndarray:
    St = np.asarray(S_teacher, dtype=np.float64)
    if S.shape != St.shape or S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ShapeMismatch(
            f"distill_loss: need matching square matrices, "
            f"got {S.shape} vs {St.shape}"
        )
    return St


def _distill_term(logits: _Logits, St: np.ndarray, tau_teacher: float):
    """(value, G) of L_dis, with G =
    (w_text * (row softmax - I) + w_img * (column softmax - I)) / n."""
    n = St.shape[0]
    idx = np.arange(n)

    def diag_softmax(mat, t, axis):
        z = mat / t
        z = z - z.max(axis=axis, keepdims=True)
        e = np.exp(z)
        return (e / e.sum(axis=axis, keepdims=True))[idx, idx]

    w_text = diag_softmax(St, tau_teacher, axis=1)
    w_img = diag_softmax(St, tau_teacher, axis=0)
    value = (-(w_text * logits.log_p_row[idx, idx]).mean()
             - (w_img * logits.log_p_col[idx, idx]).mean())
    G = w_text[:, None] * logits.p_row + w_img[None, :] * logits.p_col
    G[idx, idx] -= w_text + w_img
    return value, G / n


def ccl_loss(S: Tensor, labels, tau):
    """Class-wise contrastive loss over a similarity matrix.

    Returns (L_vis, L_lin, L_ccl): the row-softmax (image-anchored) term,
    the column-softmax (text-anchored) term, and their sum. Each term is
    averaged over its positive set and then over the batch, and each is
    one tape node.
    """
    S = as_tensor(S)
    labels = _ccl_labels(S, labels)
    logits = _Logits(S, as_tensor(tau))
    (v_vis, g_vis), (v_lin, g_lin) = _ccl_terms(logits, labels)
    return (logits.loss(v_vis, g_vis), logits.loss(v_lin, g_lin),
            logits.loss(v_vis + v_lin, g_vis + g_lin))


def distill_loss(S: Tensor, S_teacher, tau, tau_teacher: float):
    """Teacher's positive-pair probability weighting the student's
    positive-pair log-probability, in both softmax directions,
    batch-averaged, as one tape node. No gradient flows through the
    teacher matrix."""
    S = as_tensor(S)
    St = _teacher_matrix(S, S_teacher)
    logits = _Logits(S, as_tensor(tau))
    return logits.loss(*_distill_term(logits, St, tau_teacher))


def pretrain_loss(S: Tensor, S_teacher, labels, tau, tau_teacher: float,
                  lam: float):
    """lam * L_ccl + (1 - lam) * L_dis; the teacher side is skipped
    entirely at lam == 1. Returns (loss, l_ccl, l_dis) scalars, each one
    tape node; both losses share one pass over the logits."""
    if not 0.0 <= lam <= 1.0:
        raise ValidationError(f"pretrain_loss: lam must be in [0, 1], got {lam}")
    S = as_tensor(S)
    labels = _ccl_labels(S, labels)
    logits = _Logits(S, as_tensor(tau))
    (v_vis, g_vis), (v_lin, g_lin) = _ccl_terms(logits, labels)
    v_ccl, g_ccl = v_vis + v_lin, g_vis + g_lin
    l_ccl = logits.loss(v_ccl, g_ccl)
    if lam == 1.0:
        return l_ccl, l_ccl, None
    v_dis, g_dis = _distill_term(logits, _teacher_matrix(S, S_teacher),
                                 tau_teacher)
    l_dis = logits.loss(v_dis, g_dis)
    if lam == 0.0:
        return l_dis, l_ccl, l_dis
    loss = logits.loss(lam * v_ccl + (1.0 - lam) * v_dis,
                       lam * g_ccl + (1.0 - lam) * g_dis)
    return loss, l_ccl, l_dis


def sample_paired_batch(dataset: LongTailDataset, corpus: ClassCorpus,
                        sampler: SqrtSampler, rng: np.random.Generator,
                        batch_size: int):
    """Square-root sampled images plus one fresh same-class sentence each."""
    idx = sampler.draw(batch_size)
    images = dataset.X[idx].astype(np.float64)
    labels = dataset.y[idx]
    # one draw per image, in batch order: the same stream as drawing
    # rng.integers(len(options)) image by image
    classes = labels.tolist()
    picks = rng.integers([len(corpus.for_class(c)) for c in classes])
    sequences = [corpus.for_class(c)[k].tokens
                 for c, k in zip(classes, picks.tolist())]
    return images, sequences, labels


def run_pretrain(dataset: LongTailDataset, corpus: ClassCorpus,
                 model: CvlpModel, teacher: TeacherPair | None,
                 cfg: PretrainConfig):
    """Train the encoder pair; returns a per-step trace list.

    Trace entries are (epoch, step, l_ccl, l_dis, l_pre, tau). At
    lam == 1 the teacher is never evaluated and l_dis is logged as 0.
    """
    if cfg.lam < 1.0 and teacher is None:
        raise ValidationError("run_pretrain: lam < 1 requires a teacher")
    steps_per_epoch = max(1, int(np.ceil(len(dataset.y) / cfg.batch_size)))
    total_steps = max(1, cfg.epochs * steps_per_epoch)
    sched = LrSchedule(cfg.base_lr, 0.0, total_steps)
    opt = AdamW(model.params(), cfg.base_lr, weight_decay=cfg.weight_decay)
    sampler = SqrtSampler(dataset.counts, seed=cfg.seed)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x9E7]))
    trace = []
    step = 0
    for epoch in range(cfg.epochs):
        for _ in range(steps_per_epoch):
            images, sequences, labels = sample_paired_batch(
                dataset, corpus, sampler, rng, cfg.batch_size)
            S = model.similarity(images, sequences)
            S_teacher = (teacher.similarity(images, sequences)
                         if cfg.lam < 1.0 else None)
            tau_teacher = teacher.tau if cfg.lam < 1.0 else 1.0
            loss, l_ccl, l_dis = pretrain_loss(
                S, S_teacher, labels, model.tau, tau_teacher, cfg.lam)
            if not np.isfinite(loss.data):
                raise NumericError(f"run_pretrain: non-finite loss at step {step}")
            opt.zero_grad()
            loss.backward()
            opt.step(lr=cosine_lr(sched, step))
            model.clamp_tau()
            trace.append((epoch, step, float(l_ccl.data),
                          float(l_dis.data) if l_dis is not None else 0.0,
                          float(loss.data), float(model.tau.data)))
            step += 1
    return trace


def save_trace(path, trace):
    with open(path, "w", encoding="utf-8") as f:
        for epoch, step, l_ccl, l_dis, l_pre, tau in trace:
            f.write(f"{epoch}\t{step}\t{l_ccl!r}\t{l_dis!r}\t{l_pre!r}\t{tau!r}\n")
