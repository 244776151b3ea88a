"""Stage 1: class-wise visual-linguistic pre-training.

Positives are class-level: every text of the batch sharing the image's
class counts, and each image gets a freshly sampled same-class sentence
every iteration.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .checkpoint import atomic_write
from .data import ClassCorpus, LongTailDataset, SqrtSampler, TokenTable
from .encoders import CvlpModel, TeacherPair, clamp_tau
from .errors import NumericError, ShapeMismatch, ValidationError
from .optim import AdamW, cosine_lr
from .tensor import cosine_sim_backward, cosine_sim_forward


# An epoch's batches are drawn at most this many steps at a time, which
# bounds the sampled images and token rows held at once (a balanced
# reference epoch is 313 steps); the draws do not depend on it.
DRAW_STEPS = 64


def _log_softmax(z: np.ndarray, axis: int) -> np.ndarray:
    z = z - z.max(axis=axis, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=axis, keepdims=True))


class _Logits:
    """The logits S / tau of a similarity array and a temperature, with
    their row and column softmaxes and log-softmaxes, shared by every loss
    taken over them."""

    def __init__(self, S: np.ndarray, tau):
        self.S, self.tau = S, tau
        z = S / tau
        self.log_p_row = _log_softmax(z, axis=1)
        self.log_p_col = _log_softmax(z, axis=0)
        self.p_row, self.p_col = np.exp(self.log_p_row), np.exp(self.log_p_col)

    def backward(self, G: np.ndarray, out):
        """Write the gradients of (S, tau) of a loss whose gradient with
        respect to the logits is G, G / tau and -sum(G * S) / tau^2, over
        the two arrays in `out`."""
        np.divide(G, self.tau, out=out[0])
        out[1][...] = -(G * self.S).sum() / self.tau ** 2


def _ccl_terms(logits: _Logits, labels: np.ndarray):
    """(value, G) of L_vis and of L_lin. Per direction G is
    (softmax - pos / |pos|) / n."""
    pos = (labels[:, None] == labels[None, :]).astype(np.float64)
    # no row is empty: the diagonal pairs each label with itself
    pos_sizes = pos.sum(axis=1)
    n = len(labels)
    # pos is symmetric, so row i and column i both have pos_sizes[i] members
    target_vis = pos / pos_sizes[:, None]
    target_lin = pos / pos_sizes[None, :]
    return [(-(log_p * target).sum() / n, (p - target) / n)
            for log_p, p, target in (
                (logits.log_p_row, logits.p_row, target_vis),
                (logits.log_p_col, logits.p_col, target_lin))]


def _distill_term(logits: _Logits, St: np.ndarray, tau_teacher: float):
    """(value, G) of L_dis, with G =
    (w_text * (row softmax - I) + w_img * (column softmax - I)) / n,
    where w_text and w_img are the diagonals of the teacher's row and
    column softmaxes."""
    n = St.shape[0]
    z = St / tau_teacher

    def diag_softmax(axis):
        e = np.exp(z - z.max(axis=axis, keepdims=True))
        return e.diagonal() / e.sum(axis=axis)

    w_text, w_img = diag_softmax(1), diag_softmax(0)
    value = (-(w_text * logits.log_p_row.diagonal()).mean()
             - (w_img * logits.log_p_col.diagonal()).mean())
    G = w_text[:, None] * logits.p_row + w_img[None, :] * logits.p_col
    G.flat[::n + 1] -= w_text + w_img
    return value, G / n


class PretrainLoss(NamedTuple):
    value: float           # lam * L_ccl + (1 - lam) * L_dis
    l_ccl: float
    l_dis: float | None    # None at lam == 1
    logits: _Logits
    G: np.ndarray          # the gradient of `value` with respect to S / tau

    def backward(self, out):
        """Write the gradients of `value` with respect to (S, tau) over
        the two arrays in `out`."""
        self.logits.backward(self.G, out)


def pretrain_loss(S: np.ndarray, S_teacher, labels, tau, tau_teacher: float,
                  lam: float) -> PretrainLoss:
    """lam * L_ccl + (1 - lam) * L_dis over the similarity array S and the
    temperature tau, with the two losses' values and one shared pass over
    the logits; the teacher side is skipped entirely at lam == 1.

    L_ccl, the class-wise contrastive loss, is the row-softmax
    (image-anchored) term plus the column-softmax (text-anchored) term,
    each averaged over its positive set and then over the batch. L_dis
    weights the student's positive-pair log-probability by the teacher's,
    in both softmax directions, batch-averaged."""
    if not 0.0 <= lam <= 1.0:
        raise ValidationError(f"pretrain_loss: lam must be in [0, 1], got {lam}")
    labels = np.asarray(labels, dtype=np.int64)
    n = S.shape[0]
    if S.ndim != 2 or S.shape != (n, n) or labels.shape != (n,):
        raise ShapeMismatch(
            f"pretrain_loss: need square S and matching labels, "
            f"got S {S.shape}, labels {labels.shape}")
    logits = _Logits(S, tau)
    (v_vis, g_vis), (v_lin, g_lin) = _ccl_terms(logits, labels)
    l_ccl, g_ccl = float(v_vis + v_lin), g_vis + g_lin
    if lam == 1.0:
        return PretrainLoss(l_ccl, l_ccl, None, logits, g_ccl)
    St = np.asarray(S_teacher, dtype=np.float64)
    if St.shape != S.shape:
        raise ShapeMismatch(f"pretrain_loss: teacher matrix {St.shape} "
                            f"does not match S {S.shape}")
    v_dis, g_dis = _distill_term(logits, St, tau_teacher)
    l_dis = float(v_dis)
    if lam == 0.0:
        return PretrainLoss(l_dis, l_ccl, l_dis, logits, g_dis)
    return PretrainLoss(lam * l_ccl + (1.0 - lam) * l_dis, l_ccl, l_dis,
                        logits, lam * g_ccl + (1.0 - lam) * g_dis)


def pretrain_step(model: CvlpModel, images, bags, labels, S_teacher,
                  tau_teacher: float, lam: float):
    """`pretrain_loss(model.similarity(images, bags), ...)` and its
    backward pass, through the encoders' array forward and backward
    functions.

    Each parameter's gradient is written over its `.grad`, allocated where
    it is None; `AdamW.zero_grad` binds it to a view of the optimizer's
    gradient buffer. A non-finite loss raises NumericError before any
    backward work. Returns (loss, l_ccl, l_dis) as floats, l_dis None at
    lam == 1.
    """
    vis, lin, tau = model.vis, model.lin, model.tau
    a, vis_cache = vis.forward(images)
    b, lin_cache = lin.forward(bags)
    S, cos_cache = cosine_sim_forward(a, b)
    loss = pretrain_loss(S, S_teacher, labels, tau.data, tau_teacher, lam)
    if not np.isfinite(loss.value):
        raise NumericError("pretrain_step: non-finite loss")
    for p in model.params().values():
        if p.grad is None:
            p.grad = np.empty(p.shape)
    gS, ga, gb = np.empty(S.shape), np.empty(a.shape), np.empty(b.shape)
    loss.backward((gS, tau.grad))
    cosine_sim_backward(cos_cache, gS, (ga, gb))
    vis.backward(vis_cache, ga, [p.grad for p in vis.params().values()])
    lin.backward(lin_cache, gb, [p.grad for p in lin.params().values()])
    return loss.value, loss.l_ccl, loss.l_dis


class PairedBatch(NamedTuple):
    images: np.ndarray     # (n, d_img) float64
    bags: TokenTable       # one same-class sentence per image
    labels: np.ndarray
    idx: np.ndarray        # the images' rows of the dataset
    rows: np.ndarray       # the sentences' rows of the corpus table


def sample_epoch(dataset: LongTailDataset, table: TokenTable,
                 sampler: SqrtSampler, rng: np.random.Generator,
                 batch_size: int, steps: int) -> list:
    """`steps` batches of square-root sampled images plus one fresh
    same-class sentence each, drawn from `table`, a corpus's
    `table`, with one draw, one gather and one table take for
    them all. Both generators' streams are the same whether the batches
    are drawn at once or one by one; each batch's arrays and bags are
    views of the epoch's."""
    idx = sampler.draw_epoch(steps, batch_size)
    labels = dataset.y[idx]
    # one draw per image, in batch order: the same stream as drawing
    # rng.integers(len(options)) image by image
    rows = table.class_starts[labels] \
        + rng.integers(table.class_sizes[labels])
    images = dataset.X[idx].astype(np.float64)
    bags = table.take(rows.reshape(-1)).split(batch_size)
    return [PairedBatch(images[s], bags[s], labels[s], idx[s], rows[s])
            for s in range(steps)]


def sample_paired_batch(dataset: LongTailDataset, table: TokenTable,
                        sampler: SqrtSampler, rng: np.random.Generator,
                        batch_size: int) -> PairedBatch:
    """One batch of `sample_epoch`."""
    return sample_epoch(dataset, table, sampler, rng, batch_size, 1)[0]


def run_pretrain(dataset: LongTailDataset, corpus: ClassCorpus,
                 model: CvlpModel, teacher: TeacherPair | None, cfg):
    """Train the encoder pair for `pretrain_epochs` of RunConfig `cfg` at
    its `pretrain_batch`, `pretrain_lr`, `lam`, `weight_decay` and
    `seed`; returns a per-step trace list.

    Trace entries are (epoch, step, l_ccl, l_dis, l_pre, tau). At
    lam == 1 the teacher is never evaluated and l_dis is logged as 0.
    Otherwise the frozen teacher embeds every image and sentence once,
    and each step's teacher matrix is the product of the batch's rows.
    """
    if cfg.lam < 1.0 and teacher is None:
        raise ValidationError("run_pretrain: lam < 1 requires a teacher")
    steps_per_epoch = max(1, int(np.ceil(dataset.y.size / cfg.pretrain_batch)))
    total_steps = max(1, cfg.pretrain_epochs * steps_per_epoch)
    opt = AdamW(model.params(), cfg.pretrain_lr,
                weight_decay=cfg.weight_decay)
    sampler = SqrtSampler(dataset.counts, seed=cfg.seed)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x9E7]))
    table = corpus.table
    distill = cfg.lam < 1.0
    if distill:
        teacher_img, teacher_txt = teacher.unit_embeddings(dataset.X, table)
    tau_teacher = teacher.tau if distill else 1.0
    trace = []
    step = 0
    # each step writes every gradient over the views bound here
    opt.zero_grad()
    # (epoch, steps) of each draw: an epoch in runs of at most DRAW_STEPS
    draws = [(epoch, min(DRAW_STEPS, steps_per_epoch - start))
             for epoch in range(cfg.pretrain_epochs)
             for start in range(0, steps_per_epoch, DRAW_STEPS)]
    for epoch, steps in draws:
        for batch in sample_epoch(dataset, table, sampler, rng,
                                  cfg.pretrain_batch, steps):
            S_teacher = (teacher_img[batch.idx] @ teacher_txt[batch.rows].T
                         if distill else None)
            try:
                loss, l_ccl, l_dis = pretrain_step(
                    model, batch.images, batch.bags, batch.labels, S_teacher,
                    tau_teacher, cfg.lam)
            except NumericError as exc:
                raise NumericError(
                    f"run_pretrain: non-finite loss at step {step}") from exc
            opt.step(lr=cosine_lr(cfg.pretrain_lr, step, total_steps))
            clamp_tau(model.tau)
            trace.append((epoch, step, l_ccl,
                          0.0 if l_dis is None else l_dis,
                          loss, float(model.tau.data)))
            step += 1
    return trace


def save_trace(path, trace):
    """One line per trace entry: each field's repr, tab-joined."""
    with atomic_write(path) as f:
        for entry in trace:
            f.write("\t".join(map(repr, entry)) + "\n")
