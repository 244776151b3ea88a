"""Composite-op versions of the fused tape nodes, kept as oracles.

These build the losses, the cosine similarity, the text pooling, the
softmax, the layer norm, the cross-entropy and the text and visual
encoders out of
elementwise tape ops and the bag pool, one node per op, the LGR and KNN
heads out of composite layer norms and einsum contractions, AdamW as one
update per parameter tensor, and the accuracy report as one loop over
the predictions, exactly as the package did before those paths became
single nodes, BLAS matmuls, one flat buffer and bin counts. Values and
gradients of the package versions are checked against them in
test_fused_ops.py. The elementwise exp and tanh nodes and log_softmax
live only here.

`load_corpus_per_line` is the line-by-line corpus reader that the bulk
`data.load_corpus` replaced, checked against it in test_data.py.
"""

import numpy as np

from vlltr.data import ENCYCLOPEDIA, PROMPT, SOURCES, token_table
from vlltr.errors import ShapeMismatch, ValidationError
from vlltr.evaluation import BAND_ORDER, EvalReport
from vlltr.head import HeadOutput
from vlltr.tensor import Tensor, as_tensor, matmul


def exp(x):
    out_data = np.exp(x.data)

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * out_data)

    return Tensor(out_data, parents=(x,), backward=backward)


def tanh(x):
    out_data = np.tanh(x.data)

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * (1.0 - out_data ** 2))

    return Tensor(out_data, parents=(x,), backward=backward)


def log_softmax(x, axis):
    x = as_tensor(x)
    if not -x.ndim <= axis < x.ndim:
        raise ValidationError(
            f"log_softmax: axis {axis} invalid for shape {x.shape}"
        )
    shift = Tensor(x.data.max(axis=axis, keepdims=True))
    z = x - shift
    return z - exp(z).sum(axis=axis, keepdims=True).log()


def layer_norm(x, gain, bias, eps=1e-5):
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = (var + eps) ** -0.5
    return centered * inv * gain + bias


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
    return einsum("ik,jk->ij", na, nb)


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


def embedding_bag(table, ids, offsets):
    """Mean of `table` rows over each bag of `ids`, as one tape node.

    Bag i is ids[offsets[i]:offsets[i + 1]] (the last runs to the end);
    every bag must be non-empty. The backward pass scatter-adds into the
    table rows the bags touched, not the whole table.
    """
    ids = np.asarray(ids, dtype=np.int64)
    offsets = np.asarray(offsets, dtype=np.int64)
    lengths = np.diff(offsets, append=len(ids))
    inv_len = (1.0 / lengths)[:, None]
    out_data = np.add.reduceat(table.data[ids], offsets, axis=0) * inv_len

    def backward(g):
        if not table.requires_grad:
            return
        # over element offsets in the flattened table: a 1-D np.add.at is
        # several times faster than one over rows
        width = table.shape[1]
        flat_ids = (ids[:, None] * width + np.arange(width)).ravel()
        table.grad = np.ascontiguousarray(table._grad_buffer())
        np.add.at(table.grad.reshape(-1), flat_ids,
                  np.repeat(g * inv_len, lengths, axis=0).ravel())

    return Tensor(out_data, parents=(table,), backward=backward)


def bag_encode(enc, sequences):
    """`LinguisticEncoder.__call__` as three tape nodes: the bag pool,
    the projection product and the bias add (no input checks)."""
    seqs = [np.asarray(seq, dtype=np.int64) for seq in sequences]
    lengths = np.array([len(seq) for seq in seqs], dtype=np.int64)
    pooled = embedding_bag(enc.tok, np.concatenate(seqs),
                           np.cumsum(lengths) - lengths)
    return matmul(pooled, enc.proj_w) + enc.proj_b


def softmax(x, axis):
    x = as_tensor(x)
    shift = Tensor(x.data.max(axis=axis, keepdims=True))  # constant shift
    e = exp(x - shift)
    return e / e.sum(axis=axis, keepdims=True)


def einsum(spec, a, b):
    """Binary einsum with gradients; labels must be simple (no repeats,
    every input label appears in the output or the other operand)."""
    a, b = as_tensor(a), as_tensor(b)
    inputs, out_spec = spec.split("->")
    sa, sb = inputs.split(",")

    def backward(g):
        if a.requires_grad:
            a._accumulate(np.einsum(f"{out_spec},{sb}->{sa}", g, b.data))
        if b.requires_grad:
            b._accumulate(np.einsum(f"{out_spec},{sa}->{sb}", g, a.data))

    return Tensor(np.einsum(spec, a.data, b.data), parents=(a, b),
                  backward=backward)


def lgr_forward(E_I, anchors, params):
    """`head.lgr_forward` over einsum contractions (no input checks)."""
    x = as_tensor(E_I)
    if x.ndim == 1:
        x = x.reshape(1, -1)
    anchors_t = as_tensor(anchors)
    D = anchors_t.shape[2]
    q = matmul(layer_norm(x, params.q_ln_g, params.q_ln_b), params.q_w) \
        + params.q_b
    k = einsum("cmd,de->cme",
               layer_norm(anchors_t, params.k_ln_g, params.k_ln_b),
               params.k_w) + params.k_b
    scores = einsum("nd,cmd->ncm", q, k) * (1.0 / np.sqrt(D))
    attention = softmax(scores, axis=2)
    g = einsum("ncm,cmd->ncd", attention, anchors_t)
    x_norm = ((x * x).sum(axis=1, keepdims=True)) ** 0.5
    g_norm = ((g * g).sum(axis=2)) ** 0.5
    cos = einsum("nd,ncd->nc", x, g) / (x_norm * g_norm)
    p_t = softmax(cos / params.tau, axis=1)
    h = matmul(x, params.mlp_w1) + params.mlp_b1
    logits_i = matmul(h.relu(), params.mlp_w2) + params.mlp_b2
    p_i = softmax(logits_i, axis=1)
    return HeadOutput(P_I=p_i, P_T=p_t, attention=attention, G=g)


def knn_forward(E_I, anchors, tau):
    """`head.knn_forward` over an einsum contraction (no input checks)."""
    x = as_tensor(E_I)
    if x.ndim == 1:
        x = x.reshape(1, -1)
    anchors_t = as_tensor(anchors)
    C, M, _ = anchors_t.shape
    a_norm = ((anchors_t * anchors_t).sum(axis=2)) ** 0.5
    x_norm = ((x * x).sum(axis=1, keepdims=True)) ** 0.5
    cos = einsum("nd,cmd->ncm", x, anchors_t) \
        / (x_norm.reshape(-1, 1, 1) * a_norm.reshape(1, C, M))
    best = cos.max(axis=2)
    return softmax(best / as_tensor(tau), axis=1)


def cross_entropy(p, y):
    """`tensor.cross_entropy` as seven tape nodes for a batch, eight for
    a single row (no input checks)."""
    p = as_tensor(p)
    rows = p.reshape(1, -1) if p.ndim == 1 else p
    labels = np.atleast_1d(np.asarray(y, dtype=np.int64))
    picked = rows[np.arange(rows.shape[0]), labels]
    return -(picked.clip_min(1e-12).log().mean())


def visual_encode(enc, x):
    """`VisualEncoder.__call__` as five tape nodes (no input checks)."""
    x = as_tensor(np.asarray(x, dtype=np.float64))
    h = tanh(matmul(x, enc.w1) + enc.b1)
    return matmul(h, enc.w2) + enc.b2


class AdamW:
    """`optim.AdamW` stepping each parameter tensor on its own."""

    def __init__(self, params, base_lr, weight_decay=0.05, beta1=0.9,
                 beta2=0.999, eps=1e-8):
        self.params = dict(params)
        self.base_lr = base_lr
        self.weight_decay = weight_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step_count = 0
        self._m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self._v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def step(self, lr=None):
        lr = self.base_lr if lr is None else lr
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if g.shape != p.data.shape:
                raise ShapeMismatch(f"gradient shape mismatch for '{name}'")
            m = self._m[name]
            v = self._v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            if self.weight_decay:
                p.data *= 1.0 - lr * self.weight_decay
            p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def evaluate(predictions, labels, bands, config_fingerprint=""):
    """`evaluation.evaluate` counting hits prediction by prediction (no
    input checks)."""
    predictions = np.asarray(predictions, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    correct = predictions == labels
    band_hits = {b: [0, 0] for b in BAND_ORDER}
    class_hits = [[0, 0] for _ in range(len(bands.bands))]
    for ok, lab in zip(correct, labels):
        band = bands[int(lab)]
        band_hits[band][0] += int(ok)
        band_hits[band][1] += 1
        class_hits[lab][0] += int(ok)
        class_hits[lab][1] += 1
    total = int(labels.size)
    return EvalReport(
        overall=int(correct.sum()) / total if total else 0.0,
        bands={b: h / n for b, (h, n) in band_hits.items() if n},
        band_counts={b: n for b, (h, n) in band_hits.items() if n},
        per_class=[h / n if n else None for h, n in class_hits],
        total=total, correct=int(correct.sum()),
        config_fingerprint=config_fingerprint)


def _parse_tokens(text, vocab_size, where):
    limit, fields = vocab_size or 2 ** 63, text.split()
    ids = [int(f) for f in fields] if all(map(str.isdecimal, fields)) else []
    if len(ids) != len(fields) or ids and max(ids) >= limit:
        raise ValidationError(
            f"{where}: token ids must be integers in [0, {limit}), got {text!r}")
    return np.array(ids, dtype=np.int64)


def load_corpus_per_line(path, vocab_size=0, max_tokens=77):
    """(the corpus token table, per-row source codes, vocab size) of a
    corpus file, read line by line in text mode with one int() per token
    id. It checks a sentence's length against `max_tokens` as the last
    check of its line, as the bulk reader does."""
    per_class = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValidationError(f"{path}:{lineno}: malformed record")
            if not parts[0].isdecimal():
                raise ValidationError(f"{path}:{lineno}: class must be an "
                                      f"integer >= 0, got {parts[0]!r}")
            c, source = int(parts[0]), parts[1]
            if source not in (ENCYCLOPEDIA, PROMPT):
                raise ValidationError(
                    f"{path}:{lineno}: unknown source {source!r}")
            tokens = _parse_tokens(parts[2], vocab_size, f"{path}:{lineno}")
            if not tokens.size:
                raise ValidationError(f"{path}:{lineno}: empty sentence")
            if tokens.size > max_tokens:
                raise ValidationError(
                    f"{path}:{lineno}: sentence has {tokens.size} tokens, "
                    f"limit is {max_tokens}")
            per_class.setdefault(c, []).append(
                (tokens, SOURCES.index(source)))
    if not per_class:
        raise ValidationError(f"{path}: no sentences")
    C = max(per_class) + 1
    if any(c not in per_class for c in range(C)):
        raise ValidationError(f"{path}: some classes have no sentences")
    rows = [row for c in range(C) for row in per_class[c]]
    table = token_table([tokens for tokens, _ in rows], max_tokens,
                        [len(per_class[c]) for c in range(C)])
    vocab = vocab_size or 1 + max(int(tokens.max()) for tokens, _ in rows)
    return table, np.array([code for _, code in rows], dtype=np.uint8), vocab


def class_sentences(corpus, c):
    """Class c's sentences (token arrays), in per-class id order."""
    table = corpus.token_table()
    return table.take(table.class_rows(c)).sequences()


def class_sources(corpus, c):
    """Class c's sentence sources, in per-class id order."""
    return [SOURCES[code] for code in corpus.sources[
        corpus.token_table().class_rows(c)]]
