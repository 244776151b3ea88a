"""Toy visual and linguistic encoders, the learnable temperature, and the
frozen teacher pair that plays the general-domain model's role during
distillation."""

from __future__ import annotations

import numpy as np

from . import checkpoint as ckpt
from .data import token_table
from .errors import ShapeMismatch
from .tensor import Tensor, cosine_sim_matrix, parameter, unit_rows

TAU_MIN, TAU_MAX = 0.01, 1.0
TEXT_CHUNK = 256  # sentences per pass when the teacher embeds a corpus


def clamp_tau(tau: Tensor):
    """Clip a 0-d temperature into [TAU_MIN, TAU_MAX] in place, writing
    only when it is out of range (a NaN is written back unchanged)."""
    t = float(tau.data)
    if not TAU_MIN <= t <= TAU_MAX:
        tau.data[...] = min(max(t, TAU_MIN), TAU_MAX)


class VisualEncoder:
    """Two-layer perceptron d_img -> hidden -> D with tanh in the middle."""

    def __init__(self, d_img: int, D: int, rng: np.random.Generator,
                 hidden: int | None = None):
        self.d_img, self.D = d_img, D
        hidden = hidden or 2 * D
        self.w1 = parameter(rng.normal(size=(d_img, hidden)) / np.sqrt(d_img))
        self.b1 = parameter(np.zeros(hidden))
        self.w2 = parameter(rng.normal(size=(hidden, D)) / np.sqrt(hidden))
        self.b2 = parameter(np.zeros(D))

    def params(self, prefix="vis.") -> dict:
        return {prefix + "w1": self.w1, prefix + "b1": self.b1,
                prefix + "w2": self.w2, prefix + "b2": self.b2}

    def __call__(self, x) -> Tensor:
        """tanh(x @ w1 + b1) @ w2 + b2 as one tape node. With hidden
        activations h and upstream g, b2 receives sum(g), w2 receives
        h^T g, and through gh = (g w2^T)(1 - h^2), b1 receives sum(gh)
        and w1 receives x^T gh."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.d_img:
            raise ShapeMismatch(
                f"VisualEncoder: expected (N, {self.d_img}), got {x.shape}"
            )
        w1, b1, w2, b2 = self.w1, self.b1, self.w2, self.b2
        h = np.tanh(x @ w1.data + b1.data)

        def backward(g):
            if b2.requires_grad:
                b2._accumulate(g.sum(axis=0))
            if w2.requires_grad:
                w2._accumulate(h.T @ g)
            if w1.requires_grad or b1.requires_grad:
                gh = (g @ w2.data.T) * (1.0 - h ** 2)
                if b1.requires_grad:
                    b1._accumulate(gh.sum(axis=0))
                if w1.requires_grad:
                    w1._accumulate(x.T @ gh)

        return Tensor(h @ w2.data + b2.data, parents=(w1, b1, w2, b2),
                      backward=backward)


class LinguisticEncoder:
    """Token embedding table, mean-pool over the sequence (markers included),
    then a projection to D."""

    def __init__(self, vocab_size: int, D: int, rng: np.random.Generator,
                 max_tokens: int = 77):
        self.vocab_size, self.D, self.max_tokens = vocab_size, D, max_tokens
        self.tok = parameter(rng.normal(size=(vocab_size, D)) / np.sqrt(D))
        self.proj_w = parameter(rng.normal(size=(D, D)) / np.sqrt(D))
        self.proj_b = parameter(np.zeros(D))

    def params(self, prefix="lin.") -> dict:
        return {prefix + "tok": self.tok, prefix + "proj_w": self.proj_w,
                prefix + "proj_b": self.proj_b}

    def __call__(self, sequences) -> Tensor:
        """Mean-pool and project each sentence as one tape node.
        `sequences` is a TokenTable or a list of token sequences, which is
        built into one. With pooled rows p and upstream g, proj_b receives
        sum(g), proj_w receives p^T g, and each token's row of tok
        receives its sentence's row of (g proj_w^T) / length."""
        bags = token_table(sequences, self.max_tokens)
        ids, offsets, lengths = bags.ids, bags.offsets, bags.lengths
        tok, proj_w, proj_b = self.tok, self.proj_w, self.proj_b
        inv_len = (1.0 / lengths)[:, None]
        pooled = np.add.reduceat(tok.data[ids], offsets, axis=0) * inv_len

        def backward(g):
            if proj_b.requires_grad:
                proj_b._accumulate(g.sum(axis=0))
            if proj_w.requires_grad:
                proj_w._accumulate(pooled.T @ g)
            if tok.requires_grad:
                # over element offsets in the flattened table: a 1-D
                # np.add.at is several times faster than one over rows
                width = tok.shape[1]
                flat_ids = (ids[:, None] * width + np.arange(width)).ravel()
                tok.grad = np.ascontiguousarray(tok._grad_buffer())
                np.add.at(tok.grad.reshape(-1), flat_ids,
                          np.repeat((g @ proj_w.data.T) * inv_len, lengths,
                                    axis=0).ravel())

        return Tensor(pooled @ proj_w.data + proj_b.data,
                      parents=(tok, proj_w, proj_b), backward=backward)


class CvlpModel:
    """Visual encoder + linguistic encoder + learnable temperature."""

    def __init__(self, d_img: int, D: int, vocab_size: int, seed: int,
                 tau_init: float = 0.07, max_tokens: int = 77):
        ss = np.random.SeedSequence([int(seed), 0xE4C])
        vis_rng, lin_rng = [np.random.default_rng(s) for s in ss.spawn(2)]
        self.vis = VisualEncoder(d_img, D, vis_rng)
        self.lin = LinguisticEncoder(vocab_size, D, lin_rng, max_tokens)
        self.tau = parameter(np.array(tau_init))

    @property
    def D(self):
        return self.vis.D

    def params(self) -> dict:
        return {**self.vis.params(), **self.lin.params(), "tau": self.tau}

    def clamp_tau(self):
        clamp_tau(self.tau)

    def similarity(self, images, sequences) -> Tensor:
        return cosine_sim_matrix(self.vis(images), self.lin(sequences))

    # ---- persistence ----

    def state(self) -> dict:
        return {k: v.data.copy() for k, v in self.params().items()}

    def load_state(self, sections: dict):
        ckpt.load_params(self.params(), sections)

    @classmethod
    def from_checkpoint(cls, path, d_img, D, vocab_size, max_tokens=77):
        model = cls(d_img, D, vocab_size, seed=0, max_tokens=max_tokens)
        sections = ckpt.read_checkpoint(
            path, names=lambda n: not n.startswith("__"))
        model.load_state(sections)
        return model


class TeacherPair:
    """A frozen encoder pair plus its frozen temperature; produces the
    no-gradient similarity matrix used by the distillation loss."""

    def __init__(self, model: CvlpModel):
        self._model = model
        for p in model.params().values():
            p.requires_grad = False
        self.tau = float(model.tau.data)

    def similarity(self, images, sequences) -> np.ndarray:
        return self._model.similarity(images, sequences).data.copy()

    def unit_embeddings(self, images, sequences):
        """(image rows, sentence rows) of the frozen pair, each scaled to
        unit length exactly as `cosine_sim_matrix` scales them, so that
        `img[i] @ txt[j].T` equals `similarity` on any two or more of the
        images and sentences, bit for bit. `sequences` is a TokenTable or
        a list of token sequences.

        Sentences are embedded TEXT_CHUNK at a time, which bounds the
        (tokens, D) gather of the pooling; the last chunk takes over a
        one-row remainder, because numpy multiplies a single row through
        a matrix-vector kernel that rounds differently."""
        lin = self._model.lin
        img, _ = unit_rows(self._model.vis(images).data, "images")
        bags = token_table(sequences, lin.max_tokens)
        n = len(bags.lengths)
        stops = list(range(TEXT_CHUNK, n - 1, TEXT_CHUNK))
        txt, _ = unit_rows(np.concatenate(
            [lin(bags.take(np.arange(a, b))).data
             for a, b in zip([0] + stops, stops + [n])]), "sequences")
        return img, txt
