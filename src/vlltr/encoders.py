"""Toy visual and linguistic encoders, the learnable temperature, and the
frozen teacher pair that plays the general-domain model's role during
distillation."""

from __future__ import annotations

import numpy as np

from . import checkpoint as ckpt
from .data import TokenTable, token_table
from .errors import ShapeMismatch
from .tensor import (Tensor, cosine_sim_forward, grad_node, parameter,
                     unit_rows)

TAU_MIN, TAU_MAX = 0.01, 1.0
TEXT_CHUNK = 256  # sentences per pass when the teacher embeds a corpus


def clamp_tau(tau: Tensor):
    """Clip a 0-d temperature into [TAU_MIN, TAU_MAX] in place, writing
    only when it is out of range (a NaN is written back unchanged)."""
    t = float(tau.data)
    if not TAU_MIN <= t <= TAU_MAX:
        tau.data[...] = min(max(t, TAU_MIN), TAU_MAX)


class VisualEncoder:
    """Two-layer perceptron d_img -> 2 D -> D with tanh in the middle."""

    def __init__(self, d_img: int, D: int, rng: np.random.Generator):
        self.d_img, self.D = d_img, D
        hidden = 2 * D
        self.w1 = parameter(rng.normal(size=(d_img, hidden)) / np.sqrt(d_img))
        self.b1 = parameter(np.zeros(hidden))
        self.w2 = parameter(rng.normal(size=(hidden, D)) / np.sqrt(hidden))
        self.b2 = parameter(np.zeros(D))

    def params(self) -> dict:
        return {"vis.w1": self.w1, "vis.b1": self.b1,
                "vis.w2": self.w2, "vis.b2": self.b2}

    def forward(self, x):
        """(tanh(x @ w1 + b1) @ w2 + b2, the cache `backward` reads) on
        arrays."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.d_img:
            raise ShapeMismatch(
                f"VisualEncoder: expected (N, {self.d_img}), got {x.shape}"
            )
        w2 = self.w2.data
        h = np.tanh(x @ self.w1.data + self.b1.data)
        return h @ w2 + self.b2.data, (x, h, w2)

    @staticmethod
    def backward(cache, g: np.ndarray, out):
        """Write the gradients of (w1, b1, w2, b2) for upstream g over the
        arrays in `out`. With hidden activations h, b2 receives sum(g), w2
        receives h^T g, and through gh = (g w2^T)(1 - h^2), b1 receives
        sum(gh) and w1 receives x^T gh."""
        x, h, w2 = cache
        gw1, gb1, gw2, gb2 = out
        g.sum(axis=0, out=gb2)
        np.matmul(h.T, g, out=gw2)
        gh = (g @ w2.T) * (1.0 - h ** 2)
        gh.sum(axis=0, out=gb1)
        np.matmul(x.T, gh, out=gw1)

    def __call__(self, x) -> Tensor:
        """`forward` as one tape node over the weights."""
        y, cache = self.forward(x)
        return grad_node(y, (self.w1, self.b1, self.w2, self.b2),
                         lambda g, out: self.backward(cache, g, out))


class LinguisticEncoder:
    """Token embedding table, mean-pool over the sequence (markers included),
    then a projection to D."""

    def __init__(self, vocab_size: int, D: int, rng: np.random.Generator,
                 max_tokens: int = 77):
        self.vocab_size, self.D, self.max_tokens = vocab_size, D, max_tokens
        self.tok = parameter(rng.normal(size=(vocab_size, D)) / np.sqrt(D))
        self.proj_w = parameter(rng.normal(size=(D, D)) / np.sqrt(D))
        self.proj_b = parameter(np.zeros(D))

    def params(self) -> dict:
        return {"lin.tok": self.tok, "lin.proj_w": self.proj_w,
                "lin.proj_b": self.proj_b}

    def forward(self, sequences):
        """(each sentence mean-pooled and projected, the cache `backward`
        reads) on arrays. `sequences` is a TokenTable or a list of token
        sequences, which is built into one."""
        bags = token_table(sequences, self.max_tokens)
        inv_len = (1.0 / bags.lengths)[:, None]
        pooled = np.add.reduceat(self.tok.data[bags.ids], bags.offsets,
                                 axis=0) * inv_len
        proj_w = self.proj_w.data
        return (pooled @ proj_w + self.proj_b.data,
                (bags, inv_len, pooled, proj_w))

    @staticmethod
    def backward(cache, g: np.ndarray, out):
        """Write the gradients of (tok, proj_w, proj_b) for upstream g over
        the contiguous arrays in `out`. With pooled rows p, proj_b
        receives sum(g), proj_w receives p^T g, and each token's row of
        tok receives its sentence's row of (g proj_w^T) / length."""
        bags, inv_len, pooled, proj_w = cache
        gtok, gproj_w, gproj_b = out
        g.sum(axis=0, out=gproj_b)
        np.matmul(pooled.T, g, out=gproj_w)
        # over element offsets in the flattened table: a 1-D np.add.at is
        # several times faster than one over rows
        width = gtok.shape[1]
        flat_ids = (bags.ids[:, None] * width + np.arange(width)).ravel()
        gtok.fill(0.0)
        np.add.at(gtok.reshape(-1), flat_ids,
                  np.repeat((g @ proj_w.T) * inv_len, bags.lengths,
                            axis=0).ravel())

    def __call__(self, sequences) -> np.ndarray:
        """`forward`'s embeddings without its cache; only the pre-training
        step, through `forward` and `backward`, trains this encoder."""
        return self.forward(sequences)[0]


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

    def similarity(self, images, sequences) -> np.ndarray:
        """The cosine matrix of the images' and the sentences'
        embeddings, the S of `pretrain.pretrain_loss`."""
        return cosine_sim_forward(self.vis.forward(images)[0],
                                  self.lin(sequences))[0]

    @classmethod
    def from_checkpoint(cls, path, d_img, D, vocab_size, max_tokens=77):
        model = cls(d_img, D, vocab_size, seed=0, max_tokens=max_tokens)
        ckpt.load_params(model.params(), ckpt.read_checkpoint(path), path)
        return model


class TeacherPair:
    """A frozen encoder pair plus its frozen temperature; its unit
    embeddings give the teacher's similarity matrices of the
    distillation loss."""

    def __init__(self, model: CvlpModel):
        self._model = model
        self.tau = float(model.tau.data)

    def similarity(self, images, sequences) -> np.ndarray:
        return self._model.similarity(images, sequences)

    def unit_embeddings(self, images, bags: TokenTable):
        """(image rows, sentence rows) of the frozen pair, each scaled to
        unit length exactly as `cosine_sim_forward` scales them, so that
        `img[i] @ txt[j].T` equals `similarity` on any two or more of the
        images and the rows of `bags`, bit for bit.

        Sentences are embedded TEXT_CHUNK at a time, which bounds the
        (tokens, D) gather of the pooling; the last chunk takes over a
        one-row remainder, because numpy multiplies a single row through
        a matrix-vector kernel that rounds differently."""
        lin = self._model.lin
        img, _ = unit_rows(self._model.vis.forward(images)[0],
                           "TeacherPair.unit_embeddings operand images")
        n = len(bags.lengths)
        stops = list(range(TEXT_CHUNK, n - 1, TEXT_CHUNK))
        txt, _ = unit_rows(np.concatenate(
            [lin(bags.take(np.arange(a, b)))
             for a, b in zip([0] + stops, stops + [n])]),
            "TeacherPair.unit_embeddings operand sequences")
        return img, txt
