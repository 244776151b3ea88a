"""Toy visual and linguistic encoders, the learnable temperature, and the
frozen teacher pair that plays the general-domain model's role during
distillation."""

from __future__ import annotations

import numpy as np

from . import checkpoint as ckpt
from .errors import ShapeMismatch, ValidationError
from .tensor import (Tensor, as_tensor, cosine_sim_matrix, embedding_bag,
                     matmul, parameter)

TAU_MIN, TAU_MAX = 0.01, 1.0


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
        x = as_tensor(np.asarray(x, dtype=np.float64))
        if x.ndim != 2 or x.shape[1] != self.d_img:
            raise ShapeMismatch(
                f"VisualEncoder: expected (N, {self.d_img}), got {x.shape}"
            )
        h = (matmul(x, self.w1) + self.b1).tanh()
        return matmul(h, self.w2) + self.b2


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
        seqs = [np.asarray(seq, dtype=np.int64) for seq in sequences]
        lengths = np.array([len(seq) for seq in seqs], dtype=np.int64)
        bad = np.flatnonzero((lengths == 0) | (lengths > self.max_tokens))
        if bad.size:
            i = int(bad[0])
            if lengths[i] == 0:
                raise ValidationError(f"LinguisticEncoder: empty sequence {i}")
            raise ValidationError(
                f"LinguisticEncoder: sequence {i} has {lengths[i]} tokens, "
                f"limit is {self.max_tokens}; truncate explicitly if intended"
            )
        ids = np.concatenate(seqs) if seqs else np.zeros(0, dtype=np.int64)
        offsets = np.cumsum(lengths) - lengths
        pooled = embedding_bag(self.tok, ids, offsets)
        return matmul(pooled, self.proj_w) + self.proj_b


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
        self.tau.data = np.clip(self.tau.data, TAU_MIN, TAU_MAX)

    def similarity(self, images, sequences) -> Tensor:
        return cosine_sim_matrix(self.vis(images), self.lin(sequences))

    # ---- persistence ----

    def state(self) -> dict:
        return {k: v.data.copy() for k, v in self.params().items()}

    def load_state(self, sections: dict):
        for k, v in self.params().items():
            if k not in sections:
                raise ValidationError(f"checkpoint missing section '{k}'")
            if sections[k].shape != v.data.shape:
                raise ShapeMismatch(
                    f"checkpoint section '{k}': shape {sections[k].shape} "
                    f"!= expected {v.data.shape}"
                )
            v.data = sections[k].copy()

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

    @classmethod
    def from_checkpoint(cls, path, d_img, D, vocab_size, max_tokens=77):
        return cls(CvlpModel.from_checkpoint(path, d_img, D, vocab_size,
                                             max_tokens))

    def similarity(self, images, sequences) -> np.ndarray:
        return self._model.similarity(images, sequences).data.copy()
