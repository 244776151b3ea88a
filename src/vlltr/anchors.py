"""Anchor sentence selection: score every candidate sentence of a class
against per-class image probe batches and keep the M lowest-scored
(most discriminative) ones.

The contrast set for a sentence's score is the pooled probe batches of
all classes, so a sentence matching its own class and no other scores
low. Selection is training-free: no parameter changes.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .checkpoint import atomic_write, read_text
from .data import ClassCorpus, LongTailDataset
from .encoders import CvlpModel
from .errors import ValidationError

ANSS, CUTOFF = "AnSS", "CutOff"


def build_probe(dataset: LongTailDataset, cls: int, cap: int = 50,
                seed: int = 0) -> np.ndarray:
    """At most `cap` images of the class under a seed-fixed shuffle."""
    sl = dataset.class_slice(cls)
    n = sl.stop - sl.start
    if n == 0:
        raise ValidationError(f"build_probe: class {cls} has no images")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xB0BE, cls]))
    order = rng.permutation(n)[: min(n, cap)]
    return dataset.X[sl][order].astype(np.float64)


@dataclass
class ProbePool:
    """All classes' probe images embedded and L2-normalized, with the row
    span of each class recorded."""
    embeddings: np.ndarray      # (P, D), row-normalized
    class_slices: list          # per class: slice into embeddings
    tau: float


def build_probe_pool(dataset: LongTailDataset, model: CvlpModel,
                     cap: int = 50, seed: int = 0) -> ProbePool:
    blocks, slices = [], []
    start = 0
    for c in range(dataset.C):
        probe = build_probe(dataset, c, cap=cap, seed=seed)
        emb = model.vis.forward(probe)[0]
        blocks.append(emb)
        slices.append(slice(start, start + len(emb)))
        start += len(emb)
    pooled = np.concatenate(blocks)
    pooled /= np.linalg.norm(pooled, axis=1, keepdims=True)
    return ProbePool(embeddings=pooled, class_slices=slices,
                     tau=float(model.tau.data))


def _score_columns(pool: ProbePool, cls: int, text_emb: np.ndarray
                   ) -> np.ndarray:
    """Text-anchored contrastive score of each sentence embedding column,
    treating the class's probe images as positives and all pooled probe
    images as the contrast set."""
    text_emb = text_emb / np.linalg.norm(text_emb, axis=1, keepdims=True)
    logits = (pool.embeddings @ text_emb.T) / pool.tau    # (P, n_sent)
    logits -= logits.max(axis=0, keepdims=True)
    log_p = logits - np.log(np.exp(logits).sum(axis=0, keepdims=True))
    sl = pool.class_slices[cls]
    return -log_p[sl].mean(axis=0)


@dataclass
class AnchorSet:
    mode: str
    M: int
    entries: list  # per class: list of (sentence_id, score), length M

    def ids(self, cls: int) -> list:
        return [sid for sid, _ in self.entries[cls]]


def select_anchors(corpus: ClassCorpus, dataset: LongTailDataset,
                   model: CvlpModel, M: int, mode: str = ANSS,
                   cap: int = 50, seed: int = 0) -> AnchorSet:
    """Per class, keep M sentences: lowest score first under AnSS (id
    breaks ties), plain corpus order under CutOff. A class with fewer
    than M sentences is a ValidationError naming it."""
    pool = build_probe_pool(dataset, model, cap=cap, seed=seed)
    table = corpus.table
    entries = []
    for c in range(corpus.C):
        rows = table.class_rows(c)
        if rows.size < M:
            raise ValidationError(f"select_anchors: class {c} has "
                                  f"{rows.size} sentences, fewer than M={M}")
        scores = _score_columns(pool, c, model.lin(table.take(rows)))
        scored = list(enumerate(scores.tolist()))
        if mode == ANSS:
            scored.sort(key=lambda pair: (pair[1], pair[0]))
        entries.append(scored[:M])
    return AnchorSet(mode=mode, M=M, entries=entries)


# ---- on-disk format --------------------------------------------------------


def save_anchors(path, anchors: AnchorSet):
    with atomic_write(path) as f:
        f.write(f"# mode={anchors.mode}\tM={anchors.M}\n")
        for c, per_class in enumerate(anchors.entries):
            for rank, (sid, score) in enumerate(per_class):
                f.write(f"{c}\t{rank}\t{sid}\t{score!r}\n")


def load_anchors(path) -> AnchorSet:
    """An anchor file; a malformed header or row, an out-of-order rank or
    an undecodable byte is a ValidationError naming path:line."""
    with io.StringIO(read_text(path)) as f:
        header = f.readline().strip()
        if not header.startswith("# "):
            raise ValidationError(f"{path}:1: missing anchor header")
        try:
            fields = dict(part.split("=", 1) for part in header[2:].split("\t"))
            mode, M = fields["mode"], int(fields["M"])
        except (KeyError, ValueError) as exc:
            raise ValidationError(
                f"{path}:1: anchor header needs mode and M "
                f"({type(exc).__name__}: {exc})") from exc
        per_class: dict[int, list] = {}
        for lineno, line in enumerate(f, 2):
            try:
                c, rank, sid, score = line.rstrip("\n").split("\t")
                c, rank, entry = int(c), int(rank), (int(sid), float(score))
                if c < 0:
                    raise ValueError(f"negative class {c}")
                if rank != len(per_class.setdefault(c, [])):
                    raise ValueError(f"rank {rank} out of order in class {c}")
                per_class[c].append(entry)
            except ValueError as exc:
                raise ValidationError(
                    f"{path}:{lineno}: bad anchor row ({exc})") from exc
    C = max(per_class) + 1 if per_class else 0
    entries = [per_class.get(c, []) for c in range(C)]
    if any(len(e) != M for e in entries):
        raise ValidationError(f"{path}: anchor rows do not match M={M}")
    return AnchorSet(mode=mode, M=M, entries=entries)
