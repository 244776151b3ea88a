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
        emb = model.vis(probe).data
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
    checkpoint_hash: bytes = b""

    def ids(self, cls: int) -> list:
        return [sid for sid, _ in self.entries[cls]]


def _pad_cyclic(selected, M):
    if not selected:
        raise ValidationError("select_anchors: class with zero sentences")
    out = list(selected)
    i = 0
    while len(out) < M:
        out.append(selected[i % len(selected)])
        i += 1
    return out


def select_anchors(corpus: ClassCorpus, dataset: LongTailDataset,
                   model: CvlpModel, M: int, mode: str = ANSS,
                   cap: int = 50, seed: int = 0,
                   checkpoint_hash: bytes = b"") -> AnchorSet:
    """Per class, keep M sentences: lowest score first under AnSS (id
    breaks ties), plain corpus order under CutOff. Classes with fewer
    than M sentences are padded by cycling the selected list."""
    if M < 1:
        raise ValidationError(f"select_anchors: M must be >= 1, got {M}")
    if mode not in (ANSS, CUTOFF):
        raise ValidationError(f"select_anchors: unknown mode {mode!r}")
    pool = build_probe_pool(dataset, model, cap=cap, seed=seed)
    table = corpus.token_table()
    entries = []
    for c in range(corpus.C):
        rows = table.class_rows(c)
        if not rows.size:
            raise ValidationError(f"select_anchors: class {c} has no sentences")
        scores = _score_columns(pool, c, model.lin(table.take(rows)).data)
        scored = list(enumerate(scores.tolist()))
        if mode == ANSS:
            scored.sort(key=lambda pair: (pair[1], pair[0]))
        entries.append(_pad_cyclic(scored[: min(M, len(scored))], M))
    return AnchorSet(mode=mode, M=M, entries=entries,
                     checkpoint_hash=checkpoint_hash)


# ---- on-disk format --------------------------------------------------------


def save_anchors(path, anchors: AnchorSet):
    with atomic_write(path) as f:
        f.write(f"# mode={anchors.mode}\tM={anchors.M}"
                f"\tcheckpoint={anchors.checkpoint_hash.hex()}\n")
        for c, per_class in enumerate(anchors.entries):
            for rank, (sid, score) in enumerate(per_class):
                f.write(f"{c}\t{rank}\t{sid}\t{score!r}\n")


def load_anchors(path) -> AnchorSet:
    """An anchor file; a malformed header or row, or an undecodable
    byte, is a ValidationError naming path:line."""
    with io.StringIO(read_text(path)) as f:
        header = f.readline().strip()
        if not header.startswith("# "):
            raise ValidationError(f"{path}:1: missing anchor header")
        try:
            fields = dict(part.split("=", 1) for part in header[2:].split("\t"))
            mode, M = fields["mode"], int(fields["M"])
            ckpt_hash = bytes.fromhex(fields["checkpoint"])
        except (KeyError, ValueError) as exc:
            raise ValidationError(
                f"{path}:1: anchor header needs mode, M and checkpoint "
                f"({type(exc).__name__}: {exc})") from exc
        per_class: dict[int, list] = {}
        for lineno, line in enumerate(f, 2):
            try:
                c, _, sid, score = line.rstrip("\n").split("\t")
                per_class.setdefault(int(c), []).append((int(sid),
                                                         float(score)))
            except ValueError as exc:
                raise ValidationError(
                    f"{path}:{lineno}: bad anchor row ({exc})") from exc
    C = max(per_class) + 1 if per_class else 0
    entries = [per_class.get(c, []) for c in range(C)]
    if any(len(e) != M for e in entries):
        raise ValidationError(f"{path}: anchor rows do not match M={M}")
    return AnchorSet(mode=mode, M=M, entries=entries, checkpoint_hash=ckpt_hash)
