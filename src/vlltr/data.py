"""Synthetic long-tailed datasets, class-level text corpora, and samplers.

Images are feature vectors (class prototype + Gaussian noise); text is
integer-token sentences whose content tokens are tied to the class, so a
genuine cross-modal signal exists without pixels or a tokenizer.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

DATASET_MAGIC = b"VLLT"
DATASET_VERSION = 1
SOS, EOS = 0, 1
ENCYCLOPEDIA, PROMPT = "encyclopedia", "prompt"
MANY_THRESHOLD, FEW_THRESHOLD = 100, 20

# shared attribute dictionary: every class is a composition of a few
# attributes out of a global pool, and those attributes have latent
# image-space directions. Text sentences name the attributes, so the
# cross-modal signal for rare classes is learnable from frequent ones.
ATTR_POOL = 32
ATTRS_PER_CLASS = 6
PROTO_IDIOSYNCRASY = 0.35


def class_attributes(C: int, seed: int) -> np.ndarray:
    """Per-class attribute ids (C, ATTRS_PER_CLASS); deterministic in
    (C, seed) so dataset and corpus generation agree."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xA77]))
    return np.stack([rng.choice(ATTR_POOL, size=ATTRS_PER_CLASS,
                                replace=False) for _ in range(C)])


# ---- long-tailed counts and samples --------------------------------------


def gen_pareto_counts(C: int, n_max: int, n_min: int, alpha: float = 6.0):
    """Per-class counts on a rank power law with endpoint-solved exponent.

    `alpha` is carried as metadata; the decaying exponent is solved so the
    last class lands exactly on n_min.
    """
    if C < 2:
        raise ValidationError(f"gen_pareto_counts: need C >= 2, got {C}")
    if not n_max > n_min >= 1:
        raise ValidationError(
            f"gen_pareto_counts: need n_max > n_min >= 1, got {n_max}, {n_min}"
        )
    p = math.log(n_max / n_min) / math.log(C)
    counts = [max(n_min, round(n_max * (c + 1) ** (-p))) for c in range(C)]
    return counts


@dataclass
class LongTailDataset:
    C: int
    d_img: int
    counts: list
    X: np.ndarray          # (sum(counts), d_img) float32, class-major
    y: np.ndarray          # (sum(counts),) int64
    test_X: np.ndarray     # (C * test_per_class, d_img) float32, class-major
    test_y: np.ndarray
    alpha: float | None = None
    prototypes: np.ndarray | None = None  # in-memory only, not serialized

    @property
    def n_max(self):
        return max(self.counts)

    @property
    def n_min(self):
        return min(self.counts)

    def class_slice(self, c: int) -> slice:
        start = int(np.sum(self.counts[:c]))
        return slice(start, start + self.counts[c])


def gen_synthetic(C: int, counts, d_img: int, noise_sigma: float, seed: int,
                  test_per_class: int = 20, alpha: float | None = None
                  ) -> LongTailDataset:
    """Unit-norm class prototypes plus Gaussian noise, with a balanced
    test split drawn from disjoint noise. Prototypes depend only on
    (C, d_img, seed) so balanced variants share them; each is composed
    from its class's shared-attribute directions plus a small
    idiosyncratic component."""
    if d_img < 2:
        raise ValidationError(f"gen_synthetic: d_img must be >= 2, got {d_img}")
    if len(counts) != C:
        raise ValidationError("gen_synthetic: len(counts) != C")
    ss = np.random.SeedSequence([int(seed), 0xDA7A])
    proto_rng, train_rng, test_rng = [
        np.random.default_rng(s) for s in ss.spawn(3)
    ]
    attr_dirs = proto_rng.normal(size=(ATTR_POOL, d_img))
    attr_dirs /= np.linalg.norm(attr_dirs, axis=1, keepdims=True)
    attrs = class_attributes(C, seed)
    protos = attr_dirs[attrs].mean(axis=1)
    protos += PROTO_IDIOSYNCRASY * proto_rng.normal(size=(C, d_img)) / np.sqrt(d_img)
    protos /= np.linalg.norm(protos, axis=1, keepdims=True)

    rows, labels = [], []
    for c in range(C):
        noise = train_rng.normal(size=(counts[c], d_img)) * noise_sigma
        rows.append(protos[c] + noise)
        labels.append(np.full(counts[c], c, dtype=np.int64))
    test_rows, test_labels = [], []
    for c in range(C):
        noise = test_rng.normal(size=(test_per_class, d_img)) * noise_sigma
        test_rows.append(protos[c] + noise)
        test_labels.append(np.full(test_per_class, c, dtype=np.int64))

    return LongTailDataset(
        C=C, d_img=d_img, counts=list(counts),
        X=np.concatenate(rows).astype(np.float32),
        y=np.concatenate(labels),
        test_X=np.concatenate(test_rows).astype(np.float32),
        test_y=np.concatenate(test_labels),
        alpha=alpha, prototypes=protos,
    )


# ---- shot bands ----------------------------------------------------------


@dataclass
class ShotBands:
    bands: list  # per-class "many" | "medium" | "few"

    def __getitem__(self, c: int) -> str:
        return self.bands[c]


def split_shots(counts) -> ShotBands:
    """many >= 100 samples, few <= 20, medium in between."""
    bands = []
    for n in counts:
        if n < 1:
            raise ValidationError("split_shots: counts must be >= 1")
        if n >= MANY_THRESHOLD:
            bands.append("many")
        elif n <= FEW_THRESHOLD:
            bands.append("few")
        else:
            bands.append("medium")
    return ShotBands(bands)


# ---- square-root sampler --------------------------------------------------


def sqrt_class_weights(counts) -> np.ndarray:
    w = np.sqrt(np.asarray(counts, dtype=np.float64))
    return w / w.sum()


class SqrtSampler:
    """Class drawn with p proportional to sqrt(count), then a uniform
    sample inside the class; deterministic in the seed."""

    def __init__(self, counts, seed: int):
        if len(counts) == 0:
            raise ValidationError("SqrtSampler: empty counts")
        self.counts = np.asarray(counts, dtype=np.int64)
        self.weights = sqrt_class_weights(counts)
        self.offsets = np.concatenate([[0], np.cumsum(self.counts)])
        self.rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x5A3]))

    def draw_classes(self, n: int) -> np.ndarray:
        return self.rng.choice(len(self.counts), size=n, p=self.weights)

    def draw(self, n: int) -> np.ndarray:
        """Return `n` global sample indices (class-major layout)."""
        classes = self.draw_classes(n)
        within = (self.rng.random(n) * self.counts[classes]).astype(np.int64)
        return self.offsets[classes] + within


# ---- class corpus ----------------------------------------------------------


@dataclass
class Sentence:
    id: int                # per-class index
    tokens: np.ndarray     # int64, read-only; includes SOS/EOS markers
    source: str            # "encyclopedia" | "prompt"


def token_array(tokens) -> np.ndarray:
    """A sentence's tokens as the read-only int64 array the corpus
    stores once, so encoders never convert tokens one by one."""
    arr = np.array(tokens, dtype=np.int64)
    arr.flags.writeable = False
    return arr


@dataclass
class ClassCorpus:
    C: int
    vocab_size: int
    max_tokens: int
    sentences: list = field(default_factory=list)  # per class: list[Sentence]

    def for_class(self, c: int) -> list:
        return self.sentences[c]


@dataclass
class VocabLayout:
    """Deterministic carve-up of the integer vocabulary."""
    C: int
    prompt_count: int

    def class_token(self, c: int) -> int:
        return 2 + c

    def prompt_token(self, j: int) -> int:
        return 2 + self.C + j

    def attr_token(self, a: int) -> int:
        return 2 + self.C + self.prompt_count + a

    def filler_pool(self, vocab_size: int) -> range:
        base = 2 + self.C + self.prompt_count + ATTR_POOL
        return range(base, vocab_size)

    def required_size(self) -> int:
        return 2 + self.C + self.prompt_count + ATTR_POOL + 8


def gen_corpus(C: int, sentences_per_class: int, prompt_count: int,
               vocab_size: int, noise_fraction: float, seed: int,
               max_tokens: int = 77):
    """Build the per-class sentence corpus.

    Returns (corpus, distractor_ids) where distractor_ids[c] is the set of
    per-class sentence ids whose content was drawn from another class.
    Descriptive sentences always contain their class token; distractors are
    descriptive sentences of a different class filed under this one.
    """
    if vocab_size <= 0:
        raise ValidationError("gen_corpus: empty vocabulary")
    if prompt_count < 0:
        raise ValidationError("gen_corpus: prompt_count must be >= 0")
    layout = VocabLayout(C, prompt_count)
    if vocab_size < layout.required_size():
        raise ValidationError(
            f"gen_corpus: vocab_size {vocab_size} too small; "
            f"need >= {layout.required_size()}"
        )
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xC0B9]))
    filler = list(layout.filler_pool(vocab_size))
    attrs = class_attributes(C, seed)
    # each prompt is a template of a few prompt-pool tokens plus the class
    # token ("a photo of a {label}"); templates are shared across classes
    templates = [
        [layout.prompt_token(int(t))
         for t in rng.choice(prompt_count, size=min(3, prompt_count))]
        for _ in range(prompt_count)
    ]
    n_noise = round(noise_fraction * sentences_per_class)
    n_clean = sentences_per_class - n_noise

    def descriptive(c: int) -> list:
        body = [layout.class_token(c)]
        n_attr = int(rng.integers(3, ATTRS_PER_CLASS + 1))
        chosen = rng.choice(ATTRS_PER_CLASS, size=n_attr, replace=False)
        body += [layout.attr_token(int(attrs[c][k])) for k in chosen]
        n_filler = int(rng.integers(1, 4))
        body += list(rng.choice(filler, size=n_filler))
        rng.shuffle(body)
        return [SOS] + [int(t) for t in body[: max_tokens - 2]] + [EOS]

    corpus = ClassCorpus(C=C, vocab_size=vocab_size, max_tokens=max_tokens,
                         sentences=[[] for _ in range(C)])
    distractor_ids = [set() for _ in range(C)]
    for c in range(C):
        drafts = [(descriptive(c), False) for _ in range(n_clean)]
        for _ in range(n_noise):
            other = int(rng.integers(0, C - 1))
            other += other >= c
            drafts.append((descriptive(other), True))
        order = rng.permutation(len(drafts))
        for sid, k in enumerate(order):
            tokens, is_noise = drafts[int(k)]
            corpus.sentences[c].append(
                Sentence(id=sid, tokens=token_array(tokens),
                         source=ENCYCLOPEDIA))
            if is_noise:
                distractor_ids[c].add(sid)
        for j in range(prompt_count):
            tokens = [SOS] + templates[j] + [layout.class_token(c), EOS]
            corpus.sentences[c].append(
                Sentence(id=n_clean + n_noise + j, tokens=token_array(tokens),
                         source=PROMPT))
    return corpus, distractor_ids


def corpus_stats(corpus: ClassCorpus) -> dict:
    """Min/max/mean/median per-class sentence counts, plus average tokens
    per sentence (markers excluded)."""
    counts = np.array([len(s) for s in corpus.sentences], dtype=np.int64)
    total_tokens = sum(len(s.tokens) - 2
                       for per_class in corpus.sentences for s in per_class)
    total_sentences = int(counts.sum())
    return {
        "m_min": int(counts.min()),
        "m_max": int(counts.max()),
        "m_mean": float(counts.mean()),
        "m_med": float(np.median(counts)),
        "l_avg": total_tokens / total_sentences if total_sentences else 0.0,
    }


# ---- on-disk formats -------------------------------------------------------


def save_dataset(path, ds: LongTailDataset):
    with open(path, "wb") as f:
        f.write(DATASET_MAGIC)
        f.write(struct.pack("<III", DATASET_VERSION, ds.C, ds.d_img))
        f.write(struct.pack(f"<{ds.C}I", *ds.counts))
        f.write(ds.X.astype("<f4").tobytes())
        test_per_class = len(ds.test_y) // ds.C if ds.C else 0
        f.write(struct.pack("<I", test_per_class))
        f.write(ds.test_X.astype("<f4").tobytes())


def load_dataset(path) -> LongTailDataset:
    with open(path, "rb") as f:
        if f.read(4) != DATASET_MAGIC:
            raise ValidationError(f"{path}: not a dataset file (bad magic)")
        version, C, d_img = struct.unpack("<III", f.read(12))
        if version != DATASET_VERSION:
            raise ValidationError(f"{path}: unsupported version {version}")
        counts = list(struct.unpack(f"<{C}I", f.read(4 * C)))
        total = sum(counts)
        X = np.frombuffer(f.read(total * d_img * 4), dtype="<f4")
        X = X.reshape(total, d_img)
        y = np.concatenate([np.full(n, c, dtype=np.int64)
                            for c, n in enumerate(counts)])
        (test_per_class,) = struct.unpack("<I", f.read(4))
        test_X = np.frombuffer(f.read(C * test_per_class * d_img * 4),
                               dtype="<f4").reshape(C * test_per_class, d_img)
        test_y = np.concatenate([np.full(test_per_class, c, dtype=np.int64)
                                 for c in range(C)])
    return LongTailDataset(C=C, d_img=d_img, counts=counts, X=X, y=y,
                           test_X=test_X, test_y=test_y)


def save_corpus(path, corpus: ClassCorpus):
    with open(path, "w", encoding="utf-8") as f:
        for c in range(corpus.C):
            for s in corpus.sentences[c]:
                tokens = " ".join(str(t) for t in s.tokens)
                f.write(f"{c}\t{s.source}\t{tokens}\n")


def load_corpus(path, vocab_size: int = 0, max_tokens: int = 77) -> ClassCorpus:
    per_class: dict[int, list] = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValidationError(f"{path}:{lineno}: malformed record")
            c, source = int(parts[0]), parts[1]
            if source not in (ENCYCLOPEDIA, PROMPT):
                raise ValidationError(f"{path}:{lineno}: unknown source {source!r}")
            tokens = token_array([int(t) for t in parts[2].split()])
            if not tokens.size:
                raise ValidationError(f"{path}:{lineno}: empty sentence")
            bucket = per_class.setdefault(c, [])
            bucket.append(Sentence(id=len(bucket), tokens=tokens, source=source))
    C = max(per_class) + 1 if per_class else 0
    if any(c not in per_class for c in range(C)):
        raise ValidationError(f"{path}: some classes have no sentences")
    vocab = vocab_size or (1 + max(int(s.tokens.max())
                                   for ss in per_class.values() for s in ss))
    return ClassCorpus(C=C, vocab_size=vocab, max_tokens=max_tokens,
                       sentences=[per_class[c] for c in range(C)])


def save_stats(path, stats: dict):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(stats, f, indent=2, sort_keys=True)
        f.write("\n")
