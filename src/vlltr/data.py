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
from typing import NamedTuple

import numpy as np

from .checkpoint import atomic_write, read_exact, unpack
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


def gen_pareto_counts(C: int, n_max: int, n_min: int):
    """Per-class counts on a rank power law n_max * (c + 1) ** -p, its
    exponent p solved so the last class lands exactly on n_min."""
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
    prototypes: np.ndarray | None = None  # in-memory only, not serialized

    def class_slice(self, c: int) -> slice:
        start = int(np.sum(self.counts[:c]))
        return slice(start, start + self.counts[c])


def gen_synthetic(C: int, counts, d_img: int, noise_sigma: float, seed: int,
                  test_per_class: int = 20) -> LongTailDataset:
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
        prototypes=protos,
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
        if (self.counts < 0).any() or self.counts.sum() == 0:
            raise ValidationError(
                "SqrtSampler: counts must be non-negative, not all zero")
        self.weights = sqrt_class_weights(counts)
        self.offsets = np.concatenate([[0], np.cumsum(self.counts)])
        self.rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x5A3]))
        self._cdf = self.weights.cumsum()
        self._cdf /= self._cdf[-1]

    def draw_classes(self, n: int) -> np.ndarray:
        """The stream of `rng.choice(C, size=n, p=weights)`, without
        re-validating and re-summing the weights on every call."""
        return self._cdf.searchsorted(self.rng.random(n), side="right")

    def draw_epoch(self, steps: int, n: int) -> np.ndarray:
        """`steps` batches of `n` global sample indices (class-major
        layout), (steps, n), from one uniform draw: per batch, `n`
        uniforms pick the classes and the next `n` the samples inside
        them, so the indices do not depend on how many batches are
        drawn at once."""
        u = self.rng.random((steps, 2, n))
        classes = self._cdf.searchsorted(u[:, 0], side="right")
        within = (u[:, 1] * self.counts[classes]).astype(np.int64)
        return self.offsets[classes] + within

    def draw(self, n: int) -> np.ndarray:
        """Return `n` global sample indices (class-major layout)."""
        return self.draw_epoch(1, n)[0]


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


def parse_tokens(text: str, vocab_size: int, where: str) -> np.ndarray:
    """Space-separated token ids as a token array. Anything but integers
    in [0, vocab_size), or in [0, 2**63) when `vocab_size` is 0, is a
    ValidationError naming `where`."""
    limit, fields = vocab_size or 2 ** 63, text.split()
    ids = [int(f) for f in fields] if all(map(str.isdecimal, fields)) else []
    if len(ids) != len(fields) or ids and max(ids) >= limit:
        raise ValidationError(
            f"{where}: token ids must be integers in [0, {limit}), got {text!r}")
    return token_array(ids)


class TokenTable(NamedTuple):
    """Sentences as one flat int64 token array: row r is
    ids[offsets[r]:offsets[r] + lengths[r]]. Rows are grouped by class,
    class c owning the class_sizes[c] rows from class_starts[c]. Every
    row is non-empty and at most `max_tokens` long."""
    ids: np.ndarray
    offsets: np.ndarray
    lengths: np.ndarray
    class_starts: np.ndarray
    class_sizes: np.ndarray
    max_tokens: int

    def take(self, rows) -> TokenTable:
        """Rows `rows` in that order, as a one-class table of their own."""
        lengths = self.lengths[rows]
        ends = np.cumsum(lengths)
        offsets = ends - lengths
        total = int(ends[-1]) if len(ends) else 0
        # each output token's position in `ids`: its row's source offset
        # plus its position within the output
        src = np.repeat(self.offsets[rows] - offsets, lengths) \
            + np.arange(total)
        return TokenTable(self.ids[src], offsets, lengths,
                          np.zeros(1, dtype=np.int64),
                          np.array([len(lengths)]), self.max_tokens)

    def split(self, n: int) -> list:
        """Each run of `n` consecutive rows as a one-class table of its
        own, over views of `ids` and `lengths` with rebased offsets."""
        bounds = np.append(self.offsets[::n], len(self.ids)).tolist()
        starts, parts = np.zeros(1, dtype=np.int64), []
        for k, r in enumerate(range(0, len(self.lengths), n)):
            lengths, a = self.lengths[r:r + n], bounds[k]
            parts.append(TokenTable(
                self.ids[a:bounds[k + 1]], self.offsets[r:r + n] - a,
                lengths, starts, np.array([len(lengths)]), self.max_tokens))
        return parts

    def sequences(self) -> list:
        """One token array (a view of `ids`) per row."""
        return [self.ids[o:o + n]
                for o, n in zip(self.offsets.tolist(), self.lengths.tolist())]


def token_table(sequences, max_tokens: int, class_sizes=None) -> TokenTable:
    """The table of a list of token sequences, in order, under
    `class_sizes` (default: all rows one class). An empty sequence or one
    over `max_tokens` is a ValidationError naming its index. A TokenTable
    already checked at `max_tokens` or below is returned as it is."""
    if isinstance(sequences, TokenTable):
        if sequences.max_tokens <= max_tokens:
            return sequences
        sequences = sequences.sequences()
    seqs = [np.asarray(seq, dtype=np.int64) for seq in sequences]
    lengths = np.array([len(seq) for seq in seqs], dtype=np.int64)
    bad = np.flatnonzero((lengths == 0) | (lengths > max_tokens))
    if bad.size:
        i = int(bad[0])
        if lengths[i] == 0:
            raise ValidationError(f"LinguisticEncoder: empty sequence {i}")
        raise ValidationError(
            f"LinguisticEncoder: sequence {i} has {lengths[i]} tokens, "
            f"limit is {max_tokens}; truncate explicitly if intended"
        )
    sizes = np.array([len(seqs)] if class_sizes is None else class_sizes,
                     dtype=np.int64)
    ids = np.concatenate(seqs) if seqs else np.zeros(0, dtype=np.int64)
    return TokenTable(ids, np.cumsum(lengths) - lengths, lengths,
                      np.cumsum(sizes) - sizes, sizes, max_tokens)


@dataclass
class ClassCorpus:
    C: int
    vocab_size: int
    max_tokens: int
    sentences: list = field(default_factory=list)  # per class: list[Sentence]

    def for_class(self, c: int) -> list:
        return self.sentences[c]

    def all_tokens(self) -> list:
        """Every sentence's tokens, class by class in id order."""
        return [s.tokens for sentences in self.sentences for s in sentences]

    def token_table(self) -> TokenTable:
        """`all_tokens` as one table with the corpus's class rows, checked
        against its `max_tokens`."""
        return token_table(self.all_tokens(), self.max_tokens,
                           [len(s) for s in self.sentences])


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
    with atomic_write(path, binary=True) as f:
        f.write(DATASET_MAGIC)
        f.write(struct.pack("<III", DATASET_VERSION, ds.C, ds.d_img))
        f.write(struct.pack(f"<{ds.C}I", *ds.counts))
        f.write(ds.X.astype("<f4").tobytes())
        test_per_class = len(ds.test_y) // ds.C if ds.C else 0
        f.write(struct.pack("<I", test_per_class))
        f.write(ds.test_X.astype("<f4").tobytes())


def load_dataset(path) -> LongTailDataset:
    """A dataset file; a short or truncated one is a ValidationError
    naming `path`."""
    with open(path, "rb") as f:
        if f.read(4) != DATASET_MAGIC:
            raise ValidationError(f"{path}: not a dataset file (bad magic)")
        version, C, d_img = unpack(f, "<III", path, "header")
        if version != DATASET_VERSION:
            raise ValidationError(f"{path}: unsupported version {version}")
        counts = list(unpack(f, f"<{C}I", path, "class counts"))
        total = sum(counts)
        X = np.frombuffer(read_exact(f, total * d_img * 4, path, "images"),
                          dtype="<f4").reshape(total, d_img)
        y = np.concatenate([np.full(n, c, dtype=np.int64)
                            for c, n in enumerate(counts)])
        (test_per_class,) = unpack(f, "<I", path, "test header")
        n_test = C * test_per_class
        test_X = np.frombuffer(
            read_exact(f, n_test * d_img * 4, path, "test images"),
            dtype="<f4").reshape(n_test, d_img)
        test_y = np.concatenate([np.full(test_per_class, c, dtype=np.int64)
                                 for c in range(C)])
    return LongTailDataset(C=C, d_img=d_img, counts=counts, X=X, y=y,
                           test_X=test_X, test_y=test_y)


def save_corpus(path, corpus: ClassCorpus):
    with atomic_write(path) as f:
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
            if not parts[0].isdecimal():
                raise ValidationError(f"{path}:{lineno}: class must be an "
                                      f"integer >= 0, got {parts[0]!r}")
            c, source = int(parts[0]), parts[1]
            if source not in (ENCYCLOPEDIA, PROMPT):
                raise ValidationError(f"{path}:{lineno}: unknown source {source!r}")
            tokens = parse_tokens(parts[2], vocab_size, f"{path}:{lineno}")
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
    with atomic_write(path) as f:
        json.dump(stats, f, indent=2, sort_keys=True)
        f.write("\n")
