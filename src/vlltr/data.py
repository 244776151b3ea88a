"""Synthetic long-tailed datasets, class-level text corpora, and samplers.

Images are feature vectors (class prototype + Gaussian noise); text is
integer-token sentences whose content tokens are tied to the class, so a
genuine cross-modal signal exists without pixels or a tokenizer.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .checkpoint import atomic_write, read_exact, read_header, read_lf, unpack
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
TEMPLATE_WORDS = 3   # prompt-pool tokens in a prompt template, at most


def class_attributes(C: int, seed: int) -> np.ndarray:
    """Per-class attribute ids (C, ATTRS_PER_CLASS); deterministic in
    (C, seed) so dataset and corpus generation agree."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xA77]))
    return np.stack([rng.choice(ATTR_POOL, size=ATTRS_PER_CLASS,
                                replace=False) for _ in range(C)])


# ---- long-tailed counts and samples --------------------------------------


def gen_pareto_counts(C: int, n_max: int, n_min: int):
    """Per-class counts on a rank power law n_max * (c + 1) ** -p, its
    exponent p solved so the last class lands exactly on n_min. Needs
    C >= 2 and n_max > n_min >= 1, as `RunConfig.validate` ensures."""
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


def class_labels(sizes) -> np.ndarray:
    """The int64 labels of class-major rows: c repeated sizes[c] times."""
    return np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)


def gen_synthetic(C: int, counts, d_img: int, noise_sigma: float, seed: int,
                  test_per_class: int = 20) -> LongTailDataset:
    """Unit-norm class prototypes plus Gaussian noise, with a balanced
    test split drawn from disjoint noise. Prototypes depend only on
    (C, d_img, seed) so balanced variants share them; each is composed
    from its class's shared-attribute directions plus a small
    idiosyncratic component."""
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

    test_counts = [test_per_class] * C
    # class by class, prototype plus noise from the split's own generator
    X, test_X = (np.concatenate(
        [protos[c] + rng.normal(size=(n, d_img)) * noise_sigma
         for c, n in enumerate(sizes)]).astype(np.float32)
        for rng, sizes in ((train_rng, counts), (test_rng, test_counts)))
    return LongTailDataset(
        C=C, d_img=d_img, counts=list(counts), X=X, y=class_labels(counts),
        test_X=test_X, test_y=class_labels(test_counts), prototypes=protos)


# ---- shot bands ----------------------------------------------------------


def split_shots(counts) -> list:
    """Each class's band: many >= 100 samples, few <= 20, medium in
    between."""
    if any(n < 1 for n in counts):
        raise ValidationError("split_shots: counts must be >= 1")
    return ["many" if n >= MANY_THRESHOLD else
            "few" if n <= FEW_THRESHOLD else "medium" for n in counts]


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


# ---- class corpus ----------------------------------------------------------

#: A corpus row's source, by its code in `ClassCorpus.sources`.
SOURCES = (ENCYCLOPEDIA, PROMPT)
_SOURCE_CODES = {s.encode(): code for code, s in enumerate(SOURCES)}
_UNKNOWN = len(SOURCES)

# The bytes that separate token ids: the ASCII characters str.split()
# takes for whitespace, less the tab and line breaks that end a field.
# Newline is kept, because `_token_ids` joins fields with it.
_SEPARATORS = b" \n\x0b\x0c\x1c\x1d\x1e\x1f"
_SHORT_ID = 18   # digits that always fit an int64
# a --query may hold the tab and line breaks a corpus field cannot
_BREAKS = bytes.maketrans(b"\t\n\r", b"   ")


def _token_ids(fields, limit: int):
    """Token fields (bytes) parsed in one pass: (ids, per-field counts,
    per-field bad flags). A field is bad if it holds a byte that is
    neither an ASCII digit nor a separator, or an id >= `limit`. Per byte
    of text it allocates only bool and uint8 arrays, never an int64 one
    (which fancy indexing by a byte array would make)."""
    text = b"\n".join([b"", *fields, b""])
    buf = np.frombuffer(text, dtype=np.uint8)
    newlines = np.flatnonzero(buf == 10)        # field i ends at newlines[i + 1]
    digit = (buf - np.uint8(48)) < 10
    stray = ~digit
    for byte in _SEPARATORS:
        stray &= buf != byte
    stray_at = np.flatnonzero(stray)
    del stray
    # the text starts and ends in a separator, so the digit/non-digit
    # edges alternate: an id's first byte, then the byte after its last
    edges = np.flatnonzero(digit[1:] != digit[:-1])
    edges += 1
    edges[1::2] -= edges[0::2]                  # (first byte, length) pairs
    starts, lengths = edges[0::2], edges[1::2]
    del digit
    counts = np.diff(np.searchsorted(starts, newlines))
    ids = (buf[starts] - np.uint8(48)).astype(np.int64)
    for k in range(1, min(int(lengths.max(initial=0)), _SHORT_ID)):
        more = lengths > k                      # Horner's rule, digit k
        np.multiply(ids, 10, out=ids, where=more)
        np.add(ids, buf.take(starts + k, mode="clip") - np.uint8(48),
               out=ids, where=more)
    over = ids >= limit if limit < 2 ** 63 else np.zeros(len(ids), bool)
    for t in np.flatnonzero(lengths > _SHORT_ID).tolist():
        value = int(text[starts[t]:starts[t] + lengths[t]])
        over[t] = value >= limit
        ids[t] = 0 if over[t] else value
    bad = np.zeros(len(fields), dtype=bool)
    bad_at = np.concatenate([stray_at, starts[over]])
    bad[np.searchsorted(newlines, bad_at) - 1] = True
    return ids, counts, bad


def parse_tokens(text: str, vocab_size: int, where: str) -> np.ndarray:
    """Token ids separated by ASCII whitespace as an int64 array. Anything
    but ASCII-digit integers in [0, vocab_size), or no id at all, is a
    ValidationError naming `where`."""
    field = text.encode("utf-8", "backslashreplace").translate(_BREAKS)
    ids, _, bad = _token_ids([field], vocab_size)
    if bad[0]:
        raise ValidationError(f"{where}: token ids must be integers in "
                              f"[0, {vocab_size}), got {text!r}")
    if not ids.size:
        raise ValidationError(f"{where}: no token ids")
    return ids


class TokenTable(NamedTuple):
    """Sentences as one flat int64 token array: row r is
    ids[offsets[r]:offsets[r] + lengths[r]]. Rows are grouped by class,
    class c owning the class_sizes[c] rows from class_starts[c]. Every
    row is non-empty and within the token limit it was checked at."""
    ids: np.ndarray
    offsets: np.ndarray
    lengths: np.ndarray
    class_starts: np.ndarray
    class_sizes: np.ndarray

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
                          np.array([len(lengths)]))

    def class_rows(self, c: int) -> np.ndarray:
        """The rows of class c, in order."""
        start = self.class_starts[c]
        return np.arange(start, start + self.class_sizes[c])

    def split(self, n: int) -> list:
        """Each run of `n` consecutive rows as a one-class table of its
        own, over views of `ids` and `lengths` with rebased offsets."""
        bounds = np.append(self.offsets[::n], len(self.ids)).tolist()
        starts, parts = np.zeros(1, dtype=np.int64), []
        for k, r in enumerate(range(0, len(self.lengths), n)):
            lengths, a = self.lengths[r:r + n], bounds[k]
            parts.append(TokenTable(
                self.ids[a:bounds[k + 1]], self.offsets[r:r + n] - a,
                lengths, starts, np.array([len(lengths)])))
        return parts

    def sequences(self) -> list:
        """One token array (a view of `ids`) per row."""
        return [self.ids[o:o + n]
                for o, n in zip(self.offsets.tolist(), self.lengths.tolist())]


def flat_table(ids: np.ndarray, lengths, max_tokens: int,
               class_sizes=None) -> TokenTable:
    """The table of int64 `ids` cut into rows of `lengths`, under
    `class_sizes` (default: all rows one class). An empty row or one over
    `max_tokens` is a ValidationError naming its index."""
    lengths = np.asarray(lengths, dtype=np.int64)
    bad = np.flatnonzero((lengths == 0) | (lengths > max_tokens))
    if bad.size:
        i = int(bad[0])
        if lengths[i] == 0:
            raise ValidationError(f"LinguisticEncoder: empty sequence {i}")
        raise ValidationError(
            f"LinguisticEncoder: sequence {i} has {lengths[i]} tokens, "
            f"limit is {max_tokens}; truncate explicitly if intended"
        )
    sizes = np.array([len(lengths)] if class_sizes is None else class_sizes,
                     dtype=np.int64)
    return TokenTable(ids, np.cumsum(lengths) - lengths, lengths,
                      np.cumsum(sizes) - sizes, sizes)


def token_table(sequences, max_tokens: int, class_sizes=None) -> TokenTable:
    """`flat_table` of a list of token sequences, in order. A TokenTable
    is returned as it is."""
    if isinstance(sequences, TokenTable):
        return sequences
    seqs = [np.asarray(seq, dtype=np.int64) for seq in sequences]
    ids = np.concatenate(seqs) if seqs else np.zeros(0, dtype=np.int64)
    return flat_table(ids, [len(seq) for seq in seqs], max_tokens,
                      class_sizes)


@dataclass
class ClassCorpus:
    """Every class's sentences as one token table: class c's sentence
    `sid` (its per-class id) is row class_starts[c] + sid, and row r's
    source is SOURCES[sources[r]]."""
    table: TokenTable
    sources: np.ndarray   # uint8 per row

    @property
    def C(self) -> int:
        return len(self.table.class_sizes)


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

    def prompt_length(self) -> int:
        """Tokens in a prompt line: SOS, its template, the class token
        and EOS."""
        return min(TEMPLATE_WORDS, self.prompt_count) + 3


def gen_corpus(C: int, sentences_per_class: int, prompt_count: int,
               vocab_size: int, noise_fraction: float, seed: int,
               max_tokens: int = 77):
    """Build the per-class sentence corpus.

    Returns (corpus, distractor_ids) where distractor_ids[c] is the set of
    per-class sentence ids whose content was drawn from another class.
    Descriptive sentences always contain their class token and are cut to
    `max_tokens`; distractors are descriptive sentences of a different
    class filed under this one. The sizes must pass `RunConfig.validate`.
    """
    layout = VocabLayout(C, prompt_count)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xC0B9]))
    filler = np.array(layout.filler_pool(vocab_size))
    attrs = class_attributes(C, seed)
    # each prompt is a template of a few prompt-pool tokens plus the class
    # token ("a photo of a {label}"); templates are shared across classes
    templates = [
        [layout.prompt_token(int(t))
         for t in rng.choice(prompt_count,
                             size=min(TEMPLATE_WORDS, prompt_count))]
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

    rows, sizes, sources = [], [], []
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
            rows.append(tokens)
            if is_noise:
                distractor_ids[c].add(sid)
        rows += [[SOS] + templates[j] + [layout.class_token(c), EOS]
                 for j in range(prompt_count)]
        sizes.append(len(drafts) + prompt_count)
        sources += [0] * len(drafts) + [1] * prompt_count   # SOURCES codes
    ids = np.array([t for tokens in rows for t in tokens], dtype=np.int64)
    table = flat_table(ids, [len(tokens) for tokens in rows], max_tokens,
                       sizes)
    corpus = ClassCorpus(table=table,
                         sources=np.array(sources, dtype=np.uint8))
    return corpus, distractor_ids


def corpus_stats(corpus: ClassCorpus) -> dict:
    """Min/max/mean/median per-class sentence counts, plus average tokens
    per sentence (markers excluded)."""
    counts = corpus.table.class_sizes
    total_sentences = int(counts.sum())
    total_tokens = int(corpus.table.lengths.sum()) - 2 * total_sentences
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
    """A dataset file; a short or truncated one, or one with no classes,
    an empty class or images of width 0 (no image bytes, so no length
    bounds the counts that size `y`), is a ValidationError naming `path`."""
    with open(path, "rb") as f:
        C, d_img = read_header(f, path, DATASET_MAGIC, DATASET_VERSION,
                               "a dataset file", "<III")
        if d_img == 0:
            raise ValidationError(f"{path}: images of width d_img 0")
        counts = list(unpack(f, f"<{C}I", path, "class counts"))
        if C == 0 or not all(counts):
            raise ValidationError(
                f"{path}: need at least one class and one image per class, "
                f"got class counts {counts}")
        total = sum(counts)
        X = np.frombuffer(read_exact(f, total * d_img * 4, path, "images"),
                          dtype="<f4").reshape(total, d_img)
        (test_per_class,) = unpack(f, "<I", path, "test header")
        n_test = C * test_per_class
        test_X = np.frombuffer(
            read_exact(f, n_test * d_img * 4, path, "test images"),
            dtype="<f4").reshape(n_test, d_img)
    return LongTailDataset(C=C, d_img=d_img, counts=counts, X=X,
                           y=class_labels(counts), test_X=test_X,
                           test_y=class_labels([test_per_class] * C))


def save_corpus(path, corpus: ClassCorpus):
    """One `class<TAB>source<TAB>ids` line per row, in row order."""
    table = corpus.table
    classes = class_labels(table.class_sizes).tolist()
    with atomic_write(path) as f:
        for c, code, tokens in zip(classes, corpus.sources, table.sequences()):
            f.write(f"{c}\t{SOURCES[code]}\t"
                    f"{' '.join(map(str, tokens.tolist()))}\n")


def _shown(field: bytes) -> str:
    return repr(field.decode("utf-8", "backslashreplace"))


def load_corpus(path, vocab_size: int, max_tokens: int) -> ClassCorpus:
    """`corpus.tsv` in one bulk pass (grammar in README.md). The first bad
    line is a ValidationError naming path:line and the first check it
    fails, in order: three tab-separated fields, an ASCII-digit class, a
    known source, token ids in [0, vocab_size), at least one token, at
    most `max_tokens`; then a class below the line before's. Blank lines
    are skipped, and CR LF and lone CR end lines as LF does."""
    data = read_lf(path)
    records = [line.split(b"\t") for line in data.split(b"\n") if line]
    if not records:
        raise ValidationError(f"{path}: no sentences")
    malformed = np.array([len(r) != 3 for r in records], dtype=bool)
    if malformed.any():   # checked first; later checks see a good stand-in
        records = [r if len(r) == 3 else (b"0", b"prompt", b"0")
                   for r in records]
    cls, src, tok = zip(*records)
    del records
    ids, counts, bad_tokens = _token_ids(tok, vocab_size)
    codes = np.array([_SOURCE_CODES.get(s, _UNKNOWN) for s in src],
                     dtype=np.uint8)
    checks = (
        (malformed, lambda i: "malformed record"),
        (~np.array(list(map(bytes.isdigit, cls)), dtype=bool),
         lambda i: f"class must be an integer >= 0, got {_shown(cls[i])}"),
        (codes == _UNKNOWN, lambda i: f"unknown source {_shown(src[i])}"),
        (bad_tokens, lambda i: "token ids must be integers in "
                               f"[0, {vocab_size}), got {_shown(tok[i])}"),
        (counts == 0, lambda i: "empty sentence"),
        (counts > max_tokens, lambda i: f"sentence has {counts[i]} tokens, "
                                        f"limit is {max_tokens}"),
    )
    bad = np.logical_or.reduce([mask for mask, _ in checks])
    if not bad.any():   # every class is an integer: check their order
        classes = list(map(int, cls))
        bad = np.append(False, np.diff(classes) < 0)
        checks = ((bad, lambda i: f"class {classes[i]} after class "
                   f"{classes[i - 1]}; rows must come in class order"),)
    if bad.any():
        i = int(bad.argmax())
        message = next(say(i) for mask, say in checks if mask[i])
        lineno = [n for n, line in enumerate(data.split(b"\n"), 1) if line][i]
        raise ValidationError(f"{path}:{lineno}: {message}")
    # n rows cannot fill more than n classes
    sizes = np.bincount(classes) if max(classes) < len(classes) else [0]
    if not np.all(sizes):
        raise ValidationError(f"{path}: some classes have no sentences")
    return ClassCorpus(table=flat_table(ids, counts, max_tokens, sizes),
                       sources=codes)


def save_stats(path, stats: dict):
    with atomic_write(path) as f:
        json.dump(stats, f, indent=2, sort_keys=True)
        f.write("\n")
