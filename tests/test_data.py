"""Tests for synthetic data generation, shot bands, sampling, and the corpus."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import composite_oracles as oracle
from composite_oracles import class_sentences, class_sources
from vlltr.data import (
    ATTR_POOL,
    ATTRS_PER_CLASS,
    SOURCES,
    ClassCorpus,
    SqrtSampler,
    VocabLayout,
    class_attributes,
    corpus_stats,
    gen_corpus,
    gen_pareto_counts,
    gen_synthetic,
    load_corpus,
    load_dataset,
    save_corpus,
    save_dataset,
    save_stats,
    split_shots,
    sqrt_class_weights,
    token_table,
)
from vlltr.errors import ValidationError

SOS, EOS = 0, 1


class TestParetoCounts:
    def test_two_classes_hit_endpoints(self):
        assert gen_pareto_counts(2, 100, 5) == [100, 5]

    def test_thousand_class_endpoints(self):
        counts = gen_pareto_counts(1000, 1280, 5)
        assert counts[0] == 1280
        assert counts[-1] == 5
        assert len(counts) == 1000

    def test_monotone_non_increasing(self):
        counts = gen_pareto_counts(50, 500, 5)
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        assert all(c >= 5 for c in counts)

    def test_infeasible_inputs(self):
        with pytest.raises(ValidationError):
            gen_pareto_counts(1, 100, 5)
        with pytest.raises(ValidationError):
            gen_pareto_counts(10, 5, 100)
        with pytest.raises(ValidationError):
            gen_pareto_counts(10, 100, 0)


class TestSynthetic:
    def test_zero_noise_reproduces_prototypes(self):
        ds = gen_synthetic(4, [3, 3, 3, 3], d_img=8, noise_sigma=0.0, seed=0)
        for c in range(4):
            np.testing.assert_allclose(
                ds.X[ds.class_slice(c)],
                np.broadcast_to(ds.prototypes[c], (3, 8)).astype(np.float32),
                atol=1e-7,
            )
        np.testing.assert_allclose(
            np.linalg.norm(ds.prototypes, axis=1), 1.0, atol=1e-12
        )

    def test_deterministic(self):
        a = gen_synthetic(5, [4, 3, 2, 2, 1], d_img=6, noise_sigma=0.2, seed=7)
        b = gen_synthetic(5, [4, 3, 2, 2, 1], d_img=6, noise_sigma=0.2, seed=7)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.test_X, b.test_X)

    def test_prototypes_depend_only_on_shape_and_seed(self):
        a = gen_synthetic(5, [10, 8, 6, 4, 2], d_img=6, noise_sigma=0.2, seed=3)
        b = gen_synthetic(5, [10] * 5, d_img=6, noise_sigma=0.2, seed=3)
        np.testing.assert_array_equal(a.prototypes, b.prototypes)

    def test_low_noise_nearest_prototype(self):
        ds = gen_synthetic(20, [30] * 20, d_img=16, noise_sigma=0.1, seed=0)
        sims = ds.X @ ds.prototypes.T
        acc = float((sims.argmax(axis=1) == ds.y).mean())
        assert acc > 0.95

    def test_invalid_inputs(self):
        with pytest.raises(ValidationError):
            gen_synthetic(2, [3, 3], d_img=1, noise_sigma=0.1, seed=0)
        with pytest.raises(ValidationError):
            gen_synthetic(2, [3], d_img=4, noise_sigma=0.1, seed=0)

    def test_class_attributes_deterministic_and_distinct(self):
        a = class_attributes(10, 0)
        b = class_attributes(10, 0)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (10, ATTRS_PER_CLASS)
        for row in a:
            assert len(set(row.tolist())) == ATTRS_PER_CLASS
            assert all(0 <= v < ATTR_POOL for v in row)


class TestShotBands:
    def test_thresholds(self):
        bands = split_shots([1280, 100, 20, 50])
        assert bands[0] == "many"
        assert bands[1] == "many"
        assert bands[2] == "few"
        assert bands[3] == "medium"

    def test_partition_is_total(self):
        counts = gen_pareto_counts(30, 400, 3)
        bands = split_shots(counts)
        assert all(bands[c] in ("many", "medium", "few") for c in range(30))

    def test_rejects_empty_class(self):
        with pytest.raises(ValidationError):
            split_shots([10, 0])


class TestSqrtSampler:
    def test_analytic_weights(self):
        np.testing.assert_allclose(
            sqrt_class_weights([100, 25]), [2 / 3, 1 / 3], atol=1e-12
        )
        np.testing.assert_allclose(
            sqrt_class_weights([100, 25, 4]), [10 / 17, 5 / 17, 2 / 17], atol=1e-12
        )

    def test_balanced_counts_give_uniform(self):
        np.testing.assert_allclose(sqrt_class_weights([7, 7, 7]), 1 / 3, atol=1e-12)

    def test_empirical_frequencies(self):
        sampler = SqrtSampler([100, 25, 4], seed=0)
        draws = sampler.draw_classes(100_000)
        freqs = np.bincount(draws, minlength=3) / draws.size
        np.testing.assert_allclose(freqs, [10 / 17, 5 / 17, 2 / 17], atol=0.01)

    def test_draw_indices_in_class_ranges(self):
        counts = [10, 3, 7]
        sampler = SqrtSampler(counts, seed=1)
        idx = sampler.draw(500)
        offsets = np.concatenate([[0], np.cumsum(counts)])
        assert np.all(idx >= 0) and np.all(idx < offsets[-1])
        # the per-class share of global indices must match draw_classes stats
        classes = np.searchsorted(offsets, idx, side="right") - 1
        assert set(classes.tolist()) == {0, 1, 2}

    def test_deterministic(self):
        a = SqrtSampler([9, 4], seed=5).draw(64)
        b = SqrtSampler([9, 4], seed=5).draw(64)
        np.testing.assert_array_equal(a, b)

    def test_empty_counts(self):
        with pytest.raises(ValidationError):
            SqrtSampler([], seed=0)

    @pytest.mark.parametrize("counts", [[0, 0], [-1, 4]])
    def test_degenerate_counts(self, counts):
        with pytest.raises(ValidationError):
            SqrtSampler(counts, seed=0)

    @pytest.mark.parametrize("seed", [0, 1, 7, 1000])
    def test_draw_classes_is_the_choice_stream(self, seed):
        """Class draws equal `Generator.choice(C, size=n, p=weights)`
        on the sampler's generator, call after call."""
        counts = [500, 120, 31, 9, 5, 1]
        sampler = SqrtSampler(counts, seed=seed)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5A3]))
        for n in (1, 32, 0, 7, 1000):
            got = sampler.draw_classes(n)
            want = rng.choice(len(counts), size=n,
                              p=sqrt_class_weights(counts))
            np.testing.assert_array_equal(got, want)
            assert got.dtype == want.dtype


    @pytest.mark.parametrize("seed", [0, 3, 1000])
    def test_draw_epoch_is_the_stream_of_draws(self, seed):
        """An epoch of `steps` batches equals `steps` calls of `draw`, and
        each batch equals a class draw then a draw inside the classes."""
        counts = [500, 120, 31, 9, 5, 1]
        offsets = np.concatenate([[0], np.cumsum(counts)])
        for steps, n in ((1, 1), (3, 5), (7, 32), (2, 1000)):
            epoch = SqrtSampler(counts, seed=seed).draw_epoch(steps, n)
            by_draw = SqrtSampler(counts, seed=seed)
            by_hand = SqrtSampler(counts, seed=seed)
            assert epoch.shape == (steps, n) and epoch.dtype == np.int64
            for batch in epoch:
                np.testing.assert_array_equal(batch, by_draw.draw(n))
                classes = by_hand.draw_classes(n)
                within = (by_hand.rng.random(n)
                          * np.asarray(counts)[classes]).astype(np.int64)
                np.testing.assert_array_equal(batch,
                                              offsets[classes] + within)

    def test_draw_epoch_continues_the_stream(self):
        a = SqrtSampler([9, 4, 2], seed=2)
        b = SqrtSampler([9, 4, 2], seed=2)
        got = np.concatenate([a.draw_epoch(3, 4), a.draw_epoch(2, 4)])
        np.testing.assert_array_equal(got, [b.draw(4) for _ in range(5)])


class TestTokenTableSplit:
    def test_runs_of_rows_as_tables(self):
        seqs = [[0, 5, 1], [0, 1], [0, 7, 7, 7, 1], [2], [0, 3, 1]]
        table = token_table(seqs, 77)
        for n in (1, 2, 5, 6):
            parts = table.split(n)
            assert len(parts) == -(-len(seqs) // n)
            got = [s.tolist() for part in parts for s in part.sequences()]
            assert got == seqs
            for part in parts:
                assert part.offsets[0] == 0
                assert part.class_sizes.tolist() == [len(part.lengths)]
                assert part.ids.base is not None


class TestCorpus:
    def test_clean_sentences_contain_class_token(self):
        corpus, noise = gen_corpus(
            C=4, sentences_per_class=10, prompt_count=0, vocab_size=80,
            noise_fraction=0.0, seed=0,
        )
        layout = VocabLayout(4, 0)
        for c in range(4):
            assert noise[c] == set()
            for tokens in class_sentences(corpus, c):
                assert tokens[0] == SOS and tokens[-1] == EOS
                assert layout.class_token(c) in tokens

    def test_prompt_count(self):
        corpus, _ = gen_corpus(
            C=3, sentences_per_class=5, prompt_count=80, vocab_size=256,
            noise_fraction=0.0, seed=0,
        )
        for c in range(3):
            prompts = [tokens for tokens, source in zip(
                class_sentences(corpus, c), class_sources(corpus, c))
                if source == "prompt"]
            assert len(prompts) == 80
            layout = VocabLayout(3, 80)
            for tokens in prompts:
                assert tokens[-2] == layout.class_token(c)

    def test_distractor_fraction_and_content(self):
        C, spc = 5, 20
        corpus, noise = gen_corpus(
            C=C, sentences_per_class=spc, prompt_count=4, vocab_size=96,
            noise_fraction=0.2, seed=0,
        )
        layout = VocabLayout(C, 4)
        for c in range(C):
            assert len(noise[c]) == round(0.2 * spc)
            for sid in noise[c]:
                tokens = class_sentences(corpus, c)[sid]
                assert layout.class_token(c) not in tokens
                donors = [d for d in range(C)
                          if d != c and layout.class_token(d) in tokens]
                assert len(donors) == 1

    def test_deterministic(self):
        a, na = gen_corpus(3, 8, 4, 96, 0.25, seed=2)
        b, nb = gen_corpus(3, 8, 4, 96, 0.25, seed=2)
        assert na == nb
        for c in range(3):
            assert [s.tolist() for s in class_sentences(a, c)] == \
                   [s.tolist() for s in class_sentences(b, c)]

    def test_vocab_too_small(self):
        with pytest.raises(ValidationError) as exc:
            gen_corpus(10, 5, 8, vocab_size=40, noise_fraction=0.0, seed=0)
        assert "vocab_size" in str(exc.value)

    def test_sentence_length_within_budget(self):
        corpus, _ = gen_corpus(4, 15, 6, 96, 0.2, seed=3, max_tokens=12)
        for c in range(4):
            for tokens in class_sentences(corpus, c):
                assert len(tokens) <= 12


class TestCorpusStats:
    def test_small_fixture(self):
        corpus = ClassCorpus(
            vocab_size=10,
            table=token_table([[0, 3, 4, 1], [0, 3, 1], [0, 3, 4, 5, 1]], 8),
            sources=np.array([0, 0, 1], dtype=np.uint8),
        )
        stats = corpus_stats(corpus)
        assert stats["m_min"] == 3 and stats["m_max"] == 3
        assert stats["m_mean"] == 3.0 and stats["m_med"] == 3.0
        assert stats["l_avg"] == pytest.approx(2.0, abs=1e-12)

    def test_min_max_spread(self):
        table = token_table([[0, 2, 1]] + [[0, 3, 1]] * 721, 8, [1, 721])
        stats = corpus_stats(ClassCorpus(
            vocab_size=10, table=table, sources=np.zeros(722, np.uint8)))
        assert stats["m_min"] == 1
        assert stats["m_max"] == 721
        assert stats["m_mean"] == pytest.approx(361.0)
        assert stats["m_med"] == pytest.approx(361.0)

    def test_recount_oracle(self):
        corpus, _ = gen_corpus(4, 9, 5, 96, 0.2, seed=1)
        stats = corpus_stats(corpus)
        counts = [len(class_sentences(corpus, c)) for c in range(4)]
        lengths = [len(s) - 2 for c in range(4)
                   for s in class_sentences(corpus, c)]
        assert stats["m_min"] == min(counts)
        assert stats["m_max"] == max(counts)
        assert stats["m_mean"] == pytest.approx(sum(counts) / 4)
        assert stats["l_avg"] == pytest.approx(sum(lengths) / len(lengths))


class TestSerialization:
    def test_dataset_round_trip(self, tmp_path):
        ds = gen_synthetic(3, [5, 3, 2], d_img=4, noise_sigma=0.2, seed=0,
                           test_per_class=2)
        path = tmp_path / "d.bin"
        save_dataset(path, ds)
        back = load_dataset(path)
        assert back.C == ds.C and back.counts == ds.counts
        np.testing.assert_array_equal(back.X, ds.X.astype(np.float32))
        np.testing.assert_array_equal(back.y, ds.y)
        np.testing.assert_array_equal(back.test_X, ds.test_X.astype(np.float32))
        np.testing.assert_array_equal(back.test_y, ds.test_y)
        assert back.prototypes is None

    def test_dataset_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\0" * 32)
        with pytest.raises(ValidationError):
            load_dataset(path)

    @pytest.mark.parametrize("cut", ["header", "counts", "payload",
                                     "test_header", "one_short"])
    def test_truncated_dataset_is_validation_error(self, tmp_path, cut):
        """Cut inside the header, the class counts, the training images,
        the test header, and one byte short of the end."""
        ds = gen_synthetic(3, [5, 3, 2], d_img=4, noise_sigma=0.2, seed=0,
                           test_per_class=2)
        path = tmp_path / "d.bin"
        save_dataset(path, ds)
        data = path.read_bytes()
        images_end = 16 + 4 * 3 + 10 * 4 * 4
        keep = {"header": 10, "counts": 20, "payload": images_end - 60,
                "test_header": images_end + 2,
                "one_short": len(data) - 1}[cut]
        path.write_bytes(data[:keep])
        with pytest.raises(ValidationError) as exc:
            load_dataset(path)
        assert str(path) in str(exc.value)
        assert "truncated" in str(exc.value)

    def test_corpus_round_trip(self, tmp_path):
        corpus, _ = gen_corpus(3, 6, 4, 96, 0.2, seed=0)
        path = tmp_path / "c.tsv"
        save_corpus(path, corpus)
        back = load_corpus(path, vocab_size=96)
        assert back.C == corpus.C
        for c in range(3):
            assert [s.tolist() for s in class_sentences(back, c)] == \
                   [s.tolist() for s in class_sentences(corpus, c)]
            assert class_sources(back, c) == class_sources(corpus, c)
        for got, want in zip(back.table, corpus.table):
            np.testing.assert_array_equal(got, want)

    def test_corpus_rejects_bad_source(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("0\tblog\t0 5 1\n")
        with pytest.raises(ValidationError):
            load_corpus(path)

    def test_corpus_rejects_gap_in_classes(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("0\tencyclopedia\t0 5 1\n2\tencyclopedia\t0 6 1\n")
        with pytest.raises(ValidationError):
            load_corpus(path)

    @pytest.mark.parametrize("line, message", [
        ("x\tencyclopedia\t0 5 1", "class must be an integer"),
        ("0\tencyclopedia\t0 five 1", "token ids must be integers in"),
    ])
    def test_corpus_rejects_non_integer_field(self, tmp_path, line, message):
        path = tmp_path / "c.tsv"
        path.write_text(f"0\tencyclopedia\t0 5 1\n{line}\n")
        with pytest.raises(ValidationError) as exc:
            load_corpus(path)
        assert f"{path}:2" in str(exc.value)
        assert message in str(exc.value)

    def test_corpus_rejects_negative_class(self, tmp_path):
        """A -1 row in a two-class file is an error, not a dropped row."""
        path = tmp_path / "c.tsv"
        path.write_text("0\tencyclopedia\t0 5 1\n1\tencyclopedia\t0 6 1\n"
                        "-1\tencyclopedia\t0 7 1\n")
        with pytest.raises(ValidationError) as exc:
            load_corpus(path)
        assert f"{path}:3" in str(exc.value)

    @pytest.mark.parametrize("token, vocab_size", [(-3, 96), (-3, 0),
                                                   (500, 96), (96, 96)])
    def test_corpus_rejects_token_outside_vocabulary(self, tmp_path, token,
                                                     vocab_size):
        """A negative id would pool another row of the embedding table,
        and one at or past `vocab_size` would fail in its gather."""
        path = tmp_path / "c.tsv"
        path.write_text(f"0\tencyclopedia\t0 {token} 1\n")
        with pytest.raises(ValidationError) as exc:
            load_corpus(path, vocab_size=vocab_size)
        assert f"{path}:1: token ids must be integers in [0, " \
            in str(exc.value)

    def test_corpus_accepts_last_vocabulary_id(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("0\tencyclopedia\t0 95 1\n")
        assert load_corpus(path, vocab_size=96).vocab_size == 96

    def test_stats_round_trip(self, tmp_path):
        stats = {"m_min": 1, "m_max": 7, "m_mean": 3.5, "m_med": 3.0,
                 "l_avg": 4.25}
        path = tmp_path / "stats.json"
        save_stats(path, stats)
        assert json.loads(path.read_text()) == stats


# ---- the bulk corpus reader against the per-line one -----------------------

ORACLE_VOCAB, ORACLE_MAX_TOKENS = 40, 6


MUTATIONS = ("none", "blank", "crlf", "extra_tab", "missing_tab",
             "separators", "bad_source", "empty_tokens", "over_long",
             "class_gap", "vocab_id", "long_id", "zeros_id",
             "non_ascii_digit", "non_ascii_class")


def _mutate(draw, line: str, kind: str) -> list:
    """`line` (three fields) mutated by `kind`, as the lines it becomes."""
    cls, source, tokens = line.split("\t")
    words = tokens.split(" ")
    k = draw(st.integers(0, len(words) - 1))
    if kind == "blank":
        return ["", line]
    if kind == "crlf":
        return [line + "\r"]
    if kind == "extra_tab":
        at = draw(st.integers(0, len(line)))
        return [line[:at] + "\t" + line[at:]]
    if kind == "missing_tab":
        return [draw(st.sampled_from([cls + source,
                                      f"{cls}\t{source}" + tokens]))]
    if kind == "separators":
        runs = [draw(st.text(" \x0b\x1c", min_size=1, max_size=3))
                for _ in range(len(words) + 1)]
        return [f"{cls}\t{source}\t" + "".join(
            run + word for run, word in zip(runs, words + [""]))]
    if kind == "bad_source":
        return [f"{cls}\t{source[1:]}\t{tokens}"]
    if kind == "empty_tokens":
        return [f"{cls}\t{source}\t" + draw(st.sampled_from(["", " "]))]
    if kind == "over_long":
        return [line + " 1" * (ORACLE_MAX_TOKENS + 1 - len(words))]
    if kind == "class_gap":
        return [f"{int(cls) + draw(st.integers(1, 3))}\t{source}\t{tokens}"]
    words[k] = {"vocab_id": str(ORACLE_VOCAB),
                "long_id": "12345678901234567890",
                "zeros_id": "0" * 20 + words[k],
                "non_ascii_digit": "٣" + words[k]}.get(kind, words[k])
    cls = "٣" + cls if kind == "non_ascii_class" else cls
    return [f"{cls}\t{source}\t{' '.join(words)}"]


@st.composite
def corpus_lines(draw, kind):
    """The lines of a corpus file, in shuffled class order, with one line
    mutated by `kind` and then, where a line still has three fields,
    one line by a drawn kind, so that checks also meet on one line and
    faults on two."""
    lines = []
    for c in range(draw(st.integers(1, 3))):
        for _ in range(draw(st.integers(1, 3))):
            ids = draw(st.lists(st.integers(0, ORACLE_VOCAB - 1), min_size=1,
                                max_size=ORACLE_MAX_TOKENS))
            source = draw(st.sampled_from(SOURCES))
            lines.append(f"{c}\t{source}\t{' '.join(map(str, ids))}")
    lines = draw(st.permutations(lines))
    for kind in (kind, draw(st.sampled_from(MUTATIONS))):
        whole = [i for i, line in enumerate(lines) if line.count("\t") == 2]
        if whole:
            i = draw(st.sampled_from(whole))
            lines[i:i + 1] = _mutate(draw, lines[i], kind)
    return lines


def _read(load, path, vocab_size):
    """The loader's (table fields, sources, vocab size), or its message."""
    try:
        got = load(path, vocab_size, ORACLE_MAX_TOKENS)
    except ValidationError as exc:
        return str(exc)
    if isinstance(got, ClassCorpus):
        got = got.table, got.sources, got.vocab_size
    table, sources, vocab = got
    return [a.tolist() if isinstance(a, np.ndarray) else a
            for a in (*table, sources, vocab)]


@pytest.mark.parametrize("kind", MUTATIONS)
@settings(max_examples=12, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), vocab_size=st.sampled_from([0, ORACLE_VOCAB]),
       end=st.sampled_from(["\n", ""]))
def test_bulk_reader_matches_the_per_line_reader(tmp_path, kind, data,
                                                 vocab_size, end):
    """The same table, sources and vocabulary, or the same message, on
    generated files with lines mutated: a blank line, a CR LF end, an
    extra or missing tab, runs of space, VT or FS between ids, an unknown
    source, an empty token field, a sentence over max_tokens, a gap in
    the class numbers, an id equal to vocab_size, a 20-digit id, leading
    zeros. A non-ASCII digit, which int() takes, is rejected exactly as a
    letter in its place is."""
    lines = data.draw(corpus_lines(kind))
    path = tmp_path / "c.tsv"
    path.write_bytes(("\n".join(lines) + end).encode("utf-8"))
    got = _read(load_corpus, path, vocab_size)
    if "٣" in "".join(lines):
        path.write_bytes(path.read_bytes().replace("٣".encode(), b"x"))
        assert isinstance(got, str)
        got = got.replace("٣", "x")
        assert got == _read(load_corpus, path, vocab_size)
    assert got == _read(oracle.load_corpus_per_line, path, vocab_size)


class TestCorpusGrammar:
    def test_first_bad_line_wins_over_an_undecodable_one(self, tmp_path):
        """A bad line before an undecodable byte is the one reported, and
        the undecodable byte alone names its line."""
        path = tmp_path / "c.tsv"
        good = b"0\tprompt\t0 5 1\n"
        path.write_bytes(good + b"0\tprompt\t\n" + good + b"0\tpr\xffompt\t1\n")
        with pytest.raises(ValidationError, match=f"{path}:2: empty sentence"):
            load_corpus(path)
        path.write_bytes(good * 3 + b"0\tprompt\t0 5\xff 1\n")
        with pytest.raises(ValidationError) as exc:
            load_corpus(path)
        assert str(exc.value) == (
            f"{path}:4: token ids must be integers in [0, {2 ** 63}), "
            "got '0 5\\\\xff 1'")

    def test_longest_int64_id_without_a_vocabulary(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text(f"0\tprompt\t0 {2 ** 63 - 1}\n")
        assert load_corpus(path).vocab_size == 2 ** 63
        path.write_text(f"0\tprompt\t0 {2 ** 63}\n")
        with pytest.raises(ValidationError, match="token ids must be"):
            load_corpus(path)

    def test_over_long_sentence_names_its_line(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("0\tprompt\t0 5 1\n0\tprompt\t0 5 6 1\n")
        with pytest.raises(ValidationError) as exc:
            load_corpus(path, max_tokens=3)
        assert str(exc.value) == \
            f"{path}:2: sentence has 4 tokens, limit is 3"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("\n\n")
        with pytest.raises(ValidationError, match="no sentences"):
            load_corpus(path, vocab_size=96)
