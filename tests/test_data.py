"""Tests for synthetic data generation, shot bands, sampling, and the corpus."""

import json

import numpy as np
import pytest

from vlltr.data import (
    ATTR_POOL,
    ATTRS_PER_CLASS,
    ClassCorpus,
    Sentence,
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


class TestCorpus:
    def test_clean_sentences_contain_class_token(self):
        corpus, noise = gen_corpus(
            C=4, sentences_per_class=10, prompt_count=0, vocab_size=80,
            noise_fraction=0.0, seed=0,
        )
        layout = VocabLayout(4, 0)
        for c in range(4):
            assert noise[c] == set()
            for s in corpus.for_class(c):
                assert s.tokens[0] == SOS and s.tokens[-1] == EOS
                assert layout.class_token(c) in s.tokens

    def test_prompt_count(self):
        corpus, _ = gen_corpus(
            C=3, sentences_per_class=5, prompt_count=80, vocab_size=256,
            noise_fraction=0.0, seed=0,
        )
        for c in range(3):
            prompts = [s for s in corpus.for_class(c) if s.source == "prompt"]
            assert len(prompts) == 80
            layout = VocabLayout(3, 80)
            for s in prompts:
                assert s.tokens[-2] == layout.class_token(c)

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
                tokens = corpus.for_class(c)[sid].tokens
                assert layout.class_token(c) not in tokens
                donors = [d for d in range(C)
                          if d != c and layout.class_token(d) in tokens]
                assert len(donors) == 1

    def test_deterministic(self):
        a, na = gen_corpus(3, 8, 4, 96, 0.25, seed=2)
        b, nb = gen_corpus(3, 8, 4, 96, 0.25, seed=2)
        assert na == nb
        for c in range(3):
            assert [s.tokens.tolist() for s in a.for_class(c)] == \
                   [s.tokens.tolist() for s in b.for_class(c)]

    def test_vocab_too_small(self):
        with pytest.raises(ValidationError) as exc:
            gen_corpus(10, 5, 8, vocab_size=40, noise_fraction=0.0, seed=0)
        assert "vocab_size" in str(exc.value)

    def test_sentence_length_within_budget(self):
        corpus, _ = gen_corpus(4, 15, 6, 96, 0.2, seed=3, max_tokens=12)
        for c in range(4):
            for s in corpus.for_class(c):
                assert len(s.tokens) <= 12


class TestCorpusStats:
    def test_small_fixture(self):
        corpus = ClassCorpus(
            C=1, vocab_size=10, max_tokens=8,
            sentences=[[
                Sentence(0, [0, 3, 4, 1], "encyclopedia"),
                Sentence(1, [0, 3, 1], "encyclopedia"),
                Sentence(2, [0, 3, 4, 5, 1], "prompt"),
            ]],
        )
        stats = corpus_stats(corpus)
        assert stats["m_min"] == 3 and stats["m_max"] == 3
        assert stats["m_mean"] == 3.0 and stats["m_med"] == 3.0
        assert stats["l_avg"] == pytest.approx(2.0, abs=1e-12)

    def test_min_max_spread(self):
        sentences = [
            [Sentence(0, [0, 2, 1], "encyclopedia")],
            [Sentence(i, [0, 3, 1], "encyclopedia") for i in range(721)],
        ]
        stats = corpus_stats(ClassCorpus(C=2, vocab_size=10, max_tokens=8,
                                         sentences=sentences))
        assert stats["m_min"] == 1
        assert stats["m_max"] == 721
        assert stats["m_mean"] == pytest.approx(361.0)
        assert stats["m_med"] == pytest.approx(361.0)

    def test_recount_oracle(self):
        corpus, _ = gen_corpus(4, 9, 5, 96, 0.2, seed=1)
        stats = corpus_stats(corpus)
        counts = [len(corpus.for_class(c)) for c in range(4)]
        lengths = [len(s.tokens) - 2 for c in range(4) for s in corpus.for_class(c)]
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

    def test_corpus_round_trip(self, tmp_path):
        corpus, _ = gen_corpus(3, 6, 4, 96, 0.2, seed=0)
        path = tmp_path / "c.tsv"
        save_corpus(path, corpus)
        back = load_corpus(path, vocab_size=96)
        assert back.C == corpus.C
        for c in range(3):
            orig = corpus.for_class(c)
            got = back.for_class(c)
            assert [s.id for s in got] == [s.id for s in orig]
            assert [s.tokens.tolist() for s in got] == \
                   [s.tokens.tolist() for s in orig]
            assert [s.source for s in got] == [s.source for s in orig]

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

    def test_stats_round_trip(self, tmp_path):
        stats = {"m_min": 1, "m_max": 7, "m_mean": 3.5, "m_med": 3.0,
                 "l_avg": 4.25}
        path = tmp_path / "stats.json"
        save_stats(path, stats)
        assert json.loads(path.read_text()) == stats
