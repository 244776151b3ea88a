"""Tests for probe batches, sentence scoring, and anchor selection."""

import dataclasses
import hashlib

import numpy as np
import pytest

from composite_oracles import class_sentences, class_sources
from vlltr.anchors import (
    ProbePool,
    _score_columns,
    build_probe,
    build_probe_pool,
    load_anchors,
    save_anchors,
    select_anchors,
)
from vlltr.checkpoint import sections
from vlltr.data import gen_corpus, gen_synthetic
from vlltr.encoders import CvlpModel
from vlltr.errors import ValidationError


def tiny_world(seed=0, C=3, n_per_class=8, spc=5, prompts=2):
    ds = gen_synthetic(C, [n_per_class] * C, d_img=6, noise_sigma=0.2,
                       seed=seed, test_per_class=2)
    corpus, noise = gen_corpus(C, spc, prompts, vocab_size=64,
                               noise_fraction=0.2, seed=seed)
    model = CvlpModel(6, 6, 64, seed=seed)
    return ds, corpus, noise, model


class TestProbe:
    def test_small_class_keeps_everything(self):
        ds = gen_synthetic(2, [5, 120], d_img=4, noise_sigma=0.1, seed=0,
                           test_per_class=2)
        probe = build_probe(ds, 0, cap=50)
        assert probe.shape == (5, 4)
        rows = {tuple(r) for r in np.asarray(probe, dtype=np.float32).tolist()}
        expect = {tuple(r) for r in ds.X[ds.class_slice(0)].tolist()}
        assert rows == expect

    def test_cap_applied(self):
        ds = gen_synthetic(2, [5, 120], d_img=4, noise_sigma=0.1, seed=0,
                           test_per_class=2)
        assert build_probe(ds, 1, cap=50).shape == (50, 4)

    def test_deterministic(self):
        ds = gen_synthetic(2, [30, 30], d_img=4, noise_sigma=0.1, seed=1,
                           test_per_class=2)
        np.testing.assert_array_equal(build_probe(ds, 0, cap=10, seed=3),
                                      build_probe(ds, 0, cap=10, seed=3))

    def test_pool_rows_normalized(self):
        ds, _, _, model = tiny_world()
        pool = build_probe_pool(ds, model, cap=4)
        np.testing.assert_allclose(
            np.linalg.norm(pool.embeddings, axis=1), 1.0, atol=1e-12)
        assert pool.class_slices[0] == slice(0, 4)


class TestScoring:
    def test_perfectly_aligned_text_scores_near_zero(self):
        # one probe image per class; text embedding equal to its class's
        # probe direction with a cold temperature drives -log p to ~0
        emb = np.eye(3)
        pool = ProbePool(embeddings=emb,
                         class_slices=[slice(0, 1), slice(1, 2), slice(2, 3)],
                         tau=0.01)
        score = _score_columns(pool, 1, np.array([[0.0, 1.0, 0.0]]))
        assert score[0] < 1e-10

    def test_opposed_text_scores_high(self):
        emb = np.eye(2)
        pool = ProbePool(embeddings=emb,
                         class_slices=[slice(0, 1), slice(1, 2)], tau=0.01)
        score = _score_columns(pool, 0, np.array([[0.0, 1.0]]))
        assert score[0] > 10.0

    def test_distractors_score_worse_after_training(self, mini_run, mini_model,
                                                    mini_data, mini_cfg):
        from vlltr.data import gen_corpus as regen

        dataset, corpus = mini_data
        _, noise = regen(mini_cfg.classes, mini_cfg.sentences_per_class,
                         mini_cfg.prompt_count, mini_cfg.vocab_size,
                         mini_cfg.noise_fraction, mini_cfg.seed,
                         max_tokens=mini_cfg.max_tokens)
        pool = build_probe_pool(dataset, mini_model, cap=mini_cfg.probe_cap,
                                seed=mini_cfg.seed)
        clean_scores, noise_scores = [], []
        for c in range(corpus.C):
            emb = mini_model.lin(class_sentences(corpus, c)).data
            scores = _score_columns(pool, c, emb)
            for sid, (source, score) in enumerate(
                    zip(class_sources(corpus, c), scores)):
                if source != "encyclopedia":
                    continue
                (noise_scores if sid in noise[c] else clean_scores).append(score)
        assert np.mean(noise_scores) > np.mean(clean_scores)


class TestSelection:
    def test_exhaustive_oracle(self):
        # independent softmax/sort logic over the same batched embeddings
        # (a per-sentence embedding pass can differ in the last float bit
        # and flip ties between duplicate prompt sentences)
        ds, corpus, _, model = tiny_world(seed=2)
        anchors = select_anchors(corpus, ds, model, M=3, cap=5)
        pool = build_probe_pool(ds, model, cap=5)
        for c in range(corpus.C):
            sentences = class_sentences(corpus, c)
            emb = model.lin(sentences).data
            emb = emb / np.linalg.norm(emb, axis=1, keepdims=True)
            logits = (pool.embeddings @ emb.T) / pool.tau
            logits -= logits.max(axis=0, keepdims=True)
            log_p = logits - np.log(np.exp(logits).sum(axis=0, keepdims=True))
            scores = -log_p[pool.class_slices[c]].mean(axis=0)
            scored = sorted((scores[i], i) for i in range(len(sentences)))
            expect = [sid for _, sid in scored[:3]]
            assert anchors.ids(c) == expect
            worst_kept = scored[2][0]
            for score, sid in scored[3:]:
                assert score >= worst_kept - 1e-12

    def test_modes_agree_when_class_exactly_m(self):
        ds, corpus, _, model = tiny_world(spc=4, prompts=0)
        n = len(class_sentences(corpus, 0))
        a = select_anchors(corpus, ds, model, M=n, mode="AnSS", cap=5)
        b = select_anchors(corpus, ds, model, M=n, mode="CutOff", cap=5)
        for c in range(corpus.C):
            assert sorted(a.ids(c)) == sorted(b.ids(c)) == list(range(n))

    def test_cutoff_is_corpus_order(self):
        ds, corpus, _, model = tiny_world()
        anchors = select_anchors(corpus, ds, model, M=4, mode="CutOff", cap=5)
        for c in range(corpus.C):
            assert anchors.ids(c) == [0, 1, 2, 3]

    def test_validation_errors(self):
        """A corpus file may hold fewer sentences for a class than the
        config promises; selection names the class instead of repeating
        sentences to make up M."""
        ds, corpus, _, model = tiny_world(spc=3, prompts=0)
        with pytest.raises(ValidationError,
                           match="class 0 has 3 sentences, fewer than M=4"):
            select_anchors(corpus, ds, model, M=4, cap=5)

    def test_anss_invariant_to_corpus_order(self):
        ds, corpus, _, model = tiny_world(seed=4)
        base = select_anchors(corpus, ds, model, M=3, cap=5)
        # permute sentence storage order; ids are reassigned positionally,
        # so compare the selected token multisets instead of ids
        rng = np.random.default_rng(0)
        table = corpus.table
        rows = np.concatenate([rng.permutation(table.class_rows(c))
                               for c in range(3)])
        shuffled = dataclasses.replace(
            corpus, sources=corpus.sources[rows],
            table=table.take(rows)._replace(class_starts=table.class_starts,
                                            class_sizes=table.class_sizes))
        perm = select_anchors(shuffled, ds, model, M=3, cap=5)
        for c in range(3):
            base_tokens = sorted(tuple(class_sentences(corpus, c)[sid])
                                 for sid in base.ids(c))
            perm_tokens = sorted(tuple(class_sentences(shuffled, c)[sid])
                                 for sid in perm.ids(c))
            assert base_tokens == perm_tokens

    def test_selection_is_training_free(self):
        ds, corpus, _, model = tiny_world()
        def digest():
            return hashlib.sha256(b"".join(
                v.tobytes()
                for v in sections(model.params()).values())).hexdigest()

        before = digest()
        select_anchors(corpus, ds, model, M=3, cap=5)
        assert digest() == before

    def test_deterministic_scores(self):
        ds, corpus, _, model = tiny_world(seed=5)
        a = select_anchors(corpus, ds, model, M=3, cap=5)
        b = select_anchors(corpus, ds, model, M=3, cap=5)
        assert a.entries == b.entries


class TestAnchorFiles:
    def test_round_trip(self, tmp_path):
        ds, corpus, _, model = tiny_world(seed=7)
        anchors = select_anchors(corpus, ds, model, M=3, cap=5)
        path = tmp_path / "anchors.tsv"
        save_anchors(path, anchors)
        assert path.read_text().splitlines()[0] == "# mode=AnSS\tM=3"
        back = load_anchors(path)
        assert back.mode == anchors.mode
        assert back.M == anchors.M
        assert back.entries == anchors.entries  # repr round-trip is exact

    def test_header_required(self, tmp_path):
        path = tmp_path / "anchors.tsv"
        path.write_text("0\t0\t0\t1.0\n")
        with pytest.raises(ValidationError):
            load_anchors(path)

    def test_row_count_must_match_m(self, tmp_path):
        path = tmp_path / "anchors.tsv"
        path.write_text("# mode=AnSS\tM=2\n0\t0\t0\t1.0\n")
        with pytest.raises(ValidationError):
            load_anchors(path)

    @pytest.mark.parametrize("text,line", [
        ("# mode=AnSS\tM=1\n0\t0\t0\n", 2),
        ("# mode=AnSS\tM=2\n0\t0\t0\t1.0\n0\t1\tx\t1.0\n",
         3),
        ("# mode=AnSS\tM=1\n0\t0\t0\tnan?\n", 2),
        ("# mode=AnSS\n0\t0\t0\t1.0\n", 1),
        ("# M=1\n0\t0\t0\t1.0\n", 1),
        ("# mode=AnSS\tM=one\n0\t0\t0\t1.0\n", 1),
        ("# mode=AnSS\tM=1\n0\t0\t3\t0.5\n-1\t0\t4\t0.2\n",
         3),
        ("# mode=AnSS\tM=1\n0\t0\t3\t0.5\n1\tx\t4\t0.2\n",
         3),
        ("# mode=AnSS\tM=1\n0\t7\t3\t0.5\n1\t-4\t4\t0.2\n",
         2),
    ], ids=["short-row", "bad-id", "bad-score", "no-M", "no-mode",
            "bad-M", "negative-class", "bad-rank", "rank-not-position"])
    def test_malformed_file_names_path_and_line(self, tmp_path, text, line):
        path = tmp_path / "anchors.tsv"
        path.write_text(text)
        with pytest.raises(ValidationError, match=f"anchors.tsv:{line}:"):
            load_anchors(path)
