"""Tests for the visual/linguistic encoders, the paired model, and checkpoints."""

import numpy as np
import pytest

from vlltr.anchors import AnchorSet, save_anchors
from vlltr.checkpoint import atomic_write, read_checkpoint, write_checkpoint
from vlltr.data import (ClassCorpus, LongTailDataset, save_corpus,
                        save_dataset, save_stats, token_table)
from vlltr.encoders import (
    TAU_MAX,
    TAU_MIN,
    CvlpModel,
    LinguisticEncoder,
    TeacherPair,
    VisualEncoder,
)
from vlltr.errors import ShapeMismatch, ValidationError
from vlltr.gradcheck import gradcheck
from vlltr.head import save_anchor_embeddings
from vlltr.pretrain import save_trace
from vlltr.tensor import Tensor, cosine_sim_matrix


def tiny_model(seed=0, d_img=4, D=4, vocab=12):
    return CvlpModel(d_img, D, vocab, seed=seed)


class TestVisualEncoder:
    def test_zero_weights_give_zero_embeddings(self):
        enc = VisualEncoder(3, 4, np.random.default_rng(0))
        for p in enc.params().values():
            p.data[...] = 0.0
        out = enc(np.ones((2, 3)))
        np.testing.assert_array_equal(out.data, np.zeros((2, 4)))
        with pytest.raises(ValidationError):
            cosine_sim_matrix(out, Tensor(np.ones((1, 4))))

    def test_batch_independence(self):
        enc = VisualEncoder(5, 4, np.random.default_rng(1))
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 5))
        full = enc(x).data
        solo = enc(x[1:2]).data
        np.testing.assert_allclose(full[1:2], solo, atol=1e-12)

    def test_input_shape_error(self):
        enc = VisualEncoder(5, 4, np.random.default_rng(1))
        with pytest.raises(ShapeMismatch):
            enc(np.zeros((2, 3)))


class TestLinguisticEncoder:
    def test_single_token_is_projected_embedding(self):
        enc = LinguisticEncoder(8, 4, np.random.default_rng(0))
        out = enc([[5]]).data
        expect = enc.tok.data[5] @ enc.proj_w.data + enc.proj_b.data
        np.testing.assert_allclose(out[0], expect, atol=1e-12)

    def test_mean_pool_order_invariance(self):
        enc = LinguisticEncoder(10, 4, np.random.default_rng(1))
        a = enc([[0, 3, 7, 1]]).data
        b = enc([[1, 7, 0, 3]]).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_variable_lengths_batch_match_singles(self):
        enc = LinguisticEncoder(10, 4, np.random.default_rng(2))
        seqs = [[0, 2, 1], [0, 3, 4, 5, 1], [7]]
        batch = enc(seqs).data
        for i, seq in enumerate(seqs):
            np.testing.assert_allclose(batch[i], enc([seq]).data[0], atol=1e-12)

    def test_rejects_empty_sequence(self):
        enc = LinguisticEncoder(10, 4, np.random.default_rng(3))
        with pytest.raises(ValidationError):
            enc([[]])

    def test_rejects_overlength_sequence(self):
        enc = LinguisticEncoder(10, 4, np.random.default_rng(3), max_tokens=4)
        with pytest.raises(ValidationError):
            enc([[0, 2, 3, 4, 1]])


class TestPairGradients:
    def test_gradcheck_through_both_encoders(self):
        from vlltr.pretrain import ccl_loss

        rng = np.random.default_rng(4)
        d_img, D, vocab = 3, 3, 6
        x = rng.normal(size=(2, d_img))
        seqs = [[0, 2, 1], [0, 4, 5, 1]]
        labels = np.array([0, 1])
        init = CvlpModel(d_img, D, vocab, seed=0)
        names = list(init.params())
        arrays = [init.params()[n].data.copy() for n in names]

        def f(*tensors):
            model = CvlpModel(d_img, D, vocab, seed=0)
            for n, t in zip(names, tensors):
                holder = model.params()[n]
                parts = n.split(".")
                target = model if len(parts) == 1 else getattr(model, parts[0])
                setattr(target, parts[-1], t)
                assert holder is not t
            s = model.similarity(x, seqs)
            return ccl_loss(s, labels, model.params()["tau"])[2]

        report = gradcheck(f, arrays, tol=1e-4)
        assert report.passed, str(report)


class TestTeacherPair:
    @pytest.mark.parametrize("shapes", ["tiny", "reference"])
    def test_unit_embeddings_give_the_similarity(self, shapes):
        """Rows of the once-embedded teacher table multiply to exactly the
        matrix `similarity` computes batch by batch."""
        from vlltr.data import (SqrtSampler, gen_corpus, gen_pareto_counts,
                                gen_synthetic)
        from vlltr.pretrain import sample_paired_batch

        if shapes == "tiny":
            C, d_img, D, vocab, per_class, prompts, batch = 4, 6, 6, 64, 6, 4, 7
            counts = [12, 9, 5, 3]
        else:   # the default RunConfig
            C, d_img, D, vocab, per_class, prompts, batch = (
                20, 16, 16, 384, 100, 80, 32)
            counts = gen_pareto_counts(C, 500, 5)
        ds = gen_synthetic(C, counts, d_img, noise_sigma=0.25, seed=2,
                           test_per_class=1)
        corpus, _ = gen_corpus(C, per_class, prompts, vocab_size=vocab,
                               noise_fraction=0.2, seed=2)
        teacher = TeacherPair(CvlpModel(d_img, D, vocab, seed=11))
        table = corpus.token_table()
        img, txt = teacher.unit_embeddings(ds.X.astype(np.float64), table)
        sampler, rng = SqrtSampler(ds.counts, seed=2), np.random.default_rng(3)
        for _ in range(20):
            b = sample_paired_batch(ds, table, sampler, rng, batch)
            np.testing.assert_array_equal(
                img[b.idx] @ txt[b.rows].T,
                teacher.similarity(b.images, b.sequences))

    @pytest.mark.parametrize("n", [2, 255, 256, 257, 512, 513, 600])
    def test_unit_embeddings_match_one_pass(self, n):
        """Embedding TEXT_CHUNK sentences at a time gives the rows of one
        pass over all of them, including the one-row remainders of 257
        and 513 sentences, which the last chunk takes over."""
        from vlltr.data import gen_corpus
        from vlltr.encoders import TEXT_CHUNK
        from vlltr.tensor import unit_rows

        assert TEXT_CHUNK == 256
        corpus, _ = gen_corpus(4, 6, 4, vocab_size=64, noise_fraction=0.0,
                               seed=1)
        pool = corpus.token_table().sequences()
        sentences = [pool[i % len(pool)] for i in range(n)]
        teacher = TeacherPair(CvlpModel(6, 6, 64, seed=4))
        images = np.random.default_rng(0).normal(size=(5, 6))
        _, got = teacher.unit_embeddings(images, sentences)
        want, _ = unit_rows(teacher._model.lin(sentences).data, "sentences")
        np.testing.assert_array_equal(got, want)

    def test_snapshot_matches_student(self, tmp_path):
        model = tiny_model(seed=3)
        path = tmp_path / "t.ck"
        write_checkpoint(path, model.state())
        teacher = TeacherPair(CvlpModel.from_checkpoint(path, 4, 4, 12))
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 4))
        seqs = [[0, 2, 1], [0, 5, 1], [0, 9, 4, 1]]
        np.testing.assert_array_equal(
            teacher.similarity(x, seqs), model.similarity(x, seqs).data
        )
        assert teacher.tau == float(model.tau.data)

    def test_teacher_is_frozen(self, tmp_path):
        model = tiny_model(seed=3)
        path = tmp_path / "t.ck"
        write_checkpoint(path, model.state())
        teacher = TeacherPair(CvlpModel.from_checkpoint(path, 4, 4, 12))
        for p in teacher._model.params().values():
            assert not p.requires_grad

    def test_no_gradient_flows_into_teacher(self, tmp_path):
        from vlltr.pretrain import pretrain_loss

        model = tiny_model(seed=3)
        path = tmp_path / "t.ck"
        write_checkpoint(path, model.state())
        teacher = TeacherPair(CvlpModel.from_checkpoint(path, 4, 4, 12))
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 4))
        seqs = [[0, 2, 1], [0, 5, 1]]
        s = model.similarity(x, seqs)
        s_t = teacher.similarity(x, seqs)
        loss, _, _ = pretrain_loss(s, s_t, np.array([0, 1]),
                                   model.tau, teacher.tau, lam=0.5)
        loss.backward()
        for p in teacher._model.params().values():
            assert p.grad is None
        assert model.tau.grad is not None


class TestTauClamp:
    def test_clamp_bounds(self):
        model = tiny_model()
        model.tau.data = np.array(5.0)
        model.clamp_tau()
        assert float(model.tau.data) == TAU_MAX
        model.tau.data = np.array(1e-6)
        model.clamp_tau()
        assert float(model.tau.data) == TAU_MIN

    @pytest.mark.parametrize("value,want", [(5.0, TAU_MAX), (0.0, TAU_MIN),
                                            (0.3, 0.3), (TAU_MIN, TAU_MIN)])
    def test_clamps_in_place(self, value, want):
        model = tiny_model()
        view = model.tau.data
        view[...] = value
        model.clamp_tau()
        assert model.tau.data is view and float(view) == want

    def test_nan_stays_nan(self):
        model = tiny_model()
        model.tau.data = np.array(np.nan)
        model.clamp_tau()
        assert np.isnan(model.tau.data)


class Poison:
    """Raises wherever a writer reads it: as an array, by attribute,
    when iterated or when encoded."""

    def __array__(self, *args, **kwargs):
        raise RuntimeError("poisoned payload")

    def __getattr__(self, name):
        raise RuntimeError("poisoned payload")

    def __iter__(self):
        raise RuntimeError("poisoned payload")


def _corpus_with_poison():
    """The second row's source code raises when the writer reads it."""
    return ClassCorpus(vocab_size=8,
                       table=token_table([[0, 5, 1], [0, 6, 1]], 77, [1, 1]),
                       sources=[1, Poison()])


# each writer with a payload that raises after some bytes are written
POISONED_WRITES = {
    "write_checkpoint": lambda p: write_checkpoint(
        p, {"a": np.ones(3), "b": Poison()}),
    "save_dataset": lambda p: save_dataset(p, LongTailDataset(
        C=1, d_img=2, counts=[1], X=np.ones((1, 2), np.float32),
        y=np.zeros(1, np.int64), test_X=Poison(), test_y=np.zeros(1))),
    "save_corpus": lambda p: save_corpus(p, _corpus_with_poison()),
    "save_stats": lambda p: save_stats(p, {"a": 1, "b": Poison()}),
    "save_trace": lambda p: save_trace(p, [(0, 0, 1.0, 0.0, 1.0, 0.1),
                                           Poison()]),
    "save_anchors": lambda p: save_anchors(p, AnchorSet(
        "AnSS", 1, [[(0, 0.5)], Poison()], b"\1" * 32)),
    "save_anchor_embeddings": lambda p: save_anchor_embeddings(
        p, type("Block", (Poison,), {"shape": (1, 1, 2)})(), b"\1" * 32),
}


class TestAtomicWrites:
    @pytest.mark.parametrize("writer", sorted(POISONED_WRITES))
    def test_failed_write_keeps_the_old_file(self, tmp_path, writer):
        path = tmp_path / "artifact"
        path.write_bytes(b"previous bytes")
        with pytest.raises((RuntimeError, TypeError), match="[Pp]oison"):
            POISONED_WRITES[writer](path)
        assert path.read_bytes() == b"previous bytes"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact"]

    def test_helper_replaces_only_on_success(self, tmp_path):
        path = tmp_path / "out.txt"
        with atomic_write(path) as f:
            f.write("first\n")
        with pytest.raises(KeyError):
            with atomic_write(path) as f:
                f.write("half")
                f.flush()
                raise KeyError("stop")
        assert path.read_text() == "first\n"
        with atomic_write(path, binary=True) as f:
            f.write(b"\0second")
        assert path.read_bytes() == b"\0second"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_missing_directory_leaves_nothing(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            with atomic_write(tmp_path / "absent" / "out.txt") as f:
                f.write("x")
        assert list(tmp_path.iterdir()) == []


class TestCheckpointing:
    def test_state_round_trip(self, tmp_path):
        model = tiny_model(seed=9)
        path = tmp_path / "m.ck"
        write_checkpoint(path, model.state())
        other = tiny_model(seed=1)
        other.load_state(read_checkpoint(path))
        for k, v in model.state().items():
            np.testing.assert_array_equal(other.params()[k].data, v)

    def test_missing_section(self):
        model = tiny_model()
        state = model.state()
        del state["vis.w1"]
        with pytest.raises(ValidationError) as exc:
            model.load_state(state)
        assert "vis.w1" in str(exc.value)

    def test_shape_mismatch(self):
        model = tiny_model()
        state = model.state()
        state["vis.w1"] = np.zeros((1, 1))
        with pytest.raises((ValidationError, ShapeMismatch)):
            model.load_state(state)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ck"
        path.write_bytes(b"XXXX" + b"\0" * 16)
        with pytest.raises(ValidationError):
            read_checkpoint(path)

    @pytest.mark.parametrize("keep", [6, 14, 20, 60, -1])
    @pytest.mark.parametrize("skip", [False, True])
    def test_truncated_checkpoint_is_validation_error(self, tmp_path, keep,
                                                      skip):
        """Cut inside the header, the first section's name length, its
        rank and its payload, and one byte short of the end, in a last
        section that is read or skipped."""
        path = tmp_path / "m.ck"
        write_checkpoint(path, {"w": np.ones((2, 3)), "b": np.ones(4)})
        path.write_bytes(path.read_bytes()[:keep])
        names = (lambda n: n != "b") if skip else None
        with pytest.raises(ValidationError) as exc:
            read_checkpoint(path, names=names)
        assert str(path) in str(exc.value)
        assert "truncated" in str(exc.value)

    def test_section_filter_skips_names(self, tmp_path):
        path = tmp_path / "m.ck"
        write_checkpoint(path, {"keep": np.ones(2), "__meta": np.zeros(1)})
        sections = read_checkpoint(path, names=lambda n: not n.startswith("__"))
        assert set(sections) == {"keep"}
