"""Tests for the visual/linguistic encoders, the paired model, checkpoints,
and the header check of every binary artifact."""

import struct

import numpy as np
import pytest

from tape import Tensor, cosine_sim_matrix
from vlltr.anchors import AnchorSet, save_anchors
from vlltr.checkpoint import (CHECKPOINT_VERSION, atomic_write, load_params,
                              read_checkpoint, sections, write_checkpoint)
from vlltr.data import (DATASET_VERSION, ClassCorpus, LongTailDataset,
                        gen_synthetic, load_dataset, save_corpus,
                        save_dataset, save_stats, token_table)
from vlltr.encoders import (
    TAU_MAX,
    TAU_MIN,
    CvlpModel,
    LinguisticEncoder,
    TeacherPair,
    VisualEncoder,
    clamp_tau,
)
from vlltr.errors import ShapeMismatch, ValidationError
from vlltr.gradcheck import check_gradients
from vlltr.head import (CACHE_VERSION, load_anchor_embeddings,
                        save_anchor_embeddings)
from vlltr.optim import AdamW
from vlltr.pretrain import pretrain_step, save_trace


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
        out = enc([[5]])
        expect = enc.tok.data[5] @ enc.proj_w.data + enc.proj_b.data
        np.testing.assert_allclose(out[0], expect, atol=1e-12)

    def test_mean_pool_order_invariance(self):
        enc = LinguisticEncoder(10, 4, np.random.default_rng(1))
        a = enc([[0, 3, 7, 1]])
        b = enc([[1, 7, 0, 3]])
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_variable_lengths_batch_match_singles(self):
        enc = LinguisticEncoder(10, 4, np.random.default_rng(2))
        seqs = [[0, 2, 1], [0, 3, 4, 5, 1], [7]]
        batch = enc(seqs)
        for i, seq in enumerate(seqs):
            np.testing.assert_allclose(batch[i], enc([seq])[0], atol=1e-12)

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
        """L_ccl, the pre-training step at lam 1, through both encoders
        and the temperature."""
        rng = np.random.default_rng(4)
        d_img, D, vocab = 3, 3, 6
        x = rng.normal(size=(2, d_img))
        seqs = [[0, 2, 1], [0, 4, 5, 1]]
        labels = np.array([0, 1])
        model = CvlpModel(d_img, D, vocab, seed=0)

        def loss():
            return pretrain_step(model, x, seqs, labels, None, 1.0, 1.0)[0]

        loss()
        params = list(model.params().values())
        report = check_gradients(loss, [p.data for p in params],
                                 [p.grad.copy() for p in params])
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
        table = corpus.table
        img, txt = teacher.unit_embeddings(ds.X.astype(np.float64), table)
        sampler, rng = SqrtSampler(ds.counts, seed=2), np.random.default_rng(3)
        for _ in range(20):
            b = sample_paired_batch(ds, table, sampler, rng, batch)
            np.testing.assert_array_equal(
                img[b.idx] @ txt[b.rows].T,
                teacher.similarity(b.images, b.bags.sequences()))

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
        pool = corpus.table.sequences()
        sentences = [pool[i % len(pool)] for i in range(n)]
        teacher = TeacherPair(CvlpModel(6, 6, 64, seed=4))
        images = np.random.default_rng(0).normal(size=(5, 6))
        _, got = teacher.unit_embeddings(images, token_table(sentences, 77))
        want, _ = unit_rows(teacher._model.lin(sentences), "sentences")
        np.testing.assert_array_equal(got, want)

    def test_snapshot_matches_student(self, tmp_path):
        model = tiny_model(seed=3)
        path = tmp_path / "t.ck"
        write_checkpoint(path, sections(model.params()))
        teacher = TeacherPair(CvlpModel.from_checkpoint(path, 4, 4, 12))
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 4))
        seqs = [[0, 2, 1], [0, 5, 1], [0, 9, 4, 1]]
        np.testing.assert_array_equal(
            teacher.similarity(x, seqs), model.similarity(x, seqs)
        )
        assert teacher.tau == float(model.tau.data)

    def test_teacher_is_frozen(self, tmp_path):
        model = tiny_model(seed=3)
        path = tmp_path / "t.ck"
        write_checkpoint(path, sections(model.params()))
        teacher = TeacherPair(CvlpModel.from_checkpoint(path, 4, 4, 12))
        x = np.random.default_rng(5).normal(size=(3, 4))
        teacher.unit_embeddings(x, token_table([[0, 2, 1], [0, 5, 1]], 77))
        for name, p in teacher._model.params().items():
            np.testing.assert_array_equal(p.data, model.params()[name].data)
            assert p.grad is None

    def test_no_gradient_flows_into_teacher(self, tmp_path):
        model = tiny_model(seed=3)
        path = tmp_path / "t.ck"
        write_checkpoint(path, sections(model.params()))
        teacher = TeacherPair(CvlpModel.from_checkpoint(path, 4, 4, 12))
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 4))
        seqs = [[0, 2, 1], [0, 5, 1]]
        s_t = teacher.similarity(x, seqs)
        assert type(s_t) is np.ndarray
        pretrain_step(model, x, seqs, np.array([0, 1]), s_t, teacher.tau,
                      lam=0.5)
        for p in teacher._model.params().values():
            assert p.grad is None
        assert model.tau.grad is not None


class TestTauClamp:
    def test_clamp_bounds(self):
        model = tiny_model()
        model.tau.data = np.array(5.0)
        clamp_tau(model.tau)
        assert float(model.tau.data) == TAU_MAX
        model.tau.data = np.array(1e-6)
        clamp_tau(model.tau)
        assert float(model.tau.data) == TAU_MIN

    @pytest.mark.parametrize("value,want", [(5.0, TAU_MAX), (0.0, TAU_MIN),
                                            (0.3, 0.3), (TAU_MIN, TAU_MIN)])
    def test_clamps_in_place(self, value, want):
        model = tiny_model()
        view = model.tau.data
        view[...] = value
        clamp_tau(model.tau)
        assert model.tau.data is view and float(view) == want

    def test_nan_stays_nan(self):
        model = tiny_model()
        model.tau.data = np.array(np.nan)
        clamp_tau(model.tau)
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
    return ClassCorpus(table=token_table([[0, 5, 1], [0, 6, 1]], 77, [1, 1]),
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
        "AnSS", 1, [[(0, 0.5)], Poison()])),
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
        write_checkpoint(path, sections(model.params()))
        other = tiny_model(seed=1)
        load_params(other.params(), read_checkpoint(path), path)
        for k, v in sections(model.params()).items():
            np.testing.assert_array_equal(other.params()[k].data, v)

    def test_sections_copy_each_array_in_params_order(self):
        model = tiny_model(seed=9)
        got = sections(model.params())
        assert list(got) == list(model.params())
        for name, p in model.params().items():
            assert got[name] is not p.data
            np.testing.assert_array_equal(got[name], p.data)

    def test_load_after_the_optimizer_writes_into_its_views(self, tmp_path):
        """A checkpoint loaded into parameters AdamW already owns lands in
        the optimizer's views, and the next step updates the loaded
        values."""
        model, other = tiny_model(seed=9), tiny_model(seed=1)
        path = tmp_path / "m.ck"
        write_checkpoint(path, sections(model.params()))
        opt = AdamW(other.params(), weight_decay=0.5)
        views = {k: p.data for k, p in other.params().items()}
        load_params(other.params(), read_checkpoint(path), path)
        for k, p in other.params().items():
            assert p.data is views[k]
            np.testing.assert_array_equal(p.data, model.params()[k].data)
        opt.zero_grad()
        opt.step(0.1)
        np.testing.assert_array_equal(other.vis.w1.data,
                                      model.vis.w1.data * 0.95)

    def test_missing_section(self):
        model = tiny_model()
        state = sections(model.params())
        del state["vis.w1"]
        with pytest.raises(ValidationError) as exc:
            load_params(model.params(), state, "m.ck")
        assert "m.ck" in str(exc.value) and "vis.w1" in str(exc.value)

    def test_shape_mismatch(self):
        model = tiny_model()
        state = sections(model.params())
        state["vis.w1"] = np.zeros((1, 1))
        with pytest.raises((ValidationError, ShapeMismatch)):
            load_params(model.params(), state, "m.ck")

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
        read = read_checkpoint(path, names=lambda n: not n.startswith("__"))
        assert set(read) == {"keep"}


# reader -> (a writer of a small valid file, the reader, what the reader
# calls a file of another magic, the version it reads)
BINARY_READERS = {
    "dataset": (lambda path: save_dataset(path, gen_synthetic(
        2, [2, 1], 3, noise_sigma=0.1, seed=0, test_per_class=1)),
        load_dataset, "not a dataset file", DATASET_VERSION),
    "checkpoint": (lambda path: write_checkpoint(path, {"w": np.ones(2)}),
                   read_checkpoint, "not a checkpoint file",
                   CHECKPOINT_VERSION),
    "anchor_cache": (lambda path: save_anchor_embeddings(
        path, np.ones((1, 1, 2)), bytes(32)),
        load_anchor_embeddings, "not an anchor cache", CACHE_VERSION),
}


@pytest.mark.parametrize("reader", sorted(BINARY_READERS))
def test_each_binary_reader_checks_its_magic_and_version(tmp_path, reader):
    """Another magic is refused naming the file and its kind, and the
    version after the one written is refused by number."""
    write, read, not_kind, version = BINARY_READERS[reader]
    path = tmp_path / "artifact.bin"
    write(path)
    good = path.read_bytes()
    for damaged, message in (
            (b"XXXX" + good[4:], f"{path}: {not_kind} (bad magic)"),
            (good[:4] + struct.pack("<I", version + 1) + good[8:],
             f"{path}: unsupported version {version + 1}")):
        path.write_bytes(damaged)
        with pytest.raises(ValidationError) as exc:
            read(path)
        assert str(exc.value) == message
