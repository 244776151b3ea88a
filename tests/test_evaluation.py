"""Tests for accuracy reporting, concept retrieval, and the ablation table."""

import json
from types import SimpleNamespace

import numpy as np
import pytest

import composite_oracles as oracle
from vlltr.errors import ValidationError
from vlltr.evaluation import ablation_report, concept_retrieval, evaluate


class TestEvaluate:
    def test_all_correct(self):
        bands = ["many", "few"]
        report = evaluate([0, 1, 0], [0, 1, 0], bands)
        assert report.overall == 1.0
        assert report.bands == {"many": 1.0, "few": 1.0}
        assert report.correct == report.total == 3

    def test_six_sample_fixture(self):
        # many: 2 samples 1 correct; medium: 2/2; few: 2 samples 0 correct
        bands = ["many", "medium", "few"]
        labels = [0, 0, 1, 1, 2, 2]
        preds = [0, 1, 1, 1, 0, 1]
        report = evaluate(preds, labels, bands)
        assert report.overall == 0.5
        assert report.bands["many"] == 0.5
        assert report.bands["medium"] == 1.0
        assert report.bands["few"] == 0.0
        assert report.band_counts == {"many": 2, "medium": 2, "few": 2}
        assert report.per_class == [0.5, 1.0, 0.0]

    def test_absent_band_offered_as_null(self):
        bands = ["many", "many"]
        report = evaluate([0, 1], [0, 1], bands)
        assert "few" not in report.bands
        doc = json.loads(report.to_json())
        assert doc["few"] is None and doc["medium"] is None
        assert doc["many"] == 1.0

    def test_unseen_class_has_null_per_class(self):
        bands = ["many", "few"]
        report = evaluate([0], [0], bands)
        assert report.per_class == [1.0, None]

    def test_micro_equals_macro_on_balanced_split(self):
        rng = np.random.default_rng(0)
        C, per = 7, 40
        labels = np.repeat(np.arange(C), per)
        preds = np.where(rng.random(C * per) < 0.6, labels,
                         rng.integers(0, C, C * per))
        report = evaluate(preds, labels, ["medium"] * C)
        macro = float(np.mean(report.per_class))
        assert abs(report.overall - macro) <= 1e-12

    def test_band_counts_partition_total(self):
        rng = np.random.default_rng(1)
        bands = ["many", "medium", "few", "few"]
        labels = rng.integers(0, 4, size=200)
        preds = rng.integers(0, 4, size=200)
        report = evaluate(preds, labels, bands)
        assert sum(report.band_counts.values()) == report.total == 200

    def test_validation_errors(self):
        bands = ["many"]
        with pytest.raises(ValidationError):
            evaluate([0, 0], [0], bands)
        with pytest.raises(ValidationError):
            evaluate([0], [3], bands)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_loop_oracle(self, seed):
        """Random bands and predictions, with a class that has no test
        images and a band with no classes (seed 0: no few-shot class),
        give the loop's report field for field and byte for byte."""
        rng = np.random.default_rng(seed)
        C = int(rng.integers(3, 12))
        names = ("many", "medium") if seed == 0 else ("many", "medium", "few")
        bands = [names[int(k)] for k in rng.integers(len(names), size=C)]
        n = int(rng.integers(0, 300)) if seed else 250
        labels = rng.integers(0, C - 1, size=n)   # class C - 1 unseen
        preds = np.where(rng.random(n) < 0.5, labels,
                         rng.integers(0, C, size=n))
        got = evaluate(preds, labels, bands, config_fingerprint="f")
        want = oracle.evaluate(preds, labels, bands, config_fingerprint="f")
        assert got == want
        assert got.to_json() == want.to_json()
        assert got.per_class[C - 1] is None
        if seed == 0:
            assert "few" not in got.bands and "few" not in got.band_counts

    def test_empty_input(self):
        report = evaluate([], [], ["many", "few"])
        assert report == oracle.evaluate([], [], ["many", "few"])
        assert report.total == 0 and report.per_class == [None, None]

    def test_negative_label_is_validation_error(self):
        with pytest.raises(ValidationError) as exc:
            evaluate([0, 0], [0, -1], ["many"])
        assert "label -1" in str(exc.value)

    def test_json_is_stable(self):
        bands = ["many", "few"]
        report = evaluate([0, 1], [0, 0], bands, config_fingerprint="abc")
        assert report.to_json() == report.to_json()
        doc = json.loads(report.to_json())
        assert doc["config_fingerprint"] == "abc"
        assert doc["overall"] == 0.5


class FakeModel:
    """Stand-in whose visual path is the identity and whose text path
    returns a fixed vector, so retrieval geometry is fully controlled."""

    def __init__(self, text_vec):
        self._text = np.asarray(text_vec, dtype=np.float64)
        self.vis = SimpleNamespace(forward=lambda images: (
            np.asarray(images, dtype=np.float64), None))

    def lin(self, seqs):
        return self._text.reshape(1, -1)


class TestConceptRetrieval:
    def test_aligned_image_ranked_first(self):
        images = np.array([[1.0, 0.0], [0.0, 1.0], [0.7, 0.7]])
        model = FakeModel([0.0, 2.0])
        assert concept_retrieval([0, 1], images, model, k=1) == [1]

    def test_full_ranking_matches_sort_oracle(self):
        rng = np.random.default_rng(2)
        images = rng.normal(size=(10, 4))
        text = rng.normal(size=4)
        model = FakeModel(text)
        got = concept_retrieval([0, 1], images, model, k=10)
        norm = images / np.linalg.norm(images, axis=1, keepdims=True)
        sims = norm @ (text / np.linalg.norm(text))
        expect = sorted(range(10), key=lambda i: (-sims[i], i))
        assert got == expect

    def test_tie_breaks_to_smaller_id(self):
        images = np.array([[2.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        model = FakeModel([1.0, 0.0])
        assert concept_retrieval([0, 1], images, model, k=2) == [0, 1]

    def test_k_too_large(self):
        model = FakeModel([1.0, 0.0])
        with pytest.raises(ValidationError):
            concept_retrieval([0, 1], np.ones((3, 2)), model, k=4)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one(self, k):
        model = FakeModel([1.0, 0.0])
        with pytest.raises(ValidationError):
            concept_retrieval([0, 1], np.ones((3, 2)), model, k=k)

    def test_works_with_real_model(self, mini_model, mini_data):
        dataset, corpus = mini_data
        tokens = oracle.class_sentences(corpus, 0)[0]
        ids = concept_retrieval(tokens, dataset.test_X, mini_model, k=5)
        assert len(ids) == 5
        assert len(set(ids)) == 5
        assert all(0 <= i < len(dataset.test_X) for i in ids)


class TestAblationReport:
    def test_single_row(self):
        bands = ["many", "few"]
        report = evaluate([0, 1], [0, 1], bands)
        text = ablation_report([("baseline", report)])
        lines = text.splitlines()
        assert lines[0].split() == ["config", "overall", "many", "medium", "few"]
        assert "baseline" in lines[2]
        assert "1.0000" in lines[2]

    def test_absent_band_rendered_as_dash(self):
        bands = ["many"]
        report = evaluate([0], [0], bands)
        row = ablation_report([("x", report)]).splitlines()[2]
        assert row.split() == ["x", "1.0000", "1.0000", "-", "-"]

    def test_row_order_preserved(self):
        bands = ["many"]
        a = evaluate([0], [0], bands)
        b = evaluate([1], [0], bands)
        lines = ablation_report([("first", a), ("second", b)]).splitlines()
        assert lines[2].startswith("first")
        assert lines[3].startswith("second")
        assert "0.0000" in lines[3]

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            ablation_report([])
