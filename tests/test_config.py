"""Tests for the flat run configuration: files, overrides, fingerprints."""

import dataclasses
import math

import pytest

from vlltr.config import RunConfig, load_config
from vlltr.errors import ValidationError


INF, NAN = math.inf, math.nan

# (key, inside, outside) on the defaults: 20 classes, 100 sentences and 80
# prompts per class and a vocabulary of 384, so a vocabulary of at least
# 142, at most 322 prompts and prompt lines of 6 tokens
BOUNDS = [
    ("seed", 0, -1),
    ("d_img", 2, 1),
    ("embed_dim", 1, 0),
    ("vocab_size", 142, 141), ("vocab_size", 142, 0),
    ("classes", 2, 1),
    ("n_max", 6, 5),
    ("n_min", 1, 0), ("n_min", 499, 500),
    ("noise_sigma", 0.0, -1.0), ("noise_sigma", 0.0, INF),
    ("test_per_class", 1, 0),
    ("sentences_per_class", 0, -1),
    ("prompt_count", 0, -1), ("prompt_count", 322, 323),
    ("noise_fraction", 0.0, -0.01), ("noise_fraction", 1.0, 2.0),
    ("noise_fraction", 0.5, NAN),
    ("max_tokens", 6, 5), ("max_tokens", 6, 2),
    ("pretrain_epochs", 0, -1),
    ("pretrain_batch", 1, 0),
    ("pretrain_lr", 0.0, -1.0), ("pretrain_lr", 3e-3, NAN),
    ("lam", 0.0, -0.1), ("lam", 1.0, 1.5),
    ("tau_init", 0.01, 0.0099), ("tau_init", 1.0, 1.01),
    ("tau_init", 0.5, INF),
    ("weight_decay", 0.0, -1.0), ("weight_decay", 0.05, INF),
    ("teacher_epochs", 0, -1),
    ("anchor_m", 1, 0), ("anchor_m", 180, 181),
    ("anchor_mode", "CutOff", "TopK"),
    ("probe_cap", 1, 0),
    ("finetune_epochs", 0, -1),
    ("finetune_batch", 1, 0),
    ("finetune_lr", 0.0, -1.0), ("finetune_lr", 1e-3, INF),
    ("head", "knn", "resnet"),
]


class TestDefaults:
    def test_defaults_validate(self):
        cfg = RunConfig().validate()
        assert cfg.classes == 20
        assert cfg.lam == 0.5
        assert cfg.anchor_mode == "AnSS"

    def test_invalid_values_rejected(self):
        with pytest.raises(ValidationError):
            dataclasses.replace(RunConfig(), lam=1.5).validate()
        with pytest.raises(ValidationError):
            dataclasses.replace(RunConfig(), anchor_mode="TopK").validate()
        with pytest.raises(ValidationError):
            dataclasses.replace(RunConfig(), head="resnet").validate()
        with pytest.raises(ValidationError, match="sentences_per_class"):
            dataclasses.replace(RunConfig(), sentences_per_class=0,
                                prompt_count=0).validate()

    def test_every_field_has_a_bounds_row(self):
        assert {key for key, _, _ in BOUNDS} == \
            {f.name for f in dataclasses.fields(RunConfig)}

    @pytest.mark.parametrize("key,inside,outside", BOUNDS)
    def test_bounds_are_inclusive(self, key, inside, outside):
        """Each value at the edge of its key's domain, on the defaults, is
        legal and the next one out is a ValidationError naming the key."""
        dataclasses.replace(RunConfig(), **{key: inside}).validate()
        with pytest.raises(ValidationError, match=key):
            dataclasses.replace(RunConfig(), **{key: outside}).validate()

    def test_error_names_key_value_and_domain(self):
        with pytest.raises(ValidationError) as exc:
            dataclasses.replace(RunConfig(), finetune_lr=math.inf).validate()
        assert str(exc.value) == \
            "config: finetune_lr must be finite and in [0.0, inf], got inf"


class TestLoadConfig:
    def test_file_with_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("classes = 7  # small\n\nlam = 0.25\n")
        cfg = load_config(path)
        assert cfg.classes == 7
        assert cfg.lam == 0.25

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("widgets = 3\n")
        with pytest.raises(ValidationError):
            load_config(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("classes 7\n")
        with pytest.raises(ValidationError):
            load_config(path)

    def test_bad_literal_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("classes = seven\n")
        with pytest.raises(ValidationError):
            load_config(path)

    def test_overrides_applied_after_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 3\n")
        cfg = load_config(path, overrides=["seed=9", "head=knn"])
        assert cfg.seed == 9
        assert cfg.head == "knn"

    def test_override_unknown_key(self):
        with pytest.raises(ValidationError, match="config: unknown key"):
            load_config(None, ["nope=1"])
        with pytest.raises(ValidationError, match="config: expected key"):
            load_config(None, ["seed"])


class TestFingerprint:
    def test_stable_and_sensitive(self):
        a = RunConfig().fingerprint()
        assert a == RunConfig().fingerprint()
        assert len(a) == 32
        b = dataclasses.replace(RunConfig(), seed=1).fingerprint()
        assert a != b

    def test_canonical_lists_every_field(self):
        cfg = RunConfig()
        text = cfg.canonical()
        for f in dataclasses.fields(cfg):
            assert f"{f.name} = " in text
