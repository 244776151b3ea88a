"""Tests for the flat run configuration: files, overrides, fingerprints."""

import dataclasses

import pytest

from vlltr.config import RunConfig, apply_overrides, load_config
from vlltr.errors import ValidationError


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

    @pytest.mark.parametrize("key,inside,outside", [
        ("pretrain_batch", 1, 0), ("finetune_batch", 1, 0),
        ("tau_init", 0.01, 0.0099), ("tau_init", 1.0, 1.01),
        ("tau_init", 0.5, float("inf")), ("seed", 0, -1),
        ("probe_cap", 1, 0), ("test_per_class", 1, 0),
        ("noise_fraction", 0.0, -0.01), ("noise_fraction", 1.0, 2.0),
        ("noise_fraction", 0.5, float("nan")), ("noise_sigma", 0.0, -1.0)])
    def test_bounds_are_inclusive(self, key, inside, outside):
        dataclasses.replace(RunConfig(), **{key: inside}).validate()
        with pytest.raises(ValidationError, match=key):
            dataclasses.replace(RunConfig(), **{key: outside}).validate()


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
        with pytest.raises(ValidationError):
            apply_overrides(RunConfig(), ["nope=1"])


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
