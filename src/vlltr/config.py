"""Flat key = value run configuration with strict key checking.

Defaults follow the published hyperparameters where the method fixes
one (lambda, tau, M, prompt count, token limit, probe cap, weight
decay, the shot-band thresholds); the scale knobs (class count, widths,
epochs, learning rates) default to the desk-scale reference task.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields

from .checkpoint import read_text
from .encoders import TAU_MIN, TAU_MAX
from .errors import ValidationError
from .head import get_head


def _check_bounds(key: str, value, low, high=math.inf):
    """A ValidationError naming `key` unless low <= value <= high; NaN is
    out of every bound."""
    if not low <= value <= high:
        raise ValidationError(
            f"config: {key} must be in [{low}, {high}], got {value}")


@dataclass
class RunConfig:
    seed: int = 0
    # dimensions
    d_img: int = 16
    embed_dim: int = 16
    vocab_size: int = 384
    # dataset
    classes: int = 20
    n_max: int = 500
    n_min: int = 5
    noise_sigma: float = 0.25
    test_per_class: int = 20
    # corpus
    sentences_per_class: int = 100
    prompt_count: int = 80
    noise_fraction: float = 0.2
    max_tokens: int = 77
    # pre-training
    pretrain_epochs: int = 60
    pretrain_batch: int = 32
    pretrain_lr: float = 3e-3
    lam: float = 0.5
    tau_init: float = 0.07
    weight_decay: float = 0.05
    teacher_epochs: int = 10
    # anchor selection
    anchor_m: int = 64
    anchor_mode: str = "AnSS"
    probe_cap: int = 50
    # fine-tuning
    finetune_epochs: int = 3
    finetune_batch: int = 32
    finetune_lr: float = 1e-3
    head: str = "lgr"

    def validate(self):
        _check_bounds("seed", self.seed, 0)
        _check_bounds("noise_sigma", self.noise_sigma, 0.0)
        _check_bounds("test_per_class", self.test_per_class, 1)
        _check_bounds("noise_fraction", self.noise_fraction, 0.0, 1.0)
        _check_bounds("lam", self.lam, 0.0, 1.0)
        _check_bounds("tau_init", self.tau_init, TAU_MIN, TAU_MAX)
        _check_bounds("pretrain_batch", self.pretrain_batch, 1)
        _check_bounds("probe_cap", self.probe_cap, 1)
        _check_bounds("finetune_batch", self.finetune_batch, 1)
        if self.anchor_mode not in ("AnSS", "CutOff"):
            raise ValidationError(
                f"config: anchor_mode must be AnSS or CutOff, "
                f"got {self.anchor_mode!r}")
        get_head(self.head)
        return self

    def canonical(self, names=None) -> str:
        """`key = value` lines in key order, of every field or of the
        fields in `names`."""
        if names is None:
            names = [f.name for f in fields(self)]
        return "".join(f"{n} = {getattr(self, n)}\n" for n in sorted(names))

    def fingerprint(self, names=None) -> bytes:
        return hashlib.sha256(self.canonical(names).encode("utf-8")).digest()


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(key: str, raw: str):
    kind = _FIELD_TYPES[key]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return raw
    except ValueError as exc:
        raise ValidationError(f"config: bad value for {key}: {raw!r}") from exc


def apply_overrides(cfg: RunConfig, pairs) -> RunConfig:
    for pair in pairs:
        if "=" not in pair:
            raise ValidationError(f"config: expected key=value, got {pair!r}")
        key, raw = (part.strip() for part in pair.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ValidationError(f"config: unknown key {key!r}")
        setattr(cfg, key, _coerce(key, raw))
    return cfg


def load_config(path=None, overrides=()) -> RunConfig:
    cfg = RunConfig()
    if path is not None:
        for lineno, line in enumerate(read_text(path).split("\n"), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValidationError(f"{path}:{lineno}: expected key = value")
            key, raw = (part.strip() for part in line.split("=", 1))
            if key not in _FIELD_TYPES:
                raise ValidationError(f"{path}:{lineno}: unknown key {key!r}")
            setattr(cfg, key, _coerce(key, raw))
    apply_overrides(cfg, overrides)
    return cfg.validate()
