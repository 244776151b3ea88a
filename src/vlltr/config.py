"""Flat key = value run configuration with strict key checking.

Defaults follow the published hyperparameters where the method fixes
one (lambda, tau, M, prompt count, token limit, probe cap, weight
decay, the shot-band thresholds); the scale knobs (class count, widths,
epochs, learning rates) default to the desk-scale reference task.

Each field declares its legal values on its own declaration; `validate`
checks them, and the bounds that join fields, before any stage runs.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields

from .anchors import ANSS, CUTOFF
from .checkpoint import read_text
from .data import VocabLayout
from .encoders import TAU_MIN, TAU_MAX
from .errors import ValidationError
from .head import HEADS


def _domain(default, low=None, high=math.inf, choices=None):
    """A field's default and its legal values: one of `choices`, or else
    the inclusive range [low, high]."""
    return field(default=default, metadata={"domain": (low, high, choices)})


def _check(ok: bool, key: str, value, want: str):
    if not ok:
        raise ValidationError(f"config: {key} must be {want}, got {value!r}")


@dataclass
class RunConfig:
    seed: int = _domain(0, low=0)
    # dimensions
    d_img: int = _domain(16, low=2)
    embed_dim: int = _domain(16, low=1)
    vocab_size: int = _domain(384, low=1)
    # dataset
    classes: int = _domain(20, low=2)
    n_max: int = _domain(500, low=2)
    n_min: int = _domain(5, low=1)
    noise_sigma: float = _domain(0.25, low=0.0)
    test_per_class: int = _domain(20, low=1)
    # corpus
    sentences_per_class: int = _domain(100, low=0)
    prompt_count: int = _domain(80, low=0)
    noise_fraction: float = _domain(0.2, low=0.0, high=1.0)
    max_tokens: int = _domain(77, low=3)
    # pre-training
    pretrain_epochs: int = _domain(60, low=0)
    pretrain_batch: int = _domain(32, low=1)
    pretrain_lr: float = _domain(3e-3, low=0.0)
    lam: float = _domain(0.5, low=0.0, high=1.0)
    tau_init: float = _domain(0.07, low=TAU_MIN, high=TAU_MAX)
    weight_decay: float = _domain(0.05, low=0.0)
    teacher_epochs: int = _domain(10, low=0)
    # anchor selection
    anchor_m: int = _domain(64, low=1)
    anchor_mode: str = _domain(ANSS, choices=(ANSS, CUTOFF))
    probe_cap: int = _domain(50, low=1)
    # fine-tuning
    finetune_epochs: int = _domain(3, low=0)
    finetune_batch: int = _domain(32, low=1)
    finetune_lr: float = _domain(1e-3, low=0.0)
    head: str = _domain("lgr", choices=tuple(HEADS))

    def validate(self):
        """Check every field against its declared domain, every float for
        being finite, then the bounds that join fields. The first failure
        is a ValidationError naming the key and the value."""
        for f in fields(self):
            low, high, choices = f.metadata["domain"]
            value = getattr(self, f.name)
            if choices is not None:
                _check(value in choices, f.name, value,
                       "one of " + ", ".join(choices))
            elif f.type == "float":
                _check(math.isfinite(value) and low <= value <= high, f.name,
                       value, f"finite and in [{low}, {high}]")
            else:
                _check(low <= value <= high, f.name, value,
                       f"in [{low}, {high}]")
        layout = VocabLayout(self.classes, self.prompt_count)
        sentences = self.sentences_per_class + self.prompt_count
        _check(self.n_max > self.n_min, "n_max", self.n_max,
               f"> n_min = {self.n_min}")
        _check(self.vocab_size >= layout.required_size(), "vocab_size",
               self.vocab_size, f">= {layout.required_size()} for classes "
               f"and prompt_count")
        _check(self.max_tokens >= layout.prompt_length(), "max_tokens",
               self.max_tokens, f">= {layout.prompt_length()}, the length "
               f"of a prompt line")
        # anchor_m >= 1, so this also keeps every class non-empty
        _check(self.anchor_m <= sentences, "anchor_m", self.anchor_m,
               f"<= sentences_per_class + prompt_count = {sentences}")
        return self

    def canonical(self, names=None) -> str:
        """`key = value` lines in key order, of every field or of the
        fields in `names`."""
        if names is None:
            names = [f.name for f in fields(self)]
        return "".join(f"{n} = {getattr(self, n)}\n" for n in sorted(names))

    def fingerprint(self) -> bytes:
        return hashlib.sha256(self.canonical().encode("utf-8")).digest()


_PARSERS = {f.name: {"int": int, "float": float, "str": str}[f.type]
            for f in fields(RunConfig)}


def _assign(cfg: RunConfig, text: str, where: str):
    """Set the one `key = value` of `text` on `cfg`; a malformed pair, an
    unknown key or an unparsable value is a ValidationError naming
    `where`."""
    if "=" not in text:
        raise ValidationError(f"{where}: expected key = value, got {text!r}")
    key, raw = (part.strip() for part in text.split("=", 1))
    if key not in _PARSERS:
        raise ValidationError(f"{where}: unknown key {key!r}")
    try:
        setattr(cfg, key, _PARSERS[key](raw))
    except ValueError as exc:
        raise ValidationError(
            f"{where}: bad value for {key}: {raw!r}") from exc


def load_config(path=None, overrides=()) -> RunConfig:
    """The defaults, then the lines of the file at `path` (`#` starts a
    comment), then each `key=value` of `overrides`, validated."""
    cfg = RunConfig()
    if path is not None:
        for lineno, line in enumerate(read_text(path).split("\n"), 1):
            line = line.split("#", 1)[0].strip()
            if line:
                _assign(cfg, line, f"{path}:{lineno}")
    for pair in overrides:
        _assign(cfg, pair, "config")
    return cfg.validate()
