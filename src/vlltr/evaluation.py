"""Overall and per-shot-band top-1 accuracy, concept retrieval, and the
ablation table renderer."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .encoders import CvlpModel
from .errors import ValidationError

BAND_ORDER = ("many", "medium", "few")


@dataclass
class EvalReport:
    overall: float
    bands: dict            # band -> accuracy; empty bands are absent
    band_counts: dict      # band -> sample count (only non-empty bands)
    per_class: list        # per-class accuracy (None for classes unseen in eval)
    total: int
    correct: int
    config_fingerprint: str = ""

    def to_json(self) -> str:
        doc = {
            "overall": self.overall,
            "many": self.bands.get("many"),
            "medium": self.bands.get("medium"),
            "few": self.bands.get("few"),
            "band_counts": self.band_counts,
            "per_class": self.per_class,
            "total": self.total,
            "correct": self.correct,
            "config_fingerprint": self.config_fingerprint,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def evaluate(predictions, labels, bands: list,
             config_fingerprint: str = "") -> EvalReport:
    """Micro-averaged overall accuracy plus exact per-band ratios."""
    predictions = np.asarray(predictions, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if predictions.shape != labels.shape:
        raise ValidationError(
            f"evaluate: {len(predictions)} predictions vs {len(labels)} labels"
        )
    C = len(bands)
    if labels.size and (labels.min() < 0 or labels.max() >= C):
        bad = labels.max() if labels.max() >= C else labels.min()
        raise ValidationError(f"evaluate: label {int(bad)} has no shot band")
    correct = predictions == labels
    # per-class counts as Python ints, so every ratio is int / int
    class_n = np.bincount(labels, minlength=C).tolist()
    class_h = np.bincount(labels[correct], minlength=C).tolist()
    band_hits = {b: [0, 0] for b in BAND_ORDER}
    for band, h, n in zip(bands, class_h, class_n):
        band_hits[band][0] += h
        band_hits[band][1] += n
    band_acc = {b: h / n for b, (h, n) in band_hits.items() if n}
    band_counts = {b: n for b, (h, n) in band_hits.items() if n}
    per_class = [h / n if n else None for h, n in zip(class_h, class_n)]
    total, hits = int(labels.size), sum(class_h)
    return EvalReport(
        overall=hits / total if total else 0.0,
        bands=band_acc, band_counts=band_counts, per_class=per_class,
        total=total, correct=hits,
        config_fingerprint=config_fingerprint,
    )


def concept_retrieval(query_tokens, images: np.ndarray, model: CvlpModel,
                      k: int) -> list:
    """Top-k image ids by cosine similarity to the query sentence,
    descending, smaller id on ties."""
    if not 1 <= k <= len(images):
        raise ValidationError(
            f"concept_retrieval: k={k} outside [1, {len(images)}]")
    text = model.lin([query_tokens])[0]
    text = text / np.linalg.norm(text)
    emb = model.vis.forward(images)[0]
    emb = emb / np.linalg.norm(emb, axis=1, keepdims=True)
    sims = emb @ text
    order = sorted(range(len(images)), key=lambda i: (-sims[i], i))
    return order[:k]


def ablation_report(entries) -> str:
    """Aligned plain-text table over (label, EvalReport) rows."""
    if not entries:
        raise ValidationError("ablation_report: need at least one entry")
    headers = ["config", "overall", "many", "medium", "few"]
    rows = []
    for label, report in entries:
        cells = [label, f"{report.overall:.4f}"]
        for band in BAND_ORDER:
            acc = report.bands.get(band)
            cells.append("-" if acc is None else f"{acc:.4f}")
        rows.append(cells)
    widths = [max(len(headers[i]), *(len(r[i]) for r in rows))
              for i in range(len(headers))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for cells in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
    return "\n".join(lines) + "\n"
