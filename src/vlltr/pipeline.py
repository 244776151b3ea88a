"""End-to-end stage orchestration over an output directory.

Stages couple through content hashes: each checkpoint records the
SHA-256 of the data files it was trained on, anchor files record the
checkpoint they were scored under, and the embedding cache records the
checkpoint its text embeddings came from. A stage refuses inputs whose
hashes disagree.

The stages in `STAGES` write bytes that depend only on the config fields
they read and on the bytes of their upstream artifacts. Given a memo,
such a stage runs once per distinct (fields, upstream bytes) and writes
the remembered bytes on every later call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from .anchors import load_anchors, save_anchors, select_anchors
from .config import RunConfig
from .data import (corpus_stats, gen_corpus, gen_pareto_counts, gen_synthetic,
                   load_corpus, load_dataset, save_corpus, save_dataset,
                   save_stats, split_shots)
from .encoders import CvlpModel, TeacherPair, VisualEncoder
from .errors import StaleArtifactError, ValidationError
from .evaluation import EvalReport, evaluate
from .head import (FinetuneConfig, classify_dataset, compute_anchor_embeddings,
                   get_head, load_anchor_embeddings, run_finetune,
                   save_anchor_embeddings)
from .pretrain import PretrainConfig, run_pretrain, save_trace
from .tensor import parameter

FILES = {
    "dataset": "dataset.bin",
    "corpus": "corpus.tsv",
    "stats": "stats.json",
    "teacher": "teacher.ck",
    "teacher_trace": "teacher_trace.tsv",
    "student": "student.ck",
    "pretrain_trace": "pretrain_trace.tsv",
    "anchors": "anchors.tsv",
    "final": "final.ck",
    "finetune_trace": "finetune_trace.tsv",
    "cache": "anchor_cache.vlae",
    "predictions": "predictions.tsv",
    "report": "report.json",
}


def artifact(out_dir, name) -> Path:
    return Path(out_dir) / FILES[name]


@dataclass(frozen=True)
class Stage:
    fields: tuple     # the RunConfig fields the stage reads
    upstream: tuple   # the artifacts whose bytes its outputs depend on
    outputs: tuple    # the artifacts it writes

    def inputs(self, cfg: RunConfig) -> tuple:
        """The upstream artifacts a run under `cfg` reads: the teacher
        only when it distills (lam < 1)."""
        return tuple(a for a in self.upstream
                     if a != "teacher" or cfg.lam < 1.0)


STAGES = {
    "gen_data": Stage(
        fields=("seed", "classes", "n_max", "n_min", "d_img", "noise_sigma",
                "test_per_class", "sentences_per_class", "prompt_count",
                "vocab_size", "noise_fraction", "max_tokens"),
        upstream=(), outputs=("dataset", "corpus", "stats")),
    "make_teacher": Stage(
        fields=("seed", "classes", "n_max", "d_img", "noise_sigma",
                "test_per_class", "embed_dim", "vocab_size", "tau_init",
                "max_tokens", "teacher_epochs", "pretrain_batch",
                "pretrain_lr", "weight_decay"),
        upstream=("dataset", "corpus"), outputs=("teacher", "teacher_trace")),
    "pretrain": Stage(
        fields=("seed", "d_img", "embed_dim", "vocab_size", "tau_init",
                "max_tokens", "pretrain_epochs", "pretrain_batch",
                "pretrain_lr", "lam", "weight_decay"),
        upstream=("dataset", "corpus", "teacher"),
        outputs=("student", "pretrain_trace")),
    "select_anchors": Stage(
        fields=("seed", "d_img", "embed_dim", "vocab_size", "max_tokens",
                "anchor_m", "anchor_mode", "probe_cap"),
        upstream=("dataset", "corpus", "student"), outputs=("anchors",)),
}


def stage_fingerprint(name: str, cfg: RunConfig) -> bytes:
    """SHA-256 of the config fields stage `name` reads."""
    return cfg.fingerprint(STAGES[name].fields)


def _memo_key(name: str, cfg: RunConfig, out_dir):
    """The stage's own fingerprint and the SHA-256 of each upstream file
    in `out_dir`; None when one is missing, so the stage runs and
    reports it."""
    key = [stage_fingerprint(name, cfg)]
    for up in STAGES[name].inputs(cfg):
        path = artifact(out_dir, up)
        if not path.exists():
            return None
        key.append(ckpt.file_sha256(path))
    return tuple(key)


def _memoized(name: str):
    """Make stage `name` take an optional memo (key -> {artifact: bytes}).
    On a hit the stage writes the remembered bytes and returns; on a miss
    it runs and remembers what it wrote. Bytes, not paths, so a row
    directory edited later cannot leak into the next caller."""
    def wrap(run):
        @functools.wraps(run)
        def stage(cfg: RunConfig, out_dir, memo: dict | None = None):
            key = None if memo is None else _memo_key(name, cfg, out_dir)
            if key is not None and key in memo:
                Path(out_dir).mkdir(parents=True, exist_ok=True)
                for art, data in memo[key].items():
                    with ckpt.atomic_write(artifact(out_dir, art),
                                           binary=True) as f:
                        f.write(data)
                return
            run(cfg, out_dir)
            if key is not None:
                memo[key] = {art: artifact(out_dir, art).read_bytes()
                             for art in STAGES[name].outputs}
        return stage
    return wrap


def _meta_sections(fingerprint: bytes, out_dir) -> dict:
    sections = {"__fingerprint__": ckpt.hash_to_floats(fingerprint)}
    for name, key in (("dataset", "__dataset_hash__"),
                      ("corpus", "__corpus_hash__")):
        path = artifact(out_dir, name)
        if path.exists():
            sections[key] = ckpt.hash_to_floats(ckpt.file_sha256(path))
    return sections


def _check_data_hashes(sections: dict, cfg: RunConfig, out_dir):
    for name, key in (("dataset", "__dataset_hash__"),
                      ("corpus", "__corpus_hash__")):
        if key not in sections:
            continue
        actual = ckpt.file_sha256(artifact(out_dir, name))
        if ckpt.floats_to_hash(sections[key]) != actual:
            raise StaleArtifactError(
                f"checkpoint was trained on a different {name} file"
            )


# ---- stages -----------------------------------------------------------------


@_memoized("gen_data")
def cmd_gen_data(cfg: RunConfig, out_dir):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    counts = gen_pareto_counts(cfg.classes, cfg.n_max, cfg.n_min)
    dataset = gen_synthetic(cfg.classes, counts, cfg.d_img, cfg.noise_sigma,
                            cfg.seed, cfg.test_per_class)
    corpus, _ = gen_corpus(cfg.classes, cfg.sentences_per_class,
                           cfg.prompt_count, cfg.vocab_size,
                           cfg.noise_fraction, cfg.seed, cfg.max_tokens)
    save_dataset(artifact(out_dir, "dataset"), dataset)
    save_corpus(artifact(out_dir, "corpus"), corpus)
    save_stats(artifact(out_dir, "stats"), corpus_stats(corpus))


def _load_data(cfg: RunConfig, out_dir):
    dataset = load_dataset(artifact(out_dir, "dataset"))
    corpus = load_corpus(artifact(out_dir, "corpus"), cfg.vocab_size,
                         cfg.max_tokens)
    return dataset, corpus


@_memoized("make_teacher")
def cmd_make_teacher(cfg: RunConfig, out_dir):
    """Pre-train a frozen teacher pair on the balanced variant of the
    synthetic task (every class at n_max, same prototypes)."""
    _, corpus = _load_data(cfg, out_dir)
    balanced = gen_synthetic(cfg.classes, [cfg.n_max] * cfg.classes,
                             cfg.d_img, cfg.noise_sigma, cfg.seed,
                             cfg.test_per_class)
    model = CvlpModel(cfg.d_img, cfg.embed_dim, cfg.vocab_size,
                      seed=cfg.seed + 7, tau_init=cfg.tau_init,
                      max_tokens=cfg.max_tokens)
    pcfg = PretrainConfig(epochs=cfg.teacher_epochs,
                          batch_size=cfg.pretrain_batch,
                          base_lr=cfg.pretrain_lr, lam=1.0,
                          weight_decay=cfg.weight_decay, seed=cfg.seed + 7)
    trace = run_pretrain(balanced, corpus, model, None, pcfg)
    ckpt.write_checkpoint(artifact(out_dir, "teacher"), {
        **model.state(),
        **_meta_sections(stage_fingerprint("make_teacher", cfg), out_dir)})
    save_trace(artifact(out_dir, "teacher_trace"), trace)


@_memoized("pretrain")
def cmd_pretrain(cfg: RunConfig, out_dir):
    dataset, corpus = _load_data(cfg, out_dir)
    teacher = None
    if cfg.lam < 1.0:
        if not artifact(out_dir, "teacher").exists():
            raise ValidationError(
                "pretrain: lam < 1 needs a teacher checkpoint; "
                "run make-teacher first")
        teacher = TeacherPair(load_model(cfg, out_dir, "teacher"))
    model = CvlpModel(cfg.d_img, cfg.embed_dim, cfg.vocab_size,
                      seed=cfg.seed, tau_init=cfg.tau_init,
                      max_tokens=cfg.max_tokens)
    pcfg = PretrainConfig(epochs=cfg.pretrain_epochs,
                          batch_size=cfg.pretrain_batch,
                          base_lr=cfg.pretrain_lr, lam=cfg.lam,
                          weight_decay=cfg.weight_decay, seed=cfg.seed)
    trace = run_pretrain(dataset, corpus, model, teacher, pcfg)
    ckpt.write_checkpoint(artifact(out_dir, "student"), {
        **model.state(),
        **_meta_sections(stage_fingerprint("pretrain", cfg), out_dir)})
    save_trace(artifact(out_dir, "pretrain_trace"), trace)


def load_model(cfg: RunConfig, out_dir, name) -> CvlpModel:
    """The encoder pair and temperature of checkpoint `name`, after
    checking that it was trained on the run's current data files."""
    sections = ckpt.read_checkpoint(artifact(out_dir, name))
    _check_data_hashes(sections, cfg, out_dir)
    model = CvlpModel(cfg.d_img, cfg.embed_dim, cfg.vocab_size, seed=0,
                      max_tokens=cfg.max_tokens)
    model.load_state(sections)
    return model


@_memoized("select_anchors")
def cmd_select_anchors(cfg: RunConfig, out_dir):
    dataset, corpus = _load_data(cfg, out_dir)
    model = load_model(cfg, out_dir, "student")
    student_hash = ckpt.file_sha256(artifact(out_dir, "student"))
    anchors = select_anchors(corpus, dataset, model, cfg.anchor_m,
                             mode=cfg.anchor_mode, cap=cfg.probe_cap,
                             seed=cfg.seed, checkpoint_hash=student_hash)
    save_anchors(artifact(out_dir, "anchors"), anchors)


def cmd_finetune(cfg: RunConfig, out_dir):
    dataset, corpus = _load_data(cfg, out_dir)
    model = load_model(cfg, out_dir, "student")
    anchors = load_anchors(artifact(out_dir, "anchors"))
    student_hash = ckpt.file_sha256(artifact(out_dir, "student"))
    fcfg = FinetuneConfig(epochs=cfg.finetune_epochs,
                          batch_size=cfg.finetune_batch,
                          base_lr=cfg.finetune_lr,
                          weight_decay=cfg.weight_decay, seed=cfg.seed,
                          head=cfg.head)
    head_params, _, trace = run_finetune(
        dataset, anchors, corpus, model, fcfg,
        expected_checkpoint_hash=student_hash)
    sections = {**model.state(),
                **_meta_sections(cfg.fingerprint(), out_dir),
                **{k: v.data.copy() for k, v in head_params.params().items()}}
    ckpt.write_checkpoint(artifact(out_dir, "final"), sections)
    with ckpt.atomic_write(artifact(out_dir, "finetune_trace")) as f:
        for epoch, step, loss in trace:
            f.write(f"{epoch}\t{step}\t{loss!r}\n")
    return trace


def cmd_precompute_cache(cfg: RunConfig, out_dir):
    """Write the offline anchor text-embedding cache, keyed by the final
    checkpoint's content hash."""
    _, corpus = _load_data(cfg, out_dir)
    model = load_model(cfg, out_dir, "final")
    anchors = load_anchors(artifact(out_dir, "anchors"))
    emb = compute_anchor_embeddings(anchors, corpus, model)
    save_anchor_embeddings(artifact(out_dir, "cache"), emb,
                           ckpt.file_sha256(artifact(out_dir, "final")))
    return emb


def load_inference_head(cfg: RunConfig, out_dir):
    """Load only what cache-based inference needs from the final
    checkpoint, after checking its data hashes: the visual encoder and
    the head parameters. Linguistic-encoder sections are never
    materialized. Returns (vis, head_params, checkpoint SHA-256)."""
    final_path = artifact(out_dir, "final")
    sections = ckpt.read_checkpoint(
        final_path, names=lambda n: not n.startswith("lin."))
    _check_data_hashes(sections, cfg, out_dir)
    vis = VisualEncoder(cfg.d_img, cfg.embed_dim,
                        np.random.default_rng(0))
    head_params = get_head(cfg.head).params(
        cfg.embed_dim, cfg.classes, parameter(np.array(cfg.tau_init)),
        np.random.default_rng(0))
    ckpt.load_params({**vis.params(), **head_params.params()}, sections)
    return vis, head_params, ckpt.file_sha256(final_path)


def cmd_eval(cfg: RunConfig, out_dir) -> EvalReport:
    """Classify the test split from the anchor cache (built first if it
    is missing) and write the report and predictions. The corpus is
    read only to build a missing cache; the final checkpoint's recorded
    hash of it is still checked."""
    dataset = load_dataset(artifact(out_dir, "dataset"))
    cache_path = artifact(out_dir, "cache")
    if not cache_path.exists():
        cmd_precompute_cache(cfg, out_dir)
    anchor_emb, cache_hash = load_anchor_embeddings(cache_path)
    vis, head_params, final_hash = load_inference_head(cfg, out_dir)
    if cache_hash != final_hash:
        raise StaleArtifactError(
            "eval: anchor cache was built from a different checkpoint")
    preds, p_i, p_t = classify_dataset(dataset.test_X, vis, cfg.head,
                                       head_params, anchor_emb)
    bands = split_shots(dataset.counts)
    report = evaluate(preds, dataset.test_y, bands,
                      config_fingerprint=cfg.fingerprint().hex())
    with ckpt.atomic_write(artifact(out_dir, "report")) as f:
        f.write(report.to_json())
    with ckpt.atomic_write(artifact(out_dir, "predictions")) as f:
        for i, (true, pred) in enumerate(zip(dataset.test_y, preds)):
            f.write(f"{i}\t{true}\t{pred}\t{float(p_i[i])!r}\t"
                    f"{float(p_t[i])!r}\n")
    return report


def run_all(cfg: RunConfig, out_dir, memo: dict | None = None) -> EvalReport:
    """The full two-stage pipeline in one call. Runs that pass one
    `memo` run each distinct stage of `STAGES` once."""
    cmd_gen_data(cfg, out_dir, memo)
    if cfg.lam < 1.0:
        cmd_make_teacher(cfg, out_dir, memo)
    cmd_pretrain(cfg, out_dir, memo)
    cmd_select_anchors(cfg, out_dir, memo)
    cmd_finetune(cfg, out_dir)
    return cmd_eval(cfg, out_dir)
