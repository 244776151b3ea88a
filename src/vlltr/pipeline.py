"""End-to-end stage orchestration over an output directory.

Stages couple through content hashes: each checkpoint records the
SHA-256 of the data files it was trained on, anchor files record the
checkpoint they were scored under, and the embedding cache records the
checkpoint its text embeddings came from. Each stage call hashes each
file it reads once, into one {artifact: SHA-256} table that its memo
key, its records and its checks all read, and refuses inputs whose
hashes disagree. `head` holds no hash policy.

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


def hash_inputs(out_dir, names) -> dict:
    """{artifact: SHA-256} of each named file in `out_dir`."""
    return {name: ckpt.file_sha256(artifact(out_dir, name)) for name in names}


def _memoized(name: str):
    """Make stage `name` hash its inputs once and take an optional memo
    (key -> {artifact: bytes}). A missing input is a ValidationError
    naming the file and the command that writes it. The body gets the
    hash table; on a memo hit the stage writes the remembered bytes
    instead and returns. Bytes, not paths, so a row directory edited
    later cannot leak into the next caller."""
    def wrap(run):
        @functools.wraps(run)
        def stage(cfg: RunConfig, out_dir, memo: dict | None = None):
            inputs = STAGES[name].inputs(cfg)
            for up in inputs:
                path = artifact(out_dir, up)
                if not path.exists():
                    writer = next(s for s, st in STAGES.items()
                                  if up in st.outputs)
                    raise ValidationError(
                        f"{name.replace('_', '-')}: {path} is missing; run "
                        f"`vlltr {writer.replace('_', '-')}` first")
            hashes = hash_inputs(out_dir, inputs)
            key = None if memo is None else (stage_fingerprint(name, cfg),
                                             *hashes.values())
            if key is not None and key in memo:
                Path(out_dir).mkdir(parents=True, exist_ok=True)
                for art, data in memo[key].items():
                    with ckpt.atomic_write(artifact(out_dir, art),
                                           binary=True) as f:
                        f.write(data)
                return
            run(cfg, out_dir, hashes)
            if key is not None:
                memo[key] = {art: artifact(out_dir, art).read_bytes()
                             for art in STAGES[name].outputs}
        return stage
    return wrap


_DATA_RECORDS = (("dataset", "__dataset_hash__"),
                 ("corpus", "__corpus_hash__"))
# final.ck also records the anchors it was fine-tuned on
_FINAL_RECORDS = _DATA_RECORDS + (("anchors", "__anchors_hash__"),)


def _meta_sections(fingerprint: bytes, hashes: dict,
                   records=_DATA_RECORDS) -> dict:
    return {"__fingerprint__": ckpt.hash_to_floats(fingerprint),
            **{key: ckpt.hash_to_floats(hashes[name])
               for name, key in records}}


def _check_data_hashes(path, sections: dict, hashes: dict,
                       records=_DATA_RECORDS):
    """Each of the `records` of checkpoint `path` must equal `hashes`."""
    for name, key in records:
        if key not in sections:
            raise StaleArtifactError(
                f"{path}: checkpoint records no {name} hash ('{key}')")
        if not np.array_equal(sections[key],
                              ckpt.hash_to_floats(hashes[name])):
            raise StaleArtifactError(
                f"{path}: checkpoint was trained on a different {name} "
                f"file than {FILES[name]}")


# ---- stages -----------------------------------------------------------------


@_memoized("gen_data")
def cmd_gen_data(cfg: RunConfig, out_dir, hashes: dict):
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


def _load_corpus(cfg: RunConfig, out_dir):
    return load_corpus(artifact(out_dir, "corpus"), cfg.vocab_size,
                       cfg.max_tokens)


@_memoized("make_teacher")
def cmd_make_teacher(cfg: RunConfig, out_dir, hashes: dict):
    """Pre-train a frozen teacher pair on the balanced variant of the
    synthetic task (every class at n_max, same prototypes)."""
    corpus = _load_corpus(cfg, out_dir)
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
        **_meta_sections(stage_fingerprint("make_teacher", cfg), hashes)})
    save_trace(artifact(out_dir, "teacher_trace"), trace)


@_memoized("pretrain")
def cmd_pretrain(cfg: RunConfig, out_dir, hashes: dict):
    dataset = load_dataset(artifact(out_dir, "dataset"))
    corpus = _load_corpus(cfg, out_dir)
    teacher = None
    if cfg.lam < 1.0:
        teacher = TeacherPair(load_model(cfg, out_dir, "teacher", hashes))
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
        **_meta_sections(stage_fingerprint("pretrain", cfg), hashes)})
    save_trace(artifact(out_dir, "pretrain_trace"), trace)


def load_model(cfg: RunConfig, out_dir, name, hashes: dict,
               records=_DATA_RECORDS) -> CvlpModel:
    """The encoder pair and temperature of checkpoint `name`, after
    checking that its `records` (default: the data files) match the
    files hashed in `hashes`."""
    path = artifact(out_dir, name)
    sections = ckpt.read_checkpoint(path)
    _check_data_hashes(path, sections, hashes, records)
    model = CvlpModel(cfg.d_img, cfg.embed_dim, cfg.vocab_size, seed=0,
                      max_tokens=cfg.max_tokens)
    model.load_state(sections)
    return model


@_memoized("select_anchors")
def cmd_select_anchors(cfg: RunConfig, out_dir, hashes: dict):
    dataset = load_dataset(artifact(out_dir, "dataset"))
    corpus = _load_corpus(cfg, out_dir)
    model = load_model(cfg, out_dir, "student", hashes)
    anchors = select_anchors(corpus, dataset, model, cfg.anchor_m,
                             mode=cfg.anchor_mode, cap=cfg.probe_cap,
                             seed=cfg.seed, checkpoint_hash=hashes["student"])
    save_anchors(artifact(out_dir, "anchors"), anchors)


def cmd_finetune(cfg: RunConfig, out_dir):
    hashes = hash_inputs(out_dir, ("dataset", "corpus", "student", "anchors"))
    dataset = load_dataset(artifact(out_dir, "dataset"))
    corpus = _load_corpus(cfg, out_dir)
    model = load_model(cfg, out_dir, "student", hashes)
    anchors = load_anchors(artifact(out_dir, "anchors"))
    if anchors.checkpoint_hash != hashes["student"]:
        raise StaleArtifactError(f"{artifact(out_dir, 'anchors')}: selected "
                                 "under a different pre-training checkpoint")
    fcfg = FinetuneConfig(epochs=cfg.finetune_epochs,
                          batch_size=cfg.finetune_batch,
                          base_lr=cfg.finetune_lr,
                          weight_decay=cfg.weight_decay, seed=cfg.seed,
                          head=cfg.head)
    head_params, _, trace = run_finetune(dataset, anchors, corpus, model, fcfg)
    sections = {**model.state(),
                **_meta_sections(cfg.fingerprint(), hashes, _FINAL_RECORDS),
                **{k: v.data.copy() for k, v in head_params.params().items()}}
    ckpt.write_checkpoint(artifact(out_dir, "final"), sections)
    with ckpt.atomic_write(artifact(out_dir, "finetune_trace")) as f:
        for epoch, step, loss in trace:
            f.write(f"{epoch}\t{step}\t{loss!r}\n")
    return trace


_EVAL_INPUTS = ("dataset", "corpus", "final")


def cmd_precompute_cache(cfg: RunConfig, out_dir, hashes: dict):
    """Write the offline anchor text-embedding cache, keyed by the final
    checkpoint's content hash in `hashes`, from the anchors that
    checkpoint was fine-tuned on."""
    model = load_model(cfg, out_dir, "final",
                       {**hashes, **hash_inputs(out_dir, ("anchors",))},
                       _FINAL_RECORDS)
    anchors = load_anchors(artifact(out_dir, "anchors"))
    emb = compute_anchor_embeddings(anchors, _load_corpus(cfg, out_dir), model)
    save_anchor_embeddings(artifact(out_dir, "cache"), emb, hashes["final"])
    return emb


def load_inference_head(cfg: RunConfig, out_dir, hashes: dict | None = None):
    """Load only what cache-based inference needs from the final
    checkpoint, after checking its data hashes: the visual encoder and
    the head parameters. Linguistic-encoder sections are never
    materialized. Hashes dataset, corpus and final unless given their
    table. Returns (vis, head_params, checkpoint SHA-256)."""
    if hashes is None:
        hashes = hash_inputs(out_dir, _EVAL_INPUTS)
    final_path = artifact(out_dir, "final")
    sections = ckpt.read_checkpoint(
        final_path, names=lambda n: not n.startswith("lin."))
    _check_data_hashes(final_path, sections, hashes)
    vis = VisualEncoder(cfg.d_img, cfg.embed_dim,
                        np.random.default_rng(0))
    head_params = get_head(cfg.head).params(
        cfg.embed_dim, cfg.classes, parameter(np.array(cfg.tau_init)),
        np.random.default_rng(0))
    ckpt.load_params({**vis.params(), **head_params.params()}, sections)
    return vis, head_params, hashes["final"]


def cmd_eval(cfg: RunConfig, out_dir) -> EvalReport:
    """Classify the test split from the anchor cache (built first if it
    is missing) and write the report and predictions. The corpus is
    read only to build a missing cache; the final checkpoint's recorded
    hash of it is still checked."""
    hashes = hash_inputs(out_dir, _EVAL_INPUTS)
    dataset = load_dataset(artifact(out_dir, "dataset"))
    cache_path = artifact(out_dir, "cache")
    if not cache_path.exists():
        cmd_precompute_cache(cfg, out_dir, hashes)
    anchor_emb, cache_hash = load_anchor_embeddings(cache_path)
    vis, head_params, final_hash = load_inference_head(cfg, out_dir, hashes)
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
