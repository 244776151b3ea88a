"""End-to-end stage orchestration over an output directory.

Stages couple through content hashes: each checkpoint records the
SHA-256 of the data files it was trained on, anchor files record the
checkpoint they were scored under, and the embedding cache records the
checkpoint its text embeddings came from. Each stage call hashes each
file it reads once, into one {artifact: SHA-256} table that its memo
key, its records and its checks all read, and refuses inputs whose
hashes disagree, and checkpoints whose config fingerprint is not its own
config's over the fields of the stage that wrote them. `head` holds no
hash policy.

Every stage is a row of `STAGES` and writes bytes that depend only on
the config fields it reads and on the bytes of its upstream artifacts.
Given a memo, a stage runs once per distinct (fields, upstream bytes)
and writes the remembered bytes on every later call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from .anchors import load_anchors, save_anchors, select_anchors
from .config import RunConfig
from .data import (corpus_stats, gen_corpus, gen_pareto_counts, gen_synthetic,
                   load_corpus, load_dataset, save_corpus, save_dataset,
                   save_stats, split_shots)
from .encoders import CvlpModel, TeacherPair, VisualEncoder
from .errors import NumericError, StaleArtifactError, ValidationError
from .evaluation import EvalReport, evaluate
from .head import (classify_dataset, get_head, load_anchor_embeddings,
                   run_finetune, save_anchor_embeddings)
from .pretrain import run_pretrain, save_trace
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


# final.ck and report.json record the whole config's fingerprint
_EVERY_FIELD = tuple(f.name for f in fields(RunConfig))

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
    "finetune": Stage(
        fields=_EVERY_FIELD,
        upstream=("dataset", "corpus", "student", "anchors"),
        outputs=("final", "finetune_trace", "cache")),
    "eval": Stage(
        fields=_EVERY_FIELD, upstream=("dataset", "corpus", "final", "cache"),
        outputs=("report", "predictions")),
}


def stage_fingerprint(name: str, cfg: RunConfig) -> bytes:
    """SHA-256 of the config fields stage `name` reads."""
    return cfg.fingerprint(STAGES[name].fields)


# The command that writes each artifact a later command reads.
_WRITERS = {art: name.replace("_", "-")
           for name, st in STAGES.items() for art in st.outputs}


def hash_inputs(out_dir, names) -> dict:
    """{artifact: SHA-256} of each named file in `out_dir`."""
    return {name: ckpt.file_sha256(artifact(out_dir, name)) for name in names}


def require_inputs(command: str, out_dir, names) -> dict:
    """`hash_inputs` of the input files of `command`; a missing one is a
    ValidationError naming the file and the command that writes it."""
    for name in names:
        path = artifact(out_dir, name)
        if not path.exists():
            raise ValidationError(f"{command}: {path} is missing; run "
                                  f"`vlltr {_WRITERS[name]}` first")
    return hash_inputs(out_dir, names)


def _stage(name: str):
    """Make stage `name` hash its inputs once, through `require_inputs`,
    and take an optional memo (key -> {artifact: bytes}). The body gets
    the hash table and the stage returns its result; on a memo hit the
    stage writes the remembered bytes instead and returns None. Bytes,
    not paths: a row directory edited later cannot leak into the next.

    The body runs with floating-point division by zero, invalid
    operations and overflow raised where they arise, as a NumericError
    naming the stage; underflow stays silent."""
    command = name.replace("_", "-")

    def wrap(run):
        @functools.wraps(run)
        def stage(cfg: RunConfig, out_dir, memo: dict | None = None):
            hashes = require_inputs(command, out_dir,
                                    STAGES[name].inputs(cfg))
            key = None if memo is None else (stage_fingerprint(name, cfg),
                                             *hashes.values())
            if key is not None and key in memo:
                Path(out_dir).mkdir(parents=True, exist_ok=True)
                for art, data in memo[key].items():
                    with ckpt.atomic_write(artifact(out_dir, art),
                                           binary=True) as f:
                        f.write(data)
                return None
            try:
                with np.errstate(divide="raise", invalid="raise",
                                 over="raise", under="ignore"):
                    result = run(cfg, out_dir, hashes)
            except FloatingPointError as exc:
                raise NumericError(f"{command}: {exc}") from exc
            if key is not None:
                memo[key] = {art: artifact(out_dir, art).read_bytes()
                             for art in STAGES[name].outputs}
            return result
        return stage
    return wrap


_DATA_RECORDS = (("dataset", "__dataset_hash__"),
                 ("corpus", "__corpus_hash__"))


def _meta_sections(fingerprint: bytes, hashes: dict) -> dict:
    return {"__fingerprint__": ckpt.hash_to_floats(fingerprint),
            **{key: ckpt.hash_to_floats(hashes[name])
               for name, key in _DATA_RECORDS}}


def _check_data_hashes(path, sections: dict, hashes: dict):
    """The data records of checkpoint `path` must equal `hashes`."""
    for name, key in _DATA_RECORDS:
        if key not in sections:
            raise StaleArtifactError(
                f"{path}: checkpoint records no {name} hash ('{key}')")
        if not np.array_equal(sections[key],
                              ckpt.hash_to_floats(hashes[name])):
            raise StaleArtifactError(
                f"{path}: checkpoint was trained on a different {name} "
                f"file than {FILES[name]}")


def _check_fingerprint(path, sections: dict, cfg: RunConfig, name: str):
    """Checkpoint `name` at `path` must record `cfg`'s fingerprint over
    the fields of the stage that writes it."""
    writer = _WRITERS[name]
    want = stage_fingerprint(writer.replace("-", "_"), cfg)
    if not np.array_equal(sections.get("__fingerprint__"),
                          ckpt.hash_to_floats(want)):
        raise StaleArtifactError(f"{path}: written under a different config; "
                                 f"re-run `vlltr {writer}` under this one")


# ---- stages -----------------------------------------------------------------


@_stage("gen_data")
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


def _pretrain(name: str, cfg: RunConfig, run_cfg: RunConfig, out_dir,
              hashes: dict, dataset, teacher):
    """Pre-train a `CvlpModel` built under `run_cfg` on `dataset` and
    write stage `name`'s checkpoint and trace, recording the stage
    fingerprint of the run's own `cfg`."""
    model = CvlpModel(run_cfg.d_img, run_cfg.embed_dim, run_cfg.vocab_size,
                      seed=run_cfg.seed, tau_init=run_cfg.tau_init,
                      max_tokens=run_cfg.max_tokens)
    trace = run_pretrain(dataset, _load_corpus(cfg, out_dir), model, teacher,
                         run_cfg)
    checkpoint, trace_file = STAGES[name].outputs
    ckpt.write_checkpoint(artifact(out_dir, checkpoint), {
        **model.state(),
        **_meta_sections(stage_fingerprint(name, cfg), hashes)})
    save_trace(artifact(out_dir, trace_file), trace)


@_stage("make_teacher")
def cmd_make_teacher(cfg: RunConfig, out_dir, hashes: dict):
    """Pre-train a frozen teacher pair: pre-training without a teacher
    (lam 1) for `teacher_epochs` under seed + 7, on the balanced variant
    of the synthetic task (every class at n_max, same prototypes)."""
    balanced = gen_synthetic(cfg.classes, [cfg.n_max] * cfg.classes,
                             cfg.d_img, cfg.noise_sigma, cfg.seed,
                             cfg.test_per_class)
    run_cfg = replace(cfg, pretrain_epochs=cfg.teacher_epochs, lam=1.0,
                      seed=cfg.seed + 7)
    _pretrain("make_teacher", cfg, run_cfg, out_dir, hashes, balanced, None)


@_stage("pretrain")
def cmd_pretrain(cfg: RunConfig, out_dir, hashes: dict):
    """Pre-train the student, distilled from the teacher exactly when the
    stage reads one."""
    teacher = (TeacherPair(load_model(cfg, out_dir, "teacher", hashes))
               if "teacher" in hashes else None)
    _pretrain("pretrain", cfg, cfg, out_dir, hashes,
              load_dataset(artifact(out_dir, "dataset")), teacher)


def load_model(cfg: RunConfig, out_dir, name, hashes: dict) -> CvlpModel:
    """The encoder pair and temperature of checkpoint `name`, after
    checking its data records against `hashes` and its fingerprint."""
    path = artifact(out_dir, name)
    sections = ckpt.read_checkpoint(path)
    _check_data_hashes(path, sections, hashes)
    model = CvlpModel(cfg.d_img, cfg.embed_dim, cfg.vocab_size, seed=0,
                      max_tokens=cfg.max_tokens)
    model.load_state(sections, path)
    _check_fingerprint(path, sections, cfg, name)
    return model


@_stage("select_anchors")
def cmd_select_anchors(cfg: RunConfig, out_dir, hashes: dict):
    dataset = load_dataset(artifact(out_dir, "dataset"))
    corpus = _load_corpus(cfg, out_dir)
    model = load_model(cfg, out_dir, "student", hashes)
    anchors = select_anchors(corpus, dataset, model, cfg.anchor_m,
                             mode=cfg.anchor_mode, cap=cfg.probe_cap,
                             seed=cfg.seed, checkpoint_hash=hashes["student"])
    save_anchors(artifact(out_dir, "anchors"), anchors)


@_stage("finetune")
def cmd_finetune(cfg: RunConfig, out_dir, hashes: dict):
    """Fine-tune on the selected anchors. The anchor cache is the block
    fine-tuning embedded, which the frozen text encoder cannot change."""
    dataset = load_dataset(artifact(out_dir, "dataset"))
    corpus = _load_corpus(cfg, out_dir)
    model = load_model(cfg, out_dir, "student", hashes)
    path = artifact(out_dir, "anchors")
    anchors = load_anchors(path)
    if anchors.checkpoint_hash != hashes["student"]:
        raise StaleArtifactError(f"{path}: selected under a different "
                                 "pre-training checkpoint")
    if (anchors.mode, anchors.M) != (cfg.anchor_mode, cfg.anchor_m):
        raise StaleArtifactError(
            f"{path}: selected with mode={anchors.mode} M={anchors.M}, not "
            f"mode={cfg.anchor_mode} M={cfg.anchor_m}; re-run "
            "`vlltr select-anchors` under this one")
    head, emb, trace = run_finetune(dataset, anchors, corpus, model, cfg)
    sections = {**model.state(),
                **_meta_sections(cfg.fingerprint(), hashes),
                **{k: v.data.copy() for k, v in head.params().items()}}
    ckpt.write_checkpoint(artifact(out_dir, "final"), sections)
    save_trace(artifact(out_dir, "finetune_trace"), trace)
    cmd_precompute_cache(out_dir, emb)


def cmd_precompute_cache(out_dir, anchor_emb: np.ndarray):
    """Write the (C, M, D) anchor text-embedding block as the offline
    cache, keyed by the content hash of the final checkpoint."""
    save_anchor_embeddings(artifact(out_dir, "cache"), anchor_emb,
                           ckpt.file_sha256(artifact(out_dir, "final")))


def load_inference_head(cfg: RunConfig, out_dir, hashes: dict | None = None):
    """Load only what cache-based inference needs from the final
    checkpoint, after checking its data hashes and its fingerprint: the
    visual encoder and the head parameters. Linguistic-encoder sections
    are never materialized. Hashes dataset, corpus and final unless
    given their table. Returns (vis, head_params, checkpoint SHA-256)."""
    if hashes is None:
        hashes = hash_inputs(out_dir, ("dataset", "corpus", "final"))
    final_path = artifact(out_dir, "final")
    sections = ckpt.read_checkpoint(
        final_path, names=lambda n: not n.startswith("lin."))
    _check_data_hashes(final_path, sections, hashes)
    vis = VisualEncoder(cfg.d_img, cfg.embed_dim,
                        np.random.default_rng(0))
    head_params = get_head(cfg.head).params(
        cfg.embed_dim, cfg.classes, parameter(np.array(cfg.tau_init)),
        np.random.default_rng(0))
    ckpt.load_params({**vis.params(), **head_params.params()}, sections,
                     final_path)
    _check_fingerprint(final_path, sections, cfg, "final")
    return vis, head_params, hashes["final"]


@_stage("eval")
def cmd_eval(cfg: RunConfig, out_dir, hashes: dict) -> EvalReport:
    """Classify the test split against the anchor cache that finetune
    wrote and write the report and predictions. The text side is never
    read: not the corpus, the anchors nor a `lin.` section; the final
    checkpoint's recorded hash of the corpus is still checked."""
    dataset = load_dataset(artifact(out_dir, "dataset"))
    anchor_emb, cache_hash = load_anchor_embeddings(artifact(out_dir, "cache"))
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
    `memo` run each distinct stage before finetune once."""
    cmd_gen_data(cfg, out_dir, memo)
    if cfg.lam < 1.0:
        cmd_make_teacher(cfg, out_dir, memo)
    cmd_pretrain(cfg, out_dir, memo)
    cmd_select_anchors(cfg, out_dir, memo)
    cmd_finetune(cfg, out_dir)
    return cmd_eval(cfg, out_dir)
