"""End-to-end stage orchestration over an output directory.

Every stage is a row of `STAGES` and writes bytes that depend only on
the config fields it reads and on the bytes of its upstream artifacts.
Its key, `stage_key`, follows from the config alone: the SHA-256 of its
own field lines and of the keys of the stages that write its inputs.
Stages are byte-deterministic, so equal keys name equal bytes.

Provenance is one record per stage call, written by `_stage` after the
body runs: the stage key and the SHA-256 of each other file the stage
wrote. Before a body runs, `require_inputs` checks each input against
its writer's record: the record's key must be the key this config gives
the writer, and the file must be the one the record names. No other
module knows this policy.

Given a memo, a stage runs once per distinct key and writes the
remembered bytes, its record included, on every later call.
"""

from __future__ import annotations

import functools
import hashlib
import json
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
    "gen_data_record": "gen-data.record.json",
    "teacher": "teacher.ck",
    "teacher_trace": "teacher_trace.tsv",
    "make_teacher_record": "make-teacher.record.json",
    "student": "student.ck",
    "pretrain_trace": "pretrain_trace.tsv",
    "pretrain_record": "pretrain.record.json",
    "anchors": "anchors.tsv",
    "select_anchors_record": "select-anchors.record.json",
    "final": "final.ck",
    "finetune_trace": "finetune_trace.tsv",
    "cache": "anchor_cache.vlae",
    "finetune_record": "finetune.record.json",
    "predictions": "predictions.tsv",
    "report": "report.json",
    "eval_record": "eval.record.json",
}


def artifact(out_dir, name) -> Path:
    return Path(out_dir) / FILES[name]


@dataclass(frozen=True)
class Stage:
    fields: tuple     # the RunConfig fields the stage reads
    upstream: tuple   # the artifacts whose bytes its outputs depend on
    outputs: tuple    # the artifacts it writes, its record last

    def inputs(self, cfg: RunConfig) -> tuple:
        """The upstream artifacts a run under `cfg` reads: the teacher
        only when it distills (lam < 1)."""
        return tuple(a for a in self.upstream
                     if a != "teacher" or cfg.lam < 1.0)

    @property
    def record(self) -> str:
        return self.outputs[-1]


# report.json records the whole config's fingerprint
_EVERY_FIELD = tuple(f.name for f in fields(RunConfig))

STAGES = {
    "gen_data": Stage(
        fields=("seed", "classes", "n_max", "n_min", "d_img", "noise_sigma",
                "test_per_class", "sentences_per_class", "prompt_count",
                "vocab_size", "noise_fraction", "max_tokens"),
        upstream=(),
        outputs=("dataset", "corpus", "stats", "gen_data_record")),
    "make_teacher": Stage(
        fields=("seed", "classes", "n_max", "d_img", "noise_sigma",
                "test_per_class", "embed_dim", "vocab_size", "tau_init",
                "max_tokens", "teacher_epochs", "pretrain_batch",
                "pretrain_lr", "weight_decay"),
        upstream=("dataset", "corpus"),
        outputs=("teacher", "teacher_trace", "make_teacher_record")),
    "pretrain": Stage(
        fields=("seed", "d_img", "embed_dim", "vocab_size", "tau_init",
                "max_tokens", "pretrain_epochs", "pretrain_batch",
                "pretrain_lr", "lam", "weight_decay"),
        upstream=("dataset", "corpus", "teacher"),
        outputs=("student", "pretrain_trace", "pretrain_record")),
    "select_anchors": Stage(
        fields=("seed", "d_img", "embed_dim", "vocab_size", "max_tokens",
                "anchor_m", "anchor_mode", "probe_cap"),
        upstream=("dataset", "corpus", "student"),
        outputs=("anchors", "select_anchors_record")),
    "finetune": Stage(
        fields=_EVERY_FIELD,
        upstream=("dataset", "corpus", "student", "anchors"),
        outputs=("final", "finetune_trace", "cache", "finetune_record")),
    "eval": Stage(
        fields=_EVERY_FIELD, upstream=("dataset", "corpus", "final", "cache"),
        outputs=("report", "predictions", "eval_record")),
}

# The stage that writes each artifact.
_WRITERS = {art: name for name, st in STAGES.items() for art in st.outputs}


def _command(name: str) -> str:
    return name.replace("_", "-")


def stage_key(name: str, cfg: RunConfig) -> str:
    """SHA-256 (hex) of stage `name`'s field lines under `cfg` and of the
    keys of the stages that write its inputs, each writer once, in
    `STAGES` order: known before any upstream byte exists."""
    inputs = set(STAGES[name].inputs(cfg))
    text = cfg.canonical(STAGES[name].fields) + "".join(
        f"{writer} = {stage_key(writer, cfg)}\n"
        for writer, st in STAGES.items() if inputs & set(st.outputs))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _read_record(out_dir, writer: str) -> tuple:
    """(key, {file name: SHA-256 hex}) of stage `writer`'s record; one
    that does not parse is a ValidationError naming it."""
    path = artifact(out_dir, STAGES[writer].record)
    text = ckpt.read_text(path)
    try:
        record = json.loads(text)
        return record["key"], dict(record["sha256"])
    except (ValueError, KeyError, TypeError) as exc:
        raise ValidationError(f"{path}: not a stage record "
                              f"({type(exc).__name__}: {exc})") from exc


def require_inputs(command: str, out_dir, names, cfg: RunConfig):
    """Check the input files `names` of `command` against the records of
    the stages that wrote them, hashing each file once.

    A missing file or record is a ValidationError naming it and the
    command that writes it, as is a record that does not parse. A record
    whose key is not the one `cfg` gives its stage, or a file that is not
    the one its record names, is a StaleArtifactError naming the file and
    the command to re-run."""
    writers = {name: _WRITERS[name] for name in names}
    records = [STAGES[w].record for w in dict.fromkeys(writers.values())]
    for name in [*names, *records]:
        path = artifact(out_dir, name)
        if not path.exists():
            raise ValidationError(f"{command}: {path} is missing; run "
                                  f"`vlltr {_command(_WRITERS[name])}` first")
    records = {}
    for name, writer in writers.items():
        if writer not in records:
            records[writer] = _read_record(out_dir, writer)
        key, digests = records[writer]
        path = artifact(out_dir, name)
        rerun = f"`vlltr {_command(writer)}`"
        if key != stage_key(writer, cfg):
            raise StaleArtifactError(f"{path}: written under a different "
                                     f"config; re-run {rerun} under this one")
        if ckpt.file_sha256(path).hex() != digests.get(path.name):
            raise StaleArtifactError(
                f"{path}: not the file {rerun} wrote; re-run it")


def _write_record(out_dir, name: str, key: str, digests: dict):
    """Stage `name`'s record: `key` and the SHA-256 of each other output,
    taken from `digests` where the body already hashed it."""
    *files, record = STAGES[name].outputs
    sha256 = {FILES[art]: (digests.get(art) or
                           ckpt.file_sha256(artifact(out_dir, art))).hex()
              for art in files}
    with ckpt.atomic_write(artifact(out_dir, record)) as f:
        f.write(json.dumps({"key": key, "sha256": sha256}, indent=1,
                           sort_keys=True) + "\n")


def _stage(name: str):
    """Make stage `name` check its inputs through `require_inputs`, write
    its record after the body, and take an optional memo (stage key ->
    {artifact: bytes}). The body gets an empty {artifact: SHA-256} table
    to hold the digests of outputs it hashes itself; the stage returns
    the body's result. On a memo hit the stage writes the remembered
    bytes instead and returns None. Bytes, not paths: a row directory
    edited later cannot leak into the next.

    The body runs with floating-point division by zero, invalid
    operations and overflow raised where they arise, as a NumericError
    naming the stage; underflow stays silent. A setting too large for
    memory is a ValidationError naming the stage."""
    command = _command(name)

    def wrap(run):
        @functools.wraps(run)
        def stage(cfg: RunConfig, out_dir, memo: dict | None = None):
            require_inputs(command, out_dir, STAGES[name].inputs(cfg), cfg)
            key = stage_key(name, cfg)
            if memo is not None and key in memo:
                Path(out_dir).mkdir(parents=True, exist_ok=True)
                for art, data in memo[key].items():
                    with ckpt.atomic_write(artifact(out_dir, art),
                                           binary=True) as f:
                        f.write(data)
                return None
            digests = {}
            try:
                with np.errstate(divide="raise", invalid="raise",
                                 over="raise", under="ignore"):
                    result = run(cfg, out_dir, digests)
            except FloatingPointError as exc:
                raise NumericError(f"{command}: {exc}") from exc
            except MemoryError as exc:
                detail = str(exc) or "allocation refused"
                raise ValidationError(f"{command}: not enough memory for "
                                      f"this config ({detail})") from exc
            _write_record(out_dir, name, key, digests)
            if memo is not None:
                memo[key] = {art: artifact(out_dir, art).read_bytes()
                             for art in STAGES[name].outputs}
            return result
        return stage
    return wrap


# ---- stages -----------------------------------------------------------------


@_stage("gen_data")
def cmd_gen_data(cfg: RunConfig, out_dir, digests: dict):
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


def load_model(cfg: RunConfig, out_dir, name) -> CvlpModel:
    """The encoder pair and temperature of checkpoint `name`."""
    return CvlpModel.from_checkpoint(artifact(out_dir, name), cfg.d_img,
                                     cfg.embed_dim, cfg.vocab_size,
                                     cfg.max_tokens)


def _pretrain(name: str, cfg: RunConfig, out_dir, dataset, teacher):
    """Pre-train a `CvlpModel` built under `cfg` on `dataset` and write
    stage `name`'s checkpoint and trace."""
    model = CvlpModel(cfg.d_img, cfg.embed_dim, cfg.vocab_size,
                      seed=cfg.seed, tau_init=cfg.tau_init,
                      max_tokens=cfg.max_tokens)
    trace = run_pretrain(dataset, _load_corpus(cfg, out_dir), model, teacher,
                         cfg)
    checkpoint, trace_file, _ = STAGES[name].outputs
    ckpt.write_checkpoint(artifact(out_dir, checkpoint), model.state())
    save_trace(artifact(out_dir, trace_file), trace)


@_stage("make_teacher")
def cmd_make_teacher(cfg: RunConfig, out_dir, digests: dict):
    """Pre-train a frozen teacher pair: pre-training without a teacher
    (lam 1) for `teacher_epochs` under seed + 7, on the balanced variant
    of the synthetic task (every class at n_max, same prototypes)."""
    balanced = gen_synthetic(cfg.classes, [cfg.n_max] * cfg.classes,
                             cfg.d_img, cfg.noise_sigma, cfg.seed,
                             cfg.test_per_class)
    run_cfg = replace(cfg, pretrain_epochs=cfg.teacher_epochs, lam=1.0,
                      seed=cfg.seed + 7)
    _pretrain("make_teacher", run_cfg, out_dir, balanced, None)


@_stage("pretrain")
def cmd_pretrain(cfg: RunConfig, out_dir, digests: dict):
    """Pre-train the student, distilled from the teacher exactly when the
    stage reads one."""
    teacher = (TeacherPair(load_model(cfg, out_dir, "teacher"))
               if "teacher" in STAGES["pretrain"].inputs(cfg) else None)
    _pretrain("pretrain", cfg, out_dir,
              load_dataset(artifact(out_dir, "dataset")), teacher)


@_stage("select_anchors")
def cmd_select_anchors(cfg: RunConfig, out_dir, digests: dict):
    dataset = load_dataset(artifact(out_dir, "dataset"))
    corpus = _load_corpus(cfg, out_dir)
    model = load_model(cfg, out_dir, "student")
    anchors = select_anchors(corpus, dataset, model, cfg.anchor_m,
                             mode=cfg.anchor_mode, cap=cfg.probe_cap,
                             seed=cfg.seed)
    save_anchors(artifact(out_dir, "anchors"), anchors)


@_stage("finetune")
def cmd_finetune(cfg: RunConfig, out_dir, digests: dict):
    """Fine-tune on the selected anchors. The anchor cache is the block
    fine-tuning embedded, which the frozen text encoder cannot change."""
    dataset = load_dataset(artifact(out_dir, "dataset"))
    corpus = _load_corpus(cfg, out_dir)
    model = load_model(cfg, out_dir, "student")
    anchors = load_anchors(artifact(out_dir, "anchors"))
    head, emb, trace = run_finetune(dataset, anchors, corpus, model, cfg)
    sections = {**model.state(),
                **{k: v.data.copy() for k, v in head.params().items()}}
    ckpt.write_checkpoint(artifact(out_dir, "final"), sections)
    save_trace(artifact(out_dir, "finetune_trace"), trace)
    digests["final"] = ckpt.file_sha256(artifact(out_dir, "final"))
    cmd_precompute_cache(out_dir, emb, digests["final"])


def cmd_precompute_cache(out_dir, anchor_emb: np.ndarray,
                         final_sha256: bytes):
    """Write the (C, M, D) anchor text-embedding block as the offline
    cache, keyed by the content hash of the final checkpoint."""
    save_anchor_embeddings(artifact(out_dir, "cache"), anchor_emb,
                           final_sha256)


def load_inference_head(cfg: RunConfig, out_dir):
    """Load what cache-based inference needs: the visual encoder and the
    head parameters of the final checkpoint, and the anchor cache.
    Linguistic-encoder sections are never materialized. Returns (vis,
    head_params, the (C, M, D) anchor embeddings)."""
    final_path = artifact(out_dir, "final")
    sections = ckpt.read_checkpoint(
        final_path, names=lambda n: not n.startswith("lin."))
    vis = VisualEncoder(cfg.d_img, cfg.embed_dim,
                        np.random.default_rng(0))
    head_params = get_head(cfg.head).params(
        cfg.embed_dim, cfg.classes, parameter(np.array(cfg.tau_init)),
        np.random.default_rng(0))
    ckpt.load_params({**vis.params(), **head_params.params()}, sections,
                     final_path)
    anchor_emb, _ = load_anchor_embeddings(artifact(out_dir, "cache"))
    return vis, head_params, anchor_emb


@_stage("eval")
def cmd_eval(cfg: RunConfig, out_dir, digests: dict) -> EvalReport:
    """Classify the test split against the anchor cache that finetune
    wrote and write the report and predictions. The text side is never
    read: not the corpus, the anchors nor a `lin.` section; the corpus
    is still checked against its record."""
    dataset = load_dataset(artifact(out_dir, "dataset"))
    vis, head_params, anchor_emb = load_inference_head(cfg, out_dir)
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
