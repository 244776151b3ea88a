"""The three benchmark workloads and the output checks each run makes.

Every workload is a closed loop with one client: the next operation
starts when the previous one has returned. `setup` runs before the timed
loop and `op` is the timed operation; `after_op` and `after_loop` check
outputs outside the timed region. A failed check is counted, never
raised, so one bad operation does not hide the rest of the run.

README.md in this directory says why each workload exists and which
layers it bypasses.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from vlltr import checkpoint, cli, evaluation, head, pipeline
from vlltr.anchors import CUTOFF, load_anchors, select_anchors
from vlltr.config import RunConfig, load_config
from vlltr.data import (gen_corpus, gen_synthetic, load_corpus, load_dataset,
                        split_shots)
from vlltr.encoders import CvlpModel, LinguisticEncoder
from vlltr.errors import StaleArtifactError
from vlltr.evaluation import BAND_ORDER

from spans import Target, Tracer

BATCH = 256  # classify_dataset's default batch


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark: `base` are RunConfig fields of the
    reference run (empty: the defaults), `short` the epoch cut of the
    set-up run and of the grid rows."""
    base: dict
    short: dict
    stream_batches: int      # classify batches per infer pass
    min_batches: int         # infer batches per run, at least


REFERENCE_SCALE = Scale(
    base={},
    short=dict(teacher_epochs=1, pretrain_epochs=15, finetune_epochs=1),
    stream_batches=100, min_batches=1000)


@dataclass
class Checks:
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def check(self, ok, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
        return bool(ok)


def check_report(checks: Checks, report, total: int, classes: int, what: str):
    checks.check(report.total == total,
                 f"{what}: report total {report.total}, expected {total}")
    checks.check(all(b in report.bands for b in BAND_ORDER),
                 f"{what}: shot bands {sorted(report.bands)}")
    checks.check(report.overall > 1.0 / classes,
                 f"{what}: top1 {report.overall} not above chance")


def distractor_rate(anchor_path, distractor_ids) -> float:
    """Share of the selected anchors (padding repeats included) that are
    planted distractors."""
    anchors = load_anchors(anchor_path)
    picked = [(c, sid) for c in range(len(anchors.entries))
              for sid in anchors.ids(c)]
    return sum(sid in distractor_ids[c] for c, sid in picked) / len(picked)


def planted_distractors(cfg: RunConfig):
    """The distractor ids the pipeline discards, regenerated from the
    same config and seed."""
    _, ids = gen_corpus(cfg.classes, cfg.sentences_per_class,
                        cfg.prompt_count, cfg.vocab_size, cfg.noise_fraction,
                        cfg.seed, cfg.max_tokens)
    return ids


def _cutoff_rate(cfg: RunConfig, run_dir: Path, distractor_ids) -> float:
    """Distractor rate of a CutOff selection on a finished AnSS run."""
    dataset = load_dataset(pipeline.artifact(run_dir, "dataset"))
    corpus = load_corpus(pipeline.artifact(run_dir, "corpus"),
                         cfg.vocab_size, cfg.max_tokens)
    model = CvlpModel.from_checkpoint(
        pipeline.artifact(run_dir, "student"), cfg.d_img, cfg.embed_dim,
        cfg.vocab_size, cfg.max_tokens)
    picked = select_anchors(corpus, dataset, model, cfg.anchor_m, mode=CUTOFF,
                            cap=cfg.probe_cap, seed=cfg.seed)
    hits = [sid in distractor_ids[c] for c in range(corpus.C)
            for sid in picked.ids(c)]
    return sum(hits) / len(hits)


class Workload:
    name = ""

    def __init__(self, seed: int, scale: Scale, checks: Checks):
        self.seed, self.scale, self.checks = seed, scale, checks
        self.cfg = RunConfig(seed=seed, **scale.base).validate()
        self.short_cfg = replace(self.cfg, **scale.short).validate()
        self.accuracy = None     # (top1, few_top1) of the checked output
        self._last = None

    @property
    def min_ops(self) -> int:
        return 1

    def setup(self, work: Path):
        pipeline.run_all(self.short_cfg, work)

    def after_loop(self):
        pass

    def step_windows_ms(self, training_steps: list) -> list:
        """The closed-loop step latencies of the ops, in the windows
        their percentiles are taken over: here, one window of every
        training step. Slow steps cluster at epoch starts, so a shorter
        window would hide them."""
        return [training_steps]

    def distractor_rates(self):
        """(AnSS, CutOff) distractor rates on the last checked run."""
        cfg, run_dir = self.rated_run
        ids = planted_distractors(cfg)
        return (distractor_rate(pipeline.artifact(run_dir, "anchors"), ids),
                _cutoff_rate(cfg, run_dir, ids))

    def _same_as_last(self, fingerprint, what: str):
        if self._last is not None:
            self.checks.check(fingerprint == self._last,
                              f"{what}: output differs from the previous op")
        self._last = fingerprint


class Reference(Workload):
    """One `pipeline.run_all` on the default RunConfig."""
    name = "reference"

    def op(self, work: Path):
        self.report = pipeline.run_all(self.cfg, work)
        self.rated_run = (self.cfg, work)

    def after_op(self, work: Path):
        cfg, checks = self.cfg, self.checks
        try:
            again = pipeline.cmd_eval(cfg, work).to_json()
        except StaleArtifactError as exc:
            checks.check(False, f"reference: hash chain broken: {exc}")
        else:
            checks.check(again == self.report.to_json(),
                         "reference: cmd_eval disagrees with run_all")
        check_report(checks, self.report, cfg.classes * cfg.test_per_class,
                     cfg.classes, "reference")
        self._same_as_last(self.report.to_json(), "reference")
        self.accuracy = (self.report.overall, self.report.bands.get("few"))


def _load_report(run_dir: Path) -> dict:
    return json.loads(pipeline.artifact(run_dir, "report").read_text())


GRID_ROWS = {"full": {}, "lam1": {"lam": 1.0}, "fc": {"head": "fc"},
             "knn": {"head": "knn"}, "cutoff": {"anchor_mode": CUTOFF}}


class Grid(Workload):
    """`vlltr ablate`: five rows at the reference shapes, epochs cut to
    `scale.short`."""
    name = "grid"

    def __init__(self, seed, scale, checks):
        super().__init__(seed, scale, checks)
        self.args = [f"{k}={v}" for k, v in {**scale.base,
                                              **scale.short}.items()]
        self.cfg = load_config(None, self.args + [f"seed={seed}"])
        self.rows = {name: replace(self.cfg, **changes).fingerprint().hex()
                     for name, changes in GRID_ROWS.items()}

    def op(self, work: Path):
        self._log_start = len(checkpoint.section_load_log)
        argv = ["ablate", "--out", str(work), "--seed", str(self.seed)]
        for pair in self.args:
            argv += ["--set", pair]
        self.table = io.StringIO()
        with contextlib.redirect_stdout(self.table):
            self.exit_code = cli.main(argv)

    def after_op(self, work: Path):
        cfg, checks = self.cfg, self.checks
        checks.check(self.exit_code == 0,
                     f"grid: vlltr ablate exited {self.exit_code}")
        lines = self.table.getvalue().splitlines()
        checks.check(len(lines) == 2 + len(GRID_ROWS),
                     f"grid: table has {len(lines)} lines")
        dirs = {}
        for path in sorted(Path(work).glob("*/report.json")):
            fp = json.loads(path.read_text())["config_fingerprint"]
            dirs[fp] = path.parent
        if not checks.check(set(dirs) == set(self.rows.values()),
                            f"grid: {len(dirs)} row reports, expected 5"):
            return
        self.row_dirs = {name: dirs[fp] for name, fp in self.rows.items()}
        reports = {}
        for name, d in self.row_dirs.items():
            report = _load_report(d)
            reports[name] = report
            checks.check(report["total"] == cfg.classes * cfg.test_per_class,
                         f"grid {name}: report total {report['total']}")
            checks.check(all(report[b] is not None for b in BAND_ORDER),
                         f"grid {name}: missing shot band")
        checks.check(reports["full"]["overall"] > 1.0 / cfg.classes,
                     "grid full: top1 not above chance")
        lam1 = self.row_dirs["lam1"]
        checks.check(not pipeline.artifact(lam1, "teacher").exists(),
                     "grid lam1: trained a teacher")
        read = [p for p, _ in checkpoint.section_load_log[self._log_start:]]
        checks.check(not any(Path(p).parent == lam1 and
                             Path(p).name == pipeline.FILES["teacher"]
                             for p in read),
                     "grid lam1: read a teacher checkpoint")
        self._same_as_last(json.dumps(reports, sort_keys=True), "grid")
        self.accuracy = (reports["full"]["overall"], reports["full"]["few"])

    def distractor_rates(self):
        ids = planted_distractors(self.cfg)
        return tuple(distractor_rate(pipeline.artifact(self.row_dirs[row],
                                                       "anchors"), ids)
                     for row in ("full", "cutoff"))


class Infer(Workload):
    """Encoder-free inference: set-up trains a short run and loads the
    head and anchor cache; the timed op is one pass of `classify_dataset`
    batches over a seeded image stream, ending in an accuracy report."""
    name = "infer"

    @property
    def min_ops(self) -> int:
        return -(-self.scale.min_batches // self.scale.stream_batches)

    def setup(self, work: Path):
        cfg, checks = self.short_cfg, self.checks
        pipeline.run_all(cfg, work)
        start = len(checkpoint.section_load_log)
        self.vis, self.head_params, _ = pipeline.load_inference_head(cfg, work)
        read = checkpoint.section_load_log[start:]
        checks.check(not any(n.startswith("lin.") for _, n in read),
                     "infer: load_inference_head read lin. sections")
        self.anchor_emb, cache_hash = head.load_anchor_embeddings(
            pipeline.artifact(work, "cache"))
        checks.check(cache_hash == checkpoint.file_sha256(
            pipeline.artifact(work, "final")),
            "infer: anchor cache is stale")
        counts = load_dataset(pipeline.artifact(work, "dataset")).counts
        self.bands = split_shots(counts)
        self.X, self.y = image_stream(cfg, self.scale.stream_batches * BATCH)
        self.rated_run = (cfg, work)
        self.batch_ms = []   # one list of batch latencies per pass

    def op(self, work: Path):
        guard = Tracer([Target(LinguisticEncoder, "__call__", "lin")])
        self._log_start = len(checkpoint.section_load_log)
        preds = np.empty(len(self.y), dtype=np.int64)
        batch_ms = []
        self.batch_ms.append(batch_ms)
        with guard:
            for start in range(0, len(self.y), BATCH):
                batch = self.X[start:start + BATCH]
                t0 = time.perf_counter()
                labels, _, _ = head.classify_dataset(
                    batch, self.vis, "lgr", self.head_params, self.anchor_emb)
                batch_ms.append(1e3 * (time.perf_counter() - t0))
                self.checks.check(
                    labels.shape == (len(batch),) and labels.min() >= 0
                    and labels.max() < self.cfg.classes,
                    f"infer: bad labels for batch at {start}")
                preds[start:start + BATCH] = labels
        self.report = evaluation.evaluate(preds, self.y, self.bands)
        self.lin_calls = len(guard.spans)
        self.preds = preds

    def after_op(self, work: Path):
        checks = self.checks
        checks.check(self.lin_calls == 0,
                     f"infer: {self.lin_calls} LinguisticEncoder calls")
        read = checkpoint.section_load_log[self._log_start:]
        checks.check(not read, f"infer: op read {len(read)} sections")
        check_report(checks, self.report, len(self.y), self.cfg.classes,
                     "infer")
        self._same_as_last(self.preds.tobytes(), "infer")
        self.accuracy = (self.report.overall, self.report.bands.get("few"))

    def step_windows_ms(self, training_steps: list) -> list:
        """One window per pass. Slow batches are scattered, and a pass
        within a stretch of slow machine would move a whole-run p99."""
        return [w for w in self.batch_ms if w]

    def after_loop(self):
        """Predictions on a slice must not depend on the batch size."""
        sample = self.X[:300]
        got = [head.classify_dataset(sample, self.vis, "lgr",
                                     self.head_params, self.anchor_emb,
                                     batch=b)[0] for b in (BATCH, 64, 1)]
        self.checks.check(all((g == got[0]).all() for g in got[1:]),
                          "infer: predictions depend on the batch size")


def image_stream(cfg: RunConfig, n: int):
    """`n` labelled images around the run's class prototypes, with noise
    the training and test splits never drew."""
    protos = gen_synthetic(cfg.classes, [1] * cfg.classes, cfg.d_img,
                           cfg.noise_sigma, cfg.seed, 1).prototypes
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x57EA]))
    y = rng.integers(cfg.classes, size=n)
    noise = rng.normal(size=(n, cfg.d_img)) * cfg.noise_sigma
    return (protos[y] + noise).astype(np.float32), y


WORKLOADS = {w.name: w for w in (Reference, Infer, Grid)}
