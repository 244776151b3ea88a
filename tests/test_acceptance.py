"""Acceptance gate: the nine package-level criteria, one test each.

Each test prints a single `[criterion N] PASS/FAIL` line (visible with
`pytest -s` or in the captured output of a failing run) and asserts the
stated tolerance.
"""

import dataclasses
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import golden
from composite_oracles import class_sentences
from test_head import make_params, naive_lgr

from vlltr import checkpoint as ckpt
from vlltr import pipeline
from vlltr.anchors import build_probe_pool, select_anchors
from vlltr.config import RunConfig
from vlltr.data import SqrtSampler, gen_corpus, gen_synthetic
from vlltr.encoders import CvlpModel, VisualEncoder
from vlltr.evaluation import evaluate
from vlltr.gradsuite import default_suite, run_suite
from vlltr.head import (classify_dataset, compute_anchor_embeddings,
                        knn_forward, knn_keys, lgr_forward, lgr_keys,
                        load_anchor_embeddings)
from vlltr.pretrain import pretrain_loss


def report_line(n, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {n}] {status}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_gradient_suite():
    start = time.time()
    all_passed, lines = run_suite(default_suite(seed=0, instances=20))
    elapsed = time.time() - start
    per_loss = {name: sum(1 for l in lines if l.startswith(name) and "PASS" in l)
                for name in ("L_ccl", "L_dis", "L_pre", "L_rec")}
    ok = all_passed and elapsed < 60 and all(v >= 20 for v in per_loss.values())
    report_line(1, ok,
                f"{len(lines)} checks, counts {per_loss}, {elapsed:.1f}s"
                + ("" if all_passed else "; failures: "
                   + "; ".join(l for l in lines if "FAIL" in l)))


def ccl(S, labels, tau):
    """L_ccl, pretrain_loss at lam 1, which never reads the teacher."""
    return pretrain_loss(S, None, labels, tau, 1.0, lam=1.0).value


def test_criterion_2_loss_identities():
    checks = []
    # single pair: both losses vanish
    checks.append(abs(ccl(np.array([[0.4]]), [3], 0.5)) < 1e-12)
    checks.append(abs(pretrain_loss(np.array([[0.4]]), np.array([[1.1]]),
                                    [3], 0.5, 0.3, lam=0.0).value) < 1e-12)
    # all-same-class uniform similarity: 2 ln N
    for n in (2, 3, 5):
        got = ccl(np.full((n, n), 0.7), np.zeros(n, int), 0.3)
        checks.append(abs(got - 2 * np.log(n)) < 1e-12)
    # shift invariance
    rng = np.random.default_rng(0)
    S = rng.normal(size=(6, 6))
    labels = rng.integers(0, 4, size=6)
    drift = abs(ccl(S, labels, 0.4) - ccl(S + 123.0, labels, 0.4))
    checks.append(drift <= 1e-10)
    # lambda endpoints are bit-exact reuses of the component losses
    St = rng.normal(size=(6, 6))
    both = pretrain_loss(S, St, labels, 0.4, 0.6, lam=0.5)
    loss1 = pretrain_loss(S, St, labels, 0.4, 0.6, lam=1.0)
    checks.append(loss1.l_dis is None and loss1.value == both.l_ccl)
    loss0 = pretrain_loss(S, St, labels, 0.4, 0.6, lam=0.0)
    checks.append(loss0.value == both.l_dis)
    report_line(2, all(checks), f"{len(checks)} identities, drift={drift:.2e}")


def test_criterion_3_head_normalization():
    rng = np.random.default_rng(1)
    worst = 0.0
    for trial in range(1000):
        N = int(rng.integers(1, 5))
        C = int(rng.integers(1, 5))
        M = int(rng.integers(1, 4))
        D = int(rng.integers(2, 7))
        params = make_params(D, C, seed=trial)
        x, anchors = rng.normal(size=(N, D)), rng.normal(size=(C, M, D))
        out = lgr_forward(x, anchors, params, lgr_keys(anchors))
        worst = max(worst,
                    float(np.abs(out.P_I.sum(axis=1) - 1).max()),
                    float(np.abs(out.P_T.sum(axis=1) - 1).max()),
                    float(np.abs(out.attention.sum(axis=2) - 1).max()))
    # M = 1: the gather must be the raw anchor block, exactly
    anchors = rng.normal(size=(3, 1, 4))
    out = lgr_forward(rng.normal(size=(2, 4)), anchors, make_params(4, 3),
                      lgr_keys(anchors))
    reduces = bool(
        (out.attention == 1.0).all()
        and (out.G == np.broadcast_to(anchors[:, 0], (2, 3, 4))).all())
    report_line(3, worst <= 1e-6 and reduces,
                f"1000 passes, worst row-sum error {worst:.2e}, "
                f"M=1 reduction exact={reduces}")


def test_criterion_4_oracle_equivalence():
    rng = np.random.default_rng(2)
    # (i) head forward pass vs. nested-loop transcription
    worst = 0.0
    for trial in range(100):
        N = int(rng.integers(1, 5))
        C = int(rng.integers(1, 5))
        M = int(rng.integers(1, 4))
        D = int(rng.integers(2, 7))
        params = make_params(D, C, seed=1000 + trial,
                             tau=float(rng.uniform(0.1, 1.0)))
        x = rng.normal(size=(N, D))
        anchors = rng.normal(size=(C, M, D))
        out = lgr_forward(x, anchors, params, lgr_keys(anchors))
        p_i, p_t, att, g = naive_lgr(x, anchors, params)
        worst = max(worst,
                    float(np.abs(out.P_I - p_i).max()),
                    float(np.abs(out.P_T - p_t).max()),
                    float(np.abs(out.attention - att).max()),
                    float(np.abs(out.G - g).max()))
    head_ok = worst <= 1e-10

    # (ii) anchor selection vs. exhaustive scoring with independently
    # recomputed contrastive scores (same batched text embeddings, so
    # byte-identical floats are compared)
    anss_ok = True
    for seed in (0, 1, 2):
        ds = gen_synthetic(4, [10] * 4, d_img=6, noise_sigma=0.2, seed=seed,
                           test_per_class=2)
        corpus, _ = gen_corpus(4, 7, 3, vocab_size=80, noise_fraction=0.2,
                               seed=seed)
        model = CvlpModel(6, 6, 80, seed=seed)
        anchors = select_anchors(corpus, ds, model, M=4, cap=5, seed=seed)
        pool = build_probe_pool(ds, model, cap=5, seed=seed)
        for c in range(4):
            sentences = class_sentences(corpus, c)
            emb = model.lin(sentences).data
            emb = emb / np.linalg.norm(emb, axis=1, keepdims=True)
            logits = (pool.embeddings @ emb.T) / pool.tau
            logits -= logits.max(axis=0, keepdims=True)
            log_p = logits - np.log(np.exp(logits).sum(axis=0, keepdims=True))
            scores = -log_p[pool.class_slices[c]].mean(axis=0)
            exhaustive = sorted(range(len(sentences)),
                                key=lambda i: (scores[i], i))
            anss_ok &= set(anchors.ids(c)) == \
                set(exhaustive[:4])

    # (iii) KNN head vs. brute-force scan
    knn_ok = True
    for _ in range(20):
        x = rng.normal(size=(3, 5))
        anchors = rng.normal(size=(4, 3, 5))
        got = knn_forward(x, anchors, 0.3, knn_keys(anchors))[0]
        best = np.array([[max(
            x[i] @ anchors[c, m] / (np.linalg.norm(x[i])
                                    * np.linalg.norm(anchors[c, m]))
            for m in range(3)) for c in range(4)] for i in range(3)])
        e = np.exp(best / 0.3 - (best / 0.3).max(axis=1, keepdims=True))
        knn_ok &= bool(np.abs(got - e / e.sum(axis=1, keepdims=True)).max()
                       <= 1e-10)

    report_line(4, head_ok and anss_ok and knn_ok,
                f"head worst err {worst:.2e}, AnSS set-equal={anss_ok}, "
                f"KNN brute-force={knn_ok}")


def test_criterion_5_sampler_statistics():
    counts = [100, 25, 4]
    target = np.sqrt(counts) / np.sqrt(counts).sum()
    labels = np.repeat(np.arange(3), counts)
    draws = labels[SqrtSampler(counts, seed=0).draw_epoch(1, 1_000_000)[0]]
    freqs = np.bincount(draws, minlength=3) / draws.size
    worst = float(np.abs(freqs - target).max())
    report_line(5, worst <= 0.005,
                f"max |freq - target| = {worst:.5f} over 1e6 draws")


def test_criterion_6_protocol_exactness():
    bands = ["many", "medium", "few"]
    rep = evaluate([0, 1, 1, 1, 0, 1], [0, 0, 1, 1, 2, 2], bands)
    fixture_ok = (rep.overall == 0.5 and rep.bands["many"] == 0.5
                  and rep.bands["medium"] == 1.0 and rep.bands["few"] == 0.0)
    rng = np.random.default_rng(3)
    gaps = []
    for C, per in ((5, 30), (8, 17), (3, 101)):
        labels = np.repeat(np.arange(C), per)
        preds = np.where(rng.random(C * per) < 0.7, labels,
                         rng.integers(0, C, C * per))
        rep = evaluate(preds, labels, ["medium"] * C)
        gaps.append(abs(rep.overall - float(np.mean(rep.per_class))))
    micro_macro_ok = max(gaps) <= 1e-12
    report_line(6, fixture_ok and micro_macro_ok,
                f"fixture exact={fixture_ok}, "
                f"max micro-macro gap {max(gaps):.2e}")


def _grid_for_seed(seed, root):
    """All five reference-config runs for one seed, as `vlltr ablate`
    runs them: one memo shares the generated data, teacher, pre-trained
    encoder and anchors where the configs agree."""
    cfg = RunConfig(seed=seed).validate()
    rows = {"lgr": {}, "fc": {"head": "fc"}, "knn": {"head": "knn"},
            "cutoff": {"anchor_mode": "CutOff"}, "lam1": {"lam": 1.0}}
    memo = {}
    return {name: pipeline.run_all(dataclasses.replace(cfg, **changes),
                                   root / f"seed{seed}-{name}", memo)
            for name, changes in rows.items()}


GRID_SEEDS = (0, 1, 2)


@pytest.fixture(scope="module")
def grid(tmp_path_factory):
    """Criterion 7's grid over GRID_SEEDS, run once per module: ({seed:
    {row: report}}, seconds it took)."""
    root = tmp_path_factory.mktemp("grid")
    start = time.time()
    grids = {s: _grid_for_seed(s, root) for s in GRID_SEEDS}
    return grids, time.time() - start


def test_criterion_7_directional_grid(grid):
    grids, elapsed = grid
    seeds = GRID_SEEDS

    a_ok = b_ok = True
    for s in seeds:
        g = grids[s]
        overall_gap = g["lgr"].overall - g["fc"].overall
        few_gap = g["lgr"].bands["few"] - g["fc"].bands["few"]
        a_ok &= overall_gap > 0 and few_gap >= overall_gap
        b_ok &= g["knn"].overall > g["fc"].overall

    def majority(row, other):
        """More seeds where `row` beats `other` than where it loses, each
        by more than 0.005 of the test images (2 of 400). Counted in
        images, so float residue in an accuracy difference decides no
        tie."""
        diffs = [(grids[s][row].correct - grids[s][other].correct,
                  round(0.005 * grids[s][row].total)) for s in seeds]
        wins = sum(1 for d, tie in diffs if d > tie)
        losses = sum(1 for d, tie in diffs if d < -tie)
        return wins > losses

    c_deltas = [grids[s]["lgr"].overall - grids[s]["lam1"].overall
                for s in seeds]
    d_deltas = [grids[s]["lgr"].overall - grids[s]["cutoff"].overall
                for s in seeds]
    c_ok = majority("lgr", "lam1")
    d_ok = majority("lgr", "cutoff")
    ok = a_ok and b_ok and c_ok and d_ok and elapsed < 15 * 60
    summary = (f"(a) LGR>FC with few-gap dominance: {a_ok}; "
               f"(b) KNN>FC: {b_ok}; "
               f"(c) distill deltas {['%+.4f' % d for d in c_deltas]}: {c_ok}; "
               f"(d) AnSS-CutOff deltas {['%+.4f' % d for d in d_deltas]}: "
               f"{d_ok}; {elapsed:.0f}s")
    report_line(7, ok, summary)


def test_criterion_8_encoder_free_inference(mini_cfg, mini_run, tmp_path):
    _, run_dir, _ = mini_run
    work = tmp_path / "run"
    shutil.copytree(run_dir, work)

    # live path: full model from the final checkpoint, anchor text
    # embeddings recomputed through the linguistic encoder
    from vlltr.anchors import load_anchors
    from vlltr.data import load_corpus, load_dataset

    dataset = load_dataset(work / "dataset.bin")
    corpus = load_corpus(work / "corpus.tsv", mini_cfg.vocab_size,
                         mini_cfg.max_tokens)
    sections = ckpt.read_checkpoint(work / "final.ck")
    model = CvlpModel(mini_cfg.d_img, mini_cfg.embed_dim,
                      mini_cfg.vocab_size, seed=0,
                      max_tokens=mini_cfg.max_tokens)
    ckpt.load_params(model.params(), sections, work / "final.ck")
    from vlltr.head import LgrParams
    head = LgrParams(mini_cfg.embed_dim, mini_cfg.classes,
                     mini_cfg.tau_init, np.random.default_rng(0))
    ckpt.load_params(head.params(), sections, work / "final.ck")
    anchors = load_anchors(work / "anchors.tsv")
    live_emb = compute_anchor_embeddings(anchors, corpus, model)
    probe = dataset.test_X[:100]
    live_preds, _, _ = classify_dataset(probe, model.vis, "lgr", head,
                                        live_emb)

    # cached path with instrumentation on checkpoint section reads
    cached_emb, _ = load_anchor_embeddings(work / "anchor_cache.vlae")
    ckpt.section_load_log.clear()
    vis, head_params, tau = pipeline.load_inference_head(mini_cfg, work)
    cached_preds, _, _ = classify_dataset(probe, vis, "lgr", head_params,
                                          cached_emb)
    loaded = [name for path, name in ckpt.section_load_log
              if str(path).endswith("final.ck")]
    no_lin = not any(name.startswith("lin.") for name in loaded)

    identical = bool((live_preds == cached_preds).all())
    report_line(8, identical and no_lin and len(probe) == 100,
                f"cache==live on {len(probe)} samples: {identical}; "
                f"linguistic sections loaded: {sorted(n for n in loaded if n.startswith('lin.'))}")


def test_criterion_9_determinism(mini_cfg, mini_run, tmp_path):
    _, first_dir, _ = mini_run
    second_dir = tmp_path / "second"
    pipeline.run_all(mini_cfg, second_dir)
    diffs = []
    for name in ("dataset.bin", "corpus.tsv", "stats.json", "teacher.ck",
                 "student.ck", "anchors.tsv", "final.ck",
                 "anchor_cache.vlae", "predictions.tsv", "report.json"):
        if (first_dir / name).read_bytes() != (second_dir / name).read_bytes():
            diffs.append(name)
    report_line(9, not diffs,
                "byte-identical artifacts" if not diffs
                else f"differing files: {diffs}")


@pytest.fixture(scope="module")
def golden_records():
    records = golden.load()
    reason = golden.skip_reason(records)
    if reason is not None:
        pytest.skip(reason)
    return records


def test_small_runs_keep_their_golden_bytes(golden_records, mini_cfg,
                                            mini_run, tmp_path):
    """Every artifact of `small_config()` runs on golden.SEEDS has the
    SHA-256 recorded in golden.json."""
    run_dirs = {mini_cfg.seed: mini_run[1]}
    for s in golden.SEEDS:
        if s not in run_dirs:
            run_dirs[s] = tmp_path / f"seed{s}"
            pipeline.run_all(dataclasses.replace(mini_cfg, seed=s),
                             run_dirs[s])
        message = golden.mismatch(f"seed {s} artifacts",
                                  golden_records["runs"][f"seed{s}"],
                                  golden.artifact_digests(run_dirs[s]))
        assert message is None, message


THREADED_RUN = """
import sys
import golden
from conftest import small_config
from vlltr import pipeline
pipeline.run_all(small_config(seed=0), sys.argv[1])
print(golden.blas_threads())
"""


@pytest.mark.parametrize("threads", [1, 2])
def test_small_run_keeps_its_golden_bytes_on_each_blas_thread_count(
        golden_records, tmp_path, threads):
    """`run_all(small_config(seed=0))` in a process whose OpenBLAS runs
    one or two threads writes the artifacts golden.json records."""
    tests = Path(__file__).resolve().parent
    path = [str(tests.parent / "src"), str(tests)]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
           "PYTHONPATH": os.pathsep.join(
               path + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    proc = subprocess.run([sys.executable, "-c", THREADED_RUN,
                           str(tmp_path)], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    if int(proc.stdout) != threads:
        pytest.skip(f"OpenBLAS runs {int(proc.stdout)} thread(s) here, "
                    f"not {threads}")
    message = golden.mismatch(f"seed 0 artifacts on {threads} BLAS threads",
                              golden_records["runs"]["seed0"],
                              golden.artifact_digests(tmp_path))
    assert message is None, message


def test_grid_keeps_its_golden_counts(golden_records, grid):
    """Each report of criterion 7's grid classifies the recorded number
    of test images correctly in every shot band."""
    message = golden.mismatch("grid reports", golden_records["grid"],
                              golden.grid_counts(grid[0]))
    assert message is None, message
