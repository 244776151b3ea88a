"""Acceptance gate: the nine package-level criteria, one test each.

Each test prints a single `[criterion N] PASS/FAIL` line (visible with
`pytest -s` or in the captured output of a failing run) and asserts the
stated tolerance.
"""

import dataclasses
import shutil
import time

import numpy as np
import pytest

from composite_oracles import class_sentences
from test_head import make_params, naive_lgr

from vlltr import checkpoint as ckpt
from vlltr import pipeline
from vlltr.anchors import build_probe_pool, select_anchors
from vlltr.config import RunConfig
from vlltr.data import SqrtSampler, ShotBands, gen_corpus, gen_synthetic
from vlltr.encoders import CvlpModel, VisualEncoder
from vlltr.evaluation import evaluate
from vlltr.gradsuite import default_suite, run_suite
from vlltr.head import (classify_dataset, compute_anchor_embeddings,
                        knn_forward, lgr_forward, load_anchor_embeddings)
from vlltr.pretrain import ccl_loss, distill_loss, pretrain_loss


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


def test_criterion_2_loss_identities():
    checks = []
    # single pair: both losses vanish
    checks.append(abs(float(ccl_loss(np.array([[0.4]]), [3], 0.5)[2].data))
                  < 1e-12)
    checks.append(abs(float(distill_loss(np.array([[0.4]]),
                                         np.array([[1.1]]), 0.5, 0.3).data))
                  < 1e-12)
    # all-same-class uniform similarity: 2 ln N
    for n in (2, 3, 5):
        got = float(ccl_loss(np.full((n, n), 0.7), np.zeros(n, int),
                             0.3)[2].data)
        checks.append(abs(got - 2 * np.log(n)) < 1e-12)
    # shift invariance
    rng = np.random.default_rng(0)
    S = rng.normal(size=(6, 6))
    labels = rng.integers(0, 4, size=6)
    drift = abs(float(ccl_loss(S, labels, 0.4)[2].data)
                - float(ccl_loss(S + 123.0, labels, 0.4)[2].data))
    checks.append(drift <= 1e-10)
    # lambda endpoints are bit-exact reuses of the component losses
    St = rng.normal(size=(6, 6))
    loss1, _, dis1 = pretrain_loss(S, St, labels, 0.4, 0.6, lam=1.0)
    checks.append(dis1 is None and
                  float(loss1.data) == float(ccl_loss(S, labels, 0.4)[2].data))
    loss0, _, _ = pretrain_loss(S, St, labels, 0.4, 0.6, lam=0.0)
    checks.append(float(loss0.data)
                  == float(distill_loss(S, St, 0.4, 0.6).data))
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
        out = lgr_forward(rng.normal(size=(N, D)), rng.normal(size=(C, M, D)),
                          params)
        worst = max(worst,
                    float(np.abs(out.P_I.data.sum(axis=1) - 1).max()),
                    float(np.abs(out.P_T.data.sum(axis=1) - 1).max()),
                    float(np.abs(out.attention.data.sum(axis=2) - 1).max()))
    # M = 1: the gather must be the raw anchor block, exactly
    anchors = rng.normal(size=(3, 1, 4))
    out = lgr_forward(rng.normal(size=(2, 4)), anchors, make_params(4, 3))
    reduces = bool(
        (out.attention.data == 1.0).all()
        and (out.G.data == np.broadcast_to(anchors[:, 0], (2, 3, 4))).all())
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
        out = lgr_forward(x, anchors, params)
        p_i, p_t, att, g = naive_lgr(x, anchors, params)
        worst = max(worst,
                    float(np.abs(out.P_I.data - p_i).max()),
                    float(np.abs(out.P_T.data - p_t).max()),
                    float(np.abs(out.attention.data - att).max()),
                    float(np.abs(out.G.data - g).max()))
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
        got = knn_forward(x, anchors, 0.3).data
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
    draws = SqrtSampler(counts, seed=0).draw_classes(1_000_000)
    freqs = np.bincount(draws, minlength=3) / draws.size
    worst = float(np.abs(freqs - target).max())
    report_line(5, worst <= 0.005,
                f"max |freq - target| = {worst:.5f} over 1e6 draws")


def test_criterion_6_protocol_exactness():
    bands = ShotBands(["many", "medium", "few"])
    rep = evaluate([0, 1, 1, 1, 0, 1], [0, 0, 1, 1, 2, 2], bands)
    fixture_ok = (rep.overall == 0.5 and rep.bands["many"] == 0.5
                  and rep.bands["medium"] == 1.0 and rep.bands["few"] == 0.0)
    rng = np.random.default_rng(3)
    gaps = []
    for C, per in ((5, 30), (8, 17), (3, 101)):
        labels = np.repeat(np.arange(C), per)
        preds = np.where(rng.random(C * per) < 0.7, labels,
                         rng.integers(0, C, C * per))
        rep = evaluate(preds, labels, ShotBands(["medium"] * C))
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


def test_criterion_7_directional_grid(tmp_path):
    start = time.time()
    seeds = (0, 1, 2)
    grids = {s: _grid_for_seed(s, tmp_path) for s in seeds}
    elapsed = time.time() - start

    a_ok = b_ok = True
    for s in seeds:
        g = grids[s]
        overall_gap = g["lgr"].overall - g["fc"].overall
        few_gap = g["lgr"].bands["few"] - g["fc"].bands["few"]
        a_ok &= overall_gap > 0 and few_gap >= overall_gap
        b_ok &= g["knn"].overall > g["fc"].overall

    def majority(deltas, tie=0.005):
        wins = sum(1 for d in deltas if d > tie)
        losses = sum(1 for d in deltas if d < -tie)
        return wins > losses

    c_deltas = [grids[s]["lgr"].overall - grids[s]["lam1"].overall
                for s in seeds]
    d_deltas = [grids[s]["lgr"].overall - grids[s]["cutoff"].overall
                for s in seeds]
    c_ok = majority(c_deltas)
    d_ok = majority(d_deltas)
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
    sections = ckpt.read_checkpoint(work / "final.ck",
                                    names=lambda n: not n.startswith("__"))
    model = CvlpModel(mini_cfg.d_img, mini_cfg.embed_dim,
                      mini_cfg.vocab_size, seed=0,
                      max_tokens=mini_cfg.max_tokens)
    model.load_state({k: v for k, v in sections.items()
                      if not k.startswith(("lgr.", "fc."))})
    from vlltr.head import LgrParams
    head = LgrParams(mini_cfg.embed_dim, mini_cfg.classes,
                     mini_cfg.tau_init, np.random.default_rng(0))
    head.load_state(sections)
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
