"""Run one vlltr benchmark workload and print its result.

    python3 perfbench/run.py --workload reference --seed 0 --seconds 30 --trace 0

Run from the root of a checkout. The last line of standard output is
the result: {"correct", "attempted", "failed", "metrics"}. With
`--trace 0` the metrics are the end-to-end ones of BENCHMARK.json, with
`--trace 1` the per-layer ones. The line before it records the machine,
the environment and the sample counts. Run records and, with tracing,
the spans go to `.bench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = "1"
DEFAULT_SEED, HELD_OUT_SEED = 0, 1000
SETUP_REPS = 3  # set-ups per run; setup_s is their median
END_TO_END_UNITS = {
    "setup_s": "s", "run_s": "s", "step_ms_p50": "ms", "step_ms_p99": "ms",
    "top1": "ratio", "few_top1": "ratio", "peak_rss_mb": "MB"}


def pin_environment():
    """Fix BLAS threads (below nproc on any machine) and drop the
    program's own thread setting. Must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    os.environ.pop("VLLTR_THREADS", None)


def environment(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(BLAS_THREADS),
            "vlltr_threads": os.environ.get("VLLTR_THREADS"),
            "seed": seed, "default_seed": DEFAULT_SEED,
            "held_out_seed": HELD_OUT_SEED}


def windowed_percentile(windows, q: float) -> float:
    """Median over the latency windows of each window's q-th percentile."""
    import numpy as np
    return statistics.median(float(np.percentile(w, q)) for w in windows)


def step_gaps_ms(spans, keep) -> list:
    """Gaps between successive optimizer-step returns within one stage:
    the time of one closed-loop training step (sample, forward,
    backward, update)."""
    last_end, gaps = {}, []
    for s in spans:
        if s.name == "optim.AdamW.step" and keep(s) and s.parent >= 0:
            if s.parent in last_end:
                gaps.append(1e3 * (s.end - last_end[s.parent]))
            last_end[s.parent] = s.end
    return gaps


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale=None, out_root: Path | None = None) -> dict:
    """Set up, run the timed loop and return {"result", "details"}."""
    from layers import (STAGES, UNITS, clock_targets, layer_metrics,
                        trace_targets)
    from spans import Tracer, span_cost_s
    from workloads import REFERENCE_SCALE, WORKLOADS, Checks

    scale = scale or REFERENCE_SCALE
    out_root = Path(out_root or ROOT / ".bench_out")
    work = out_root / f"work-{name}-{seed}-{os.getpid()}"
    checks = Checks()
    wl = WORKLOADS[name](seed, scale, checks)
    tracer = Tracer(trace_targets() if trace else clock_targets())
    setup_s, op_s = [], []
    peak_rss_mb = None

    tracer.install()
    try:
        for rep in range(SETUP_REPS):
            tracer.run_id = f"setup-{rep}"
            t0 = time.perf_counter()
            wl.setup(work / f"setup-{rep}")
            setup_s.append(time.perf_counter() - t0)
        start = time.perf_counter()
        i = 0
        while True:
            tracer.run_id = f"op-{i}"
            t0 = time.perf_counter()
            try:
                wl.op(work / f"op-{i}")
                ok = True
            except Exception as exc:  # counted as a failed operation
                ok = checks.check(False, f"op {i} raised {exc!r}")
            dt = time.perf_counter() - t0
            tracer.run_id = "check"
            if ok:
                op_s.append(dt)
                wl.after_op(work / f"op-{i}")
            if i + 1 == wl.min_ops:   # the same point in every run
                peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0
            i += 1
            if i >= wl.min_ops and time.perf_counter() - start + dt > seconds:
                break
        wl.after_loop()
        rates = wl.distractor_rates() if trace else None
    finally:
        tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    if not op_s or wl.accuracy is None:
        raise RuntimeError(f"{name}: no operation succeeded: "
                           f"{checks.notes[:3]}")

    def in_ops(s):
        return s.run_id.startswith("op-")

    def in_setup(s):
        return s.run_id.startswith("setup-")

    stage_names = {f"pipeline.cmd_{s}" for s in STAGES}
    stages = [s for s in tracer.spans if in_ops(s) and s.name in stage_names]
    attempted = checks.attempted + len(stages)
    failed = checks.failed + sum(s.failed for s in stages)
    details = {"workload": name, "trace": int(trace),
               "environment": environment(seed),
               "setup_reps": len(setup_s), "ops": len(op_s),
               "failed_ratio": failed / attempted, "check_failures":
               checks.notes[:20]}
    if trace:
        n_ops = len(op_s)
        op_spans = [s for s in tracer.spans if in_ops(s)]
        per_span_s = span_cost_s()
        details["span_cost_us"] = 1e6 * per_span_s
        metrics = layer_metrics(tracer.spans, in_ops, n_ops, in_setup,
                                len(setup_s))
        stage_total = sum(s.duration for s in op_spans
                          if s.name in stage_names)
        metrics.update({
            "pipeline.unaccounted_s": (sum(op_s) - stage_total) / n_ops,
            "trace.run_s": statistics.median(op_s),
            "trace.overhead_s": sum(per_span_s + s.probe_s
                                    for s in op_spans) / n_ops,
            "trace.spans": len(op_spans) / n_ops,
            "anchors.distractor_rate": rates[0],
            "anchors.cutoff_distractor_rate": rates[1]})
        out_root.mkdir(parents=True, exist_ok=True)
        tracer.write_jsonl(out_root / f"{name}-seed{seed}-spans.jsonl")
        units = UNITS
    else:
        windows = wl.step_windows_ms(step_gaps_ms(tracer.spans, in_ops))
        details["latency_samples"] = sum(map(len, windows))
        details["latency_windows"] = len(windows)
        top1, few = wl.accuracy
        metrics = {
            "setup_s": statistics.median(setup_s),
            "run_s": statistics.median(op_s),
            "step_ms_p50": windowed_percentile(windows, 50),
            "step_ms_p99": windowed_percentile(windows, 99),
            "top1": top1,
            "few_top1": few,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    out_root.mkdir(parents=True, exist_ok=True)
    record = out_root / f"{name}-seed{seed}-trace{int(trace)}.json"
    record.write_text(json.dumps({"details": details, "result": result},
                                 indent=1) + "\n")
    return {"result": result, "details": details}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("reference", "infer", "grid"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "vlltr" / "__init__.py").is_file():
        print(f"error: no vlltr sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    pin_environment()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    out = run_workload(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    print(json.dumps(out["details"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
