"""The benchmark's own tests: every workload on a tiny config, the result
schema, the metric names and units of BENCHMARK.json, and the output
checks. No timing is asserted, so these cannot flake.

    PYTHONPATH=src python -m pytest perfbench/tests
"""

import json
import math
import re
import shutil
import subprocess
import sys

import pytest

from conftest import BENCH, ROOT

import run
from spans import Span, self_times
from vlltr import pipeline

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _metrics(kind):
    return {m["name"]: m for m in SPEC[kind]}


def test_spec_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == ["reference", "infer",
                                                      "grid"]
    names = [m["name"] for kind in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[kind]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    setup = _metrics("end_to_end")["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["reference", "infer", "grid"])
def test_workload_reports_every_metric(workload, trace, tiny, tmp_path):
    out = run.run_workload(workload, 5, 0.0, bool(trace), scale=tiny,
                           out_root=tmp_path)
    result = out["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, out["details"]["check_failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = _metrics("per_layer" if trace else "end_to_end")
    assert set(result["metrics"]) == set(expected)
    for name, m in result["metrics"].items():
        assert set(m) == {"value", "unit"}
        assert m["unit"] == expected[name]["unit"]
        assert isinstance(m["value"], float) and math.isfinite(m["value"])
        if not trace:
            assert m["value"] > 0, name
    if not trace:   # infer: one latency window per pass
        assert out["details"]["latency_windows"] == (
            out["details"]["ops"] if workload == "infer" else 1)
    if trace:
        value = {k: m["value"] for k, m in result["metrics"].items()}
        bypass = workload == "infer"   # its ops skip training and text
        assert (value["encoders.lin_calls"] == 0) == bypass
        assert (value["pretrain.steps"] == 0) == bypass
        assert value["pipeline.stage_calls"] == {
            "reference": 6, "infer": 0, "grid": 29}[workload]
        assert (value["head.knn_forward_calls"] > 0) == (workload == "grid")
        assert value["tensor.backward_ms"] > 0   # infer: over set-up
        assert (tmp_path / f"{workload}-seed5-spans.jsonl").is_file()
    env = out["details"]["environment"]
    assert env["seed"] == 5 and env["vlltr_threads"] is None
    assert (tmp_path / f"{workload}-seed5-trace{trace}.json").is_file()
    assert not list(tmp_path.glob("work-*"))


def test_failed_check_is_counted_not_raised(tiny, tmp_path, monkeypatch):
    """A final checkpoint edited after the run breaks the hash chain:
    the re-evaluation check fails, every op still runs."""
    original = pipeline.run_all

    def run_then_tamper(cfg, out_dir):
        report = original(cfg, out_dir)
        with open(pipeline.artifact(out_dir, "final"), "ab") as f:
            f.write(b"\0")
        return report

    monkeypatch.setattr(pipeline, "run_all", run_then_tamper)
    out = run.run_workload("reference", 5, 0.0, False, scale=tiny,
                           out_root=tmp_path)
    result = out["result"]
    assert result["correct"] is False
    assert result["failed"] == out["details"]["ops"] >= 1
    assert "hash chain" in out["details"]["check_failures"][0]
    assert set(result["metrics"]) == set(_metrics("end_to_end"))


def test_self_time_subtracts_direct_children():
    spans = [Span("a", 0.0, 10.0, -1, "op-1", 1),
             Span("b", 1.0, 4.0, 0, "op-1", 1),
             Span("c", 2.0, 3.0, 1, "op-1", 1),
             Span("d", 5.0, 6.0, 0, "op-1", 1)]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reference",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
