"""Where the benchmark wraps vlltr, and how spans become per-layer metrics.

Layers are the vlltr modules. A wrap point is the name a caller looks
up: `run_all` finds its stages in `pipeline`'s namespace, `run_pretrain`
finds `sample_paired_batch` in `pretrain`'s, methods are found on their
class. A function imported into two namespaces is wrapped in both.
"""

from __future__ import annotations

from vlltr import (anchors, checkpoint, encoders, evaluation, head, optim,
                   pipeline, pretrain, tensor)

from spans import Target, summarize

LAYERS = ("pipeline", "pretrain", "encoders", "tensor", "optim", "anchors",
          "head", "checkpoint", "data", "evaluation")

STAGES = ("gen_data", "make_teacher", "pretrain", "select_anchors",
          "finetune", "eval")


def _images(args, kwargs):
    return len(kwargs["images"] if "images" in kwargs else args[0])


def _graph_nodes(args, kwargs):
    seen, todo = set(), [args[0]]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            todo.extend(node._parents)
    return len(seen)


def _stage_targets():
    return [Target(pipeline, f"cmd_{s}", f"pipeline.cmd_{s}") for s in STAGES]


def clock_targets():
    """The few wrap points of an untraced run: stage boundaries and
    optimizer steps. They give the stage outcomes and the training-step
    latencies of the end-to-end metrics, at about a microsecond per
    optimizer step."""
    return _stage_targets() + [Target(optim.AdamW, "step", "optim.AdamW.step")]


def trace_targets():
    """Every public entry point the per-layer metrics read; a superset of
    `clock_targets`, so a traced run needs no other tracer."""
    t = _stage_targets() + [
        Target(owner, "classify_dataset", "head.classify_dataset", _images)
        for owner in (pipeline, head)]
    t += [Target(pipeline, name, f"pipeline.{name}")
          for name in ("run_all", "cmd_precompute_cache",
                       "load_inference_head")]
    for name, layer in (("run_pretrain", "pretrain"),
                        ("save_trace", "pretrain"),
                        ("select_anchors", "anchors"),
                        ("save_anchors", "anchors"),
                        ("load_anchors", "anchors"),
                        ("run_finetune", "head"),
                        ("save_anchor_embeddings", "head"),
                        ("load_anchor_embeddings", "head"),
                        ("evaluate", "evaluation"),
                        ("gen_synthetic", "data"),
                        ("gen_corpus", "data"),
                        ("load_dataset", "data"),
                        ("load_corpus", "data"),
                        ("save_dataset", "data"),
                        ("save_corpus", "data"),
                        ("save_stats", "data")):
        t.append(Target(pipeline, name, f"{layer}.{name}"))
    t += [Target(evaluation, "evaluate", "evaluation.evaluate"),
          Target(pretrain, "sample_paired_batch",
                 "pretrain.sample_paired_batch"),
          Target(pretrain, "pretrain_loss", "pretrain.pretrain_loss"),
          Target(encoders.CvlpModel, "similarity",
                 "encoders.CvlpModel.similarity"),
          Target(encoders.TeacherPair, "similarity",
                 "encoders.TeacherPair.similarity"),
          Target(encoders.LinguisticEncoder, "__call__",
                 "encoders.LinguisticEncoder"),
          Target(encoders.VisualEncoder, "__call__",
                 "encoders.VisualEncoder"),
          Target(tensor.Tensor, "backward", "tensor.Tensor.backward",
                 _graph_nodes),
          Target(optim.AdamW, "step", "optim.AdamW.step"),
          Target(anchors, "build_probe_pool", "anchors.build_probe_pool"),
          Target(head, "compute_anchor_embeddings",
                 "head.compute_anchor_embeddings"),
          Target(head, "lgr_forward", "head.lgr_forward"),
          Target(head, "fc_forward", "head.fc_forward"),
          Target(head, "knn_forward", "head.knn_forward"),
          Target(checkpoint, "read_checkpoint", "checkpoint.read_checkpoint"),
          Target(checkpoint, "write_checkpoint",
                 "checkpoint.write_checkpoint"),
          Target(checkpoint, "file_sha256", "checkpoint.file_sha256")]
    return t


# Per-call means: metric -> (span names, unit scale, per-unit factor).
# A per-unit factor divides by the spans' work units instead of their
# calls and multiplies by the factor.
_MEANS = {
    **{f"pipeline.{s}_s": ([f"pipeline.cmd_{s}"], 1.0, None)
       for s in STAGES},
    "pretrain.sample_batch_ms": (["pretrain.sample_paired_batch"], 1e3, None),
    "pretrain.loss_ms": (["pretrain.pretrain_loss"], 1e3, None),
    "encoders.similarity_ms": (["encoders.CvlpModel.similarity"], 1e3, None),
    "encoders.lin_ms": (["encoders.LinguisticEncoder"], 1e3, None),
    "encoders.vis_ms": (["encoders.VisualEncoder"], 1e3, None),
    "encoders.teacher_similarity_ms": (["encoders.TeacherPair.similarity"],
                                       1e3, None),
    "tensor.backward_ms": (["tensor.Tensor.backward"], 1e3, None),
    "optim.step_ms": (["optim.AdamW.step"], 1e3, None),
    "anchors.select_s": (["anchors.select_anchors"], 1.0, None),
    "anchors.probe_pool_ms": (["anchors.build_probe_pool"], 1e3, None),
    "head.lgr_forward_ms": (["head.lgr_forward"], 1e3, None),
    "head.classify_batch_ms": (["head.classify_dataset"], 1e3, 256),
    "head.anchor_embed_ms": (["head.compute_anchor_embeddings"], 1e3, None),
    "checkpoint.read_ms": (["checkpoint.read_checkpoint"], 1e3, None),
    "checkpoint.write_ms": (["checkpoint.write_checkpoint"], 1e3, None),
    "checkpoint.sha256_ms": (["checkpoint.file_sha256"], 1e3, None),
    "data.load_ms": (["data.load_dataset", "data.load_corpus"], 1e3, None),
    "data.gen_ms": (["data.gen_synthetic", "data.gen_corpus"], 1e3, None),
    "evaluation.evaluate_ms": (["evaluation.evaluate"], 1e3, None),
}

# Calls per op, counted over the ops only: a zero shows a bypassed layer.
_COUNTS = {
    "pipeline.stage_calls": [f"pipeline.cmd_{s}" for s in STAGES],
    "encoders.lin_calls": ["encoders.LinguisticEncoder"],
    "head.fc_forward_calls": ["head.fc_forward"],
    "head.knn_forward_calls": ["head.knn_forward"],
    "checkpoint.sha256_calls": ["checkpoint.file_sha256"],
    "data.load_calls": ["data.load_dataset", "data.load_corpus"],
}

UNITS = {name: ("s" if name.endswith("_s") else "ms") for name in _MEANS}
UNITS.update({name: "count" for name in _COUNTS})
UNITS.update({f"{layer}.self_s": "s" for layer in LAYERS})
UNITS.update({"pretrain.steps": "count", "pretrain.step_ms": "ms",
              "tensor.graph_nodes": "count",
              "pipeline.unaccounted_s": "s", "trace.run_s": "s",
              "trace.overhead_s": "s", "trace.spans": "count",
              "anchors.distractor_rate": "ratio",
              "anchors.cutoff_distractor_rate": "ratio"})


def _pretrain_steps(spans, keep):
    return sum(1 for s in spans if keep(s) and s.name == "optim.AdamW.step"
               and s.parent >= 0
               and spans[s.parent].name == "pretrain.run_pretrain")


def layer_metrics(spans, is_op, n_ops, is_setup, n_setups) -> dict:
    """Per-layer metrics from the spans of a traced run.

    Times come from the traced ops. A layer the ops never enter (infer's
    ops skip every training layer) is timed over the set-up instead,
    which trains at the same shapes; such time totals are per set-up
    repetition rather than per op. Call counts are always per op.
    """
    ops, setup = summarize(spans, is_op), summarize(spans, is_setup)

    def pick(names):
        if any(n in ops for n in names):
            return ops, n_ops
        return setup, n_setups

    out = {}
    for metric, (names, scale, per_unit) in _MEANS.items():
        stats, _ = pick(names)
        total = sum(stats[n].total_s for n in names if n in stats)
        calls = sum(stats[n].calls for n in names if n in stats)
        units = sum(stats[n].units for n in names if n in stats)
        denom = units / per_unit if per_unit else calls
        out[metric] = scale * total / denom if denom else 0.0
    for metric, names in _COUNTS.items():
        out[metric] = sum(ops[n].calls for n in names if n in ops) / n_ops
    nodes = ops.get("tensor.Tensor.backward") \
        or setup.get("tensor.Tensor.backward")
    out["tensor.graph_nodes"] = nodes.units / nodes.calls if nodes else 0.0
    out["pretrain.steps"] = _pretrain_steps(spans, is_op) / n_ops
    stats, _ = pick(["pretrain.run_pretrain"])
    steps = _pretrain_steps(spans, is_op if stats is ops else is_setup)
    out["pretrain.step_ms"] = (
        1e3 * stats["pretrain.run_pretrain"].total_s / steps if steps else 0.0)
    for layer in LAYERS:
        prefix = layer + "."
        stats, denom = pick([n for n in ops if n.startswith(prefix)])
        out[f"{layer}.self_s"] = sum(
            st.self_s for n, st in stats.items() if n.startswith(prefix)) / denom
    return out
