"""Command-line entry point wiring the two-stage pipeline.

Exit codes: 0 success, 1 usage error, 2 validation error, 3 numeric
failure, 4 internal error (an unexpected exception).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


from .anchors import ANSS, CUTOFF
from .checkpoint import atomic_write
from .config import RunConfig, load_config
from .errors import NumericError, ValidationError, VlltrError
from .evaluation import ablation_report, concept_retrieval
from .gradsuite import default_suite, run_suite
from . import pipeline


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _config_help() -> str:
    lines = ["config keys and defaults:"]
    defaults = RunConfig()
    for f in sorted(vars(defaults)):
        lines.append(f"  {f} = {getattr(defaults, f)}")
    return "\n".join(lines)


#: Commands that run `pipeline.cmd_<name>` and print nothing.
STAGE_COMMANDS = {
    "gen-data": "generate the dataset, corpus, and stats files",
    "make-teacher": "pre-train the frozen teacher on the balanced variant",
    "pretrain": "stage 1: class-wise visual-linguistic pre-training",
    "select-anchors": "score and select anchor sentences",
    "finetune": "stage 2: fine-tune the visual encoder and head",
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="vlltr",
                     description="Two-stage visual-linguistic long-tailed "
                                 "recognition pipeline",
                     epilog=_config_help(),
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=None,
                        help="flat key = value config file")
    common.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    common.add_argument("--out", type=Path, default=Path("run"),
                        help="artifact directory")
    common.add_argument("--set", action="append", default=[],
                        metavar="KEY=VALUE", help="override one config key")

    for name, help_text in {
            **STAGE_COMMANDS,
            "eval": "evaluate on the balanced test split",
            "ablate": "run the ablation grid and print the table"}.items():
        sub.add_parser(name, parents=[common], help=help_text)

    p = sub.add_parser("retrieve", parents=[common],
                       help="retrieve test images closest to a query sentence")
    p.add_argument("--query", required=True,
                   help="space-separated token ids")
    p.add_argument("-k", type=int, default=5)

    p = sub.add_parser("gradcheck", parents=[common],
                       help="finite-difference check of every registered loss")
    p.add_argument("--instances", type=int, default=3)
    return parser


def _load_cfg(args) -> RunConfig:
    overrides = list(args.set)
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    return load_config(args.config, overrides)


def _at_least(flag: str, value: int, low: int) -> int:
    if value < low:
        raise ValidationError(f"{flag}: must be at least {low}, got {value}")
    return value


def _cmd_ablate(cfg: RunConfig, out_dir: Path):
    """Run the five rows on `cfg`, each pinning the head and anchor mode
    its label names; the base must distill (lam < 1)."""
    from dataclasses import replace
    if cfg.lam >= 1.0:
        raise ValidationError(f"ablate: lam must be below 1 so that the "
                              f"distill rows distill, got {cfg.lam}")
    lgr, anss = {"head": "lgr"}, {"anchor_mode": ANSS}
    rows = (("LGR + AnSS + distill", {**lgr, **anss}),
            ("LGR + AnSS, no distill", {**lgr, **anss, "lam": 1.0}),
            ("FC head", {"head": "fc", **anss}),
            ("KNN head", {"head": "knn", **anss}),
            ("LGR + CutOff + distill", {**lgr, "anchor_mode": CUTOFF}))
    entries, memo = [], {}
    for label, changes in rows:
        sub_cfg = replace(cfg, **changes).validate()
        sub_dir = out_dir / label.replace(" ", "_").replace("+", "and")
        entries.append((label, pipeline.run_all(sub_cfg, sub_dir, memo)))
    table = ablation_report(entries)
    with atomic_write(out_dir / "ablation.txt") as f:
        f.write(table)
    print(table, end="")


def _cmd_retrieve(cfg: RunConfig, out_dir: Path, query: str, k: int):
    from .data import load_dataset, parse_tokens
    pipeline.require_inputs("retrieve", out_dir, ("dataset", "student"), cfg)
    dataset = load_dataset(pipeline.artifact(out_dir, "dataset"))
    model = pipeline.load_model(cfg, out_dir, "student")
    tokens = parse_tokens(query, model.lin.vocab_size, "--query")
    ids = concept_retrieval(tokens, dataset.test_X, model, k)
    for rank, sample_id in enumerate(ids):
        print(f"{rank}\t{sample_id}\t{dataset.test_y[sample_id]}")


def _cmd_gradcheck(instances: int, seed: int, suite=None) -> int:
    suite = suite if suite is not None else default_suite(seed, instances)
    all_passed, lines = run_suite(suite)
    for line in lines:
        print(line)
    return 0 if all_passed else 3


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_cfg(args)
        out_dir = Path(args.out)
        if args.command == "gradcheck":
            return _cmd_gradcheck(_at_least("--instances", args.instances, 0),
                                  cfg.seed)
        if args.command in STAGE_COMMANDS:
            stage = getattr(pipeline, "cmd_" + args.command.replace("-", "_"))
            stage(cfg, out_dir)
        elif args.command == "eval":
            report = pipeline.cmd_eval(cfg, out_dir)
            print(report.to_json(), end="")
        elif args.command == "ablate":
            _cmd_ablate(cfg, out_dir)
        elif args.command == "retrieve":
            _cmd_retrieve(cfg, out_dir, args.query, _at_least("-k", args.k, 1))
        return 0
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (ValidationError, VlltrError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        message = " ".join(str(exc).splitlines())
        print(f"internal error: {type(exc).__name__}: {message}",
              file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
