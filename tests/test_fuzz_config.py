"""Configs at the edges of their domains keep the exit-code contract.

Each example takes `small_config()` with its epochs cut to one, sets
one or two fields to a bound of the field's domain or one step outside
it (an int by 1, a float by `math.nextafter`), picks a head, and runs
gen-data through eval through `cli.main`, stopping at the first command
that fails. Every exit code is 0, 2 or 3, never 4, and a
failing command writes one stderr line. No upper bound of an unbounded
field is drawn, so no example asks for a huge allocation.
"""

import math
import tempfile
from dataclasses import fields, replace
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vlltr import cli
from vlltr.config import RunConfig
from vlltr.head import HEADS

COMMANDS = ("gen-data", "make-teacher", "pretrain", "select-anchors",
            "finetune", "eval")


def _edges(f):
    """(field, value) at each finite bound of the field's domain and one
    step outside it."""
    low, high, choices = f.metadata["domain"]
    if choices is not None:
        return []
    step = (math.nextafter if f.type == "float"
            else lambda v, away: v + (1 if away > v else -1))
    return [(f.name, value) for bound, away in ((low, -math.inf),
                                                (high, math.inf))
            if math.isfinite(bound) for value in (bound, step(bound, away))]


EDGES = [edge for f in fields(RunConfig) for edge in _edges(f)]


@settings(max_examples=100, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edges=st.lists(st.sampled_from(EDGES), min_size=1, max_size=2,
                      unique_by=lambda edge: edge[0]),
       head=st.sampled_from(list(HEADS)))
def test_config_at_a_domain_edge_exits_zero_two_or_three(mini_cfg, capsys,
                                                         edges, head):
    cfg = replace(replace(mini_cfg, pretrain_epochs=1, teacher_epochs=1,
                          finetune_epochs=1, head=head), **dict(edges))
    with tempfile.TemporaryDirectory() as root:
        cfg_file = Path(root) / "edge.cfg"
        cfg_file.write_text(cfg.canonical())
        for command in COMMANDS:
            capsys.readouterr()
            code = cli.main([command, "--config", str(cfg_file),
                             "--out", str(Path(root) / "run")])
            err = capsys.readouterr().err
            assert code in (0, 2, 3), (command, err)
            if code:
                assert err.endswith("\n") and err.count("\n") == 1, err
                break
