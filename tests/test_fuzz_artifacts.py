"""Damaged artifacts and records keep the exit-code contract.

One tiny run is copied once. Each example truncates one recorded file
at a drawn length, or flips one drawn byte, then restores the run. The
first command that checks the file's record, run through `cli.main`,
exits 2 with one stderr line naming the file, never 4; the reader of
the file, where a command parses it, called directly, raises nothing
but a ValidationError (a StaleArtifactError included) or a NumericError.
`report.json` and `predictions.tsv` are left out: eval writes them and
no command reads them or their record.
"""

import shutil

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vlltr import cli, pipeline
from vlltr.anchors import load_anchors
from vlltr.checkpoint import read_checkpoint
from vlltr.data import load_corpus, load_dataset
from vlltr.errors import NumericError, ValidationError
from vlltr.head import load_anchor_embeddings

# artifact -> (a command that checks its record, its reader on (cfg,
# path), None for a file no command parses)
ARTIFACTS = {
    "dataset": ("eval", lambda cfg, path: load_dataset(path)),
    "corpus": ("eval", lambda cfg, path: load_corpus(
        path, cfg.vocab_size, cfg.max_tokens)),
    "stats": ("eval", None),
    "teacher": ("pretrain", lambda cfg, path: read_checkpoint(path)),
    "teacher_trace": ("pretrain", None),
    "student": ("select-anchors",
                lambda cfg, path: read_checkpoint(path)),
    "pretrain_trace": ("select-anchors", None),
    "anchors": ("finetune", lambda cfg, path: load_anchors(path)),
    "final": ("eval", lambda cfg, path: read_checkpoint(path)),
    "finetune_trace": ("eval", None),
    "cache": ("eval", lambda cfg, path: load_anchor_embeddings(path)),
}
# stage -> the command that reads its record first in a run
RECORDS = {"gen_data": "eval", "make_teacher": "pretrain",
           "pretrain": "select-anchors", "select_anchors": "finetune",
           "finetune": "eval"}


class TinyRun:
    """A copy of a tiny run: its config, its directory, a config file
    for the CLI and the bytes of each file."""

    def __init__(self, cfg, run_dir, root):
        self.cfg, self.dir = cfg, root / "run"
        shutil.copytree(run_dir, self.dir)
        self.cfg_file = root / "run.cfg"
        self.cfg_file.write_text(cfg.canonical())
        self.bytes = {p.name: p.read_bytes() for p in self.dir.iterdir()}

    def __repr__(self):   # hypothesis prints it with a failing example
        return f"TinyRun({self.dir})"

    def run(self, command, name, damaged, capsys):
        """Write `damaged` over file `name`, run `command` through
        `cli.main` and restore every file; (exit code, stderr)."""
        capsys.readouterr()
        (self.dir / name).write_bytes(damaged)
        try:
            code = cli.main([command, "--config", str(self.cfg_file),
                             "--out", str(self.dir)])
        finally:
            for file, data in self.bytes.items():
                if (self.dir / file).read_bytes() != data:
                    (self.dir / file).write_bytes(data)
        return code, capsys.readouterr().err

    def aside(self, name, damaged):
        """A directory beside the run holding `damaged` as file `name`."""
        side = self.dir.parent / "aside"
        side.mkdir(exist_ok=True)
        (side / name).write_bytes(damaged)
        return side


@pytest.fixture(scope="module")
def tiny(mini_run, tmp_path_factory):
    cfg, run_dir, _ = mini_run
    return TinyRun(cfg, run_dir, tmp_path_factory.mktemp("fuzz"))


@st.composite
def damage(draw, data: bytes) -> bytes:
    """`data` cut to a drawn shorter length, or with one byte flipped."""
    if draw(st.booleans()):
        return data[:draw(st.integers(0, len(data) - 1))]
    at = draw(st.integers(0, len(data) - 1))
    return (data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))])
            + data[at + 1:])


def assert_one_line_naming(err, names):
    assert err.endswith("\n") and err.count("\n") == 1, err
    assert any(name in err for name in names), err


def assert_reader_contract(read):
    try:
        read()
    except (ValidationError, NumericError):
        pass


FUZZ = settings(max_examples=16, derandomize=True, database=None,
                deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.mark.parametrize("art", sorted(ARTIFACTS))
@FUZZ
@given(data=st.data())
def test_damaged_artifact_exits_two_naming_it(tiny, capsys, art, data):
    command, reader = ARTIFACTS[art]
    name = pipeline.FILES[art]
    damaged = data.draw(damage(tiny.bytes[name]))
    code, err = tiny.run(command, name, damaged, capsys)
    assert code == 2, err
    assert_one_line_naming(err, [name])
    if reader is not None:
        side = tiny.aside(name, damaged)
        assert_reader_contract(lambda: reader(tiny.cfg, side / name))


@pytest.mark.parametrize("stage", sorted(RECORDS))
@FUZZ
@given(data=st.data())
def test_damaged_record_exits_two_naming_it(tiny, capsys, stage, data):
    """A damaged record is refused, naming it or a file whose key or
    digest it no longer matches: a record is only ever the bytes its
    stage writes, and every digest in it is checked."""
    command = RECORDS[stage]
    name = pipeline.FILES[f"{stage}_record"]
    damaged = data.draw(damage(tiny.bytes[name]))
    code, err = tiny.run(command, name, damaged, capsys)
    assert code == 2, err
    assert_one_line_naming(err,
                           [name, *pipeline.STAGES[stage].files.values()])
    side = tiny.aside(name, damaged)
    assert_reader_contract(lambda: pipeline._read_record(side, stage))
