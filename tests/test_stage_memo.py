"""The stage memo: `vlltr ablate` runs each distinct stage once, and the
bytes it shares are the bytes a memo-free run writes. The stage table's
field lists are checked, not trusted: fields outside a stage's list,
moved one at a time or all at once, must leave the bytes its body
writes unchanged."""

import dataclasses
import shutil

import pytest

from vlltr import checkpoint as ckpt
from vlltr import cli, head, pipeline
from vlltr.config import RunConfig
from vlltr.encoders import LinguisticEncoder
from vlltr.errors import StaleArtifactError, ValidationError

ABLATE_ROWS = {"LGR_and_AnSS_and_distill": {},
               "LGR_and_AnSS,_no_distill": {"lam": 1.0},
               "FC_head": {"head": "fc"},
               "KNN_head": {"head": "knn"},
               "LGR_and_CutOff_and_distill": {"anchor_mode": "CutOff"}}
ORDER = ("gen_data", "make_teacher", "pretrain", "select_anchors")


def files(run_dir):
    return {p.name: p.read_bytes() for p in sorted(run_dir.iterdir())}


def counting(monkeypatch, name, calls):
    original = getattr(pipeline, name)

    def wrapper(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(pipeline, name, wrapper)


def hashing(monkeypatch):
    """Log the paths `ckpt.file_sha256` hashes within each outermost call
    of a `pipeline.cmd_*` stage (finetune's cache write is part of
    finetune), as a list of (stage, [paths]) entries."""
    log, depth = [], [0]

    def stage_wrapper(name, original):
        def wrapper(*args, **kwargs):
            if depth[0] == 0:
                log.append((name, []))
            depth[0] += 1
            try:
                return original(*args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapper

    for name in [n for n in vars(pipeline) if n.startswith("cmd_")]:
        monkeypatch.setattr(pipeline, name,
                            stage_wrapper(name, getattr(pipeline, name)))
    original_hash = ckpt.file_sha256

    def hashed(path):
        assert depth[0] > 0, f"{path} hashed outside a stage call"
        log[-1][1].append(str(path))
        return original_hash(path)

    monkeypatch.setattr(ckpt, "file_sha256", hashed)
    return log


@pytest.fixture(scope="module")
def ablated(mini_cfg, tmp_path_factory):
    """`vlltr ablate` on the small config, with the number of calls of
    each stage and of the training and selection work inside them, and
    the files each stage call hashed."""
    out = tmp_path_factory.mktemp("ablate")
    calls = {}
    with pytest.MonkeyPatch.context() as mp:
        for name in [f"cmd_{s}" for s in ORDER] + [
                "cmd_finetune", "cmd_eval", "gen_corpus", "run_pretrain",
                "select_anchors"]:
            counting(mp, name, calls)
        hashed = hashing(mp)
        cli._cmd_ablate(mini_cfg, out)
    return out, calls, hashed


def test_ablate_runs_each_distinct_stage_once(ablated):
    """29 stage calls, as without a memo; of the 19 calls of the four
    shared stages, 7 run (one data set, one teacher, the lam=0.5 and the
    lam=1 student, AnSS on each and CutOff) and 12 are hits."""
    out, calls, _ = ablated
    assert calls == {"cmd_gen_data": 5, "cmd_make_teacher": 4,
                     "cmd_pretrain": 5, "cmd_select_anchors": 5,
                     "cmd_finetune": 5, "cmd_eval": 5,
                     "gen_corpus": 1, "run_pretrain": 3,
                     "select_anchors": 3}
    assert not (out / "LGR_and_AnSS,_no_distill" / "teacher.ck").exists()


@pytest.mark.parametrize("row", sorted(ABLATE_ROWS))
def test_ablate_row_matches_a_memo_free_run(ablated, mini_cfg, row, tmp_path):
    out, _, _ = ablated
    cfg = dataclasses.replace(mini_cfg, **ABLATE_ROWS[row])
    pipeline.run_all(cfg, tmp_path)
    want = files(tmp_path)
    assert len(want) == (16 if cfg.lam == 1.0 else 19)
    assert files(out / row) == want


def test_memo_keeps_bytes_not_paths(mini_cfg, tmp_path):
    """Editing a row's files after its run changes nothing later rows
    are given; an upstream file made under another config is refused
    before the memo is read, and adds nothing to it."""
    cfg, memo = mini_cfg, {}
    pipeline.run_all(cfg, tmp_path / "first", memo)
    (tmp_path / "first" / "corpus.tsv").write_text("")
    (tmp_path / "first" / "student.ck").write_bytes(b"")
    pipeline.run_all(cfg, tmp_path / "second", memo)
    pipeline.run_all(cfg, tmp_path / "fresh")
    assert files(tmp_path / "second") == files(tmp_path / "fresh")

    other_corpus = dataclasses.replace(cfg, noise_fraction=0.5)
    pipeline.cmd_gen_data(other_corpus, tmp_path / "third")
    with pytest.raises(StaleArtifactError, match="written under a different"):
        pipeline.cmd_make_teacher(cfg, tmp_path / "third", memo)
    assert len(memo) == 4   # the 4 stages of `first`


def check_hashed_once(log, total):
    """Each stage call hashes each file at most once; `total` hashes in
    all."""
    for stage, paths in log:
        assert len(paths) == len(set(paths)), (stage, paths)
    assert sum(len(paths) for _, paths in log) == total


def test_no_stage_call_of_a_run_hashes_a_file_twice(mini_cfg, tmp_path,
                                                    monkeypatch):
    """Each stage hashes its inputs, to check them, and its outputs, for
    its record. gen-data hashes its three files (3); make-teacher the
    two data files and its two (4); pretrain and select-anchors the data
    files, the checkpoint they read and their two and one outputs (5 +
    4); finetune the data files, student.ck, anchors.tsv and its three
    outputs, final.ck once for both the anchor cache and the record
    (7); eval the data files, final.ck, the cache and its two (6). 29 in
    all."""
    log = hashing(monkeypatch)
    pipeline.run_all(mini_cfg, tmp_path)
    assert [stage for stage, _ in log] == [
        "cmd_gen_data", "cmd_make_teacher", "cmd_pretrain",
        "cmd_select_anchors", "cmd_finetune", "cmd_eval"]
    assert [len(paths) for _, paths in log] == [3, 4, 5, 4, 7, 6]
    check_hashed_once(log, 29)


def test_no_stage_call_of_ablate_hashes_a_file_twice(ablated):
    """A memo hit hashes the stage's inputs and nothing else; a run also
    hashes its outputs. gen-data runs once (3); 4 teacher calls of 2
    and one run's 2 (10); 4 distilled and 1 lam=1 pretrain call of 3
    and 2, and two runs' 2 (18); 5 select-anchors calls of 3 and three
    runs' 1 (18); 5 finetunes of 7 (35) and 5 evals of 6 (30). 114 in
    all."""
    _, _, log = ablated
    assert len(log) == 29
    check_hashed_once(log, 114)


def test_missing_teacher_is_an_error_with_a_memo(mini_cfg, tmp_path):
    cfg, memo = mini_cfg, {}
    pipeline.cmd_gen_data(cfg, tmp_path, memo)
    with pytest.raises(ValidationError, match="teacher"):
        pipeline.cmd_pretrain(cfg, tmp_path, memo)


@pytest.mark.parametrize("stage,missing,writer", [
    ("pretrain", "teacher.ck", "make-teacher"),
    ("select_anchors", "student.ck", "pretrain"),
    ("make_teacher", "dataset.bin", "gen-data")])
def test_missing_input_names_the_file_and_its_command(mini_cfg, mini_run,
                                                      tmp_path, stage,
                                                      missing, writer):
    _, run_dir, _ = mini_run
    for name in pipeline.STAGES[stage].inputs(mini_cfg):
        path = pipeline.artifact(run_dir, name)
        if path.name != missing:
            shutil.copy(path, tmp_path / path.name)
    with pytest.raises(ValidationError) as exc:
        getattr(pipeline, f"cmd_{stage}")(mini_cfg, tmp_path)
    assert str(exc.value) == (
        f"{stage.replace('_', '-')}: {tmp_path / missing} is missing; "
        f"run `vlltr {writer}` first")


# ---- the stage table ----------------------------------------------------


def test_stage_table_names_real_fields_and_artifacts():
    """Every field and artifact is real, and the table is closed: each
    artifact is the output of exactly one stage, and each stage reads
    only outputs of the stages before it."""
    names = {f.name for f in dataclasses.fields(RunConfig)}
    written = []
    for name, stage in pipeline.STAGES.items():
        assert set(stage.fields) <= names
        assert len(set(stage.fields)) == len(stage.fields)
        assert set(stage.upstream) <= set(written)
        written += pipeline.outputs(name)
    assert sorted(written) == sorted(pipeline.FILES)
    assert set(pipeline.STAGES["finetune"].fields) == names
    assert set(pipeline.STAGES["eval"].fields) == names


def test_each_stage_row_names_its_files():
    """A row's files and then its record, `<command>.record.json`, are
    the stage's outputs; every file name is distinct, and `FILES` and
    the writer of each artifact follow from the rows."""
    for name, stage in pipeline.STAGES.items():
        outputs = pipeline.outputs(name)
        assert list(outputs)[:-1] == list(stage.files)
        assert list(outputs.items())[-1] == (
            f"{name}_record", f"{name.replace('_', '-')}.record.json")
        for art, file in outputs.items():
            assert pipeline.FILES[art] == file
            assert pipeline._WRITERS[art] == name
    assert len(set(pipeline.FILES.values())) == len(pipeline.FILES)
    assert pipeline.FILES["teacher"] == "teacher.ck"


def test_run_all_embeds_the_anchors_once_and_eval_reads_no_text(
        mini_cfg, mini_run, tmp_path, monkeypatch):
    """Fine-tuning embeds the anchor block and writes it as the cache;
    eval parses neither the corpus nor the anchors and runs no text
    encoder, and still writes the same report."""
    embedded = []
    embed = head.compute_anchor_embeddings

    def counted_embed(*args):
        embedded.append(args)
        return embed(*args)

    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"eval called {name}")
        return call

    evaluate = pipeline.cmd_eval

    def text_free_eval(*args, **kwargs):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pipeline, "load_corpus", refuse("load_corpus"))
            mp.setattr(pipeline, "load_anchors", refuse("load_anchors"))
            mp.setattr(LinguisticEncoder, "__call__",
                       refuse("LinguisticEncoder"))
            return evaluate(*args, **kwargs)

    monkeypatch.setattr(head, "compute_anchor_embeddings", counted_embed)
    monkeypatch.setattr(pipeline, "cmd_eval", text_free_eval)
    report = pipeline.run_all(mini_cfg, tmp_path)
    assert len(embedded) == 1
    assert report.to_json() == mini_run[2].to_json()
    assert files(tmp_path) == files(mini_run[1])


def other_value(cfg, name):
    value = getattr(cfg, name)
    if name == "head":
        return "fc"
    if name == "anchor_mode":
        return "CutOff"
    return value + 1 if isinstance(value, int) else value / 2


@pytest.fixture(scope="module")
def base_run(mini_cfg, tmp_path_factory):
    """The four shared stages on the small config (lam 0.5)."""
    cfg = mini_cfg
    run_dir = tmp_path_factory.mktemp("base")
    for stage in ORDER:
        getattr(pipeline, f"cmd_{stage}")(cfg, run_dir)
    return cfg, run_dir


def body_outputs(stage):
    """The artifacts stage `stage`'s body writes: all but its record."""
    return tuple(pipeline.STAGES[stage].files)


def rerun(stage, cfg, base_dir, run_dir):
    """The body of stage `stage` under `cfg` on a copy of the base run's
    upstream files; the bytes of each artifact it writes. The body runs
    without the stage's input check, which refuses an input of another
    config, so the body's own reads are what is tested."""
    run_dir.mkdir()
    for name in pipeline.STAGES[stage].inputs(cfg):
        shutil.copy(pipeline.artifact(base_dir, name),
                    pipeline.artifact(run_dir, name))
    getattr(pipeline, f"cmd_{stage}").__wrapped__(cfg, run_dir, {})
    return {name: pipeline.artifact(run_dir, name).read_bytes()
            for name in body_outputs(stage)}


def outside_fields(stage):
    """The fields a re-run of `stage` may move: all but those of its own
    row."""
    return [f.name for f in dataclasses.fields(RunConfig)
            if f.name not in pipeline.STAGES[stage].fields]


@pytest.mark.parametrize("stage", ORDER)
def test_fields_outside_a_stage_leave_its_bytes(stage, base_run, tmp_path):
    cfg, base_dir = base_run
    want = {name: pipeline.artifact(base_dir, name).read_bytes()
            for name in body_outputs(stage)}
    outside = outside_fields(stage)
    changed = [name for name in outside
               if rerun(stage, dataclasses.replace(
                   cfg, **{name: other_value(cfg, name)}),
                   base_dir, tmp_path / name) != want]
    assert changed == [], f"{stage} reads {changed} but does not list them"

    # the first field of its own row changes every output
    own = pipeline.STAGES[stage].fields[0]
    moved = rerun(stage,
                  dataclasses.replace(cfg, **{own: other_value(cfg, own)}),
                  base_dir, tmp_path / own)
    assert all(moved[name] != want[name] for name in want)


@pytest.mark.parametrize("stage", ORDER)
def test_moving_every_field_outside_a_stage_leaves_its_bytes(stage, base_run,
                                                             tmp_path):
    """All of `outside_fields` moved at once to other legal values: the
    stage writes the bytes it wrote under the base config."""
    cfg, base_dir = base_run
    want = {name: pipeline.artifact(base_dir, name).read_bytes()
            for name in body_outputs(stage)}
    moved = dataclasses.replace(cfg, **{name: other_value(cfg, name)
                                        for name in outside_fields(stage)})
    assert rerun(stage, moved.validate(), base_dir, tmp_path / "run") == want
