"""End-to-end command-line tests driving the pipeline through vlltr.cli."""

import hashlib
import json
import shutil

import numpy as np
import pytest

from vlltr import checkpoint as ckpt
from vlltr import cli, pipeline
from vlltr.config import load_config
from vlltr.encoders import CvlpModel
from vlltr.errors import StaleArtifactError, VlltrError

CFG_TEXT = """\
seed = 0
classes = 6
n_max = 120
n_min = 5
test_per_class = 20
d_img = 8
embed_dim = 8
vocab_size = 96
sentences_per_class = 12
prompt_count = 8
pretrain_epochs = 4
teacher_epochs = 2
finetune_epochs = 2
pretrain_batch = 16
finetune_batch = 16
anchor_m = 8
probe_cap = 20
"""


@pytest.fixture(scope="module")
def cfg_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "small.cfg"
    path.write_text(CFG_TEXT)
    return path


@pytest.fixture(scope="module")
def cli_run(cfg_file, tmp_path_factory):
    """Full pipeline driven through the CLI, one subcommand at a time."""
    out = tmp_path_factory.mktemp("cli_run")
    for command in ("gen-data", "make-teacher", "pretrain", "select-anchors",
                    "finetune", "eval"):
        code = cli.main([command, "--config", str(cfg_file), "--out", str(out)])
        assert code == 0, f"{command} failed"
    return out


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def reseal(work, name):
    """Record the edited file `name` in the record of the stage that
    wrote it, as if that stage had written it, so that a command reads
    the file instead of refusing it."""
    for record in work.glob("*.record.json"):
        data = json.loads(record.read_text())
        if name in data["sha256"]:
            data["sha256"][name] = sha(work / name)
            record.write_bytes(pipeline._record_bytes(data["key"],
                                                      data["sha256"]))


class TestPipelineCommands:
    def test_all_artifacts_present(self, cli_run):
        for name in ("dataset.bin", "corpus.tsv", "stats.json", "teacher.ck",
                     "student.ck", "pretrain_trace.tsv", "anchors.tsv",
                     "final.ck", "finetune_trace.tsv", "anchor_cache.vlae",
                     "predictions.tsv", "report.json"):
            assert (cli_run / name).exists(), name

    def test_gen_data_deterministic(self, cfg_file, cli_run, tmp_path):
        assert cli.main(["gen-data", "--config", str(cfg_file),
                         "--out", str(tmp_path)]) == 0
        for name in ("dataset.bin", "corpus.tsv", "stats.json"):
            assert sha(tmp_path / name) == sha(cli_run / name), name

    def test_stats_match_recount(self, cli_run):
        from vlltr.data import corpus_stats, load_corpus

        stats = json.loads((cli_run / "stats.json").read_text())
        corpus = load_corpus(cli_run / "corpus.tsv", 96, 77)
        recount = corpus_stats(corpus)
        for key, value in recount.items():
            assert stats[key] == pytest.approx(value), key

    def test_pretrain_trace_lambda_identity(self, cli_run):
        rows = [line.split("\t") for line in
                (cli_run / "pretrain_trace.tsv").read_text().splitlines()]
        assert rows
        for row in rows:
            l_ccl, l_dis, l_pre = float(row[2]), float(row[3]), float(row[4])
            assert l_pre == pytest.approx(0.5 * l_ccl + 0.5 * l_dis, abs=1e-12)

    def test_teacher_trace_logs_zero_distill(self, cli_run):
        rows = [line.split("\t") for line in
                (cli_run / "teacher_trace.tsv").read_text().splitlines()]
        assert rows
        assert all(float(row[3]) == 0.0 for row in rows)

    def test_zero_epoch_pretrain_keeps_init(self, cfg_file, tmp_path):
        assert cli.main(["gen-data", "--config", str(cfg_file),
                         "--out", str(tmp_path)]) == 0
        assert cli.main(["pretrain", "--config", str(cfg_file),
                         "--out", str(tmp_path),
                         "--set", "pretrain_epochs=0",
                         "--set", "lam=1.0"]) == 0
        sections = ckpt.read_checkpoint(tmp_path / "student.ck")
        init = CvlpModel(8, 8, 96, seed=0)
        for k, v in ckpt.sections(init.params()).items():
            np.testing.assert_array_equal(sections[k], v)

    def test_eval_is_idempotent(self, cfg_file, cli_run, tmp_path, capsys):
        work = tmp_path / "copy"
        shutil.copytree(cli_run, work)
        first = (work / "report.json").read_bytes()
        first_preds = (work / "predictions.tsv").read_bytes()
        assert cli.main(["eval", "--config", str(cfg_file),
                         "--out", str(work)]) == 0
        printed = capsys.readouterr().out
        assert (work / "report.json").read_bytes() == first
        assert (work / "predictions.tsv").read_bytes() == first_preds
        assert json.loads(printed)["overall"] == \
            json.loads(first.decode())["overall"]

    def test_eval_does_not_parse_the_corpus(self, cfg_file, cli_run, tmp_path,
                                            monkeypatch):
        work = tmp_path / "copy"
        shutil.copytree(cli_run, work)

        def refuse(*args, **kwargs):
            raise AssertionError("eval parsed corpus.tsv")

        monkeypatch.setattr(pipeline, "load_corpus", refuse)
        report = pipeline.cmd_eval(load_config(cfg_file), work)
        assert report.to_json() == (cli_run / "report.json").read_text()
        assert (work / "report.json").read_bytes() == \
            (cli_run / "report.json").read_bytes()

    def test_eval_rejects_an_edited_corpus(self, cfg_file, cli_run, tmp_path,
                                           capsys):
        work = tmp_path / "copy"
        shutil.copytree(cli_run, work)
        with open(work / "corpus.tsv", "a", encoding="utf-8") as f:
            f.write("0\tprompt\t0 1\n")
        message = (f"{work / 'corpus.tsv'}: not the file `vlltr gen-data` "
                   "wrote; re-run it")
        with pytest.raises(StaleArtifactError) as exc:
            pipeline.cmd_eval(load_config(cfg_file), work)
        assert str(exc.value) == message
        assert cli.main(["eval", "--config", str(cfg_file),
                         "--out", str(work)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("setting,section", [("classes=10", "lgr."),
                                                 ("embed_dim=4", "vis."),
                                                 ("head=fc", "fc.w")])
    def test_eval_under_other_shapes_is_validation_error(
            self, cfg_file, cli_run, tmp_path, capsys, setting, section):
        """A section of another shape, or missing (the FC head's, from an
        LGR run), is an error naming the section and the checkpoint when
        the inference head is loaded; `eval` under that config exits 2
        before it loads anything, naming a file written under another
        config."""
        work = tmp_path / "copy"
        shutil.copytree(cli_run, work)
        cfg = load_config(cfg_file, [setting])
        with pytest.raises(VlltrError) as exc:
            pipeline.load_inference_head(cfg, work)
        problem = "missing section" if setting == "head=fc" else "shape"
        assert f"section '{section}" in str(exc.value)
        assert problem in str(exc.value)
        assert str(work / "final.ck") in str(exc.value)
        assert cli.main(["eval", "--config", str(cfg_file),
                         "--out", str(work), "--set", setting]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "written under a different config" in err[0]

    def test_cutoff_anchors_differ_from_anss(self, cfg_file, cli_run, tmp_path):
        work = tmp_path / "copy"
        shutil.copytree(cli_run, work)
        assert cli.main(["select-anchors", "--config", str(cfg_file),
                         "--out", str(work),
                         "--set", "anchor_mode=CutOff"]) == 0
        assert sha(work / "anchors.tsv") != sha(cli_run / "anchors.tsv")
        header = (work / "anchors.tsv").read_text().splitlines()[0]
        assert "mode=CutOff" in header

    def test_stale_anchors_rejected(self, cfg_file, cli_run, tmp_path, capsys):
        work = tmp_path / "copy"
        shutil.copytree(cli_run, work)
        # re-train the encoder for another epoch: the anchor file now
        # refers to a checkpoint that no longer exists
        assert cli.main(["pretrain", "--config", str(cfg_file),
                         "--out", str(work),
                         "--set", "pretrain_epochs=5"]) == 0
        capsys.readouterr()
        code = cli.main(["finetune", "--config", str(cfg_file),
                         "--out", str(work), "--set", "pretrain_epochs=5"])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {work / 'anchors.tsv'}: written under a different "
            "config; re-run `vlltr select-anchors` under this one"]

    @pytest.mark.parametrize("setting", ["anchor_mode=CutOff", "anchor_m=4",
                                         "probe_cap=3"])
    def test_anchors_of_another_mode_or_m_rejected(
            self, cfg_file, cli_run, tmp_path, capsys, setting):
        """Anchors selected under another mode, M or probe cap than the
        run's are stale: finetune exits 2 in one line naming the file and
        the command to re-run, and writes nothing. It used to train on
        them and report the run's own config."""
        work = tmp_path / "copy"
        shutil.copytree(cli_run, work)
        assert cli.main(["select-anchors", "--config", str(cfg_file),
                         "--out", str(work), "--set", setting]) == 0
        before = {p.name: p.read_bytes() for p in work.iterdir()}
        capsys.readouterr()
        assert cli.main(["finetune", "--config", str(cfg_file),
                         "--out", str(work)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {work / 'anchors.tsv'}: written under a different "
            "config; re-run `vlltr select-anchors` under this one"]
        assert {p.name: p.read_bytes() for p in work.iterdir()} == before

    def test_overflow_exits_three_naming_the_stage(self, cfg_file, cli_run,
                                                   tmp_path, capsys):
        """A teacher temperature of 1e-310 overflows the distillation
        logits: pretrain exits 3 in one line naming the stage, where the
        overflow arises, and writes nothing."""
        work = tmp_path / "copy"
        shutil.copytree(cli_run, work)
        sections = ckpt.read_checkpoint(work / "teacher.ck")
        sections["tau"] = np.array(1e-310)
        ckpt.write_checkpoint(work / "teacher.ck", sections)
        reseal(work, "teacher.ck")
        before = {p.name: p.read_bytes() for p in work.iterdir()}
        assert cli.main(["pretrain", "--config", str(cfg_file),
                         "--out", str(work)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(
            "numeric failure: pretrain: "), err
        assert {p.name: p.read_bytes() for p in work.iterdir()} == before

    @pytest.mark.parametrize("command,setting,name,writer", [
        ("eval", "head=knn", "final.ck", "finetune"),
        ("pretrain", "teacher_epochs=3", "teacher.ck", "make-teacher"),
        ("finetune", "lam=0.9", "student.ck", "pretrain")])
    def test_checkpoint_of_another_config_rejected(
            self, cfg_file, cli_run, tmp_path, capsys, command, setting, name,
            writer):
        """A command whose config differs, in the fields of the stage that
        wrote a checkpoint it reads, from what that checkpoint records
        exits 2 in one line naming it and the command to re-run, and
        writes nothing."""
        work = tmp_path / "copy"
        shutil.copytree(cli_run, work)
        assert cli.main([command, "--config", str(cfg_file),
                         "--out", str(work), "--set", setting]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: {work / name}: written under a different config; "
            f"re-run `vlltr {writer}` under this one"]
        for path in cli_run.iterdir():
            assert (work / path.name).read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("command,extra", [
        ("eval", []), ("retrieve", ["--query", "0 7 1"]),
        ("select-anchors", [])])
    def test_checkpoints_of_other_data_rejected(self, cfg_file, cli_run,
                                                tmp_path, capsys, command,
                                                extra):
        work = tmp_path / "copy"
        shutil.copytree(cli_run, work)
        # regenerate the data under another seed: every later artifact of
        # the run was made from data files that are gone
        assert cli.main(["gen-data", "--config", str(cfg_file),
                         "--out", str(work), "--seed", "5"]) == 0
        before = {p.name: p.read_bytes() for p in work.iterdir()}
        assert cli.main([command, "--config", str(cfg_file),
                         "--out", str(work)] + extra) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: {work / 'dataset.bin'}: written under a different "
            "config; re-run `vlltr gen-data` under this one"]
        assert {p.name: p.read_bytes() for p in work.iterdir()} == before

    @pytest.mark.parametrize("setting,rerun,command,name,writer", [
        ("n_min=2", [], "make-teacher", "dataset.bin", "gen-data"),
        ("teacher_epochs=3", ["make-teacher"], "finetune", "student.ck",
         "pretrain")])
    def test_artifact_of_another_upstream_config_rejected(
            self, cfg_file, cli_run, tmp_path, capsys, setting, rerun,
            command, name, writer):
        """An input made under another config is refused even where the
        setting is not a field of the stage that wrote it, but of one
        upstream of it: n_min is gen-data's, and a student distilled from
        a teacher of another `teacher_epochs` is stale once make-teacher
        runs again. The command exits 2 in one line naming the file and
        the command to re-run, and writes nothing."""
        work = tmp_path / "copy"
        shutil.copytree(cli_run, work)
        sets = ["--config", str(cfg_file), "--out", str(work),
                "--set", setting]
        for earlier in rerun:
            assert cli.main([earlier, *sets]) == 0
        before = {p.name: p.read_bytes() for p in work.iterdir()}
        capsys.readouterr()
        assert cli.main([command, *sets]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {work / name}: written under a different config; "
            f"re-run `vlltr {writer}` under this one"]
        assert {p.name: p.read_bytes() for p in work.iterdir()} == before

    @pytest.mark.parametrize("record,writer", [
        ("gen-data.record.json", "gen-data"),
        ("pretrain.record.json", "pretrain")])
    def test_missing_record_rejected(self, cfg_file, cli_run, tmp_path,
                                     capsys, record, writer):
        """An input whose writer's record is gone cannot be vouched for:
        select-anchors exits 2 naming the record and the command that
        writes it, and writes nothing."""
        work = tmp_path / "copy"
        shutil.copytree(cli_run, work)
        (work / record).unlink()
        before = {p.name: p.read_bytes() for p in work.iterdir()}
        assert cli.main(["select-anchors", "--config", str(cfg_file),
                         "--out", str(work)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: select-anchors: {work / record} is missing; run "
            f"`vlltr {writer}` first"]
        assert {p.name: p.read_bytes() for p in work.iterdir()} == before

    @pytest.mark.parametrize("text", ['{"key": ', '{"key": "0"}', "[]",
                                      '{"key": "0", "sha256": 7}'],
                             ids=["not-json", "no-digests", "not-an-object",
                                  "digests-not-a-table"])
    def test_malformed_record_rejected(self, cfg_file, cli_run, tmp_path,
                                       capsys, text):
        """A record that does not parse exits 2 in one line naming it,
        not as an internal error, and writes nothing."""
        work = tmp_path / "copy"
        shutil.copytree(cli_run, work)
        record = work / "pretrain.record.json"
        record.write_text(text)
        before = {p.name: p.read_bytes() for p in work.iterdir()}
        assert cli.main(["select-anchors", "--config", str(cfg_file),
                         "--out", str(work)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {record}: not a stage record")
        assert {p.name: p.read_bytes() for p in work.iterdir()} == before

    @pytest.mark.parametrize("name,edit,command", [
        ("pretrain_trace.tsv", "append", "select-anchors"),
        ("stats.json", "empty", "finetune"),
        ("teacher_trace.tsv", "delete", "pretrain"),
        ("finetune_trace.tsv", "append", "eval")])
    def test_recorded_file_no_command_reads_is_checked(
            self, cfg_file, cli_run, tmp_path, capsys, name, edit, command):
        """Every file a record names is checked, not only those the
        command parses: a changed or deleted trace or stats file exits 2
        in one line naming it, and nothing is written."""
        work = tmp_path / "copy"
        shutil.copytree(cli_run, work)
        path = work / name
        if edit == "append":
            with open(path, "a") as f:
                f.write("0\t0\t1.0\n")
        elif edit == "empty":
            path.write_text("{}")
        else:
            path.unlink()
        before = {p.name: p.read_bytes() for p in work.iterdir()}
        assert cli.main([command, "--config", str(cfg_file),
                         "--out", str(work)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and str(path) in err[0], err
        assert {p.name: p.read_bytes() for p in work.iterdir()} == before

    @pytest.mark.parametrize("name,writer", [("student.ck", "pretrain"),
                                             ("dataset.bin", "gen-data")])
    def test_artifact_edited_after_its_record_rejected(
            self, cfg_file, cli_run, tmp_path, capsys, name, writer):
        """A file changed after its writer recorded it exits 2 in one line
        naming it and the command to re-run, and writes nothing."""
        work = tmp_path / "copy"
        shutil.copytree(cli_run, work)
        with open(work / name, "ab") as f:
            f.write(b"\0")
        before = {p.name: p.read_bytes() for p in work.iterdir()}
        assert cli.main(["select-anchors", "--config", str(cfg_file),
                         "--out", str(work)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {work / name}: not the file `vlltr {writer}` wrote; "
            "re-run it"]
        assert {p.name: p.read_bytes() for p in work.iterdir()} == before

    @pytest.mark.parametrize("name,command", [("corpus.tsv", "make-teacher"),
                                              ("anchors.tsv", "finetune")])
    def test_undecodable_text_artifact_exits_two(self, cfg_file, cli_run,
                                                 tmp_path, capsys, name,
                                                 command):
        """One byte that is not UTF-8, on line 3, names the file and line
        (was an internal error, exit 4)."""
        work = tmp_path / "copy"
        shutil.copytree(cli_run, work)
        path = work / name
        lines = path.read_bytes().split(b"\n")
        lines[2] = lines[2][:3] + b"\xff" + lines[2][3:]
        path.write_bytes(b"\n".join(lines))
        reseal(work, name)
        assert cli.main([command, "--config", str(cfg_file),
                         "--out", str(work)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{path}:3: " in err

    @pytest.mark.parametrize("command,extra,missing,writer", [
        ("finetune", [], "anchors.tsv", "select-anchors"),
        ("eval", [], "final.ck", "finetune"),
        ("eval", [], "anchor_cache.vlae", "finetune"),
        ("retrieve", ["--query", "0 7 1"], "student.ck", "pretrain")])
    def test_missing_input_names_the_command_that_writes_it(
            self, cfg_file, cli_run, tmp_path, capsys, command, extra,
            missing, writer):
        """As for the other stages (was `[Errno 2] No such file or
        directory`); eval no longer builds a missing anchor cache."""
        work = tmp_path / "copy"
        shutil.copytree(cli_run, work)
        (work / missing).unlink()
        assert cli.main([command, "--config", str(cfg_file),
                         "--out", str(work)] + extra) == 2
        assert capsys.readouterr().err == (
            f"error: {command}: {work / missing} is missing; run "
            f"`vlltr {writer}` first\n")

    def test_anchors_reselected_after_finetune_leave_eval_unchanged(
            self, cfg_file, cli_run, tmp_path, capsys):
        """Fine-tuning writes the anchor cache from the anchors it trained
        on, and eval reads only that cache: CutOff anchors selected after
        an AnSS fine-tune change neither the report nor the predictions."""
        work = tmp_path / "copy"
        shutil.copytree(cli_run, work)
        assert cli.main(["select-anchors", "--config", str(cfg_file),
                         "--out", str(work),
                         "--set", "anchor_mode=CutOff"]) == 0
        assert sha(work / "anchors.tsv") != sha(cli_run / "anchors.tsv")
        capsys.readouterr()
        assert cli.main(["eval", "--config", str(cfg_file),
                         "--out", str(work)]) == 0
        assert capsys.readouterr().out == (cli_run / "report.json").read_text()
        for name in ("report.json", "predictions.tsv", "anchor_cache.vlae"):
            assert (work / name).read_bytes() == (cli_run / name).read_bytes()

    def test_malformed_anchor_row_is_validation_error(self, cfg_file, cli_run,
                                                      tmp_path, capsys):
        work = tmp_path / "copy"
        shutil.copytree(cli_run, work)
        path = work / "anchors.tsv"
        lines = path.read_text().splitlines(keepends=True)
        lines[3] = lines[3].rsplit("\t", 1)[0] + "\n"   # drop the score
        path.write_text("".join(lines))
        reseal(work, "anchors.tsv")
        assert cli.main(["finetune", "--config", str(cfg_file),
                         "--out", str(work)]) == 2
        assert "anchors.tsv:4:" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["dataset.bin", "anchor_cache.vlae",
                                      "final.ck"])
    def test_truncated_binary_exits_two(self, cfg_file, cli_run, tmp_path,
                                        capsys, name):
        work = tmp_path / "copy"
        shutil.copytree(cli_run, work)
        path = work / name
        path.write_bytes(path.read_bytes()[:-1])
        reseal(work, name)
        assert cli.main(["eval", "--config", str(cfg_file),
                         "--out", str(work)]) == 2
        assert f"{path}: truncated file" in capsys.readouterr().err

    def test_retrieve(self, cfg_file, cli_run, capsys):
        from composite_oracles import class_sentences
        from vlltr.data import load_corpus

        corpus = load_corpus(cli_run / "corpus.tsv", 96, 77)
        query = " ".join(str(t) for t in class_sentences(corpus, 0)[0])
        assert cli.main(["retrieve", "--config", str(cfg_file),
                         "--out", str(cli_run), "--query", query,
                         "-k", "4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4
        for rank, line in enumerate(lines):
            fields = line.split("\t")
            assert int(fields[0]) == rank
            assert len(fields) == 3

    @pytest.mark.parametrize("query", ["0 seven 1", "0 96 1", "0 -2 1"])
    def test_retrieve_rejects_bad_query(self, cfg_file, cli_run, capsys,
                                        query):
        """A non-integer token, an id past the vocabulary of 96 and a
        negative id: exit 2 with one line, no traceback."""
        assert cli.main(["retrieve", "--config", str(cfg_file),
                         "--out", str(cli_run), "--query", query]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: --query: token ids must be integers in [0, 96), "
            f"got {query!r}"]

    @pytest.mark.parametrize("query", ["", "  "])
    def test_retrieve_rejects_empty_query(self, cfg_file, cli_run, capsys,
                                          query):
        assert cli.main(["retrieve", "--config", str(cfg_file),
                         "--out", str(cli_run), "--query", query]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: --query: no token ids"]

    @pytest.mark.parametrize("k", ["-1", "0"])
    def test_retrieve_rejects_k_below_one(self, cfg_file, cli_run, capsys, k):
        assert cli.main(["retrieve", "--config", str(cfg_file),
                         "--out", str(cli_run), "--query", "0 7 1",
                         "-k", k]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: -k: must be at least 1, got {k}"]

    @pytest.mark.parametrize("counts", [[], [100, 0, 50, 20, 10, 5]],
                             ids=["no-classes", "empty-class"])
    def test_dataset_with_an_empty_class_exits_two(self, cfg_file, cli_run,
                                                   tmp_path, capsys, counts):
        """A dataset header of zero classes, or with a class count of 0,
        and a payload that matches it."""
        import struct
        from vlltr.data import DATASET_MAGIC, DATASET_VERSION

        work = tmp_path / "copy"
        shutil.copytree(cli_run, work)
        C, d_img = len(counts), 8
        (work / "dataset.bin").write_bytes(
            DATASET_MAGIC
            + struct.pack(f"<III{C}I", DATASET_VERSION, C, d_img, *counts)
            + bytes(4 * d_img * sum(counts)) + struct.pack("<I", 1)
            + bytes(4 * d_img * C))
        reseal(work, "dataset.bin")
        assert cli.main(["pretrain", "--config", str(cfg_file),
                         "--out", str(work), "--set", "lam=1.0"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and str(work / "dataset.bin") in err[0]

    def test_corpus_rows_out_of_class_order_exit_two(self, cfg_file, cli_run,
                                                      tmp_path, capsys):
        """A corpus whose last row is moved to the top, recorded as if
        gen-data wrote it, names the line that comes after a later
        class."""
        work = tmp_path / "copy"
        shutil.copytree(cli_run, work)
        path = work / "corpus.tsv"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[-1:] + lines[:-1]))
        reseal(work, "corpus.tsv")
        assert cli.main(["make-teacher", "--config", str(cfg_file),
                         "--out", str(work)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {path}:2: class 0 after class 5; rows must come in "
            "class order"]

    def test_corpus_token_past_vocabulary_exits_two(self, cfg_file, cli_run,
                                                    tmp_path, capsys):
        work = tmp_path / "copy"
        work.mkdir()
        for name in ("dataset.bin", "corpus.tsv", "stats.json",
                     "gen-data.record.json"):
            shutil.copy(cli_run / name, work / name)
        with open(work / "corpus.tsv", "a") as f:
            f.write("0\tencyclopedia\t0 500 1\n")
        reseal(work, "corpus.tsv")
        lines = (work / "corpus.tsv").read_text().count("\n")
        assert cli.main(["make-teacher", "--config", str(cfg_file),
                         "--out", str(work)]) == 2
        assert f"corpus.tsv:{lines}: token ids must be integers in [0, 96)" \
            in capsys.readouterr().err

    def test_ablate(self, cfg_file, tmp_path, capsys):
        assert cli.main(["ablate", "--config", str(cfg_file),
                         "--out", str(tmp_path)]) == 0
        table = (tmp_path / "ablation.txt").read_text()
        assert capsys.readouterr().out == table
        lines = table.splitlines()
        assert lines[0].split()[0] == "config"
        assert len(lines) == 7  # header + rule + five configurations
        for label in ("distill", "FC head", "KNN head", "CutOff"):
            assert any(label in line for line in lines[2:])

    def test_ablate_rows_pin_their_head_and_anchor_mode(self, cfg_file,
                                                        tmp_path, capsys):
        """A base `head=knn` changes no row: the LGR rows run LGR, every
        row but CutOff runs AnSS, and the table and each row's report are
        those of the default base."""
        tables = {}
        for name, sets in (("base", []),
                           ("knn", ["--set", "head=knn",
                                    "--set", "anchor_mode=CutOff"])):
            assert cli.main(["ablate", "--config", str(cfg_file),
                             "--out", str(tmp_path / name), *sets]) == 0
            tables[name] = (tmp_path / name / "ablation.txt").read_text()
        capsys.readouterr()
        assert tables["knn"] == tables["base"]
        row = "LGR_and_AnSS_and_distill"
        report = json.loads((tmp_path / "knn" / row / "report.json")
                            .read_text())
        assert report["config_fingerprint"] == \
            load_config(cfg_file).fingerprint().hex()
        for path in (tmp_path / "base").glob("*/report.json"):
            assert (tmp_path / "knn" / path.parent.name / "report.json") \
                .read_bytes() == path.read_bytes()

    def test_ablate_without_distillation_exits_two(self, cfg_file, tmp_path,
                                                   capsys):
        assert cli.main(["ablate", "--config", str(cfg_file), "--out",
                         str(tmp_path), "--set", "lam=1.0"]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "error: ablate: lam must be below 1 so that the distill rows "
            "distill, got 1.0"]
        assert not list(tmp_path.iterdir())


class TestGradcheckCommand:
    def test_passes_with_exit_zero(self, capsys):
        assert cli.main(["gradcheck", "--instances", "1"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_negative_instances_exit_two(self, capsys):
        assert cli.main(["gradcheck", "--instances", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: --instances: must be at least 0, got -1"]

    def test_failure_exits_three_and_names_check(self, capsys):
        from vlltr.gradcheck import GradCheckReport

        def failing():
            return GradCheckReport(max_rel_err=1.0, passed=False, tol=1e-4)

        assert cli._cmd_gradcheck(1, 0, suite=[("corrupted", failing)]) == 3
        out = capsys.readouterr().out
        assert "corrupted" in out and "FAIL" in out


class TestUsageAndErrors:
    def test_no_arguments_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 1

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["transmogrify"])
        assert exc.value.code == 1

    def test_unknown_set_key_is_validation_error(self, tmp_path, capsys):
        assert cli.main(["gen-data", "--out", str(tmp_path),
                         "--set", "widgets=3"]) == 2
        assert "widgets" in capsys.readouterr().err

    def test_invalid_lambda_is_validation_error(self, tmp_path, capsys):
        assert cli.main(["gen-data", "--out", str(tmp_path),
                         "--set", "lam=1.5"]) == 2

    @pytest.mark.parametrize("setting", [
        "pretrain_batch=0", "finetune_batch=0", "tau_init=0",
        "tau_init=-1", "tau_init=nan", "tau_init=1.5", "seed=-1",
        "probe_cap=0", "test_per_class=0", "noise_fraction=2",
        "noise_sigma=-1", "weight_decay=-1",
        "sentences_per_class=0,prompt_count=0", "teacher_epochs=-1",
        "embed_dim=0", "finetune_lr=inf", "finetune_lr=-1", "max_tokens=2",
        "anchor_m=21"])
    def test_out_of_bounds_value_is_validation_error(self, cfg_file, tmp_path,
                                                     capsys, setting):
        """Each value outside its key's domain stops gen-data with exit 2
        and one stderr line naming the key, before any artifact is
        written. Weight decay -1, no sentences, teacher_epochs -1 and
        finetune_lr -1 used to pass gen-data (the first three every
        stage); embed_dim 0 failed at make-teacher naming
        cosine_sim_matrix, and finetune_lr inf at finetune with 9 stderr
        lines."""
        out = tmp_path / "run"
        args = ["gen-data", "--config", str(cfg_file), "--out", str(out)]
        for pair in setting.split(","):
            args += ["--set", pair]
        assert cli.main(args) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and setting.split("=")[0] in err
        assert not out.exists()

    @pytest.mark.parametrize("command,flag,make", [
        ("gen-data", "--out", lambda path: path.write_text("")),
        ("eval", "--config", lambda path: path.mkdir())],
        ids=["out-is-a-file", "config-is-a-directory"])
    def test_unusable_path_exits_two_naming_it(self, tmp_path, capsys,
                                               command, flag, make):
        """`--out` a regular file and `--config` a directory exit 2 with
        one stderr line naming the path (were internal errors, exit 4)."""
        path = tmp_path / "given"
        make(path)
        args = [command, "--out", str(tmp_path / "run"), flag, str(path)]
        assert cli.main(args) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(path) in err

    def test_setting_too_large_for_memory_exits_two(self, tmp_path, capsys):
        """A vocabulary of 10**15 ids asks gen-data for a filler pool of
        8 PB, which is refused at once: exit 2 in one stderr line naming
        the stage, and no file written (was `internal error:
        MemoryError: `, exit 4)."""
        out = tmp_path / "run"
        assert cli.main(["gen-data", "--out", str(out),
                         "--set", f"vocab_size={10 ** 15}"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: gen-data: "), err
        assert not out.exists() or not list(out.iterdir())

    def test_missing_checkpoint_is_validation_error(self, cfg_file, tmp_path):
        assert cli.main(["select-anchors", "--config", str(cfg_file),
                         "--out", str(tmp_path)]) == 2

    def test_unexpected_exception_exits_four_in_one_line(
            self, tmp_path, capsys, monkeypatch):
        def broken(cfg, out_dir, memo=None):
            raise RuntimeError("stage broke\non two lines")

        monkeypatch.setattr(pipeline, "cmd_gen_data", broken)
        assert cli.main(["gen-data", "--out", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert err == ("internal error: RuntimeError: "
                       "stage broke on two lines\n")

    def test_help_lists_config_keys(self, capsys):
        import dataclasses

        from vlltr.config import RunConfig

        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for f in dataclasses.fields(RunConfig):
            assert f.name in out
