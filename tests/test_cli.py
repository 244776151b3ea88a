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
from vlltr.errors import StaleArtifactError

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
        corpus = load_corpus(cli_run / "corpus.tsv")
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
        sections = ckpt.read_checkpoint(tmp_path / "student.ck",
                                        names=lambda n: not n.startswith("__"))
        init = CvlpModel(8, 8, 96, seed=0)
        for k, v in init.state().items():
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
        with pytest.raises(StaleArtifactError) as exc:
            pipeline.cmd_eval(load_config(cfg_file), work)
        assert "different corpus file" in str(exc.value)
        assert cli.main(["eval", "--config", str(cfg_file),
                         "--out", str(work)]) == 2
        assert "different corpus file" in capsys.readouterr().err

    @pytest.mark.parametrize("setting,section", [("classes=10", "lgr."),
                                                 ("embed_dim=4", "vis.")])
    def test_eval_under_other_shapes_is_validation_error(
            self, cfg_file, cli_run, tmp_path, capsys, setting, section):
        work = tmp_path / "copy"
        shutil.copytree(cli_run, work)
        assert cli.main(["eval", "--config", str(cfg_file),
                         "--out", str(work), "--set", setting]) == 2
        err = capsys.readouterr().err
        assert f"section '{section}" in err and "shape" in err

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
        # re-train the encoder under a different seed: the anchor file now
        # refers to a checkpoint that no longer exists
        assert cli.main(["pretrain", "--config", str(cfg_file),
                         "--out", str(work), "--seed", "1"]) == 0
        code = cli.main(["finetune", "--config", str(cfg_file),
                         "--out", str(work), "--seed", "1"])
        assert code == 2
        assert "checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("command,extra", [
        ("eval", []), ("retrieve", ["--query", "0 7 1"]),
        ("select-anchors", [])])
    def test_checkpoints_of_other_data_rejected(self, cfg_file, cli_run,
                                                tmp_path, capsys, command,
                                                extra):
        work = tmp_path / "copy"
        shutil.copytree(cli_run, work)
        # regenerate the data under another seed: every checkpoint of the
        # run now records the hashes of data files that are gone
        assert cli.main(["gen-data", "--config", str(cfg_file),
                         "--out", str(work), "--seed", "5"]) == 0
        assert cli.main([command, "--config", str(cfg_file),
                         "--out", str(work)] + extra) == 2
        assert "different dataset file" in capsys.readouterr().err

    @pytest.mark.parametrize("name,record", [
        ("dataset.bin", "__dataset_hash__"),
        ("corpus.tsv", "__corpus_hash__")])
    def test_checkpoint_without_a_data_record_rejected(
            self, cfg_file, cli_run, tmp_path, capsys, name, record):
        """A student checkpoint that lost one data record cannot vouch for
        that file: with another seed's file in its place, select-anchors
        exits 2 and names the checkpoint, not 0 on the wrong data."""
        work = tmp_path / "copy"
        shutil.copytree(cli_run, work)
        assert cli.main(["gen-data", "--config", str(cfg_file), "--seed", "5",
                         "--out", str(tmp_path / "other")]) == 0
        shutil.copy(tmp_path / "other" / name, work / name)
        student = work / "student.ck"
        data = student.read_bytes()
        assert data.count(record.encode()) == 1
        student.write_bytes(data.replace(record.encode(),
                                         record[:-3].encode() + b"X__"))
        assert cli.main(["select-anchors", "--config", str(cfg_file),
                         "--out", str(work)]) == 2
        kind = name.split(".")[0]
        assert f"{student}: checkpoint records no {kind} hash" in \
            capsys.readouterr().err

    def test_malformed_data_record_rejected(self, cfg_file, cli_run,
                                            tmp_path, capsys):
        """A data record that is not 32 byte values is stale, not an
        internal error."""
        work = tmp_path / "copy"
        shutil.copytree(cli_run, work)
        sections = ckpt.read_checkpoint(work / "student.ck")
        sections["__dataset_hash__"] = np.full(32, 300.0)
        ckpt.write_checkpoint(work / "student.ck", sections)
        assert cli.main(["select-anchors", "--config", str(cfg_file),
                         "--out", str(work)]) == 2
        assert "different dataset file" in capsys.readouterr().err

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
        assert cli.main([command, "--config", str(cfg_file),
                         "--out", str(work)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{path}:3: " in err

    def test_anchors_reselected_after_finetune_are_stale(self, cfg_file,
                                                        cli_run, tmp_path,
                                                        capsys):
        """final.ck records the anchors it was fine-tuned on, so building
        the cache from CutOff anchors selected after an AnSS fine-tune is
        a stale artifact (it used to score 0.325 without complaint)."""
        work = tmp_path / "copy"
        shutil.copytree(cli_run, work)
        (work / "anchor_cache.vlae").unlink()
        assert cli.main(["select-anchors", "--config", str(cfg_file),
                         "--out", str(work),
                         "--set", "anchor_mode=CutOff"]) == 0
        capsys.readouterr()
        assert cli.main(["eval", "--config", str(cfg_file),
                         "--out", str(work)]) == 2
        assert capsys.readouterr().err == (
            f"error: {work / 'final.ck'}: checkpoint was trained on a "
            "different anchors file than anchors.tsv\n")
        assert not (work / "anchor_cache.vlae").exists()

    def test_malformed_anchor_row_is_validation_error(self, cfg_file, cli_run,
                                                      tmp_path, capsys):
        work = tmp_path / "copy"
        shutil.copytree(cli_run, work)
        path = work / "anchors.tsv"
        lines = path.read_text().splitlines(keepends=True)
        lines[3] = lines[3].rsplit("\t", 1)[0] + "\n"   # drop the score
        path.write_text("".join(lines))
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
        assert cli.main(["eval", "--config", str(cfg_file),
                         "--out", str(work)]) == 2
        assert f"{path}: truncated file" in capsys.readouterr().err

    def test_retrieve(self, cfg_file, cli_run, capsys):
        from composite_oracles import class_sentences
        from vlltr.data import load_corpus

        corpus = load_corpus(cli_run / "corpus.tsv")
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

    def test_corpus_token_past_vocabulary_exits_two(self, cfg_file, cli_run,
                                                    tmp_path, capsys):
        work = tmp_path / "copy"
        work.mkdir()
        for name in ("dataset.bin", "corpus.tsv"):
            shutil.copy(cli_run / name, work / name)
        with open(work / "corpus.tsv", "a") as f:
            f.write("0\tencyclopedia\t0 500 1\n")
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


class TestGradcheckCommand:
    def test_passes_with_exit_zero(self, capsys):
        assert cli.main(["gradcheck", "--instances", "1"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

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
        "noise_sigma=-1"])
    def test_out_of_bounds_value_is_validation_error(self, tmp_path, capsys,
                                                     setting):
        """A batch size, probe cap or test split below 1, a tau_init
        outside [0.01, 1], a negative seed or noise sigma, or a noise
        fraction outside [0, 1] exits 2 with one stderr line naming the
        key."""
        assert cli.main(["make-teacher", "--out", str(tmp_path),
                         "--set", setting]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and setting.split("=")[0] in err

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
