"""Tests for the command-line entry point and its exit codes."""

from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

from ppkmsent import cli, pipeline
from ppkmsent.fixtures import synthetic_tweets, write_jsonl


def write_setup(tmp_path: Path, extra: str = "") -> Path:
    """Raw corpus plus a config file pointing at it; returns the config path."""
    write_jsonl(synthetic_tweets(40, seed=1), tmp_path / "raw.jsonl")
    config_path = tmp_path / "pipeline.cfg"
    config_path.write_text(
        "output_dir = out\n"
        "corpus_path = raw.jsonl\n"
        "model = mnb\n"
        "train_fraction = 6/10\n"
        "validation_fraction = 2/10\n"
        "test_fraction = 2/10\n" + extra,
        encoding="utf-8",
    )
    return config_path


class TestExitCodes:
    def test_successful_stage_exits_zero_and_prints_artifacts(
        self, tmp_path, capsys
    ):
        config_path = write_setup(tmp_path)
        assert cli.main(["ingest", "-c", str(config_path)]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert str(tmp_path / "out" / pipeline.CORPUS_FILE) in out
        assert str(tmp_path / "out" / "ingest.manifest.json") in out

    def test_missing_config_file_exits_one(self, tmp_path, capsys):
        code = cli.main(["ingest", "-c", str(tmp_path / "absent.cfg")])
        assert code == cli.EXIT_VALIDATION
        assert "error:" in capsys.readouterr().err

    def test_invalid_config_value_exits_one(self, tmp_path, capsys):
        config_path = write_setup(tmp_path, extra="model = forest\n")
        # duplicate key comes first; write a clean file instead
        config_path.write_text(
            "output_dir = out\nmodel = forest\n", encoding="utf-8"
        )
        assert cli.main(["ingest", "-c", str(config_path)]) == cli.EXIT_VALIDATION
        assert "model must be one of" in capsys.readouterr().err

    def test_stage_out_of_order_exits_one(self, tmp_path, capsys):
        config_path = write_setup(tmp_path)
        assert cli.main(["label", "-c", str(config_path)]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "missing artifact" in err
        assert "ingest" in err

    def test_runtime_failure_exits_two(self, tmp_path, capsys):
        config_path = write_setup(tmp_path)
        assert cli.main(["ingest", "-c", str(config_path)]) == cli.EXIT_OK
        assert cli.main(["label", "-c", str(config_path)]) == cli.EXIT_OK
        assert cli.main(["train", "-c", str(config_path)]) == cli.EXIT_OK
        model_path = tmp_path / "out" / "mnb_model.json"
        model_path.write_text("{ not json", encoding="utf-8")
        capsys.readouterr()
        assert cli.main(["eval", "-c", str(config_path)]) == cli.EXIT_RUNTIME
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (
                lambda row: {k: v for k, v in row.items() if k != "tokens"},
                "'tokens'",
            ),
            (lambda row: [row], "not a JSON object"),
        ],
        ids=["missing-tokens", "not-an-object"],
    )
    def test_corrupt_labeled_row_exits_one(
        self, tmp_path, capsys, corrupt, message
    ):
        config_path = write_setup(tmp_path)
        for stage in ("ingest", "label", "train"):
            assert cli.main([stage, "-c", str(config_path)]) == cli.EXIT_OK, stage
        labeled = tmp_path / "out" / pipeline.LABELED_FILE
        lines = labeled.read_text(encoding="utf-8").splitlines()
        lines[1] = json.dumps(corrupt(json.loads(lines[1])))
        labeled.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        for stage in ("train", "eval"):
            assert cli.main([stage, "-c", str(config_path)]) == cli.EXIT_VALIDATION
            err = capsys.readouterr().err
            assert err.startswith("error: "), stage
            assert f"{pipeline.LABELED_FILE}:2: " in err, stage
            assert message in err, stage

    def test_missing_stage_raises_system_exit(self):
        with pytest.raises(SystemExit):
            cli.main([])

    def test_unknown_stage_raises_system_exit(self, tmp_path):
        config_path = write_setup(tmp_path)
        with pytest.raises(SystemExit):
            cli.main(["deploy", "-c", str(config_path)])

    def test_config_flag_is_required(self):
        with pytest.raises(SystemExit):
            cli.main(["ingest"])


class TestFullRun:
    def test_every_stage_through_the_cli(self, tmp_path, capsys, monkeypatch):
        config_path = write_setup(tmp_path)
        for stage in ("ingest", "label", "train", "eval", "viz"):
            assert cli.main([stage, "-c", str(config_path)]) == cli.EXIT_OK, stage
        out_dir = tmp_path / "out"
        summary = (out_dir / pipeline.METRICS_SUMMARY_FILE).read_text()
        assert summary.startswith("model,")
        assert (out_dir / "unigrams.svg").is_file()

    def test_verbose_flag_logs_stage_progress(self, tmp_path, capsys):
        config_path = write_setup(tmp_path)
        assert cli.main(["-v", "ingest", "-c", str(config_path)]) == cli.EXIT_OK


class TestReviewStage:
    def test_review_reads_stdin_and_persists_decisions(
        self, tmp_path, capsys, monkeypatch
    ):
        config_path = write_setup(tmp_path)
        assert cli.main(["ingest", "-c", str(config_path)]) == cli.EXIT_OK
        monkeypatch.setattr("sys.stdin", io.StringIO("k\nd\nq\n"))
        assert cli.main(["review", "-c", str(config_path)]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "saved 2 verdicts" in out
        verdicts = pipeline.read_verdicts(
            tmp_path / "out" / pipeline.VERDICTS_FILE
        )
        assert sorted(verdicts.values()) == ["drop", "keep"]

    def test_review_import_flag(self, tmp_path, capsys):
        config_path = write_setup(tmp_path)
        assert cli.main(["ingest", "-c", str(config_path)]) == cli.EXIT_OK
        first_id = json.loads(
            (tmp_path / "out" / pipeline.CORPUS_FILE)
            .read_text()
            .split("\n", 1)[0]
        )["id"]
        decisions = tmp_path / "decisions.csv"
        decisions.write_text(f"id,verdict\n{first_id},drop\n", encoding="utf-8")
        code = cli.main(
            ["review", "-c", str(config_path), "--import", str(decisions)]
        )
        assert code == cli.EXIT_OK
        assert "imported decisions: 1 verdicts" in capsys.readouterr().out
        assert pipeline.read_verdicts(
            tmp_path / "out" / pipeline.VERDICTS_FILE
        ) == {first_id: "drop"}

    def test_review_before_ingest_exits_one(self, tmp_path, capsys, monkeypatch):
        config_path = write_setup(tmp_path)
        monkeypatch.setattr("sys.stdin", io.StringIO("q\n"))
        assert cli.main(["review", "-c", str(config_path)]) == cli.EXIT_VALIDATION
        assert "missing artifact" in capsys.readouterr().err


class TestOutputDirEnvironment:
    def test_environment_variable_redirects_artifacts(
        self, tmp_path, monkeypatch, capsys
    ):
        config_path = write_setup(tmp_path)
        redirected = tmp_path / "redirected"
        monkeypatch.setenv(pipeline.OUTPUT_DIR_ENV, str(redirected))
        assert cli.main(["ingest", "-c", str(config_path)]) == cli.EXIT_OK
        assert (redirected / pipeline.CORPUS_FILE).is_file()
        assert not (tmp_path / "out").exists()
