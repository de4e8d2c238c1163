"""Tests for the command-line entry point and its exit codes."""

from __future__ import annotations

import hashlib
import io
import json
import os
import stat
import warnings
from pathlib import Path

import numpy as np
import pytest

from ppkmsent import artifacts, cli, pipeline, review
from ppkmsent.encoder import train as enc_train
from ppkmsent.encoder.checkpoint import load_checkpoint
from ppkmsent.fixtures import synthetic_tweets, write_jsonl


def with_vocab(payload: dict, **fields) -> dict:
    """A bag-of-words model payload with some vocabulary fields replaced."""
    return {**payload, "vocab": {**payload["vocab"], **fields}}


def frequencies(payload: dict) -> list:
    return payload["vocab"]["document_frequency"]


def tokens(payload: dict) -> list:
    return payload["vocab"]["tokens"]


def edit_second_corpus_text(out: Path) -> None:
    """Rewrite the text of the second row of ``corpus.jsonl``, keeping the
    row well formed."""
    path = out / pipeline.CORPUS_FILE
    lines = path.read_text(encoding="utf-8").splitlines()
    row = json.loads(lines[1])
    lines[1] = json.dumps({**row, "text": row["text"] + " ppkm"})
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_recorded(path: Path, data: bytes, manifest: str) -> None:
    """Write ``data`` to ``path`` and record its digest in ``manifest``
    beside it, as if the stage that owns the file had written it."""
    path.write_bytes(data)
    manifest_path = path.parent / manifest
    payload = json.loads(manifest_path.read_text(encoding="utf-8"))
    payload["outputs"][path.name] = hashlib.sha256(data).hexdigest()
    manifest_path.write_text(json.dumps(payload), encoding="utf-8")


def write_recorded_model(out: Path, filename: str, data: bytes) -> None:
    """Write ``data`` as a model file that train recorded, so that eval
    reads it instead of refusing it unrecorded."""
    (model,) = [
        name
        for name, spec in pipeline.MODELS.items()
        if filename in (spec.file, *spec.train_outputs)
    ]
    write_recorded(out / filename, data, f"train_{model}.manifest.json")


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
        write_recorded_model(tmp_path / "out", "mnb_model.json", b"{ not json")
        capsys.readouterr()
        assert cli.main(["eval", "-c", str(config_path)]) == cli.EXIT_RUNTIME
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda row: {k: v for k, v in row.items() if k != "tokens"},
            lambda row: [row],
            lambda row: {**row, "tokens": [1, 2]},
            lambda row: {k: v for k, v in row.items() if k != "label"},
        ],
        ids=[
            "missing-tokens",
            "not-an-object",
            "token-not-a-string",
            "missing-label",
        ],
    )
    def test_corrupt_labeled_row_exits_one(self, tmp_path, capsys, corrupt):
        # no stage parses labeled.jsonl: a row edited after label, well
        # formed or not, is refused because the file no longer matches the
        # label manifest
        config_path = write_setup(tmp_path)
        for stage in ("ingest", "label", "train"):
            assert cli.main([stage, "-c", str(config_path)]) == cli.EXIT_OK, stage
        labeled = tmp_path / "out" / pipeline.LABELED_FILE
        lines = labeled.read_text(encoding="utf-8").splitlines()
        lines[1] = json.dumps(corrupt(json.loads(lines[1])))
        labeled.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        for stage in ("train", "eval", "viz"):
            assert cli.main([stage, "-c", str(config_path)]) == cli.EXIT_VALIDATION
            err = capsys.readouterr().err
            assert err.startswith("error: "), stage
            assert f"{pipeline.LABELED_FILE} is not the file " in err, stage
            assert pipeline.LABEL_MANIFEST_FILE in err, stage

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda row: {k: v for k, v in row.items() if k != "text"}, "'text'"),
            (lambda row: [row], "not a JSON object"),
        ],
        ids=["missing-text", "not-an-object"],
    )
    def test_corrupt_corpus_row_exits_one(self, tmp_path, capsys, corrupt, message):
        config_path = write_setup(tmp_path)
        assert cli.main(["ingest", "-c", str(config_path)]) == cli.EXIT_OK
        corpus_path = tmp_path / "out" / pipeline.CORPUS_FILE
        lines = corpus_path.read_text(encoding="utf-8").splitlines()
        lines[1] = json.dumps(corrupt(json.loads(lines[1])))
        corpus_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert cli.main(["label", "-c", str(config_path)]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"{pipeline.CORPUS_FILE}:2: " in err
        assert message in err

    @pytest.mark.parametrize(
        "damage",
        [
            edit_second_corpus_text,
            lambda out: (out / pipeline.INGEST_MANIFEST_FILE).unlink(),
        ],
        ids=["corpus-row-edited", "ingest-manifest-deleted"],
    )
    def test_corpus_that_ingest_did_not_write_exits_one(self, tmp_path, capsys, damage):
        config_path = write_setup(tmp_path)
        assert cli.main(["ingest", "-c", str(config_path)]) == cli.EXIT_OK
        out = tmp_path / "out"
        damage(out)
        capsys.readouterr()
        assert cli.main(["label", "-c", str(config_path)]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert pipeline.CORPUS_FILE in err
        assert pipeline.INGEST_MANIFEST_FILE in err
        assert not (out / pipeline.LABELED_FILE).exists()

    @pytest.mark.parametrize(
        "filename, corrupt",
        [
            ("mnb_model.json", lambda p: {k: v for k, v in p.items() if k != "vocab"}),
            ("mnb_model.json", lambda p: {**p, "magic": "other"}),
            ("mnb_model.json", lambda p: [p]),
            ("mnb_model.json", lambda p: {**p, "version": 2}),
            (
                "lexicon_model.json",
                lambda p: {k: v for k, v in p.items() if k != "positive"},
            ),
            ("lexicon_model.json", lambda p: {**p, "magic": "other"}),
            ("lexicon_model.json", lambda p: [p]),
            ("lexicon_model.json", lambda p: {**p, "positive": [1, 2]}),
            ("lexicon_model.json", lambda p: {**p, "positive": "abc"}),
            ("lexicon_model.json", lambda p: {**p, "version": 2}),
        ],
        ids=[
            "mnb-without-vocab",
            "bow-wrong-magic",
            "bow-not-an-object",
            "bow-other-version",
            "lexicon-without-positive",
            "lexicon-wrong-magic",
            "lexicon-not-an-object",
            "lexicon-phrase-not-a-string",
            "lexicon-phrases-not-a-list",
            "lexicon-other-version",
        ],
    )
    def test_corrupt_model_file_exits_two(
        self, tmp_path, capsys, filename, corrupt
    ):
        config_path = write_setup(tmp_path)
        lexicon_config = tmp_path / "lexicon.cfg"
        lexicon_config.write_text(
            config_path.read_text().replace("model = mnb", "model = lexicon")
        )
        for stage in ("ingest", "label", "train"):
            assert cli.main([stage, "-c", str(config_path)]) == cli.EXIT_OK, stage
        assert cli.main(["train", "-c", str(lexicon_config)]) == cli.EXIT_OK
        payload = json.loads((tmp_path / "out" / filename).read_text(encoding="utf-8"))
        write_recorded_model(
            tmp_path / "out", filename, json.dumps(corrupt(payload)).encode("utf-8")
        )
        capsys.readouterr()
        assert cli.main(["eval", "-c", str(config_path)]) == cli.EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert filename in err

    def test_eval_on_another_split_seed_exits_one(self, tmp_path, capsys):
        # a model trained at seed 0 must not be scored on the seed-7 test
        # split, most of whose documents it was trained on
        config_path = write_setup(tmp_path)
        for stage in ("ingest", "label", "train"):
            assert cli.main([stage, "-c", str(config_path)]) == cli.EXIT_OK, stage
        seed_7 = tmp_path / "seed7.cfg"
        seed_7.write_text(config_path.read_text() + "seed = 7\n")
        capsys.readouterr()
        assert cli.main(["eval", "-c", str(seed_7)]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: mnb ")
        assert "seed was 0, now 7" in err
        assert not (tmp_path / "out" / "metrics_mnb.json").exists()
        assert cli.main(["eval", "-c", str(config_path)]) == cli.EXIT_OK

    def test_model_file_that_train_did_not_write_exits_one(self, tmp_path, capsys):
        # a well-formed model whose class rows were swapped would score
        # silently; its digest differs from what the train manifest records
        config_path = write_setup(tmp_path)
        for stage in ("ingest", "label", "train"):
            assert cli.main([stage, "-c", str(config_path)]) == cli.EXIT_OK, stage
        model_path = tmp_path / "out" / "mnb_model.json"
        payload = json.loads(model_path.read_text(encoding="utf-8"))
        rows = payload["token_log_likelihood"]
        rows[0], rows[1] = rows[1], rows[0]
        model_path.write_text(json.dumps(payload), encoding="utf-8")
        capsys.readouterr()
        assert cli.main(["eval", "-c", str(config_path)]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert "mnb_model.json is not the file" in err
        assert "train_mnb.manifest.json" in err
        assert not (tmp_path / "out" / "metrics_mnb.json").exists()

    @pytest.mark.parametrize(
        "expected, other", [("mnb", "svm"), ("svm", "mnb")], ids=["svm-as-mnb", "mnb-as-svm"]
    )
    def test_model_of_another_kind_exits_two(self, tmp_path, capsys, expected, other):
        config_path = write_setup(tmp_path)
        # both models are trained, so each has the train manifest eval checks
        # before it reads a model file
        svm_config = tmp_path / "svm.cfg"
        svm_config.write_text(
            config_path.read_text().replace("model = mnb", "model = svm")
        )
        for stage in ("ingest", "label", "train"):
            assert cli.main([stage, "-c", str(config_path)]) == cli.EXIT_OK, stage
        assert cli.main(["train", "-c", str(svm_config)]) == cli.EXIT_OK
        out = tmp_path / "out"
        filename = f"{expected}_model.json"
        write_recorded_model(out, filename, (out / f"{other}_model.json").read_bytes())
        capsys.readouterr()
        assert cli.main(["eval", "-c", str(config_path)]) == cli.EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert filename in err
        assert f"expected '{expected}'" in err

    @pytest.mark.parametrize(
        "filename, corrupt, message",
        [
            (
                "svm_model.json",
                lambda p: {**p, "weights": [row[:-1] for row in p["weights"]]},
                "weights has shape",
            ),
            (
                "mnb_model.json",
                lambda p: {
                    **p,
                    "token_log_likelihood": [row[:-1] for row in p["token_log_likelihood"]],
                },
                "token_log_likelihood has shape",
            ),
            ("svm_model.json", lambda p: {**p, "biases": p["biases"][:2]}, "biases has shape"),
            (
                "svm_model.json",
                lambda p: {
                    **p,
                    "vocab": {
                        **p["vocab"],
                        "document_frequency": p["vocab"]["document_frequency"][:-1],
                    },
                },
                "document frequencies",
            ),
        ],
        ids=[
            "svm-weights-too-narrow",
            "mnb-likelihood-too-narrow",
            "svm-bias-length-two",
            "svm-document-frequency-too-short",
        ],
    )
    def test_model_array_of_wrong_shape_exits_two(
        self, tmp_path, capsys, filename, corrupt, message
    ):
        self.eval_with_corrupt_model(tmp_path, capsys, filename, corrupt, message)

    @staticmethod
    def eval_with_corrupt_model(tmp_path, capsys, filename, corrupt, message):
        """Train mnb and svm, rewrite one model file, and expect ``eval`` to
        exit 2 with an error naming the file and ``message``, no traceback."""
        config_path = write_setup(tmp_path)
        svm_config = tmp_path / "svm.cfg"
        svm_config.write_text(config_path.read_text().replace("model = mnb", "model = svm"))
        for stage in ("ingest", "label", "train"):
            assert cli.main([stage, "-c", str(config_path)]) == cli.EXIT_OK, stage
        assert cli.main(["train", "-c", str(svm_config)]) == cli.EXIT_OK
        payload = json.loads((tmp_path / "out" / filename).read_text(encoding="utf-8"))
        write_recorded_model(
            tmp_path / "out", filename, json.dumps(corrupt(payload)).encode("utf-8")
        )
        capsys.readouterr()
        assert cli.main(["eval", "-c", str(config_path)]) == cli.EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert filename in err
        assert message in err

    @pytest.mark.parametrize(
        "filename, corrupt, message",
        [
            (
                "svm_model.json",
                lambda p: with_vocab(p, document_frequency=[-1, *frequencies(p)[1:]]),
                "vocab.document_frequency",
            ),
            (
                "mnb_model.json",
                lambda p: with_vocab(p, document_frequency=[0.5, *frequencies(p)[1:]]),
                "vocab.document_frequency",
            ),
            (
                "svm_model.json",
                lambda p: with_vocab(
                    p,
                    document_frequency=[
                        p["vocab"]["num_documents"] + 1,
                        *frequencies(p)[1:],
                    ],
                ),
                "vocab.document_frequency",
            ),
            ("svm_model.json", lambda p: with_vocab(p, num_documents=0), "vocab.num_documents"),
            ("mnb_model.json", lambda p: with_vocab(p, num_documents="9"), "vocab.num_documents"),
            (
                "svm_model.json",
                lambda p: {
                    **p,
                    "weights": [[float("nan"), *p["weights"][0][1:]], *p["weights"][1:]],
                },
                "weights holds a non-finite value",
            ),
            (
                "svm_model.json",
                lambda p: {**p, "biases": [float("inf"), *p["biases"][1:]]},
                "biases holds a non-finite value",
            ),
            (
                "mnb_model.json",
                lambda p: {
                    **p,
                    "class_log_prior": [float("-inf"), *p["class_log_prior"][1:]],
                },
                "class_log_prior holds a non-finite value",
            ),
            (
                "mnb_model.json",
                lambda p: with_vocab(p, tokens=[7, *tokens(p)[1:]]),
                "vocab 'tokens' is missing or not a list of str",
            ),
            (
                "svm_model.json",
                lambda p: with_vocab(p, tokens=[tokens(p)[1], *tokens(p)[1:]]),
                "vocab.tokens repeats a token",
            ),
        ],
        ids=[
            "svm-negative-document-frequency",
            "mnb-fractional-document-frequency",
            "svm-document-frequency-above-document-count",
            "svm-no-documents",
            "mnb-document-count-not-an-integer",
            "svm-nan-weight",
            "svm-infinite-bias",
            "mnb-infinite-prior",
            "mnb-token-not-a-string",
            "svm-repeated-token",
        ],
    )
    def test_model_value_out_of_range_exits_two(
        self, tmp_path, capsys, filename, corrupt, message
    ):
        self.eval_with_corrupt_model(tmp_path, capsys, filename, corrupt, message)

    def test_missing_stage_raises_system_exit(self):
        with pytest.raises(SystemExit):
            cli.main([])

    def test_unknown_stage_raises_system_exit(self, tmp_path):
        config_path = write_setup(tmp_path)
        # there is no compare stage: eval writes the comparison
        for stage in ("deploy", "compare"):
            with pytest.raises(SystemExit) as excinfo:
                cli.main([stage, "-c", str(config_path)])
            assert excinfo.value.code == 2, stage

    def test_config_flag_is_required(self):
        with pytest.raises(SystemExit):
            cli.main(["ingest"])


def flip_last_byte(path: Path) -> None:
    data = bytearray(path.read_bytes())
    data[-1] ^= 1
    path.write_bytes(bytes(data))


def truncate_half(path: Path) -> None:
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def edit_a_token(path: Path) -> None:
    path.write_text(path.read_text(encoding="utf-8").replace('"ppkm"', '"ppkn"', 1))


def recoded(out: Path, change) -> bytes:
    """The id file's bytes after ``change`` edits its decoded arrays."""
    path = out / pipeline.LABELED_IDS_FILE
    labeled = artifacts.decode_labeled_ids(path.read_bytes(), path)
    change(labeled)
    return artifacts.encode_labeled_ids(labeled)


def set_first(array: np.ndarray, value: int) -> None:
    array[0] = value


class TestLabeledIdsContract:
    """train, eval and viz read the labeled documents from the id file that
    label writes, after checking it and labeled.jsonl against the label
    manifest; a missing, stale or malformed file exits 1 or 2 naming it."""

    STAGES = ("train", "eval", "viz")

    def labeled_run(self, tmp_path: Path) -> Path:
        config_path = write_setup(tmp_path)
        for stage in ("ingest", "label", "train", "eval"):
            assert cli.main([stage, "-c", str(config_path)]) == cli.EXIT_OK, stage
        return config_path

    def assert_refused(self, config_path, capsys, code, *names) -> None:
        capsys.readouterr()
        for stage in self.STAGES:
            assert cli.main([stage, "-c", str(config_path)]) == code, stage
            err = capsys.readouterr().err
            assert err.startswith("error: "), stage
            assert "Traceback" not in err, stage
            for name in names:
                assert name in err, (stage, name)

    @pytest.mark.parametrize(
        "filename, damage, named",
        [
            (pipeline.LABELED_IDS_FILE, Path.unlink, pipeline.LABEL_MANIFEST_FILE),
            (pipeline.LABELED_IDS_FILE, truncate_half, pipeline.LABEL_MANIFEST_FILE),
            (pipeline.LABELED_IDS_FILE, flip_last_byte, pipeline.LABEL_MANIFEST_FILE),
            (pipeline.LABELED_FILE, edit_a_token, pipeline.LABEL_MANIFEST_FILE),
            (pipeline.LABEL_MANIFEST_FILE, Path.unlink, pipeline.LABELED_FILE),
        ],
        ids=[
            "ids-deleted",
            "ids-truncated",
            "ids-byte-flipped",
            "labeled-edited",
            "manifest-deleted",
        ],
    )
    def test_a_file_that_label_did_not_write_exits_one(
        self, tmp_path, capsys, filename, damage, named
    ):
        config_path = self.labeled_run(tmp_path)
        damage(tmp_path / "out" / filename)
        self.assert_refused(config_path, capsys, cli.EXIT_VALIDATION, filename, named)

    @pytest.mark.parametrize(
        "make_bytes",
        [
            lambda out: b"{}\n",
            lambda out: b"no header line",
            lambda out: (out / pipeline.LABELED_IDS_FILE).read_bytes()[:-1],
            lambda out: recoded(out, lambda l: set_first(l.documents.lengths, 0)),
            lambda out: recoded(out, lambda l: set_first(l.documents.ids, 10**6)),
            lambda out: recoded(out, lambda l: set_first(l.labels, 3)),
        ],
        ids=[
            "not-a-header",
            "no-header-line",
            "short-body",
            "lengths-do-not-sum",
            "id-outside-the-table",
            "label-out-of-range",
        ],
    )
    def test_a_malformed_recorded_file_exits_two(self, tmp_path, capsys, make_bytes):
        config_path = self.labeled_run(tmp_path)
        out = tmp_path / "out"
        write_recorded(
            out / pipeline.LABELED_IDS_FILE, make_bytes(out), pipeline.LABEL_MANIFEST_FILE
        )
        self.assert_refused(
            config_path, capsys, cli.EXIT_RUNTIME, pipeline.LABELED_IDS_FILE
        )


class TestFullRun:
    def test_every_stage_through_the_cli(self, tmp_path, capsys, monkeypatch):
        config_path = write_setup(tmp_path)
        for stage in ("ingest", "label", "train", "eval", "viz"):
            assert cli.main([stage, "-c", str(config_path)]) == cli.EXIT_OK, stage
        out_dir = tmp_path / "out"
        summary = (out_dir / pipeline.METRICS_SUMMARY_FILE).read_text()
        assert summary.startswith("model,")
        assert (out_dir / "unigrams.svg").is_file()

    @pytest.mark.parametrize(
        "tail, clean",
        [("-" * 20_000, "ppkm"), ("x" * 20_000 + " http://a.b", "ppkm " + "x" * 20_000)],
        ids=["hyphens", "chunk-then-url"],
    )
    def test_label_takes_a_long_row(self, tmp_path, tail, clean):
        config_path = write_setup(tmp_path)
        rows = synthetic_tweets(40, seed=1)
        rows[0]["text"] = "PPKM " + tail
        write_jsonl(rows, tmp_path / "raw.jsonl")
        for stage in ("ingest", "label"):
            assert cli.main([stage, "-c", str(config_path)]) == cli.EXIT_OK, stage
        labeled = (tmp_path / "out" / pipeline.LABELED_FILE).read_text(encoding="utf-8")
        long_row = json.loads(labeled.splitlines()[0])
        assert long_row["id"] == rows[0]["id"]
        assert long_row["clean_text"] == clean

    def test_verbose_flag_logs_stage_progress(self, tmp_path, capsys):
        config_path = write_setup(tmp_path)
        assert cli.main(["-v", "ingest", "-c", str(config_path)]) == cli.EXIT_OK


class TestAtomicWrites:
    def test_interrupted_write_keeps_the_previous_file(
        self, tmp_path, capsys, monkeypatch
    ):
        config_path = write_setup(tmp_path)
        for stage in ("ingest", "label", "train"):
            assert cli.main([stage, "-c", str(config_path)]) == cli.EXIT_OK, stage
        out_dir = tmp_path / "out"
        before = (out_dir / "mnb_model.json").read_bytes()
        with open(config_path, "a", encoding="utf-8") as handle:
            handle.write("mnb_alpha = 0.5\n")

        def crash(src, dst):
            raise OSError("simulated crash before the rename")

        monkeypatch.setattr(os, "replace", crash)
        capsys.readouterr()
        assert cli.main(["train", "-c", str(config_path)]) == cli.EXIT_RUNTIME
        assert "simulated crash" in capsys.readouterr().err
        assert (out_dir / "mnb_model.json").read_bytes() == before
        assert [p.name for p in out_dir.iterdir() if p.name.endswith(".tmp")] == []

    def test_artifacts_take_the_mode_the_umask_gives(self, tmp_path):
        config_path = write_setup(tmp_path)
        previous = os.umask(0o022)
        try:
            for stage in ("ingest", "label", "train", "eval", "viz"):
                assert cli.main([stage, "-c", str(config_path)]) == cli.EXIT_OK, stage
        finally:
            os.umask(previous)
        modes = {
            path.name: stat.S_IMODE(path.stat().st_mode)
            for path in (tmp_path / "out").iterdir()
        }
        assert len(modes) > 10
        assert {name: mode for name, mode in modes.items() if mode != 0o644} == {}


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

    @pytest.mark.parametrize(
        "stages, filename, manifest",
        [
            (("ingest",), pipeline.CORPUS_FILE, pipeline.INGEST_MANIFEST_FILE),
            (("ingest", "label"), pipeline.WORKSHEET_FILE, pipeline.LABEL_MANIFEST_FILE),
        ],
        ids=["corpus", "worksheet"],
    )
    def test_a_source_its_stage_did_not_write_exits_one(
        self, tmp_path, capsys, monkeypatch, stages, filename, manifest
    ):
        config_path = write_setup(tmp_path)
        for stage in stages:
            assert cli.main([stage, "-c", str(config_path)]) == cli.EXIT_OK, stage
        # keep the first rows, whole, as an interrupted copy would
        path = tmp_path / "out" / filename
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines[:3]), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", io.StringIO("k\nq\n"))
        capsys.readouterr()
        assert cli.main(["review", "-c", str(config_path)]) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert f"{filename} is not the file " in captured.err
        assert manifest in captured.err
        assert "reviewing" not in captured.out
        assert not (tmp_path / "out" / review.PROGRESS_FILE).exists()

    @pytest.mark.parametrize(
        "filename, damage, stage, code",
        [
            (
                pipeline.VERDICTS_FILE,
                lambda data: data[:-3],
                "ingest",
                cli.EXIT_VALIDATION,
            ),
            (
                pipeline.VERDICTS_FILE,
                lambda data: b"\xff\xfe" + data,
                "ingest",
                cli.EXIT_VALIDATION,
            ),
            (
                pipeline.OVERRIDES_FILE,
                lambda data: b"\xff\xfe" + data,
                "label",
                cli.EXIT_VALIDATION,
            ),
            (review.PROGRESS_FILE, lambda data: data[:-3], "review", cli.EXIT_RUNTIME),
        ],
        ids=[
            "verdicts-truncated-row",
            "verdicts-not-utf-8",
            "overrides-not-utf-8",
            "progress-truncated",
        ],
    )
    def test_a_corrupt_review_file_exits_naming_it(
        self, tmp_path, capsys, monkeypatch, filename, damage, stage, code
    ):
        config_path = write_setup(tmp_path)
        assert cli.main(["ingest", "-c", str(config_path)]) == cli.EXIT_OK
        monkeypatch.setattr("sys.stdin", io.StringIO("k\nd\n2\nq\n"))
        assert cli.main(["review", "-c", str(config_path)]) == cli.EXIT_OK
        path = tmp_path / "out" / filename
        path.write_bytes(damage(path.read_bytes()))
        monkeypatch.setattr("sys.stdin", io.StringIO("q\n"))
        capsys.readouterr()
        assert cli.main([stage, "-c", str(config_path)]) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert filename in err


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


class TestBertTraining:
    def write_bert_setup(self, tmp_path: Path, settings: str) -> Path:
        config_path = write_setup(tmp_path)
        text = config_path.read_text(encoding="utf-8")
        config_path.write_text(
            text.split("model = mnb\n")[0] + "model = bert\n" + settings,
            encoding="utf-8",
        )
        return config_path

    def test_checkpoint_holds_the_trained_weights(self, tmp_path, monkeypatch):
        config_path = self.write_bert_setup(
            tmp_path,
            "train_fraction = 6/10\n"
            "validation_fraction = 2/10\n"
            "test_fraction = 2/10\n"
            "num_layers = 1\n"
            "num_heads = 2\n"
            "hidden_size = 8\n"
            "feedforward_size = 16\n"
            "max_sequence_length = 12\n"
            "batch_size = 8\n"
            "epochs = 2\n"
            "learning_rate = 1e-3\n",
        )
        trained: dict[str, np.ndarray] = {}
        real_fine_tune = enc_train.fine_tune

        def recording_fine_tune(*args, **kwargs):
            params, history = real_fine_tune(*args, **kwargs)
            trained.update((n, t.copy()) for n, t in params.items())
            return params, history

        monkeypatch.setattr(enc_train, "fine_tune", recording_fine_tune)
        for stage in ("ingest", "label", "train"):
            assert cli.main([stage, "-c", str(config_path)]) == cli.EXIT_OK, stage
        loaded, _ = load_checkpoint(tmp_path / "out" / "bert.ckpt")
        assert [name for name, _ in loaded.items()] == list(trained)
        for name, tensor in loaded.items():
            assert tensor.dtype == trained[name].dtype == np.float32, name
            assert np.array_equal(tensor, trained[name]), name

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda p: {"tokens": p["tokens"][:10]}, "holds 10 tokens, but "),
            (lambda p: {"tokens": p["tokens"] + ["zzz1", "zzz2"]}, "tokens, but "),
            (lambda p: {"tokens": 5}, "must hold a token list"),
            (lambda p: {"tokens": [*p["tokens"], ["x"]]}, "must hold a token list"),
            (lambda p: [p], "must hold a token list"),
            (lambda p: {"tokens": ["a", "b"]}, "must map '[PAD]' to id 0"),
        ],
        ids=[
            "shorter",
            "longer",
            "tokens-not-a-list",
            "token-not-a-string",
            "not-an-object",
            "no-reserved-tokens",
        ],
    )
    def test_vocabulary_that_does_not_fit_the_checkpoint_exits_two(
        self, tmp_path, capsys, corrupt, message
    ):
        config_path = self.write_bert_setup(
            tmp_path,
            "train_fraction = 6/10\n"
            "validation_fraction = 2/10\n"
            "test_fraction = 2/10\n"
            "num_layers = 1\n"
            "num_heads = 1\n"
            "hidden_size = 4\n"
            "feedforward_size = 8\n"
            "max_sequence_length = 12\n"
            "epochs = 1\n",
        )
        for stage in ("ingest", "label", "train"):
            assert cli.main([stage, "-c", str(config_path)]) == cli.EXIT_OK, stage
        vocab_path = tmp_path / "out" / pipeline.BERT_VOCAB_FILE
        payload = json.loads(vocab_path.read_text(encoding="utf-8"))
        write_recorded_model(
            tmp_path / "out", vocab_path.name, json.dumps(corrupt(payload)).encode("utf-8")
        )
        capsys.readouterr()
        assert cli.main(["eval", "-c", str(config_path)]) == cli.EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith(f"error: {vocab_path}")
        assert message in err
        if "tokens, but" in message:
            assert "bert.ckpt" in err
        assert not (tmp_path / "out" / "metrics_bert.json").exists()

    def test_vocabulary_that_train_did_not_write_exits_one(self, tmp_path, capsys):
        config_path = self.write_bert_setup(
            tmp_path,
            "train_fraction = 6/10\n"
            "validation_fraction = 2/10\n"
            "test_fraction = 2/10\n"
            "num_layers = 1\n"
            "num_heads = 1\n"
            "hidden_size = 4\n"
            "feedforward_size = 8\n"
            "max_sequence_length = 12\n"
            "epochs = 1\n",
        )
        for stage in ("ingest", "label", "train"):
            assert cli.main([stage, "-c", str(config_path)]) == cli.EXIT_OK, stage
        # the same tokens under other ids: a vocabulary that fits the
        # checkpoint, so only the manifest tells it apart
        vocab_path = tmp_path / "out" / pipeline.BERT_VOCAB_FILE
        payload = json.loads(vocab_path.read_text(encoding="utf-8"))
        payload["tokens"][-2:] = reversed(payload["tokens"][-2:])
        vocab_path.write_text(json.dumps(payload), encoding="utf-8")
        capsys.readouterr()
        assert cli.main(["eval", "-c", str(config_path)]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"error: {vocab_path} is not the file ")
        assert "Traceback" not in err
        assert "train_bert.manifest.json" in err
        assert not (tmp_path / "out" / "metrics_bert.json").exists()

    def test_diverging_last_update_exits_two_without_a_checkpoint(
        self, tmp_path, capsys
    ):
        # one batch, one epoch and no validation pass: only the end-of-epoch
        # weight check sees the update that overflowed float32
        config_path = self.write_bert_setup(
            tmp_path,
            "profile = desk\n"
            "train_fraction = 8/10\n"
            "validation_fraction = 0\n"
            "test_fraction = 2/10\n"
            "learning_rate = 1e300\n"
            "epochs = 1\n"
            "batch_size = 64\n",
        )
        for stage in ("ingest", "label"):
            assert cli.main([stage, "-c", str(config_path)]) == cli.EXIT_OK, stage
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["train", "-c", str(config_path)])
        assert code == cli.EXIT_RUNTIME
        assert not (tmp_path / "out" / "bert.ckpt").exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: non-finite loss at epoch 1, step 0: ")
        assert "after the update" in err
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
