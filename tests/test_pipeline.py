"""Tests for pipeline configuration, stage runners, and artifact manifests."""

from __future__ import annotations

import builtins
import csv
import hashlib
import io
import json
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import labeled_documents, split_documents, worksheet_keeping_labels
from ppkmsent import bow, evaluation, lexicon, pipeline
from ppkmsent.errors import ConfigError, StageOrderError
from ppkmsent.fixtures import synthetic_documents, synthetic_tweets, write_jsonl
from ppkmsent.preprocess import (
    SentimentLabel,
    label_name,
    labeled_ids,
    parse_label,
    token_ids,
)

NEG, NEU, POS = (
    SentimentLabel.NEGATIVE,
    SentimentLabel.NEUTRAL,
    SentimentLabel.POSITIVE,
)

EVEN_SPLIT = dict(
    train_fraction=Fraction(6, 10),
    validation_fraction=Fraction(2, 10),
    test_fraction=Fraction(2, 10),
)

TINY_BERT = dict(
    model="bert",
    num_layers=1,
    num_heads=2,
    hidden_size=8,
    feedforward_size=16,
    max_sequence_length=12,
    batch_size=16,
    epochs=2,
    learning_rate=1e-3,
)


def make_config(tmp_path: Path, **overrides) -> pipeline.PipelineConfig:
    settings: dict = {"output_dir": tmp_path / "out"}
    settings.update(overrides)
    return pipeline.PipelineConfig(**settings)


def write_raw_corpus(tmp_path: Path, n: int = 80, seed: int = 1) -> Path:
    path = tmp_path / "raw.jsonl"
    write_jsonl(synthetic_tweets(n, seed=seed), path)
    return path


def write_labeled_corpus(output_dir: Path, n: int = 60, seed: int = 0) -> None:
    """Write what the label stage writes for ``synthetic_documents(n,
    seed)``, through its writer, without running ingest or label."""
    output_dir.mkdir(parents=True, exist_ok=True)
    config = pipeline.PipelineConfig(output_dir=output_dir)
    documents = synthetic_documents(n, seed=seed)
    pipeline.write_label_artifacts(
        config, documents, worksheet_keeping_labels(documents), {}
    )


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestParseConfigText:
    def test_types_and_aliases(self, tmp_path):
        text = """
        # comment line

        output_dir = out
        corpus_path = raw.jsonl
        keywords = PPKM , Jakarta
        keyword_mode = all
        train_fraction = 7/10
        validation_fraction = 2/10
        test_fraction = 1/10
        stratified = false
        model = mnb
        profile = paper
        epochs = 4
        learning_rate = 0.001
        seed = 9
        """
        settings = pipeline.parse_config_text(text, tmp_path)
        assert settings["output_dir"] == (tmp_path / "out").resolve()
        assert settings["corpus_path"] == (tmp_path / "raw.jsonl").resolve()
        assert settings["keywords"] == ("ppkm", "jakarta")
        assert settings["keyword_mode"] == "all"
        assert settings["train_fraction"] == Fraction(7, 10)
        assert settings["stratified"] is False
        assert settings["profile_name"] == "paper"
        assert settings["epochs"] == 4
        assert settings["learning_rate"] == 0.001
        assert settings["seed"] == 9

    def test_unknown_key_reports_line_number(self, tmp_path):
        with pytest.raises(ConfigError, match="line 2: unknown config key"):
            pipeline.parse_config_text("seed = 1\nwindow = 9\n", tmp_path)
        # the field behind the "profile" key is not a key itself
        with pytest.raises(ConfigError, match="unknown config key 'profile_name'"):
            pipeline.parse_config_text("profile_name = paper\n", tmp_path)

    def test_duplicate_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate config key"):
            pipeline.parse_config_text("seed = 1\nseed = 2\n", tmp_path)

    def test_missing_equals_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="expected key = value"):
            pipeline.parse_config_text("just words\n", tmp_path)

    def test_bad_int_value_reports_line(self, tmp_path):
        with pytest.raises(ConfigError, match="line 1: bad value for 'epochs'"):
            pipeline.parse_config_text("epochs = many\n", tmp_path)

    def test_bad_bool_value(self, tmp_path):
        with pytest.raises(ConfigError, match="bad value for 'stratified'"):
            pipeline.parse_config_text("stratified = yes\n", tmp_path)

    def test_bad_fraction_value(self, tmp_path):
        with pytest.raises(ConfigError, match="bad value for 'train_fraction'"):
            pipeline.parse_config_text("train_fraction = 1/0\n", tmp_path)


class TestLoadConfig:
    def write(self, tmp_path, text) -> Path:
        path = tmp_path / "pipeline.cfg"
        path.write_text(text, encoding="utf-8")
        return path

    def test_minimal_config(self, tmp_path):
        path = self.write(tmp_path, "output_dir = out\n")
        config = pipeline.load_config(path, env={})
        assert config.output_dir == (tmp_path / "out").resolve()
        assert config.model == "bert"
        assert config.profile_name == "desk"
        assert config.keywords == ("ppkm", "jakarta")
        assert config.train_fraction == Fraction(4877, 5315)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            pipeline.load_config(tmp_path / "absent.cfg", env={})

    def test_output_dir_required(self, tmp_path):
        path = self.write(tmp_path, "seed = 1\n")
        with pytest.raises(ConfigError, match="output_dir"):
            pipeline.load_config(path, env={})

    def test_environment_override_wins(self, tmp_path):
        path = self.write(tmp_path, "output_dir = configured\n")
        override = tmp_path / "from-env"
        config = pipeline.load_config(
            path, env={pipeline.OUTPUT_DIR_ENV: str(override)}
        )
        assert config.output_dir == override.resolve()

    def test_environment_can_supply_missing_output_dir(self, tmp_path):
        path = self.write(tmp_path, "seed = 1\n")
        config = pipeline.load_config(
            path, env={pipeline.OUTPUT_DIR_ENV: str(tmp_path / "env-out")}
        )
        assert config.output_dir == (tmp_path / "env-out").resolve()

    def test_invalid_setting_surfaces_as_config_error(self, tmp_path):
        path = self.write(tmp_path, "output_dir = out\nmodel = forest\n")
        with pytest.raises(ConfigError, match="model must be one of"):
            pipeline.load_config(path, env={})

    def test_missing_stopwords_path_rejected(self, tmp_path):
        path = self.write(
            tmp_path, "output_dir = out\nstopwords_path = nowhere.txt\n"
        )
        with pytest.raises(ConfigError, match="stopwords_path does not exist"):
            pipeline.load_config(path, env={})


class TestPipelineConfigValidation:
    def test_rejects_bad_enumerations(self, tmp_path):
        cases = {
            "corpus_format": "xml",
            "keyword_mode": "some",
            "dedupe_key": "raw",
            "model": "forest",
            "profile_name": "huge",
            "svm_feature_mode": "hashing",
        }
        for key, bad in cases.items():
            with pytest.raises(ConfigError):
                make_config(tmp_path, **{key: bad})

    def test_rejects_bad_numbers(self, tmp_path):
        for key, bad in (
            ("min_count", 0),
            ("svm_epochs", 0),
            ("top_k", 0),
            ("ngram_n", 0),
            ("seed", -1),
            ("mnb_alpha", 0.0),
            ("svm_lambda", -0.5),
            ("mnb_alpha", float("nan")),
            ("mnb_alpha", float("inf")),
            ("svm_lambda", float("nan")),
            ("svm_lambda", float("inf")),
        ):
            with pytest.raises(ConfigError, match=key):
                make_config(tmp_path, **{key: bad})

    def test_rejects_empty_keywords(self, tmp_path):
        with pytest.raises(ConfigError, match="keywords"):
            make_config(tmp_path, keywords=())

    def test_split_fractions_checked_up_front(self, tmp_path):
        with pytest.raises(ConfigError):
            make_config(
                tmp_path,
                train_fraction=Fraction(1, 2),
                validation_fraction=Fraction(1, 2),
                test_fraction=Fraction(1, 2),
            )

    def test_encoder_overrides_checked_up_front(self, tmp_path):
        with pytest.raises(ConfigError, match="divisible"):
            make_config(tmp_path, model="bert", hidden_size=6, num_heads=4)
        # the same geometry is legal when no encoder is configured
        make_config(tmp_path, model="mnb", hidden_size=6, num_heads=4)

    def test_train_profile_merges_overrides(self, tmp_path):
        config = make_config(
            tmp_path, profile_name="paper", epochs=3, seed=7
        )
        profile = config.train_profile()
        assert profile.epochs == 3
        assert profile.batch_size == 32
        assert profile.learning_rate == 3e-6
        assert profile.seed == 7

    def test_settings_dump_is_path_free_and_sorted(self, tmp_path):
        config_a = make_config(tmp_path, corpus_path=tmp_path / "a.jsonl")
        config_b = pipeline.PipelineConfig(
            output_dir=tmp_path / "elsewhere" / "deep",
            corpus_path=tmp_path / "b.jsonl",
        )
        dump = config_a.settings_dump()
        assert dump == config_b.settings_dump()
        assert str(tmp_path) not in dump
        keys = [line.split("=", 1)[0] for line in dump.strip().split("\n")]
        assert keys == sorted(keys)
        assert "seed=0\n" in dump

    def test_settings_dump_reflects_effective_profile(self, tmp_path):
        dump = make_config(tmp_path, learning_rate=5e-4).settings_dump()
        assert '"learning_rate": 0.0005' in dump

    # every manifest hashes this text, so its exact bytes are pinned
    def test_settings_dump_of_the_default_config_is_pinned(self, tmp_path):
        assert make_config(tmp_path).settings_dump() == (
            "corpus_format=jsonl\n"
            "dedupe_key=normalized_text\n"
            "dropout_rate=0.1\n"
            "keyword_mode=any\n"
            "keywords=ppkm,jakarta\n"
            "min_count=1\n"
            "mnb_alpha=1.0\n"
            "model=bert\n"
            "ngram_n=2\n"
            "profile=desk\n"
            "seed=0\n"
            "stratified=true\n"
            "svm_epochs=50\n"
            "svm_feature_mode=tfidf\n"
            "svm_lambda=0.01\n"
            "test_fraction=29/1063\n"
            "top_k=20\n"
            "train_fraction=4877/5315\n"
            'train_profile={"adam_beta1": 0.9, "adam_beta2": 0.999, '
            '"adam_epsilon": 1e-08, "batch_size": 32, "epochs": 10, '
            '"learning_rate": 0.001, "seed": 0}\n'
            "validation_fraction=293/5315\n"
        )

    def test_settings_dump_with_every_key_set_is_pinned(self, tmp_path):
        text = """
        output_dir = out
        corpus_path = raw.csv
        corpus_format = csv
        stopwords_path = stop.txt
        lexicon_positive_path = pos.txt
        lexicon_negative_path = neg.txt
        keywords = PPKM, Darurat
        keyword_mode = all
        dedupe_key = id
        train_fraction = 7/10
        validation_fraction = 0.2
        test_fraction = 1/10
        stratified = false
        model = bert
        profile = paper
        batch_size = 8
        epochs = 3
        learning_rate = 0.0005
        num_layers = 1
        num_heads = 2
        hidden_size = 8
        feedforward_size = 16
        max_sequence_length = 12
        dropout_rate = 0.25
        min_count = 2
        mnb_alpha = 0.5
        svm_lambda = 0.02
        svm_epochs = 7
        svm_feature_mode = tf
        top_k = 9
        ngram_n = 3
        seed = 11
        """
        settings = pipeline.parse_config_text(text, tmp_path)
        assert pipeline.PipelineConfig(**settings).settings_dump() == (
            "corpus_format=csv\n"
            "dedupe_key=id\n"
            "dropout_rate=0.25\n"
            "feedforward_size=16\n"
            "hidden_size=8\n"
            "keyword_mode=all\n"
            "keywords=ppkm,darurat\n"
            "max_sequence_length=12\n"
            "min_count=2\n"
            "mnb_alpha=0.5\n"
            "model=bert\n"
            "ngram_n=3\n"
            "num_heads=2\n"
            "num_layers=1\n"
            "profile=paper\n"
            "seed=11\n"
            "stratified=false\n"
            "svm_epochs=7\n"
            "svm_feature_mode=tf\n"
            "svm_lambda=0.02\n"
            "test_fraction=1/10\n"
            "top_k=9\n"
            "train_fraction=7/10\n"
            'train_profile={"adam_beta1": 0.9, "adam_beta2": 0.999, '
            '"adam_epsilon": 1e-08, "batch_size": 8, "epochs": 3, '
            '"learning_rate": 0.0005, "seed": 11}\n'
            "validation_fraction=1/5\n"
        )


class TestStageOrder:
    def test_label_requires_ingest(self, tmp_path):
        config = make_config(tmp_path)
        config.output_dir.mkdir()
        with pytest.raises(StageOrderError, match="ingest"):
            pipeline.run_label(config)

    def test_train_requires_label(self, tmp_path):
        config = make_config(tmp_path, model="mnb")
        config.output_dir.mkdir()
        with pytest.raises(StageOrderError, match="label"):
            pipeline.run_train(config)

    def test_eval_requires_label(self, tmp_path):
        config = make_config(tmp_path)
        config.output_dir.mkdir()
        with pytest.raises(StageOrderError, match="label"):
            pipeline.run_eval(config)

    def test_eval_requires_a_trained_model(self, tmp_path):
        config = make_config(tmp_path, model="mnb", **EVEN_SPLIT)
        write_labeled_corpus(config.output_dir)
        with pytest.raises(StageOrderError, match="train"):
            pipeline.run_eval(config)

    def test_viz_requires_label(self, tmp_path):
        config = make_config(tmp_path)
        config.output_dir.mkdir()
        with pytest.raises(StageOrderError, match="label"):
            pipeline.run_viz(config)

    def test_compare_requires_two_reports(self, tmp_path):
        config = make_config(tmp_path)
        config.output_dir.mkdir()
        with pytest.raises(StageOrderError, match="at least two"):
            pipeline.run_compare(config)

    def test_ingest_requires_corpus_path(self, tmp_path):
        config = make_config(tmp_path)
        with pytest.raises(ConfigError, match="corpus_path"):
            pipeline.run_ingest(config)
        config = make_config(tmp_path, corpus_path=tmp_path / "absent.jsonl")
        with pytest.raises(ConfigError, match="does not exist"):
            pipeline.run_ingest(config)


class TestIngestStage:
    def test_report_accounting_is_consistent(self, tmp_path):
        raw = write_raw_corpus(tmp_path, n=300, seed=4)
        config = make_config(tmp_path, corpus_path=raw)
        outputs = pipeline.run_ingest(config)
        assert {p.name for p in outputs} == {
            pipeline.CORPUS_FILE,
            pipeline.INGEST_REPORT_FILE,
            "ingest.manifest.json",
        }
        report = json.loads(
            (config.output_dir / pipeline.INGEST_REPORT_FILE).read_text()
        )
        corpus_rows = (
            (config.output_dir / pipeline.CORPUS_FILE)
            .read_text()
            .strip()
            .split("\n")
        )
        assert report["raw_rows"] == 300
        assert report["raw_rows"] == report["parsed"] + len(report["row_errors"])
        assert report["kept"] == len(corpus_rows)
        assert report["duplicates_removed"] > 0
        assert report["dropped_no_keyword"] > 0
        assert (
            report["parsed"]
            - report["duplicates_removed"]
            - report["dropped_no_keyword"]
            - report["dropped_by_verdict"]
            == report["kept"]
        )

    def test_kept_rows_mention_a_keyword(self, tmp_path):
        raw = write_raw_corpus(tmp_path, n=120, seed=2)
        config = make_config(tmp_path, corpus_path=raw)
        pipeline.run_ingest(config)
        for line in (
            (config.output_dir / pipeline.CORPUS_FILE).read_text().strip().split("\n")
        ):
            row = json.loads(line)
            assert row["matched_keywords"]
            assert any(
                kw in row["text"].lower() for kw in config.keywords
            )

    def test_drop_verdict_excludes_a_record(self, tmp_path):
        raw = write_raw_corpus(tmp_path, n=80, seed=1)
        config = make_config(tmp_path, corpus_path=raw)
        pipeline.run_ingest(config)
        first = json.loads(
            (config.output_dir / pipeline.CORPUS_FILE)
            .read_text()
            .split("\n", 1)[0]
        )
        pipeline.write_verdicts(
            {first["id"]: "drop"}, config.output_dir / pipeline.VERDICTS_FILE
        )
        pipeline.run_ingest(config)
        kept_ids = {
            json.loads(line)["id"]
            for line in (config.output_dir / pipeline.CORPUS_FILE)
            .read_text()
            .strip()
            .split("\n")
        }
        assert first["id"] not in kept_ids
        report = json.loads(
            (config.output_dir / pipeline.INGEST_REPORT_FILE).read_text()
        )
        assert report["dropped_by_verdict"] == 1
        assert report["verdicts_applied"] == 1

    def test_manifest_hashes_verify(self, tmp_path):
        raw = write_raw_corpus(tmp_path, n=60, seed=3)
        config = make_config(tmp_path, corpus_path=raw)
        pipeline.run_ingest(config)
        manifest = json.loads(
            (config.output_dir / "ingest.manifest.json").read_text()
        )
        assert manifest["stage"] == "ingest"
        assert manifest["settings_sha256"] == hashlib.sha256(
            config.settings_dump().encode("utf-8")
        ).hexdigest()
        assert manifest["inputs"]["corpus_path"] == sha256_file(raw)
        for name, digest in manifest["outputs"].items():
            assert digest == sha256_file(config.output_dir / name), name


class TestLabelStage:
    def run_both(self, tmp_path, **config_overrides):
        raw = write_raw_corpus(tmp_path, n=80, seed=1)
        config = make_config(tmp_path, corpus_path=raw, **config_overrides)
        pipeline.run_ingest(config)
        pipeline.run_label(config)
        return config

    def test_labeled_rows_and_worksheet_align(self, tmp_path):
        config = self.run_both(tmp_path)
        out = config.output_dir
        # one override, on a row inside the file, so that its final label
        # differs from its proposed one
        before = labeled_documents(out)
        middle = before[len(before) // 2]
        relabel = NEG if middle.label is not NEG else POS
        pipeline.write_label_overrides({middle.id: relabel}, out / pipeline.OVERRIDES_FILE)
        pipeline.run_label(config)
        labeled = [
            json.loads(line)
            for line in (out / pipeline.LABELED_FILE).read_text().strip().split("\n")
        ]
        corpus_rows = (out / pipeline.CORPUS_FILE).read_text().strip().split("\n")
        assert len(labeled) == len(corpus_rows)
        assert [row["id"] for row in labeled] == [
            json.loads(line)["id"] for line in corpus_rows
        ]
        assert all(
            row["label"] in ("negative", "neutral", "positive") for row in labeled
        )
        assert all(isinstance(row["score"], int) for row in labeled)
        worksheet_text = (out / pipeline.WORKSHEET_FILE).read_text()
        assert worksheet_text.split("\n", 1)[0] == (
            "id,clean_text,score,proposed_label,final_label"
        )
        worksheet = list(csv.reader(io.StringIO(worksheet_text)))[1:]
        assert len(worksheet) == len(labeled)
        ids, _ = pipeline.load_labeled_documents(out)
        sequences = ids.documents.sequences()
        assert len(sequences) == len(labeled)
        for row, sheet, tokens, code in zip(labeled, worksheet, sequences, ids.labels):
            assert sheet[0] == row["id"]
            assert sheet[1] == row["clean_text"]
            assert int(sheet[2]) == row["score"]
            assert sheet[4] == row["label"] == label_name(SentimentLabel(code))
            assert list(tokens) == row["tokens"]
        changed = [sheet for sheet in worksheet if sheet[3] != sheet[4]]
        assert [(sheet[0], sheet[3], sheet[4]) for sheet in changed] == [
            (middle.id, label_name(middle.label), label_name(relabel))
        ]

    def test_documents_round_trip_through_the_artifact(self, tmp_path):
        config = self.run_both(tmp_path)
        documents = labeled_documents(config.output_dir)
        assert all(doc.label is not None for doc in documents)
        assert all(doc.tokens for doc in documents)
        # tokens were stopword-filtered during labeling
        from ppkmsent.data import default_stopwords

        stop = default_stopwords().words
        assert all(not set(doc.tokens) & stop for doc in documents)

    def test_the_id_file_holds_the_labeled_documents(self, tmp_path):
        config = self.run_both(tmp_path)
        labeled, digests = pipeline.load_labeled_documents(config.output_dir)
        documents = labeled_documents(config.output_dir)
        want = token_ids(documents)
        assert labeled.documents.lengths.tolist() == want.lengths.tolist()
        assert labeled.documents.ids.tolist() == want.ids.tolist()
        assert labeled.documents.tokens == want.tokens
        assert labeled.labels.tolist() == [int(doc.label) for doc in documents]
        manifest = json.loads(
            (config.output_dir / pipeline.LABEL_MANIFEST_FILE).read_text()
        )
        assert {name: manifest["outputs"][name] for name in digests} == digests

    def test_label_overrides_replace_proposals(self, tmp_path):
        config = self.run_both(tmp_path)
        labeled_before = labeled_documents(config.output_dir)
        target = next(doc for doc in labeled_before if doc.label is not POS)
        pipeline.write_label_overrides(
            {target.id: POS}, config.output_dir / pipeline.OVERRIDES_FILE
        )
        pipeline.run_label(config)
        labeled_after = labeled_documents(config.output_dir)
        by_id = {doc.id: doc for doc in labeled_after}
        assert by_id[target.id].label is POS
        unchanged = [
            doc for doc in labeled_after if doc.id != target.id
        ]
        before_by_id = {doc.id: doc for doc in labeled_before}
        assert all(doc.label == before_by_id[doc.id].label for doc in unchanged)
        worksheet_text = (config.output_dir / pipeline.WORKSHEET_FILE).read_text()
        row = next(
            line
            for line in worksheet_text.strip().split("\n")
            if line.startswith(f"{target.id},")
        )
        assert row.endswith(",positive")

    def test_unknown_override_id_raises(self, tmp_path):
        config = self.run_both(tmp_path)
        pipeline.write_label_overrides(
            {"no-such-id": POS}, config.output_dir / pipeline.OVERRIDES_FILE
        )
        from ppkmsent.errors import UnknownIdError

        with pytest.raises(UnknownIdError, match="no-such-id"):
            pipeline.run_label(config)


class TestTrainStage:
    def test_mnb_round_trips_through_its_artifact(self, tmp_path):
        config = make_config(tmp_path, model="mnb", **EVEN_SPLIT)
        write_labeled_corpus(config.output_dir)
        outputs = pipeline.run_train(config)
        model_path = config.output_dir / "mnb_model.json"
        assert model_path in outputs
        model, vocab = bow.load_model(model_path)
        documents = labeled_documents(config.output_dir)
        train_docs, _, _ = split_documents(documents, config.split_spec())
        train = labeled_ids(train_docs)
        rebuilt_vocab = bow.build_vocab(train.documents, min_count=config.min_count)
        rebuilt = bow.mnb_train(train, rebuilt_vocab, alpha=config.mnb_alpha)
        assert vocab.token_to_index == rebuilt_vocab.token_to_index
        import numpy as np

        assert np.allclose(
            model.class_log_prior, rebuilt.class_log_prior, atol=1e-12
        )

    def test_svm_training_writes_model(self, tmp_path):
        config = make_config(tmp_path, model="svm", **EVEN_SPLIT)
        write_labeled_corpus(config.output_dir)
        pipeline.run_train(config)
        model, _ = bow.load_model(config.output_dir / "svm_model.json")
        assert model.feature_mode == "tfidf"

    def test_lexicon_model_records_the_phrase_lists(self, tmp_path):
        config = make_config(tmp_path, model="lexicon", **EVEN_SPLIT)
        write_labeled_corpus(config.output_dir)
        pipeline.run_train(config)
        payload = json.loads(
            (config.output_dir / "lexicon_model.json").read_text()
        )
        assert payload["magic"] == pipeline.LEXICON_MODEL_MAGIC
        assert "dapat dipercaya" in payload["positive"]
        assert payload["positive"] == sorted(payload["positive"])

    def test_bert_training_writes_checkpoint_vocab_and_history(self, tmp_path):
        config = make_config(tmp_path, **TINY_BERT, **EVEN_SPLIT)
        write_labeled_corpus(config.output_dir)
        outputs = pipeline.run_train(config)
        names = {p.name for p in outputs}
        assert {
            "bert.ckpt",
            pipeline.BERT_VOCAB_FILE,
            pipeline.HISTORY_FILE,
            "train_bert.manifest.json",
        } <= names
        history = (config.output_dir / pipeline.HISTORY_FILE).read_text()
        assert history.startswith("# batch_size=16 epochs=2 learning_rate=0.001\n")
        assert history.count("\n") == 2 + 2  # comment + header + one row per epoch

    def test_each_model_keeps_its_own_train_manifest(self, tmp_path):
        write_labeled_corpus(tmp_path / "out")
        for model in pipeline.MODELS:
            overrides = TINY_BERT if model == "bert" else {"model": model}
            pipeline.run_train(make_config(tmp_path, **overrides, **EVEN_SPLIT))
        out = tmp_path / "out"
        assert not (out / "train.manifest.json").exists()
        assert sorted(p.name for p in out.glob("train*.manifest.json")) == sorted(
            f"train_{model}.manifest.json" for model in pipeline.MODELS
        )
        for model, spec in pipeline.MODELS.items():
            manifest = json.loads((out / f"train_{model}.manifest.json").read_text())
            assert manifest["stage"] == "train"
            assert manifest["outputs"][spec.file] == sha256_file(out / spec.file)
            other_files = {s.file for m, s in pipeline.MODELS.items() if m != model}
            assert not other_files & set(manifest["outputs"])

    def test_empty_training_split_rejected(self, tmp_path):
        config = make_config(
            tmp_path,
            model="mnb",
            train_fraction=Fraction(0),
            validation_fraction=Fraction(0),
            test_fraction=Fraction(1),
        )
        write_labeled_corpus(config.output_dir)
        with pytest.raises(ConfigError, match="training split is empty"):
            pipeline.run_train(config)


class TestEvalStage:
    def test_metrics_match_an_independent_recount(self, tmp_path):
        config = make_config(tmp_path, model="mnb", **EVEN_SPLIT)
        write_labeled_corpus(config.output_dir)
        pipeline.run_train(config)
        pipeline.run_eval(config)
        payload = json.loads(
            (config.output_dir / "metrics_mnb.json").read_text()
        )

        documents = labeled_documents(config.output_dir)
        _, _, test_docs = split_documents(documents, config.split_spec())
        model, vocab = bow.load_model(config.output_dir / "mnb_model.json")
        predicted = [bow.mnb_predict(doc, model, vocab)[0] for doc in test_docs]
        cm = evaluation.confusion([doc.label for doc in test_docs], predicted)
        report = evaluation.metrics(cm)

        assert payload["confusion"] == [list(row) for row in cm.counts]
        assert payload["accuracy"] == report.accuracy
        assert payload["macro_f"] == report.macro_f
        assert sum(sum(row) for row in payload["confusion"]) == len(test_docs)

    def test_all_trained_models_are_evaluated_and_compared(self, tmp_path):
        config = make_config(tmp_path, model="mnb", **EVEN_SPLIT)
        write_labeled_corpus(config.output_dir)
        pipeline.run_train(config)
        svm_config = make_config(tmp_path, model="svm", **EVEN_SPLIT)
        pipeline.run_train(svm_config)
        outputs = pipeline.run_eval(config)
        names = {p.name for p in outputs}
        assert {
            "metrics_mnb.json",
            "metrics_svm.json",
            pipeline.METRICS_SUMMARY_FILE,
            pipeline.COMPARISON_CSV_FILE,
            pipeline.COMPARISON_TXT_FILE,
        } <= names
        summary = (
            (config.output_dir / pipeline.METRICS_SUMMARY_FILE)
            .read_text()
            .strip()
            .split("\n")
        )
        assert summary[0] == "model,macro_precision,macro_recall,macro_f,accuracy"
        assert {line.split(",")[0] for line in summary[1:]} == {"mnb", "svm"}
        comparison = (
            (config.output_dir / pipeline.COMPARISON_CSV_FILE)
            .read_text()
            .strip()
            .split("\n")
        )
        macro_fs = [float(line.split(",")[3]) for line in comparison[1:]]
        assert macro_fs == sorted(macro_fs, reverse=True)

    def test_bow_models_score_the_test_split_in_one_batch(self, tmp_path, monkeypatch):
        config = make_config(tmp_path, model="mnb", **EVEN_SPLIT)
        write_labeled_corpus(config.output_dir)
        pipeline.run_train(config)
        pipeline.run_train(make_config(tmp_path, model="svm", **EVEN_SPLIT))
        calls = []
        predict_batch = bow.predict_batch

        def spy(documents, model, vocab):
            calls.append((type(model), documents.sequences()))
            return predict_batch(documents, model, vocab)

        monkeypatch.setattr(bow, "predict_batch", spy)
        pipeline.run_eval(config)
        documents = labeled_documents(config.output_dir)
        _, _, test_docs = split_documents(documents, config.split_spec())
        test_tokens = [doc.tokens for doc in test_docs]
        assert calls == [(bow.MnbModel, test_tokens), (bow.SvmModel, test_tokens)]

    def test_compare_stage_rebuilds_identical_tables(self, tmp_path):
        config = make_config(tmp_path, model="mnb", **EVEN_SPLIT)
        write_labeled_corpus(config.output_dir)
        pipeline.run_train(config)
        pipeline.run_train(make_config(tmp_path, model="lexicon", **EVEN_SPLIT))
        pipeline.run_eval(config)
        before = (config.output_dir / pipeline.COMPARISON_CSV_FILE).read_bytes()
        (config.output_dir / pipeline.COMPARISON_CSV_FILE).unlink()
        pipeline.run_compare(config)
        after = (config.output_dir / pipeline.COMPARISON_CSV_FILE).read_bytes()
        assert after == before

    def test_bert_eval_from_checkpoint(self, tmp_path):
        config = make_config(tmp_path, **TINY_BERT, **EVEN_SPLIT)
        write_labeled_corpus(config.output_dir)
        pipeline.run_train(config)
        pipeline.run_eval(config)
        payload = json.loads(
            (config.output_dir / "metrics_bert.json").read_text()
        )
        assert 0.0 <= payload["accuracy"] <= 1.0
        assert payload["model"] == "bert"


class TestSplitFingerprint:
    """Each train manifest records the split its model was fitted on, and
    eval refuses a model whose split is not the one it scores."""

    def train_mnb(self, tmp_path):
        config = make_config(tmp_path, model="mnb", **EVEN_SPLIT)
        write_labeled_corpus(config.output_dir)
        pipeline.run_train(config)
        return config

    def test_train_manifest_records_the_split(self, tmp_path):
        config = self.train_mnb(tmp_path)
        out = config.output_dir
        manifest = json.loads((out / "train_mnb.manifest.json").read_text())
        assert manifest["split"] == {
            "seed": 0,
            "train_fraction": "3/5",
            "validation_fraction": "1/5",
            "test_fraction": "1/5",
            "stratified": True,
            "labeled_sha256": sha256_file(out / pipeline.LABELED_FILE),
        }
        # the same split evaluates, and eval records the manifest it checked
        pipeline.run_eval(config)
        eval_manifest = json.loads((out / "eval.manifest.json").read_text())
        assert eval_manifest["inputs"]["train_mnb.manifest.json"] == sha256_file(
            out / "train_mnb.manifest.json"
        )

    def test_each_stage_reads_labeled_jsonl_once(self, tmp_path, monkeypatch):
        config = make_config(tmp_path, model="mnb", **EVEN_SPLIT)
        write_labeled_corpus(config.output_dir)
        labeled = config.output_dir / pipeline.LABELED_FILE
        digest = sha256_file(labeled)
        opened = []
        real_open = io.open

        def counting_open(file, *args, **kwargs):
            if Path(file) == labeled:
                opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        monkeypatch.setattr(io, "open", counting_open)
        for run in (pipeline.run_train, pipeline.run_eval, pipeline.run_viz):
            opened.clear()
            outputs = run(config)
            assert len(opened) == 1, run.__name__
            manifest = json.loads(outputs[-1].read_text(encoding="utf-8"))
            assert manifest["inputs"][pipeline.LABELED_FILE] == digest
        split = json.loads((config.output_dir / "train_mnb.manifest.json").read_text())
        assert split["split"]["labeled_sha256"] == digest

    @pytest.mark.parametrize(
        "overrides, field",
        [
            (dict(seed=7), "seed"),
            (
                dict(
                    train_fraction=Fraction(7, 10),
                    validation_fraction=Fraction(1, 10),
                ),
                "train_fraction",
            ),
            (dict(stratified=False), "stratified"),
        ],
        ids=["seed", "fraction", "stratified"],
    )
    def test_another_split_setting_is_refused(self, tmp_path, overrides, field):
        self.train_mnb(tmp_path)
        config = make_config(tmp_path, model="mnb", **{**EVEN_SPLIT, **overrides})
        with pytest.raises(ConfigError, match=rf"^mnb .*\({field} was "):
            pipeline.run_eval(config)
        assert not (config.output_dir / "metrics_mnb.json").exists()

    def test_relabelled_documents_are_refused(self, tmp_path):
        config = self.train_mnb(tmp_path)
        path = config.output_dir / pipeline.LABELED_FILE
        documents = labeled_documents(config.output_dir)
        relabelled = "positive" if documents[0].label is not POS else "negative"
        # a label edited into labeled.jsonl by hand: no stage reads the file
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        rows[0]["label"] = relabelled
        path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in rows))
        for run in (pipeline.run_train, pipeline.run_eval, pipeline.run_viz):
            with pytest.raises(
                ConfigError,
                match=r"labeled\.jsonl is not the file .*label\.manifest\.json records",
            ):
                run(config)
        # relabelled by the label stage's writer, as overrides and a rerun
        # of label do, the documents no longer match the trained model
        documents[0] = replace(documents[0], label=parse_label(relabelled))
        pipeline.write_label_artifacts(
            config, documents, worksheet_keeping_labels(documents), {}
        )
        with pytest.raises(ConfigError, match=r"^mnb .*labeled\.jsonl has changed"):
            pipeline.run_eval(config)

    def test_every_available_model_is_checked(self, tmp_path):
        config = self.train_mnb(tmp_path)
        pipeline.run_train(make_config(tmp_path, model="svm", **EVEN_SPLIT, seed=3))
        with pytest.raises(ConfigError, match=r"^svm .*\(seed was 3, now 0\)"):
            pipeline.run_eval(config)

    def test_missing_splitless_or_corrupt_manifest_is_refused(self, tmp_path):
        config = self.train_mnb(tmp_path)
        path = config.output_dir / "train_mnb.manifest.json"
        manifest = json.loads(path.read_text())
        del manifest["split"]
        path.write_text(json.dumps(manifest))
        with pytest.raises(ConfigError, match="^mnb: .* records no split"):
            pipeline.run_eval(config)
        for corrupt in ("{truncated", "[]"):
            path.write_text(corrupt)
            with pytest.raises(ConfigError, match="^mnb: .* is not a train manifest"):
                pipeline.run_eval(config)
        path.unlink()
        with pytest.raises(ConfigError, match="^mnb: .* is missing"):
            pipeline.run_eval(config)


class TestVizStage:
    def test_artifacts_and_count_consistency(self, tmp_path):
        config = make_config(tmp_path, top_k=10, ngram_n=2)
        write_labeled_corpus(config.output_dir)
        outputs = pipeline.run_viz(config)
        names = {p.name for p in outputs}
        assert {
            "unigrams.csv",
            "ngrams_2.csv",
            "cloud_weights.json",
            "sentiment_distribution.json",
            "unigrams.svg",
            "ngrams_2.svg",
            "cloud.svg",
            "distribution.svg",
            "viz.manifest.json",
        } == names
        distribution = json.loads(
            (config.output_dir / "sentiment_distribution.json").read_text()
        )
        documents = labeled_documents(config.output_dir)
        assert sum(distribution.values()) == len(documents)
        assert distribution == {"negative": 41, "neutral": 10, "positive": 9}
        unigram_lines = (
            (config.output_dir / "unigrams.csv").read_text().strip().split("\n")
        )
        assert unigram_lines[0] == "gram,count"
        assert len(unigram_lines) == 1 + config.top_k
        cloud = json.loads((config.output_dir / "cloud_weights.json").read_text())
        top_unigram, top_count = unigram_lines[1].rsplit(",", 1)
        assert cloud[top_unigram] == int(top_count)


class TestRerunDeterminism:
    def run_all(self, tmp_path, out_name):
        raw = tmp_path / "raw.jsonl"
        if not raw.is_file():
            write_jsonl(synthetic_tweets(120, seed=6), raw)
        config = pipeline.PipelineConfig(
            output_dir=tmp_path / out_name,
            corpus_path=raw,
            model="mnb",
            **EVEN_SPLIT,
        )
        pipeline.run_ingest(config)
        pipeline.run_label(config)
        pipeline.run_train(config)
        pipeline.run_eval(config)
        pipeline.run_viz(config)
        return config.output_dir

    def test_two_runs_are_byte_identical(self, tmp_path):
        dir_a = self.run_all(tmp_path, "out-a")
        dir_b = self.run_all(tmp_path, "out-b")
        names_a = sorted(p.name for p in dir_a.iterdir())
        names_b = sorted(p.name for p in dir_b.iterdir())
        assert names_a == names_b
        for name in names_a:
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name
