"""Tests for the interactive review pass and its CSV import route."""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

import pytest

from ppkmsent import pipeline, review
from ppkmsent.errors import ConfigError, CorruptProgressError, StageOrderError
from ppkmsent.fixtures import synthetic_tweets, write_jsonl
from ppkmsent.preprocess import SentimentLabel

WORKSHEET_COLUMNS = "id,clean_text,score,proposed_label,final_label"

NEG, NEU, POS = (
    SentimentLabel.NEGATIVE,
    SentimentLabel.NEUTRAL,
    SentimentLabel.POSITIVE,
)


def make_ingested(tmp_path: Path, out_name: str = "out") -> pipeline.PipelineConfig:
    raw = tmp_path / "raw.jsonl"
    if not raw.is_file():
        write_jsonl(synthetic_tweets(40, seed=1), raw)
    config = pipeline.PipelineConfig(
        output_dir=tmp_path / out_name, corpus_path=raw
    )
    pipeline.run_ingest(config)
    return config


def corpus_ids(config: pipeline.PipelineConfig) -> list[str]:
    return [
        json.loads(line)["id"]
        for line in (config.output_dir / pipeline.CORPUS_FILE)
        .read_text()
        .strip()
        .split("\n")
    ]


def interact(config: pipeline.PipelineConfig, keys: str, **kwargs):
    output = io.StringIO()
    state = review.run_review(
        config, input_stream=io.StringIO(keys), output_stream=output, **kwargs
    )
    return state, output.getvalue()


class TestInteractiveSession:
    def test_decisions_persist_to_all_three_artifacts(self, tmp_path):
        config = make_ingested(tmp_path)
        ids = corpus_ids(config)
        state, output = interact(config, "k\nd\n2\nq\n")
        assert state.position == 3
        assert state.verdicts == {ids[0]: "keep", ids[1]: "drop", ids[2]: "keep"}
        assert state.overrides == {ids[2]: POS}
        assert f"reviewing {len(ids)} records from corpus (starting at 1)" in output
        assert "saved 3 verdicts and 1 label overrides" in output

        verdicts = pipeline.read_verdicts(
            config.output_dir / pipeline.VERDICTS_FILE
        )
        assert verdicts == state.verdicts
        overrides = pipeline.read_label_overrides(
            config.output_dir / pipeline.OVERRIDES_FILE
        )
        assert overrides == {ids[2]: POS}
        saved = review.load_progress(config.output_dir)
        assert saved is not None
        assert saved.position == 3
        assert saved.source == "corpus"
        assert saved.verdicts == state.verdicts
        assert saved.overrides == state.overrides

    def test_enter_accepts_as_keep(self, tmp_path):
        config = make_ingested(tmp_path)
        ids = corpus_ids(config)
        state, _ = interact(config, "\nq\n")
        assert state.verdicts == {ids[0]: "keep"}

    def test_end_of_input_behaves_like_quit(self, tmp_path):
        config = make_ingested(tmp_path)
        state, _ = interact(config, "k\n")
        assert state.position == 1

    def test_unrecognized_key_leaves_the_record_unchanged(self, tmp_path):
        config = make_ingested(tmp_path)
        ids = corpus_ids(config)
        state, output = interact(config, "x\nk\nq\n")
        assert "unrecognized key 'x'" in output
        assert state.position == 1
        assert state.verdicts == {ids[0]: "keep"}

    def test_resume_continues_at_the_first_unreviewed_record(self, tmp_path):
        config = make_ingested(tmp_path)
        interact(config, "k\nk\nk\nq\n")
        state, output = interact(config, "q\n")
        assert "(starting at 4)" in output
        assert state.position == 3

    def test_fresh_discards_saved_progress(self, tmp_path):
        config = make_ingested(tmp_path)
        interact(config, "k\nk\nq\n")
        state, output = interact(config, "q\n", fresh=True)
        assert "(starting at 1)" in output
        assert state.position == 0
        assert state.verdicts == {}
        assert (
            pipeline.read_verdicts(config.output_dir / pipeline.VERDICTS_FILE)
            == {}
        )

    def test_decisions_carry_over_when_source_changes(self, tmp_path):
        config = make_ingested(tmp_path)
        ids = corpus_ids(config)
        interact(config, "k\nq\n")
        pipeline.run_label(config)
        state, output = interact(config, "q\n")
        assert "from worksheet (starting at 1)" in output
        assert state.source == "worksheet"
        assert state.position == 0
        assert state.verdicts == {ids[0]: "keep"}

    def test_worksheet_items_show_proposed_labels(self, tmp_path):
        config = make_ingested(tmp_path)
        pipeline.run_label(config)
        _, output = interact(config, "q\n")
        assert "[proposed:" in output

    @pytest.mark.parametrize(
        "line, edit, message",
        [
            (3, lambda row: row[:2], "expected 5 columns, got 2"),
            (3, lambda row: [*row[:3], "great", row[4]], "unknown sentiment label"),
            (1, lambda row: [*row[:3], "proposed", row[4]], "expected the header"),
        ],
        ids=["short-row", "unknown-proposed-label", "renamed-column"],
    )
    def test_malformed_worksheet_row_names_its_line(self, tmp_path, line, edit, message):
        config = make_ingested(tmp_path)
        pipeline.run_label(config)
        worksheet = config.output_dir / pipeline.WORKSHEET_FILE
        with open(worksheet, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        rows[line - 1] = edit(rows[line - 1])
        with open(worksheet, "w", newline="", encoding="utf-8") as handle:
            csv.writer(handle).writerows(rows)
        with pytest.raises(ConfigError, match=rf"{pipeline.WORKSHEET_FILE}:{line}: {message}"):
            interact(config, "q\n")

    def test_worksheet_that_is_not_utf8_names_the_file(self, tmp_path):
        config = make_ingested(tmp_path)
        pipeline.run_label(config)
        worksheet = config.output_dir / pipeline.WORKSHEET_FILE
        worksheet.write_bytes(worksheet.read_bytes() + b"\xff\n")
        with pytest.raises(ConfigError, match=rf"{pipeline.WORKSHEET_FILE}: not UTF-8"):
            interact(config, "q\n")

    def test_review_before_ingest_is_a_stage_order_error(self, tmp_path):
        config = pipeline.PipelineConfig(output_dir=tmp_path / "empty")
        with pytest.raises(StageOrderError, match="ingest"):
            interact(config, "q\n")

    def test_corpus_row_without_text_names_its_line(self, tmp_path):
        config = make_ingested(tmp_path)
        corpus_path = config.output_dir / pipeline.CORPUS_FILE
        lines = corpus_path.read_text(encoding="utf-8").splitlines()
        row = json.loads(lines[1])
        del row["text"]
        lines[1] = json.dumps(row)
        corpus_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=rf"{pipeline.CORPUS_FILE}:2: 'text'"):
            interact(config, "q\n")


class TestProgressFile:
    def test_save_and_load_round_trip(self, tmp_path):
        state = review.ReviewState(
            source="worksheet",
            position=5,
            verdicts={"a": "keep", "b": "drop"},
            overrides={"a": NEG},
        )
        review.save_progress(state, tmp_path)
        loaded = review.load_progress(tmp_path)
        assert loaded == state

    def test_absent_file_loads_as_none(self, tmp_path):
        assert review.load_progress(tmp_path) is None

    def test_unreadable_file_raises(self, tmp_path):
        (tmp_path / review.PROGRESS_FILE).write_text("not json{{")
        with pytest.raises(CorruptProgressError, match="unreadable"):
            review.load_progress(tmp_path)

    def test_checksum_mismatch_raises(self, tmp_path):
        state = review.ReviewState()
        path = review.save_progress(state, tmp_path)
        document = json.loads(path.read_text())
        document["payload"]["position"] = 99
        path.write_text(json.dumps(document))
        with pytest.raises(CorruptProgressError, match="checksum"):
            review.load_progress(tmp_path)

    def test_interactive_session_refuses_corrupt_progress(self, tmp_path):
        config = make_ingested(tmp_path)
        (config.output_dir / review.PROGRESS_FILE).write_text("{broken")
        with pytest.raises(CorruptProgressError):
            interact(config, "q\n")


class TestImport:
    def test_verdict_and_override_files_match_an_interactive_session(
        self, tmp_path
    ):
        config_a = make_ingested(tmp_path, "out-a")
        config_b = make_ingested(tmp_path, "out-b")
        ids = corpus_ids(config_a)
        assert ids == corpus_ids(config_b)

        interact(config_a, "k\nd\n2\nq\n")

        verdict_csv = tmp_path / "verdicts-in.csv"
        verdict_csv.write_text(
            f"id,verdict\n{ids[0]},keep\n{ids[1]},drop\n{ids[2]},keep\n"
        )
        override_csv = tmp_path / "overrides-in.csv"
        override_csv.write_text(f"id,label\n{ids[2]},positive\n")
        interact(config_b, "", import_path=verdict_csv)
        state, output = interact(config_b, "", import_path=override_csv)
        assert "imported decisions: 3 verdicts, 1 label overrides" in output

        for name in (pipeline.VERDICTS_FILE, pipeline.OVERRIDES_FILE):
            assert (config_a.output_dir / name).read_bytes() == (
                config_b.output_dir / name
            ).read_bytes(), name

        # downstream artifacts agree too
        for config in (config_a, config_b):
            pipeline.run_ingest(config)
            pipeline.run_label(config)
        for name in (pipeline.CORPUS_FILE, pipeline.LABELED_FILE):
            assert (config_a.output_dir / name).read_bytes() == (
                config_b.output_dir / name
            ).read_bytes(), name

    def test_edited_worksheet_yields_overrides_and_drops(self, tmp_path):
        config = make_ingested(tmp_path)
        pipeline.run_label(config)
        worksheet_path = config.output_dir / pipeline.WORKSHEET_FILE
        with open(worksheet_path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        header, data = rows[0], rows[1:]
        assert len(data) >= 3
        # change one final label, drop one record, leave the rest alone
        flipped = "positive" if data[0][3] != "positive" else "negative"
        data[0][4] = flipped
        data[1][4] = "drop"
        edited = tmp_path / "worksheet-edited.csv"
        with open(edited, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows(data)

        state = review.import_decisions(edited, config.output_dir)
        assert state.overrides == {data[0][0]: SentimentLabel.__members__[flipped.upper()]}
        assert state.verdicts == {data[1][0]: "drop"}

        # accepted rows (final == proposed) produce no decisions
        untouched_ids = {row[0] for row in data[2:]}
        assert not untouched_ids & set(state.overrides)
        assert not untouched_ids & set(state.verdicts)

    def test_import_merges_into_saved_progress(self, tmp_path):
        config = make_ingested(tmp_path)
        ids = corpus_ids(config)
        interact(config, "k\nq\n")
        extra = tmp_path / "more.csv"
        extra.write_text(f"id,verdict\n{ids[5]},drop\n")
        state, _ = interact(config, "", import_path=extra)
        assert state.verdicts == {ids[0]: "keep", ids[5]: "drop"}

    def test_dropping_a_record_suppresses_its_label_override(self, tmp_path):
        config = make_ingested(tmp_path)
        ids = corpus_ids(config)
        override_csv = tmp_path / "label.csv"
        override_csv.write_text(f"id,label\n{ids[0]},positive\n")
        review.import_decisions(override_csv, config.output_dir)
        assert pipeline.read_label_overrides(
            config.output_dir / pipeline.OVERRIDES_FILE
        ) == {ids[0]: POS}

        drop_csv = tmp_path / "drop.csv"
        drop_csv.write_text(f"id,verdict\n{ids[0]},drop\n")
        state = review.import_decisions(drop_csv, config.output_dir)
        # the decision is remembered in the state but kept out of the
        # overrides artifact while the record is dropped
        assert state.overrides == {ids[0]: POS}
        assert (
            pipeline.read_label_overrides(
                config.output_dir / pipeline.OVERRIDES_FILE
            )
            == {}
        )

    def test_bad_verdict_value_rejected(self, tmp_path):
        config = make_ingested(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text("id,verdict\nsome-id,maybe\n")
        with pytest.raises(ConfigError, match="keep or drop"):
            review.import_decisions(bad, config.output_dir)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("id,verdict\nsome-id\n", "keep or drop"),
            ("id,label\nsome-id\n", "bad.csv:2"),
            ("id,label\nsome-id,great\n", "unknown sentiment label"),
            (f"{WORKSHEET_COLUMNS}\nsome-id,teks,0\n", "bad.csv:2: expected 5 columns"),
            (
                f"{WORKSHEET_COLUMNS}\nsome-id,teks,0,neutral,great\n",
                "bad.csv:2: unknown sentiment label",
            ),
        ],
        ids=[
            "verdict-one-column",
            "label-one-column",
            "bad-label",
            "worksheet-short-row",
            "worksheet-bad-final-label",
        ],
    )
    def test_malformed_row_rejected(self, tmp_path, text, message):
        config = make_ingested(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        with pytest.raises(ConfigError, match=message):
            review.import_decisions(bad, config.output_dir)

    def test_file_that_is_not_utf8_rejected(self, tmp_path):
        config = make_ingested(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"id,verdict\nsome-id,keep\xff\n")
        with pytest.raises(ConfigError, match="bad.csv: not UTF-8 text"):
            review.import_decisions(bad, config.output_dir)

    def test_unrecognized_header_rejected(self, tmp_path):
        config = make_ingested(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text("tweet,decision\nx,keep\n")
        with pytest.raises(ConfigError, match="unrecognized header"):
            review.import_decisions(bad, config.output_dir)

    def test_missing_import_file_rejected(self, tmp_path):
        config = make_ingested(tmp_path)
        with pytest.raises(ConfigError, match="not found"):
            review.import_decisions(tmp_path / "absent.csv", config.output_dir)
