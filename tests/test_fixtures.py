"""Tests for the bundled synthetic corpus generators."""

from __future__ import annotations

import json
from datetime import datetime

import pytest

from ppkmsent.corpus import ingest_file
from ppkmsent.data import default_lexicon, default_stopwords
from ppkmsent.errors import ConfigError
from ppkmsent.fixtures import (
    CLASS_RATIO,
    NEGATIVE_CUES,
    NEUTRAL_CUES,
    POSITIVE_CUES,
    SHARED_FILLER,
    example_document,
    fixture_class_counts,
    split_documents_by_label,
    synthetic_documents,
    synthetic_tweets,
    write_jsonl,
)
from ppkmsent.lexicon import label_corpus, score_document
from ppkmsent.preprocess import SentimentLabel

NEG, NEU, POS = (
    SentimentLabel.NEGATIVE,
    SentimentLabel.NEUTRAL,
    SentimentLabel.POSITIVE,
)


class TestFixtureClassCounts:
    def test_six_hundred_documents_apportion_to_405_105_90(self):
        counts = fixture_class_counts(600)
        assert counts == {NEG: 405, NEU: 105, POS: 90}
        assert sum(counts.values()) == 600

    def test_full_ratio_total_reproduces_itself(self):
        counts = fixture_class_counts(sum(CLASS_RATIO.values()))
        assert counts == CLASS_RATIO

    def test_every_size_sums_exactly(self):
        for n in range(3, 200):
            counts = fixture_class_counts(n)
            assert sum(counts.values()) == n
            assert all(v >= 0 for v in counts.values())

    def test_apportionment_never_differs_from_exact_share_by_one_or_more(self):
        total = sum(CLASS_RATIO.values())
        for n in (10, 57, 600, 5315):
            counts = fixture_class_counts(n)
            for label, got in counts.items():
                exact = n * CLASS_RATIO[label] / total
                assert abs(got - exact) < 1.0

    def test_tiny_n_rejected(self):
        with pytest.raises(ConfigError, match="at least 3"):
            fixture_class_counts(2)


class TestSyntheticDocuments:
    def test_deterministic_for_a_seed(self):
        a = synthetic_documents(60, seed=7)
        b = synthetic_documents(60, seed=7)
        assert a == b
        c = synthetic_documents(60, seed=8)
        assert a != c

    def test_count_and_class_shape(self):
        docs = synthetic_documents(600, seed=0)
        assert len(docs) == 600
        grouped = split_documents_by_label(docs)
        assert {k: len(v) for k, v in grouped.items()} == {
            NEG: 405,
            NEU: 105,
            POS: 90,
        }

    def test_ids_unique_and_ordered(self):
        docs = synthetic_documents(50, seed=0)
        assert [d.id for d in docs] == [f"synt-{i:04d}" for i in range(50)]

    def test_cue_pools_are_class_exclusive(self):
        pools = [set(NEGATIVE_CUES), set(NEUTRAL_CUES), set(POSITIVE_CUES)]
        for i in range(3):
            for j in range(i + 1, 3):
                assert not pools[i] & pools[j]
        assert not set(SHARED_FILLER) & (pools[0] | pools[1] | pools[2])

    def test_documents_only_use_own_class_cues(self):
        docs = synthetic_documents(120, seed=3)
        wrong = {
            NEG: set(POSITIVE_CUES) | set(NEUTRAL_CUES),
            NEU: set(POSITIVE_CUES) | set(NEGATIVE_CUES),
            POS: set(NEGATIVE_CUES) | set(NEUTRAL_CUES),
        }
        for doc in docs:
            assert not set(doc.tokens) & wrong[doc.label], doc.id

    def test_lexicon_bootstrap_agrees_with_true_labels(self):
        docs = synthetic_documents(600, seed=0)
        lexicon = default_lexicon()
        labeled, worksheet = label_corpus(
            [d for d in docs], lexicon
        )
        agreements = sum(
            1 for got, want in zip(labeled, docs) if got.label == want.label
        )
        assert agreements == 600
        assert all(
            row.proposed_label == row.final_label for row in worksheet
        )

    def test_every_document_scores_with_its_class_sign(self):
        lexicon = default_lexicon()
        for doc in synthetic_documents(100, seed=11):
            verdict = score_document(doc.tokens, lexicon)
            if doc.label is NEG:
                assert verdict.score < 0
            elif doc.label is POS:
                assert verdict.score > 0
            else:
                assert verdict.score == 0


class TestExampleDocument:
    def test_cleansed_tokens_keep_function_words(self):
        doc = example_document()
        assert doc.raw_text == "Jualan saya rugi selama PPKM"
        assert tuple(doc.tokens) == ("jualan", "saya", "rugi", "selama", "ppkm")
        assert doc.label is None

    def test_stopword_removal_leaves_the_content_words(self):
        from ppkmsent.preprocess import remove_stopwords

        doc = example_document()
        stop = default_stopwords()
        assert {"saya", "selama"} <= stop.words
        assert remove_stopwords(list(doc.tokens), stop) == [
            "jualan",
            "rugi",
            "ppkm",
        ]


class TestSyntheticTweets:
    def test_deterministic_and_sized(self):
        a = synthetic_tweets(80, seed=1)
        b = synthetic_tweets(80, seed=1)
        assert a == b
        assert len(a) == 80

    def test_row_shape(self):
        rows = synthetic_tweets(120, seed=2)
        assert all(set(row) <= {"id", "text", "created_at"} for row in rows)
        assert all(row["id"] and row["text"] for row in rows)
        ids = [row["id"] for row in rows]
        assert len(set(ids)) == len(ids)
        with_ts = [r for r in rows if "created_at" in r]
        # timestamps are mostly present and parse as UTC ISO stamps
        assert len(with_ts) > 100
        assert all(r["created_at"].endswith("Z") for r in with_ts)

    def test_contains_duplicates_and_offtopic_noise(self):
        rows = synthetic_tweets(300, seed=4)
        texts = [r["text"] for r in rows]
        assert len(set(texts)) < len(texts)
        keywords = ("ppkm", "jakarta")
        offtopic = [
            t for t in texts if not any(k in t.lower() for k in keywords)
        ]
        assert offtopic

    def test_rejects_zero_rows(self):
        with pytest.raises(ConfigError, match="at least one"):
            synthetic_tweets(0)

    def test_twenty_thousand_rows_ingest_without_row_errors(self, tmp_path):
        # timestamps run into August past about 16.8k rows
        rows = synthetic_tweets(20_000)
        path = tmp_path / "raw.jsonl"
        write_jsonl(rows, path)
        result = ingest_file(path)
        assert result.errors == []
        assert len(result.records) == len(rows)
        stamps = [
            datetime.fromisoformat(r["created_at"][:-1])
            for r in rows
            if "created_at" in r
        ]
        assert stamps == sorted(stamps)
        assert stamps[-1].month == 8


class TestWriteJsonl:
    def test_rows_round_trip(self, tmp_path):
        rows = synthetic_tweets(10, seed=5)
        path = tmp_path / "rows.jsonl"
        write_jsonl(rows, path)
        lines = path.read_text(encoding="utf-8").strip().split("\n")
        assert [json.loads(line) for line in lines] == rows


class TestSplitDocumentsByLabel:
    def test_groups_preserve_order(self):
        docs = synthetic_documents(30, seed=0)
        grouped = split_documents_by_label(docs)
        for label, group in grouped.items():
            assert [d.id for d in group] == [
                d.id for d in docs if d.label is label
            ]

    def test_unlabeled_rejected(self):
        with pytest.raises(ConfigError, match="no label"):
            split_documents_by_label([example_document()])
