"""Tests for the bundled synthetic corpus generators."""

from __future__ import annotations

import hashlib
import importlib.util
import json
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

from ppkmsent.corpus import ingest_file
from ppkmsent.data import default_lexicon, default_stopwords
from ppkmsent.errors import ConfigError
from ppkmsent.fixtures import (
    _CUES_BY_LABEL,
    _FIRST_TWEET,
    _KEYWORD_FORMS,
    _MENTION_NOISE,
    _OFFTOPIC_TEXTS,
    _URL_NOISE,
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
from ppkmsent.preprocess import SentimentLabel, make_document

NEG, NEU, POS = (
    SentimentLabel.NEGATIVE,
    SentimentLabel.NEUTRAL,
    SentimentLabel.POSITIVE,
)

INPUTS_PATH = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"


def load_bench_inputs():
    spec = importlib.util.spec_from_file_location("_bench_inputs", INPUTS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def reference_synthetic_documents(n: int = 600, seed: int = 0):
    """``synthetic_documents`` as written with ``Generator.choice``."""
    counts = fixture_class_counts(n)
    labels: list[SentimentLabel] = []
    for label in sorted(counts):
        labels.extend([label] * counts[label])
    rng = np.random.Generator(np.random.PCG64(seed))
    order = rng.permutation(n)
    documents = []
    for position, index in enumerate(order):
        label = labels[index]
        cues = rng.choice(_CUES_BY_LABEL[label], size=rng.integers(2, 5))
        filler = rng.choice(SHARED_FILLER, size=rng.integers(2, 7))
        words = list(cues) + list(filler)
        words = [words[i] for i in rng.permutation(len(words))]
        documents.append(
            make_document(f"synt-{position:04d}", " ".join(words), label=label)
        )
    return documents


def reference_synthetic_tweets(
    n: int = 80, seed: int = 1, duplicate_rate: float = 0.05, offtopic_rate: float = 0.1
):
    """``synthetic_tweets`` as written with ``Generator.choice``."""
    rng = np.random.Generator(np.random.PCG64(seed))
    rows: list[dict] = []
    base_minute = 0
    for i in range(n):
        row: dict = {"id": f"tw-{i:05d}"}
        base_minute += int(rng.integers(1, 5))
        draw = rng.random()
        if rows and draw < duplicate_rate:
            row["text"] = rows[int(rng.integers(len(rows)))]["text"]
        elif draw < duplicate_rate + offtopic_rate:
            row["text"] = str(rng.choice(_OFFTOPIC_TEXTS))
        else:
            label = SentimentLabel(int(rng.integers(0, 3)))
            cues = rng.choice(_CUES_BY_LABEL[label], size=rng.integers(1, 4))
            filler = rng.choice(SHARED_FILLER, size=rng.integers(2, 6))
            keyword = str(rng.choice(_KEYWORD_FORMS))
            url = str(rng.choice(_URL_NOISE))
            mention = str(rng.choice(_MENTION_NOISE))
            pieces = [*cues, *filler, keyword, mention, url]
            pieces = [pieces[j] for j in rng.permutation(len(pieces)) if pieces[j]]
            row["text"] = " ".join(pieces)
        if rng.random() > 0.05:
            stamp = _FIRST_TWEET + timedelta(minutes=base_minute)
            row["created_at"] = stamp.strftime("%Y-%m-%dT%H:%M:00Z")
        rows.append(row)
    return rows


def jsonl_sha256(rows, tmp_path: Path) -> str:
    path = tmp_path / "rows.jsonl"
    write_jsonl(rows, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


# (n, seeds) for the reference comparisons: 50 seeds for the small sizes,
# fewer for the large ones, whose reference calls cost about 80 us a row
STREAM_CASES = [
    (1, range(50)),
    (2, range(50)),
    (80, range(50)),
    (1000, range(50, 55)),
    (5315, [55]),
]
RATE_SETTINGS = [
    {},
    {"duplicate_rate": 0.5, "offtopic_rate": 0.4},
    {"duplicate_rate": 0.0, "offtopic_rate": 0.0},
]


class TestReferenceStreams:
    """The generators draw exactly what their ``Generator.choice`` forms
    drew, so no dump, and no benchmark baseline, moves."""

    @pytest.mark.parametrize("rates", RATE_SETTINGS, ids=["default", "noisy", "clean"])
    @pytest.mark.parametrize("n, seeds", STREAM_CASES, ids=[f"n{n}" for n, _ in STREAM_CASES])
    def test_tweets_equal_the_reference(self, n, seeds, rates):
        for seed in seeds:
            assert synthetic_tweets(n, seed, **rates) == reference_synthetic_tweets(
                n, seed, **rates
            ), (n, seed)

    @pytest.mark.parametrize("n, seeds", STREAM_CASES, ids=[f"n{n}" for n, _ in STREAM_CASES])
    def test_documents_equal_the_reference(self, n, seeds):
        for seed in seeds:
            if n < len(CLASS_RATIO):
                with pytest.raises(ConfigError, match="at least 3"):
                    synthetic_documents(n, seed)
                continue
            assert synthetic_documents(n, seed) == reference_synthetic_documents(
                n, seed
            ), (n, seed)

    def test_paper_scale_dump_bytes(self, tmp_path):
        assert jsonl_sha256(synthetic_tweets(5315, seed=1), tmp_path) == (
            "61b0e631ccb0fe5ed8d1c29d64e0760c4804449516e93bdb719c3c2122a8f176"
        )

    @pytest.mark.parametrize(
        "n, seed, chunks, digest",
        [
            (800, 1, 1, "edbddbdf7e950c1f0786635a9b202852fbe5b5b9d4cc7094647b6b31f3bf8614"),
            (2500, 7, 3, "e11494cb975c8bac1688f44f8e2eb30f33e90e3a5e007a5fc3b73e0d672c3f16"),
        ],
        ids=["n800", "n2500"],
    )
    def test_bench_dump_bytes(self, tmp_path, n, seed, chunks, digest):
        inputs = load_bench_inputs()
        assert -(-n // inputs.CHUNK_ROWS) == chunks
        assert jsonl_sha256(inputs.zipf_tweets(n, seed), tmp_path) == digest


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
        worksheet = label_corpus(
            [d for d in docs], lexicon
        )
        agreements = sum(
            1 for got, want in zip(worksheet, docs) if got.final_label == want.label
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

    @pytest.mark.parametrize(
        "rates, message",
        [
            ({"duplicate_rate": -0.1}, "duplicate_rate must be in [0, 1], got -0.1"),
            ({"offtopic_rate": 1.5}, "offtopic_rate must be in [0, 1], got 1.5"),
            ({"offtopic_rate": float("nan")}, "offtopic_rate must be in [0, 1], got nan"),
            (
                {"duplicate_rate": 0.6, "offtopic_rate": 0.6},
                "duplicate_rate + offtopic_rate must be at most 1, got 0.6 + 0.6",
            ),
        ],
    )
    def test_rejects_rates_that_make_a_degenerate_dump(self, rates, message):
        with pytest.raises(ConfigError) as excinfo:
            synthetic_tweets(10, **rates)
        assert str(excinfo.value) == message

    def test_rates_summing_to_one_are_accepted(self):
        rows = synthetic_tweets(50, seed=3, duplicate_rate=0.25, offtopic_rate=0.75)
        assert len(rows) == 50

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
