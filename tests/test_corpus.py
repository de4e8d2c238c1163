"""Tests for ingestion, rate limiting, dedupe, relevance and splitting."""

from __future__ import annotations

import json
import math
from datetime import datetime, timedelta, timezone
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_doc, split_documents
from ppkmsent.corpus import (
    PAPER_SPLIT_FRACTIONS,
    RateLimitState,
    SplitSpec,
    TweetRecord,
    acquire_permit,
    dedupe,
    filter_relevant,
    ingest_file,
    match_keywords,
    split,
)
from ppkmsent.errors import IngestError, NonMonotonicClockError, UnknownIdError
from ppkmsent.preprocess import SentimentLabel

T0 = datetime(2021, 7, 3, 10, 0, 0, tzinfo=timezone.utc)


def rec(rec_id: str, text: str) -> TweetRecord:
    return TweetRecord(id=rec_id, text=text)


class TestAcquirePermit:
    def test_budget_exhausts_then_denies_with_reopen_instant(self):
        state = RateLimitState()
        assert state.max_requests == 900
        assert state.window_length == timedelta(minutes=15)
        for _ in range(900):
            decision = acquire_permit(state, T0)
            assert decision.granted
            state = decision.state
        denied = acquire_permit(state, T0)
        assert not denied.granted
        assert denied.retry_at == T0 + timedelta(minutes=15)

    def test_window_reopens_after_window_length(self):
        state = RateLimitState(max_requests=2)
        for _ in range(2):
            state = acquire_permit(state, T0).state
        assert not acquire_permit(state, T0).granted
        later = acquire_permit(state, T0 + timedelta(minutes=15))
        assert later.granted
        assert later.state.requests_in_window == 1
        assert later.state.window_start == T0 + timedelta(minutes=15)

    def test_zero_budget_denies_everything(self):
        state = RateLimitState(max_requests=0)
        for offset in (0, 1, 100000):
            decision = acquire_permit(state, T0 + timedelta(seconds=offset))
            assert not decision.granted
            assert decision.retry_at == (
                T0 + timedelta(seconds=offset) + state.window_length
            )
            state = decision.state

    def test_backwards_clock_rejected(self):
        state = acquire_permit(RateLimitState(), T0).state
        with pytest.raises(NonMonotonicClockError):
            acquire_permit(state, T0 - timedelta(seconds=1))

    def test_denial_does_not_consume_budget(self):
        state = RateLimitState(max_requests=1)
        state = acquire_permit(state, T0).state
        denied = acquire_permit(state, T0 + timedelta(seconds=1))
        assert not denied.granted
        # the slot freed by the first grant's expiry is still usable
        retry = acquire_permit(denied.state, denied.retry_at)
        assert retry.granted

    def test_denied_until_exactly_retry_at(self):
        state = RateLimitState(max_requests=3, window_length=timedelta(seconds=10))
        for i in range(3):
            state = acquire_permit(state, T0 + timedelta(seconds=i)).state
        denied = acquire_permit(state, T0 + timedelta(seconds=5))
        assert not denied.granted
        assert denied.retry_at == T0 + timedelta(seconds=10)
        just_before = denied.retry_at - timedelta(microseconds=1)
        assert not acquire_permit(denied.state, just_before).granted
        assert acquire_permit(denied.state, denied.retry_at).granted

    @given(
        st.integers(min_value=0, max_value=5),
        st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=60),
    )
    @settings(max_examples=200)
    def test_no_window_span_exceeds_budget(self, max_requests, gaps):
        window = timedelta(seconds=10)
        state = RateLimitState(window_length=window, max_requests=max_requests)
        now = T0
        grants: list[datetime] = []
        for gap in gaps:
            now = now + timedelta(seconds=gap)
            decision = acquire_permit(state, now)
            state = decision.state
            if decision.granted:
                grants.append(now)
            else:
                assert decision.retry_at is not None
                assert decision.retry_at > now
        for anchor in grants:
            in_span = sum(1 for t in grants if anchor <= t < anchor + window)
            assert in_span <= max_requests


class TestIngestFile:
    def write_jsonl(self, tmp_path, rows):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            "".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8"
        )
        return path

    def test_jsonl_rows_in_order(self, tmp_path):
        path = self.write_jsonl(
            tmp_path,
            [
                {"id": "a", "text": "ppkm satu", "created_at": "2021-07-03T10:00:00Z"},
                {"id": "b", "text": "ppkm dua"},
                {"id": "c", "text": "ppkm tiga"},
            ],
        )
        result = ingest_file(path, "jsonl")
        assert [r.id for r in result.records] == ["a", "b", "c"]
        assert result.errors == []
        assert result.records[0].created_at == T0
        assert result.records[1].created_at is None

    def test_created_at_offset_normalized_to_utc(self, tmp_path):
        path = self.write_jsonl(
            tmp_path,
            [{"id": "a", "text": "x", "created_at": "2021-07-03T17:00:00+07:00"}],
        )
        assert ingest_file(path).records[0].created_at == T0

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            '{"id": "a", "text": "x"}\n\n  \n{"id": "b", "text": "y"}\n',
            encoding="utf-8",
        )
        result = ingest_file(path)
        assert [r.id for r in result.records] == ["a", "b"]
        assert result.errors == []

    def test_malformed_rows_reported_not_dropped_silently(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            "\n".join(
                [
                    '{"id": "a", "text": "ok"}',
                    "{not json",
                    "[1, 2]",
                    '{"text": "no id"}',
                    '{"id": "", "text": "empty id"}',
                    '{"id": "b"}',
                    '{"id": "c", "text": "x", "created_at": "not-a-date"}',
                    '{"id": "d", "text": "ok too"}',
                ]
            )
            + "\n",
            encoding="utf-8",
        )
        result = ingest_file(path)
        assert [r.id for r in result.records] == ["a", "d"]
        assert [e.line for e in result.errors] == [2, 3, 4, 5, 6, 7]

    def test_duplicate_id_keeps_first_and_reports_both_lines(self, tmp_path):
        path = self.write_jsonl(
            tmp_path,
            [
                {"id": "a", "text": "first"},
                {"id": "a", "text": "second"},
            ],
        )
        result = ingest_file(path)
        assert len(result.records) == 1
        assert result.records[0].text == "first"
        (error,) = result.errors
        assert error.line == 2
        assert "line 1" in error.message

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_text(
            "id,text,created_at\n"
            "a,ppkm satu,2021-07-03T10:00:00Z\n"
            "b,ppkm dua,\n",
            encoding="utf-8",
        )
        result = ingest_file(path, "csv")
        assert [r.id for r in result.records] == ["a", "b"]
        assert result.records[0].created_at == T0
        assert result.errors == []

    def test_csv_short_row_reported_with_line_number(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_text("id,text\na,ok\nb\n", encoding="utf-8")
        result = ingest_file(path, "csv")
        assert [r.id for r in result.records] == ["a"]
        (error,) = result.errors
        assert error.line == 3
        assert "text" in error.message

    def test_csv_header_missing_required_column(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_text("id,body\na,x\n", encoding="utf-8")
        with pytest.raises(IngestError, match="text"):
            ingest_file(path, "csv")

    def test_empty_csv(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(IngestError, match="empty"):
            ingest_file(path, "csv")

    def test_unsupported_format(self, tmp_path):
        path = self.write_jsonl(tmp_path, [{"id": "a", "text": "x"}])
        with pytest.raises(IngestError, match="format"):
            ingest_file(path, "xml")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ingest_file(tmp_path / "nope.jsonl")

    def test_streams_fifty_thousand_rows(self, tmp_path):
        path = tmp_path / "big.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            for i in range(50_000):
                handle.write(json.dumps({"id": f"t{i}", "text": f"ppkm {i}"}) + "\n")
        result = ingest_file(path)
        assert len(result.records) == 50_000
        assert result.errors == []
        assert result.records[-1].id == "t49999"


class TestDedupe:
    def test_case_variants_collapse_under_normalized_text(self):
        records = [rec("a", "PPKM  Darurat"), rec("b", "ppkm darurat")]
        kept, removed = dedupe(records, key="normalized_text")
        assert [r.id for r in kept] == ["a"]
        assert [r.id for r in removed] == ["b"]

    def test_all_unique_keeps_everything(self):
        records = [rec("a", "satu"), rec("b", "dua")]
        kept, removed = dedupe(records)
        assert kept == records
        assert removed == []

    def test_key_mode_changes_outcome_for_shared_text(self):
        records = [rec("a", "sama persis"), rec("b", "sama persis")]
        kept_by_id, removed_by_id = dedupe(records, key="id")
        assert len(kept_by_id) == 2 and removed_by_id == []
        kept_by_text, removed_by_text = dedupe(records, key="normalized_text")
        assert [r.id for r in kept_by_text] == ["a"]
        assert [r.id for r in removed_by_text] == ["b"]

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="dedupe key"):
            dedupe([], key="fuzzy")

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=30),
                st.sampled_from(["ppkm jakarta", "PPKM  Jakarta", "lain", "Lain "]),
            ),
            max_size=20,
        ),
        st.sampled_from(["id", "normalized_text"]),
    )
    @settings(max_examples=200)
    def test_partition_and_idempotence(self, raw, key):
        records = [rec(str(i), text) for i, text in raw]
        kept, removed = dedupe(records, key=key)
        assert len(kept) + len(removed) == len(records)
        assert sorted(id(r) for r in kept + removed) == sorted(id(r) for r in records)
        kept_again, removed_again = dedupe(kept, key=key)
        assert kept_again == kept
        assert removed_again == []


class TestFilterRelevant:
    def test_case_insensitive_keyword_match(self):
        kept = filter_relevant([rec("a", "ppkm diperpanjang")], ["PPKM"])
        assert [(r.id, matched) for r, matched in kept] == [("a", ("ppkm",))]

    @pytest.mark.parametrize("mode", ["any", "all"])
    def test_a_repeated_keyword_matches_once(self, mode):
        records = [rec("a", "PPKM diperpanjang"), rec("b", "cuaca cerah")]
        kept = filter_relevant(records, ["ppkm", "PPKM"], mode=mode)
        assert [(r.id, matched) for r, matched in kept] == [("a", ("ppkm",))]

    def test_no_keyword_dropped(self):
        assert filter_relevant([rec("a", "cuaca cerah")], ["PPKM"]) == []

    def test_verdicts_override_keyword_decision(self):
        records = [rec("a", "ppkm disebut tapi bukan topik"), rec("b", "tanpa kata kunci")]
        kept = filter_relevant(
            records, ["ppkm"], verdicts={"a": "drop", "b": "keep"}
        )
        assert [r.id for r, _ in kept] == ["b"]

    def test_match_keywords_finds_lowercase_subset(self):
        assert match_keywords("PPKM di Jakarta", ["ppkm", "jakarta", "bali"]) == (
            "ppkm",
            "jakarta",
        )
        assert match_keywords("PPKM di Jakarta", ["Jakarta", "ppkm", "JAKARTA"]) == (
            "jakarta",
            "ppkm",
        )

    def test_all_mode_requires_every_keyword(self):
        records = [rec("a", "ppkm di jakarta"), rec("b", "ppkm saja")]
        keywords = ["ppkm", "jakarta"]
        assert [r.id for r, _ in filter_relevant(records, keywords, mode="all")] == ["a"]
        assert [r.id for r, _ in filter_relevant(records, keywords, mode="any")] == ["a", "b"]

    def test_unknown_verdict_id_rejected(self):
        with pytest.raises(UnknownIdError):
            filter_relevant([rec("a", "ppkm")], ["ppkm"], verdicts={"ghost": "drop"})

    def test_bad_verdict_value_rejected(self):
        with pytest.raises(ValueError, match="keep or drop"):
            filter_relevant([rec("a", "ppkm")], ["ppkm"], verdicts={"a": "maybe"})

    def test_empty_keywords_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            filter_relevant([rec("a", "x")], [])

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            filter_relevant([rec("a", "x")], ["x"], mode="most")

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=50),
                st.sampled_from(["ppkm ketat", "jakarta ramai", "bali sepi"]),
            ),
            max_size=15,
        )
    )
    @settings(max_examples=100)
    def test_without_verdicts_is_a_pure_keyword_predicate(self, raw):
        records = [rec(str(i), text) for i, text in raw]
        unique = {r.id: r for r in records}
        records = list(unique.values())
        kept = filter_relevant(records, ["ppkm"])
        assert [r.id for r, _ in kept] == [
            r.id for r in records if "ppkm" in r.text.lower()
        ]


def reference_unstratified_split(documents, spec):
    """The unstratified split as first written: one permutation of every
    document, cut at floor(fraction * N) with the remainder in train."""
    order = np.random.default_rng(np.random.PCG64(spec.seed)).permutation(
        len(documents)
    )
    n = len(documents)
    n_val = math.floor(spec.validation_fraction * n)
    n_test = math.floor(spec.test_fraction * n)
    n_train = n - n_val - n_test
    cuts = (0, n_train, n_train + n_val, n)
    return tuple(
        [documents[i] for i in order[start:stop]]
        for start, stop in zip(cuts, cuts[1:])
    )


def reference_document_split(documents, spec):
    """The Document split as it was written before it worked on label
    codes: documents grouped by label (or all in one group), groups in
    label order, each group permuted by one draw and cut at
    floor(fraction * n) with the remainder in train."""
    rng = np.random.default_rng(np.random.PCG64(spec.seed))
    groups: dict = {}
    for idx, doc in enumerate(documents):
        groups.setdefault(doc.label if spec.stratified else None, []).append(idx)
    parts = ([], [], [])
    for key in sorted(groups, key=lambda lbl: (lbl is None, lbl)):
        indices = groups[key]
        shuffled = [indices[i] for i in rng.permutation(len(indices))]
        n = len(indices)
        n_val = math.floor(spec.validation_fraction * n)
        n_test = math.floor(spec.test_fraction * n)
        n_train = n - n_val - n_test
        cuts = (0, n_train, n_train + n_val, n)
        for part, start, stop in zip(parts, cuts, cuts[1:]):
            part.extend(documents[i] for i in shuffled[start:stop])
    return parts


def labeled_docs(labels):
    return [make_doc([f"w{i}"], label, str(i)) for i, label in enumerate(labels)]


def split_ids(docs, spec):
    return [[doc.id for doc in part] for part in split_documents(docs, spec)]


SPLIT_CASES = st.tuples(
    st.lists(st.sampled_from(list(SentimentLabel)), min_size=1, max_size=80),
    st.sampled_from(
        [
            ("6/10", "2/10", "2/10"),
            PAPER_SPLIT_FRACTIONS,
            ("1", "0", "0"),
            ("0", "1/2", "1/2"),
        ]
    ),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.booleans(),
)


class TestSplit:
    def test_corpus_scale_bucket_sizes(self):
        spec = SplitSpec(*PAPER_SPLIT_FRACTIONS, seed=0)
        train, val, test = split(np.zeros(5315, dtype=np.intp), spec)
        assert (len(train), len(val), len(test)) == (4877, 293, 145)

    def test_fraction_strings_stay_exact(self):
        spec = SplitSpec("4877/5315", "293/5315", "145/5315")
        assert spec.train_fraction == Fraction(4877, 5315)

    def test_same_inputs_same_partition(self):
        docs = labeled_docs([SentimentLabel.NEUTRAL] * 10)
        spec = SplitSpec("0.8", "0.1", "0.1", seed=7)
        first = split_ids(docs, spec)
        assert first == split_ids(docs, spec)
        assert tuple(len(p) for p in first) == (8, 1, 1)

    def test_seed_changes_partition(self):
        docs = labeled_docs([SentimentLabel.NEUTRAL] * 40)
        base = SplitSpec("0.8", "0.1", "0.1", seed=0)
        other = SplitSpec("0.8", "0.1", "0.1", seed=1)
        assert split_ids(docs, base)[0] != split_ids(docs, other)[0]

    def test_stratified_counts_per_class(self):
        pos, neg = SentimentLabel.POSITIVE, SentimentLabel.NEGATIVE
        codes = np.repeat([pos, neg], [90, 10])
        spec = SplitSpec("0.8", "0.1", "0.1", seed=0, stratified=True)
        train, val, test = split(codes, spec)
        train_a = int(np.sum(codes[train] == pos))
        train_b = int(np.sum(codes[train] == neg))
        assert (train_a, train_b) == (72, 8)
        assert len(val) == 10 and len(test) == 10

    @given(SPLIT_CASES)
    @settings(max_examples=150)
    @example((list(SentimentLabel) * 7, ("6/10", "2/10", "2/10"), 0, True))
    @example((list(SentimentLabel) * 7, ("6/10", "2/10", "2/10"), 1, False))
    def test_label_codes_split_into_the_documents_split(self, case):
        labels, fractions, seed, stratified = case
        docs = labeled_docs(labels)
        spec = SplitSpec(*fractions, seed=seed, stratified=stratified)
        codes = np.array(labels, dtype=np.intp)
        rows = split(codes, spec)
        assert all(part.dtype == np.intp for part in rows)
        want = reference_document_split(docs, spec)
        assert [[docs[i] for i in part.tolist()] for part in rows] == list(want)

    def test_fraction_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            SplitSpec("0.5", "0.2", "0.2")
        with pytest.raises(ValueError, match="lie in"):
            SplitSpec("1.5", "-0.25", "-0.25")

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            split(np.zeros(0, dtype=np.intp), SplitSpec("0.8", "0.1", "0.1"))

    @given(
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=0, max_value=10),
        st.booleans(),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=150)
    def test_partition_is_exhaustive_and_disjoint(self, n, tenths, stratified, seed):
        train_tenths = tenths
        rest = 10 - train_tenths
        val_tenths = rest // 2
        test_tenths = rest - val_tenths
        spec = SplitSpec(
            Fraction(train_tenths, 10),
            Fraction(val_tenths, 10),
            Fraction(test_tenths, 10),
            seed=seed,
            stratified=stratified,
        )
        docs = labeled_docs([SentimentLabel(i % 3) for i in range(n)])
        train, val, test = split_ids(docs, spec)
        assert len(train) + len(val) + len(test) == n
        assert sorted(train + val + test) == sorted(d.id for d in docs)
        if not stratified:
            assert len(val) == (val_tenths * n) // 10
            assert len(test) == (test_tenths * n) // 10
            want = reference_unstratified_split(docs, spec)
            assert [train, val, test] == [[d.id for d in part] for part in want]
