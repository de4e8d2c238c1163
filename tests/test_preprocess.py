"""Tests for regex cleansing, tokenization and stopword removal."""

from __future__ import annotations

import dataclasses
import re
import sys
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_doc
from ppkmsent.data import default_stopwords
from ppkmsent.fixtures import synthetic_tweets
from ppkmsent.preprocess import (
    Document,
    SentimentLabel,
    StopwordDict,
    cleanse,
    label_name,
    labeled_ids,
    load_stopwords,
    make_document,
    parse_label,
    rank_tokens,
    remove_stopwords,
    token_ids,
    tokenize,
)


def reference_cleanse(raw_text: str) -> str:
    """The plain regex pipeline that ``cleanse`` must equal character for
    character; its URL pattern backtracks quadratically in a chunk's length."""
    text = raw_text.lower()
    text = re.sub(r"\S*http\S*|\S*\bt\.co/\S+", " ", text)
    text = re.sub(r"@\w+", " ", text)
    text = text.replace("#", " ")
    text = re.sub(r"[^a-z0-9\s-]", " ", text)
    text = re.sub(r"-{2,}", " ", text)
    text = re.sub(r"(?<![a-z0-9])-|-(?![a-z0-9])", " ", text)
    text = re.sub(r"(?<![a-z0-9-])[0-9]+(?![a-z0-9-])", " ", text)
    return re.sub(r"\s+", " ", text).strip()


# pieces that exercise every pass and the edges between them: URL markers in
# both cases, word characters before "t.co/", whitespace that is not ASCII,
# and a capital whose lowercase is two code points
ADVERSARIAL_PIECES = [
    "http", "HTTP", "t.co/", "@", "#", "-", "0", "7", "_", "a",
    "\t", "\n", "\x1e", "\xa0", " ", "\u0130", "\U0001f622",
]

LONG_ROW = 20_000


class TestSentimentLabel:
    def test_exactly_three_values_with_fixed_codes(self):
        assert [label.value for label in SentimentLabel] == [0, 1, 2]
        assert SentimentLabel.NEGATIVE == 0
        assert SentimentLabel.NEUTRAL == 1
        assert SentimentLabel.POSITIVE == 2

    def test_name_round_trip(self):
        for label in SentimentLabel:
            assert parse_label(label_name(label)) is label

    def test_parse_label_rejects_unknown_name(self):
        with pytest.raises(ValueError):
            parse_label("angry")

    def test_label_name_takes_the_integer_codes(self):
        assert [label_name(code) for code in (0, 1, 2)] == ["negative", "neutral", "positive"]

    @pytest.mark.parametrize("value", [3, -1, "neutral", None, 1.5, [1]])
    def test_label_name_rejects_a_value_that_is_not_a_label(self, value):
        with pytest.raises(ValueError, match="not a valid SentimentLabel"):
            label_name(value)


class TestCleanse:
    def test_case_fold_and_punctuation(self):
        assert cleanse("Jualan saya RUGI selama PPKM!!") == (
            "jualan saya rugi selama ppkm"
        )

    def test_empty_input(self):
        assert cleanse("") == ""

    def test_url_mention_hashtag(self):
        assert cleanse("cek https://t.co/abc @menkes #PPKM") == "cek ppkm"

    def test_hashtag_word_survives(self):
        assert cleanse("#PPKMDarurat diperpanjang") == "ppkmdarurat diperpanjang"

    def test_plain_and_shortlink_urls_removed(self):
        assert cleanse("baca http://example.com/a?b=1 sekarang") == "baca sekarang"
        assert cleanse("info t.co/xyz123 penting") == "info penting"

    def test_mention_removed_entirely(self):
        assert cleanse("halo @jokowi @menkes_ri apa kabar") == "halo apa kabar"

    def test_intra_word_hyphen_kept_lone_hyphen_dropped(self):
        assert cleanse("warga se-Jawa - Bali") == "warga se-jawa bali"
        assert cleanse("a -- b") == "a b"

    def test_standalone_digits_dropped_embedded_digits_kept(self):
        assert cleanse("covid19 naik 300 persen") == "covid19 naik persen"
        assert cleanse("level 4") == "level"

    def test_emoji_and_symbols_removed(self):
        assert cleanse("ppkm lagi \U0001f622 %*&") == "ppkm lagi"

    def test_hash_strip_cannot_assemble_a_url_fragment(self):
        # '#' removal must not splice neighbours into an "http" run that a
        # second pass would delete
        out = cleanse("h#ttp")
        assert "http" not in out
        assert cleanse(out) == out

    def test_whitespace_collapsed_and_trimmed(self):
        assert cleanse("  ppkm \t\n  jawa  ") == "ppkm jawa"

    @given(st.text(max_size=60))
    @settings(max_examples=300)
    def test_idempotent(self, text):
        once = cleanse(text)
        assert cleanse(once) == once

    @given(
        st.text(
            alphabet=list("h#tp t.co/@x-19!AZé\U0001f622"),
            max_size=20,
        )
    )
    @settings(max_examples=300)
    def test_idempotent_on_adversarial_alphabet(self, text):
        once = cleanse(text)
        assert cleanse(once) == once

    @given(st.text(max_size=60))
    @settings(max_examples=300)
    def test_tokens_never_contain_markup(self, text):
        for token in tokenize(cleanse(text)):
            assert "#" not in token
            assert "@" not in token
            assert "http" not in token


class TestCleanseEquivalence:
    """``cleanse`` equals the plain regex pipeline on every input."""

    @given(st.text(max_size=80))
    @settings(max_examples=500)
    def test_any_unicode_text(self, text):
        assert cleanse(text) == reference_cleanse(text)

    @given(st.lists(st.sampled_from(ADVERSARIAL_PIECES), max_size=24).map("".join))
    @settings(max_examples=500)
    @example("0t.co/x")  # no word boundary before "t.co/"
    @example("_t.co/x http")
    @example("\u0130t.co/7")  # the lowered capital ends in a non-word dot
    @example("a t.co/ b")  # nothing after "t.co/"
    @example("t.co/")
    @example("a -b c- d")  # lone hyphens without a double hyphen
    @example("http\xa0a\x1ehttp#b")
    def test_adversarial_alphabet(self, text):
        assert cleanse(text) == reference_cleanse(text)

    def test_every_fixture_row(self):
        for row in synthetic_tweets(3000, seed=1):
            assert cleanse(row["text"]) == reference_cleanse(row["text"]), row["id"]

    def test_regex_whitespace_is_str_isspace(self):
        # cleanse collapses whitespace with str.split; the reference with \s+
        space = re.compile(r"\s")
        for code in range(sys.maxunicode + 1):
            ch = chr(code)
            assert (space.fullmatch(ch) is not None) == ch.isspace(), hex(code)


class TestCleanseLongRows:
    """One long chunk costs time linear in its length."""

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("a" * LONG_ROW, "a" * LONG_ROW),
            ("1" * LONG_ROW + "a", "1" * LONG_ROW + "a"),
            ("-" * LONG_ROW, ""),
            ("@" * LONG_ROW, ""),
            ("x" * LONG_ROW + " http://a.b", "x" * LONG_ROW),
        ],
        ids=["letters", "digits-then-letter", "hyphens", "at-signs", "chunk-then-url"],
    )
    def test_returns_within_a_second(self, text, expected):
        start = time.perf_counter()
        out = cleanse(text)
        assert time.perf_counter() - start < 1.0
        assert out == expected


class TestRankTokens:
    def test_count_descending_ties_lexicographic(self):
        counts = Counter({"b": 2, "a": 2, "c": 3, "d": 1})
        assert rank_tokens(counts) == ["c", "a", "b", "d"]
        assert rank_tokens(counts, min_count=2) == ["c", "a", "b"]

    @given(
        st.dictionaries(st.sampled_from("abcdefgh"), st.integers(0, 3)),
        st.integers(1, 3),
        st.integers(0, 10),
    )
    @settings(max_examples=200)
    def test_top_k_is_a_prefix_of_the_full_order(self, counts, min_count, top_k):
        counts = Counter(counts)
        full = rank_tokens(counts, min_count)
        assert rank_tokens(counts, min_count, top_k) == full[:top_k]

    @given(
        st.dictionaries(st.text("abc", max_size=3), st.integers(1, 2)),
        st.integers(1, 2),
    )
    @settings(max_examples=200)
    def test_full_sort_and_heap_agree_on_tied_counts(self, counts, min_count):
        counts = Counter(counts)
        kept = [key for key, count in counts.items() if count >= min_count]
        expected = sorted(kept, key=lambda key: (-counts[key], key))
        assert rank_tokens(counts, min_count) == expected
        assert rank_tokens(counts, min_count, top_k=len(counts)) == expected

    def test_negative_top_k_rejected(self):
        with pytest.raises(ValueError, match="top_k must be >= 0"):
            rank_tokens(Counter({"a": 1}), top_k=-1)


def make_docs(token_lists):
    return [make_doc(tokens, doc_id=str(i)) for i, tokens in enumerate(token_lists)]


class TestTokenIds:
    @given(st.lists(st.lists(st.sampled_from(["a", "b", "c", "dd", "é"]), max_size=6)))
    @settings(max_examples=200)
    @example([])
    @example([[], ["a", "a"], []])
    def test_ids_spell_the_tokens_in_first_occurrence_order(self, token_lists):
        lengths, ids, tokens = token_ids(make_docs(token_lists))
        flat = [token for tokens_ in token_lists for token in tokens_]
        assert lengths.dtype == ids.dtype == np.intp
        assert lengths.tolist() == [len(tokens_) for tokens_ in token_lists]
        assert tokens == list(dict.fromkeys(flat))
        assert [tokens[i] for i in ids.tolist()] == flat

    def test_hand_example(self):
        lengths, ids, tokens = token_ids(make_docs([["b", "a", "b"], [], ["c", "a"]]))
        assert lengths.tolist() == [3, 0, 2]
        assert ids.tolist() == [0, 1, 0, 2, 1]
        assert tokens == ["b", "a", "c"]


class TestLabeledIds:
    def test_token_ids_and_label_codes(self):
        docs = [
            make_doc(["b", "a"], SentimentLabel.POSITIVE, "x"),
            make_doc([], SentimentLabel.NEGATIVE, "y"),
        ]
        (lengths, ids, tokens), labels = labeled_ids(docs)
        assert (lengths.tolist(), ids.tolist(), tokens) == ([2, 0], [0, 1], ["b", "a"])
        assert labels.dtype == np.intp
        assert labels.tolist() == [2, 0]

    def test_unlabeled_document_rejected(self):
        docs = [make_doc(["a"], SentimentLabel.NEUTRAL), make_doc(["b"], doc_id="u")]
        with pytest.raises(ValueError, match="document 'u' has no label"):
            labeled_ids(docs)


class TestTokenize:
    def test_splits_on_whitespace(self):
        assert tokenize("ppkm diperpanjang lagi") == ["ppkm", "diperpanjang", "lagi"]

    def test_empty(self):
        assert tokenize("") == []

    def test_cleansed_sentence_has_five_tokens(self):
        assert len(tokenize("jualan saya rugi selama ppkm")) == 5

    @given(st.text(max_size=60))
    @settings(max_examples=200)
    def test_never_yields_empty_tokens(self, text):
        assert all(token and not token.isspace() for token in tokenize(cleanse(text)))


class TestRemoveStopwords:
    def test_drops_dictionary_members(self):
        stopwords = default_stopwords()
        assert "yang" in stopwords.words
        assert remove_stopwords(["ppkm", "yang", "berat"], stopwords) == [
            "ppkm",
            "berat",
        ]

    def test_empty_dictionary_is_identity(self):
        tokens = ["ppkm", "yang", "berat"]
        assert remove_stopwords(tokens, StopwordDict()) == tokens

    def test_all_tokens_removed(self):
        stopwords = StopwordDict(words=frozenset({"a", "b"}), source_name="tiny")
        assert remove_stopwords(["a", "b", "a"], stopwords) == []

    @given(
        st.lists(st.text(alphabet="abcde", min_size=1, max_size=4), max_size=15),
        st.frozensets(st.text(alphabet="abcde", min_size=1, max_size=4), max_size=8),
    )
    @settings(max_examples=200)
    def test_output_is_a_subsequence_of_input(self, tokens, words):
        out = remove_stopwords(tokens, StopwordDict(words=words, source_name="x"))
        it = iter(tokens)
        assert all(any(token == candidate for candidate in it) for token in out)
        assert all(token not in words for token in out)


class TestLoadStopwords:
    def test_comments_blanks_and_case(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text("# comment\n\nYang\ndan\n  di  \n", encoding="utf-8")
        loaded = load_stopwords(path)
        assert loaded.words == frozenset({"yang", "dan", "di"})
        assert loaded.source_name == "words"

    def test_source_name_override(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text("dan\n", encoding="utf-8")
        assert load_stopwords(path, source_name="ranked").source_name == "ranked"

    def test_entry_with_inner_whitespace_rejected(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text("dan\nbukan itu\n", encoding="utf-8")
        with pytest.raises(ValueError, match="single words"):
            load_stopwords(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_stopwords(tmp_path / "absent.txt")

    def test_bundled_snapshot_is_well_formed(self):
        stopwords = default_stopwords()
        assert stopwords.words
        for word in stopwords.words:
            assert word == word.lower()
            assert not any(ch.isspace() for ch in word)


class TestMakeDocument:
    def test_full_pipeline(self):
        stopwords = default_stopwords()
        doc = make_document(
            "t1",
            "Jualan saya RUGI selama PPKM!! https://t.co/x",
            stopwords=stopwords,
            label=SentimentLabel.NEGATIVE,
        )
        assert doc.id == "t1"
        assert doc.raw_text.startswith("Jualan")
        assert doc.clean_text == "jualan saya rugi selama ppkm"
        assert "saya" in stopwords.words and "selama" in stopwords.words
        assert doc.tokens == ("jualan", "rugi", "ppkm")
        assert doc.label is SentimentLabel.NEGATIVE

    def test_without_stopwords_keeps_all_tokens(self):
        doc = make_document("t2", "PPKM yang berat")
        assert doc.tokens == ("ppkm", "yang", "berat")
        assert doc.label is None

    def test_deterministic(self):
        stopwords = default_stopwords()
        a = make_document("x", "PPKM darurat di Jawa!!", stopwords=stopwords)
        b = make_document("x", "PPKM darurat di Jawa!!", stopwords=stopwords)
        assert a == b

    @given(st.text(max_size=60))
    @settings(max_examples=200)
    def test_document_invariants(self, text):
        doc = make_document("d", text, stopwords=default_stopwords())
        assert cleanse(doc.clean_text) == doc.clean_text
        for token in doc.tokens:
            assert token
            assert not any(ch.isspace() for ch in token)


class TestDocument:
    def test_slotted_document_keeps_value_semantics(self):
        a = Document("d", "Raw", "raw", ("raw",), SentimentLabel.POSITIVE)
        b = Document("d", "Raw", "raw", ("raw",), SentimentLabel.POSITIVE)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        relabeled = dataclasses.replace(a, label=SentimentLabel.NEGATIVE)
        assert relabeled != a
        assert relabeled.tokens is a.tokens
        assert relabeled.label is SentimentLabel.NEGATIVE
        assert a.label is SentimentLabel.POSITIVE
        assert not hasattr(a, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.label = None
