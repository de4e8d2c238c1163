"""Tests for lexicon bootstrap scoring and labeling."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_doc
from ppkmsent.data import default_lexicon, default_stopwords, seed_lexicon
from ppkmsent.errors import LexiconOverlapError, UnknownIdError
from ppkmsent.lexicon import (
    WORKSHEET_HEADER,
    LexiconDict,
    label_corpus,
    load_lexicon,
    score_document,
    worksheet_csv_rows,
)
from ppkmsent.preprocess import SentimentLabel


def lex(positive=(), negative=()):
    return LexiconDict(positive=frozenset(positive), negative=frozenset(negative))


words_st = st.text(alphabet="abcd", min_size=1, max_size=3)


@st.composite
def lexicon_and_tokens(draw):
    phrases = draw(
        st.lists(
            st.lists(words_st, min_size=1, max_size=2).map(" ".join),
            max_size=6,
            unique=True,
        )
    )
    cut = draw(st.integers(min_value=0, max_value=len(phrases)))
    lexicon = lex(positive=phrases[:cut], negative=phrases[cut:])
    tokens = draw(st.lists(words_st, max_size=8))
    return lexicon, tokens


class TestScoreDocument:
    def test_single_positive_word(self):
        verdict = score_document(["dermawan"], default_lexicon())
        assert verdict.score == 1
        assert verdict.label is SentimentLabel.POSITIVE
        assert verdict.matched_positive == ("dermawan",)
        assert verdict.matched_negative == ()

    def test_two_negative_words(self):
        verdict = score_document(["basi", "bau"], default_lexicon())
        assert verdict.score == -2
        assert verdict.label is SentimentLabel.NEGATIVE
        assert verdict.matched_negative == ("basi", "bau")

    def test_empty_and_no_match_are_neutral(self):
        for tokens in ([], ["meja", "kursi"]):
            verdict = score_document(tokens, default_lexicon())
            assert verdict.score == 0
            assert verdict.label is SentimentLabel.NEUTRAL

    def test_multi_word_phrase_matches(self):
        lexicon = default_lexicon()
        assert "dapat dipercaya" in lexicon.positive
        verdict = score_document(["dapat", "dipercaya"], lexicon)
        assert verdict.score == 1
        assert verdict.matched_positive == ("dapat dipercaya",)

    def test_longest_phrase_wins_over_shorter_entry(self):
        lexicon = lex(positive=["dapat dipercaya"], negative=["dapat"])
        verdict = score_document(["dapat", "dipercaya"], lexicon)
        assert verdict.score == 1
        assert verdict.matched_positive == ("dapat dipercaya",)
        assert verdict.matched_negative == ()

    def test_consumed_token_not_recounted(self):
        lexicon = lex(positive=["a b"], negative=["b"])
        verdict = score_document(["a", "b"], lexicon)
        assert verdict.score == 1
        assert verdict.matched_negative == ()
        # the same token outside the phrase still counts
        assert score_document(["b", "a", "b"], lexicon).score == 0

    def test_repeats_accumulate(self):
        verdict = score_document(["dermawan", "dermawan", "bau"], default_lexicon())
        assert verdict.score == 1
        assert verdict.matched_positive == ("dermawan", "dermawan")

    def test_score_is_match_count_difference(self):
        verdict = score_document(
            ["dermawan", "basi", "bau", "meja"], default_lexicon()
        )
        assert verdict.score == (
            len(verdict.matched_positive) - len(verdict.matched_negative)
        )
        assert verdict.score == -1

    @given(lexicon_and_tokens())
    @settings(max_examples=200)
    def test_antisymmetry_under_polarity_swap(self, case):
        lexicon, tokens = case
        swapped = lex(positive=lexicon.negative, negative=lexicon.positive)
        verdict = score_document(tokens, lexicon)
        mirror = score_document(tokens, swapped)
        assert mirror.score == -verdict.score
        flip = {
            SentimentLabel.POSITIVE: SentimentLabel.NEGATIVE,
            SentimentLabel.NEGATIVE: SentimentLabel.POSITIVE,
            SentimentLabel.NEUTRAL: SentimentLabel.NEUTRAL,
        }
        assert mirror.label is flip[verdict.label]
        assert mirror.matched_positive == verdict.matched_negative
        assert mirror.matched_negative == verdict.matched_positive

    @given(lexicon_and_tokens())
    @settings(max_examples=200)
    def test_score_bounded_by_token_count(self, case):
        lexicon, tokens = case
        verdict = score_document(tokens, lexicon)
        assert abs(verdict.score) <= len(tokens)
        assert (
            len(verdict.matched_positive) + len(verdict.matched_negative)
            <= len(tokens)
        )

    @given(st.lists(st.sampled_from(["bagus", "hebat", "buruk", "meja"]), max_size=8))
    @settings(max_examples=200)
    def test_appending_an_isolated_positive_word_is_monotone(self, tokens):
        lexicon = default_lexicon()
        # precondition for monotonicity: the appended word appears in no
        # other phrase, so it cannot complete a negative match
        assert all(
            "dermawan" not in phrase.split()
            for phrase in (lexicon.positive | lexicon.negative) - {"dermawan"}
        )
        before = score_document(tokens, lexicon).score
        after = score_document(tokens + ["dermawan"], lexicon).score
        assert after == before + 1

    def test_exhaustive_small_universe_matches_count_oracle(self):
        positive = {"bagus", "hebat"}
        negative = {"buruk"}
        universe = ["bagus", "hebat", "buruk", "meja"]
        lexicon = lex(positive=positive, negative=negative)
        checked = 0
        for length in range(4):
            for tokens in itertools.product(universe, repeat=length):
                want = sum(1 for t in tokens if t in positive) - sum(
                    1 for t in tokens if t in negative
                )
                verdict = score_document(list(tokens), lexicon)
                assert verdict.score == want
                checked += 1
        assert checked == 1 + 4 + 16 + 64


class TestLabelCorpus:
    def docs(self):
        return [
            make_doc(["dermawan"], doc_id="p"),
            make_doc(["basi", "bau"], doc_id="n"),
            make_doc(["meja"], doc_id="z"),
        ]

    def test_sign_rule_without_overrides(self):
        worksheet = label_corpus(self.docs(), default_lexicon())
        assert [row.final_label for row in worksheet] == [
            SentimentLabel.POSITIVE,
            SentimentLabel.NEGATIVE,
            SentimentLabel.NEUTRAL,
        ]
        assert [row.proposed_label for row in worksheet] == [
            row.final_label for row in worksheet
        ]
        assert [row.score for row in worksheet] == [1, -2, 0]

    def test_override_replaces_proposed_label(self):
        worksheet = label_corpus(
            self.docs(),
            default_lexicon(),
            overrides={"z": SentimentLabel.NEGATIVE},
        )
        row = next(r for r in worksheet if r.id == "z")
        assert row.proposed_label is SentimentLabel.NEUTRAL
        assert row.final_label is SentimentLabel.NEGATIVE

    def test_unknown_override_id_rejected(self):
        with pytest.raises(UnknownIdError):
            label_corpus(self.docs(), default_lexicon(), overrides={"ghost": SentimentLabel.NEUTRAL})

    def test_class_counts_match_brute_recount(self):
        lexicon = default_lexicon()
        vocab = ["dermawan", "bersyukur", "basi", "bau", "meja", "kursi"]
        docs = [
            make_doc([vocab[(i * 7 + j) % len(vocab)] for j in range(i % 5)], doc_id=str(i))
            for i in range(60)
        ]
        worksheet = label_corpus(docs, lexicon)
        counts = {label: 0 for label in SentimentLabel}
        for doc in docs:
            score = sum(1 for t in doc.tokens if t in lexicon.positive) - sum(
                1 for t in doc.tokens if t in lexicon.negative
            )
            if score > 0:
                counts[SentimentLabel.POSITIVE] += 1
            elif score < 0:
                counts[SentimentLabel.NEGATIVE] += 1
            else:
                counts[SentimentLabel.NEUTRAL] += 1
        for label in SentimentLabel:
            assert sum(1 for row in worksheet if row.final_label is label) == counts[label]
        assert len(worksheet) == len(docs)

    def test_worksheet_csv_rows_are_strings(self):
        worksheet = label_corpus(self.docs(), default_lexicon())
        rows = worksheet_csv_rows(worksheet)
        assert WORKSHEET_HEADER == ("id", "clean_text", "score", "proposed_label", "final_label")
        assert rows[0] == ("p", "dermawan", "1", "positive", "positive")
        assert rows[1][3] == "negative"


class TestLoadLexicon:
    def test_bundled_seed_lists_have_twelve_entries_each(self):
        seed = seed_lexicon()
        assert len(seed.positive) == 12
        assert len(seed.negative) == 12
        assert "dermawan" in seed.positive
        assert {"basi", "bau"} <= seed.negative

    def test_bundled_lexicon_extends_the_seed(self):
        full = default_lexicon()
        seed = seed_lexicon()
        assert seed.positive <= full.positive
        assert seed.negative <= full.negative
        assert not full.positive & full.negative

    def test_lexicon_words_survive_stopword_removal(self):
        # scoring runs on stopword-filtered tokens, so no lexicon phrase may
        # contain a stopword
        stopwords = default_stopwords()
        full = default_lexicon()
        for phrase in full.positive | full.negative:
            assert not set(phrase.split()) & stopwords.words

    def test_load_normalizes_case_and_spacing(self, tmp_path):
        pos = tmp_path / "pos.txt"
        neg = tmp_path / "neg.txt"
        pos.write_text("# comment\nDermawan\ndapat   DIPERCAYA\n\n", encoding="utf-8")
        neg.write_text("basi\nbasi\n", encoding="utf-8")
        lexicon = load_lexicon(pos, neg)
        assert lexicon.positive == frozenset({"dermawan", "dapat dipercaya"})
        assert lexicon.negative == frozenset({"basi"})

    def test_empty_files_label_everything_neutral(self, tmp_path):
        pos = tmp_path / "pos.txt"
        neg = tmp_path / "neg.txt"
        pos.write_text("", encoding="utf-8")
        neg.write_text("", encoding="utf-8")
        lexicon = load_lexicon(pos, neg)
        verdict = score_document(["dermawan", "basi"], lexicon)
        assert verdict.label is SentimentLabel.NEUTRAL

    def test_overlap_is_an_error_naming_the_phrase(self, tmp_path):
        pos = tmp_path / "pos.txt"
        neg = tmp_path / "neg.txt"
        pos.write_text("bersyukur\n", encoding="utf-8")
        neg.write_text("bersyukur\nbasi\n", encoding="utf-8")
        with pytest.raises(LexiconOverlapError, match="bersyukur"):
            load_lexicon(pos, neg)

    def test_overlap_rejected_at_construction(self):
        with pytest.raises(LexiconOverlapError):
            lex(positive=["sama"], negative=["sama"])

    def test_missing_file(self, tmp_path):
        present = tmp_path / "pos.txt"
        present.write_text("a\n", encoding="utf-8")
        with pytest.raises(OSError):
            load_lexicon(present, tmp_path / "absent.txt")


class TestPhraseIndex:
    def test_an_equal_dictionary_is_never_compared(self, monkeypatch):
        # every stage builds its own LexiconDict; finding the phrase index
        # must not compare it with an equal one built earlier
        phrases = dict(positive={"bagus", "sangat baik"}, negative={"rugi"})
        score_document(("bagus",), lex(**phrases))
        compared = []
        equal = LexiconDict.__eq__

        def counting_eq(self, other):
            compared.append(other)
            return equal(self, other)

        monkeypatch.setattr(LexiconDict, "__eq__", counting_eq)
        fresh = lex(**phrases)
        docs = [("ppkm", "sangat", "baik"), ("rugi", "bagus"), ()] * 334
        verdicts = [score_document(tokens, fresh) for tokens in docs[:1000]]
        assert compared == []
        assert [v.score for v in verdicts[:3]] == [1, 0, 0]
