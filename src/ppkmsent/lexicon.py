"""Lexicon bootstrap labeling.

Documents are scored by counting dictionary phrases: +1 per positive match,
-1 per negative match, accumulated over the token sequence.  A score above
zero labels the document Positive, below zero Negative, exactly zero
Neutral.  Multi-word phrases are matched greedily, longest first, and a
token consumed by a phrase is not re-counted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from ppkmsent.errors import LexiconOverlapError, UnknownIdError
from ppkmsent.preprocess import Document, SentimentLabel, label_name


@dataclass(frozen=True)
class LexiconDict:
    """Disjoint positive and negative phrase sets (lowercase, space-joined)."""

    positive: frozenset[str]
    negative: frozenset[str]

    def __post_init__(self):
        overlap = self.positive & self.negative
        if overlap:
            raise LexiconOverlapError(overlap)

    @cached_property
    def phrase_index(self) -> dict[str, list[tuple[tuple[str, ...], int]]]:
        """Map first token -> [(phrase tokens, polarity)], longest phrases
        first.  Kept on the instance, so a lookup never compares two
        dictionaries' phrase sets."""
        index: dict[str, list[tuple[tuple[str, ...], int]]] = {}
        for phrases, polarity in ((self.positive, +1), (self.negative, -1)):
            for phrase in phrases:
                words = tuple(phrase.split())
                index.setdefault(words[0], []).append((words, polarity))
        for candidates in index.values():
            candidates.sort(key=lambda item: (-len(item[0]), item[0]))
        return index


@dataclass(frozen=True)
class LexiconVerdict:
    score: int
    label: SentimentLabel
    matched_positive: tuple[str, ...]
    matched_negative: tuple[str, ...]


@dataclass(frozen=True)
class WorksheetRow:
    """One line of the manual-review worksheet emitted by label_corpus."""

    id: str
    clean_text: str
    score: int
    proposed_label: SentimentLabel
    final_label: SentimentLabel


def load_lexicon(positive_path: str | Path, negative_path: str | Path) -> LexiconDict:
    """Read one phrase per line from each file; overlap is an error."""
    positive = _load_phrases(positive_path)
    negative = _load_phrases(negative_path)
    return LexiconDict(positive=frozenset(positive), negative=frozenset(negative))


def _load_phrases(path: str | Path) -> set[str]:
    path = Path(path)
    phrases = set()
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.lstrip().startswith("#"):
                continue
            phrase = " ".join(line.strip().lower().split())
            if phrase:
                phrases.add(phrase)
    return phrases


def score_document(tokens, lexicon: LexiconDict) -> LexiconVerdict:
    """Greedy longest-match scan; repeats count repeatedly."""
    index = lexicon.phrase_index
    tokens = tuple(tokens)
    matched_positive: list[str] = []
    matched_negative: list[str] = []
    i = 0
    while i < len(tokens):
        matched = None
        for words, polarity in index.get(tokens[i], ()):
            if tokens[i : i + len(words)] == words:
                matched = (words, polarity)
                break
        if matched is None:
            i += 1
            continue
        words, polarity = matched
        phrase = " ".join(words)
        if polarity > 0:
            matched_positive.append(phrase)
        else:
            matched_negative.append(phrase)
        i += len(words)
    score = len(matched_positive) - len(matched_negative)
    if score > 0:
        label = SentimentLabel.POSITIVE
    elif score < 0:
        label = SentimentLabel.NEGATIVE
    else:
        label = SentimentLabel.NEUTRAL
    return LexiconVerdict(
        score=score,
        label=label,
        matched_positive=tuple(matched_positive),
        matched_negative=tuple(matched_negative),
    )


def label_corpus(
    documents: list[Document],
    lexicon: LexiconDict,
    overrides: dict[str, SentimentLabel] | None = None,
) -> list[WorksheetRow]:
    """Label every document by the sign rule: the review worksheet, one row
    per document, in input order.

    ``overrides`` carries human decisions (id -> label) from the review
    pass; an override replaces the proposed label as the final one.
    Overrides naming unknown ids raise.
    """
    overrides = overrides or {}
    known_ids = {doc.id for doc in documents}
    unknown = set(overrides) - known_ids
    if unknown:
        raise UnknownIdError(unknown)

    worksheet: list[WorksheetRow] = []
    for doc in documents:
        verdict = score_document(doc.tokens, lexicon)
        worksheet.append(
            WorksheetRow(
                id=doc.id,
                clean_text=doc.clean_text,
                score=verdict.score,
                proposed_label=verdict.label,
                final_label=overrides.get(doc.id, verdict.label),
            )
        )
    return worksheet


WORKSHEET_HEADER = ("id", "clean_text", "score", "proposed_label", "final_label")


def worksheet_csv_rows(worksheet: list[WorksheetRow]) -> list[tuple[str, ...]]:
    """Worksheet rows as CSV-ready string tuples, header excluded."""
    return [
        (
            row.id,
            row.clean_text,
            str(row.score),
            label_name(row.proposed_label),
            label_name(row.final_label),
        )
        for row in worksheet
    ]
