"""Text normalization: regex cleansing, tokenization, stopword removal.

All pattern deletion (URLs, mentions, hashtags, symbols) happens in
``cleanse``; ``remove_stopwords`` is a pure dictionary filter.  Every
function here is pure and deterministic, so documents can be processed in
parallel without coordination.  :func:`token_ids` turns documents into
integer token ids, the one input of every token consumer, and
:func:`labeled_ids` adds their label codes, the one input of every
trainer.  The label stage converts its ``Document`` objects once, and the
later stages read the ids it wrote; only ``bow``'s one-document views
still take a ``Document``.
"""

from __future__ import annotations

import heapq
import re
from collections import Counter, defaultdict
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from enum import IntEnum
from itertools import chain, islice, repeat
from pathlib import Path
from typing import NamedTuple, TypeVar

import numpy as np

T = TypeVar("T")


class SentimentLabel(IntEnum):
    NEGATIVE = 0
    NEUTRAL = 1
    POSITIVE = 2


_LABEL_NAMES = {
    SentimentLabel.NEGATIVE: "negative",
    SentimentLabel.NEUTRAL: "neutral",
    SentimentLabel.POSITIVE: "positive",
}
_NAME_LABELS = {name: label for label, name in _LABEL_NAMES.items()}


def label_name(label: SentimentLabel) -> str:
    """The label's lowercase name; ``ValueError`` for a non-label value."""
    try:
        return _LABEL_NAMES[label]
    except (KeyError, TypeError):
        raise ValueError(f"{label!r} is not a valid SentimentLabel") from None


def parse_label(name: str) -> SentimentLabel:
    try:
        return _NAME_LABELS[name.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown sentiment label: {name!r}") from None


@dataclass(frozen=True, slots=True)
class Document:
    """A cleaned, tokenized text unit flowing through the pipeline."""

    id: str
    raw_text: str
    clean_text: str
    tokens: tuple[str, ...]
    label: SentimentLabel | None = None


@dataclass(frozen=True)
class StopwordDict:
    """Lowercase single-word stopword set plus the name of its source."""

    words: frozenset[str] = field(default_factory=frozenset)
    source_name: str = ""


# A whitespace-delimited chunk that contains "http" (covers https and
# truncated links) or a t.co shortlink is deleted wholesale; stray fragments
# would otherwise survive the symbol pass as fake words.  The lookbehind
# anchors every attempt at a chunk start, so each chunk is scanned once.
_URL_RE = re.compile(r"(?<!\S)(?=\S*?(?:http|\bt\.co/\S))\S+")
_MENTION_RE = re.compile(r"@\w+")
_SYMBOL_RE = re.compile(r"[^a-z0-9\s-]")
_MULTI_HYPHEN_RE = re.compile(r"-{2,}")
_LONE_HYPHEN_RE = re.compile(r"(?<![a-z0-9])-|-(?![a-z0-9])")
_LONE_DIGITS_RE = re.compile(r"(?<![a-z0-9-])[0-9]+(?![a-z0-9-])")


def cleanse(raw_text: str) -> str:
    """Normalize raw tweet text to lowercase alphanumeric words.

    Applies, in order: lowercase, URL removal, @mention removal, '#'
    stripping (the hashtag word survives), symbol removal keeping
    intra-word hyphens, standalone-digit removal (digits embedded in words
    like "covid19" survive), whitespace collapse, trim.  Idempotent.

    Runs in time linear in the text: every pattern does a bounded amount
    of work per character.  A pass whose pattern cannot match is skipped:
    the URL pass when the text holds neither "http" nor "t.co/", the
    mention pass without '@' and the two hyphen passes without '-'.
    """
    text = raw_text.lower()
    if "http" in text or "t.co/" in text:
        text = _URL_RE.sub(" ", text)
    if "@" in text:
        text = _MENTION_RE.sub(" ", text)
    # '#' becomes a space, not the empty string: deleting it outright could
    # splice the surrounding fragments into a new "http" run that a second
    # pass would treat as a URL, breaking idempotence
    text = text.replace("#", " ")
    text = _SYMBOL_RE.sub(" ", text)
    if "-" in text:
        text = _MULTI_HYPHEN_RE.sub(" ", text)
        text = _LONE_HYPHEN_RE.sub(" ", text)
    text = _LONE_DIGITS_RE.sub(" ", text)
    # str.split and re's \s both take whitespace to be str.isspace
    return " ".join(text.split())


def rank_tokens(
    counts: Counter[T], min_count: int = 1, top_k: int | None = None
) -> list[T]:
    """Keys counted at least ``min_count`` times, by descending count with
    ties broken by the key's own order; the order of every vocabulary and
    frequency chart.

    ``top_k=None`` returns every kept key by two stable C-level sorts.
    Otherwise only the first ``top_k`` of that order are returned (``0``
    gives ``[]``), chosen with a bounded heap: ``heapq.nsmallest`` equals
    ``sorted(...)[:top_k]`` and ranks G kept keys in O(G log top_k) rather
    than O(G log G).  A negative ``top_k`` raises ``ValueError``.
    """
    if top_k is not None and top_k < 0:
        raise ValueError(f"top_k must be >= 0, got {top_k}")
    kept = [key for key, count in counts.items() if count >= min_count]
    if top_k is None:
        return sorted(sorted(kept), key=counts.__getitem__, reverse=True)

    def rank(key: T) -> tuple[int, T]:
        return -counts[key], key

    return heapq.nsmallest(top_k, kept, key=rank)


class TokenIds(NamedTuple):
    """Documents' tokens as dense integer ids.

    ``ids`` holds every token of every document, in document order, as one
    flat ``intp`` array; document d owns the next ``lengths[d]`` of them.
    Id i stands for ``tokens[i]``, a table of distinct tokens.
    :func:`token_ids` numbers the tokens 0..U-1 in order of first
    occurrence; a subset from :meth:`take` keeps its parent's table, so
    some of its ids may go unused.
    """

    lengths: np.ndarray
    ids: np.ndarray
    tokens: list[str]

    def take(self, rows: np.ndarray) -> TokenIds:
        """The documents at ``rows``, in that order, over the same table."""
        lengths = self.lengths[rows]
        starts = np.cumsum(self.lengths) - self.lengths
        # the subset's flat position j of its document r reads the parent's
        # position starts[r] + (j - the subset's start of r)
        shifts = starts[rows] - (np.cumsum(lengths) - lengths)
        gather = np.repeat(shifts, lengths) + np.arange(int(lengths.sum()))
        return TokenIds(lengths, self.ids[gather], self.tokens)

    def lookup(self, table: Mapping[str, int], default: int) -> np.ndarray:
        """Each id's entry in ``table`` (``default`` when absent), mapped
        in C with one lookup per token of the table, not per token."""
        mapped = np.fromiter(
            map(table.get, self.tokens, repeat(default)),
            dtype=np.intp,
            count=len(self.tokens),
        )
        return mapped[self.ids]

    def sequences(self) -> list[tuple[str, ...]]:
        """Each document's tokens, spelled."""
        words = iter(np.array(self.tokens, dtype=object)[self.ids].tolist())
        return [tuple(islice(words, n)) for n in self.lengths.tolist()]


class LabeledIds(NamedTuple):
    """Labeled documents as token ids: document d's label code is
    ``labels[d]``, an ``intp`` array."""

    documents: TokenIds
    labels: np.ndarray

    def take(self, rows: np.ndarray) -> LabeledIds:
        """The documents at ``rows``, in that order, with their labels."""
        return LabeledIds(self.documents.take(rows), self.labels[rows])


def sequence_ids(sequences: Sequence[Sequence[str]]) -> TokenIds:
    """Map every token of the sequences to a dense id in one C-speed pass.

    ``index`` is a ``defaultdict`` whose factory is its own ``len``, so
    looking up a new token stores and returns the next free id: ids come
    out dense and in order of first occurrence, and no Python code runs per
    token.
    """
    lengths = np.fromiter(map(len, sequences), dtype=np.intp, count=len(sequences))
    index: defaultdict[str, int] = defaultdict()
    index.default_factory = index.__len__
    ids = np.fromiter(
        map(index.__getitem__, chain.from_iterable(sequences)),
        dtype=np.intp,
        count=int(lengths.sum()),
    )
    return TokenIds(lengths, ids, list(index))


def token_ids(documents: Sequence[Document]) -> TokenIds:
    """The :func:`sequence_ids` of the documents' tokens."""
    return sequence_ids([doc.tokens for doc in documents])


def label_codes(documents: Sequence[Document]) -> np.ndarray:
    """The documents' label codes; ValueError naming an unlabeled one."""
    for doc in documents:
        if doc.label is None:
            raise ValueError(
                f"document {doc.id!r} has no label (unlabeled documents "
                f"cannot be trained on or counted)"
            )
    return np.fromiter(
        (doc.label for doc in documents), dtype=np.intp, count=len(documents)
    )


def labeled_ids(documents: Sequence[Document]) -> LabeledIds:
    """The documents' token ids and label codes; ValueError naming an
    unlabeled one."""
    return LabeledIds(token_ids(documents), label_codes(documents))


def run_starts(ordered: np.ndarray) -> np.ndarray:
    """A mask of the entries of a sorted array that start a run of equal
    values."""
    starts = np.empty(len(ordered), dtype=bool)
    starts[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    return starts


def tokenize(clean_text: str) -> list[str]:
    """Split cleansed text on whitespace; never yields empty tokens."""
    return clean_text.split()


def remove_stopwords(tokens: list[str], stopwords: StopwordDict) -> list[str]:
    """Order-preserving filter dropping exact dictionary members."""
    return [t for t in tokens if t not in stopwords.words]


def load_stopwords(path: str | Path, source_name: str | None = None) -> StopwordDict:
    """Load a stopword dictionary: one word per line, '#' comments ignored.

    Entries are lowercased and trimmed; a line containing whitespace inside
    the word is rejected.
    """
    path = Path(path)
    words = set()
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            word = line.strip()
            if not word or word.startswith("#"):
                continue
            if any(ch.isspace() for ch in word):
                raise ValueError(
                    f"{path}:{lineno}: stopword entries must be single words: {word!r}"
                )
            words.add(word.lower())
    return StopwordDict(words=frozenset(words), source_name=source_name or path.stem)


def make_document(
    doc_id: str,
    raw_text: str,
    stopwords: StopwordDict | None = None,
    label: SentimentLabel | None = None,
) -> Document:
    """Run the full cleanse/tokenize/stopword pipeline on one text."""
    clean = cleanse(raw_text)
    tokens = tokenize(clean)
    if stopwords is not None:
        tokens = remove_stopwords(tokens, stopwords)
    return Document(
        id=doc_id, raw_text=raw_text, clean_text=clean, tokens=tuple(tokens), label=label
    )
