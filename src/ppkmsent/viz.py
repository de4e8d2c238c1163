"""Frequency analytics: n-gram tables, word-cloud weights, label counts.

Every count starts from token ids: the functions take
:class:`~ppkmsent.preprocess.TokenIds`, so the ids the label stage wrote
serve several counts; label counts take label codes.  Unigrams are
counted by ``np.bincount``.  An n-gram's key is built in place, one token at
a time, as key * U + next id for U distinct tokens.  Before a round whose
keys could overflow the integer type, the keys are renumbered densely and
their sorted distinct values kept to decode them, so no n overflows.  Keys
of windows that cross a document end are set to -1, and one in-place sort
groups equal keys, whose run lengths are the counts.

Ranking goes through :func:`~ppkmsent.preprocess.rank_tokens`, the one
order of every vocabulary and chart (count descending, ties broken on the
gram's strings).  With a ``top_k``, ``np.partition`` first keeps the grams
counted at least as often as the k-th most frequent, and only those are
turned into strings and ranked.  Rendering is deterministic SVG —
rank-ordered bars and scaled-text rows, byte-identical for identical input —
because the countable weights, not the layout, are the testable content.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from ppkmsent import artifacts
from ppkmsent.preprocess import (
    SentimentLabel,
    TokenIds,
    label_name,
    rank_tokens,
    run_starts,
)


@dataclass(frozen=True)
class NgramTable:
    """Counted n-grams sorted by count descending, ties lexicographic."""

    n: int
    entries: tuple[tuple[tuple[str, ...], int], ...]


@dataclass(frozen=True)
class CloudWeights:
    """Word -> count map restricted to the top K words."""

    entries: dict[str, int]


def ngrams(documents: TokenIds, n: int, top_k: int | None = None) -> NgramTable:
    """Sliding-window gram counts within each document, the top ``top_k``
    of them (all with ``None``) in ``rank_tokens`` order."""
    if n < 1:
        raise ValueError("n must be >= 1")
    lengths, ids, tokens = documents
    base = max(len(tokens), 1)
    if n == 1:
        grams = np.arange(len(tokens))
        counts = np.bincount(ids, minlength=len(tokens))
        tables = []
    else:
        grams, counts, tables = _count_grams(lengths, ids, base, n)
    words = np.array(tokens, dtype=object)

    def spell(labels: np.ndarray) -> list[tuple[str, ...]]:
        # peel the last token id off each key, round by round, back to the
        # first token id, looking a key up in its table where it was
        # renumbered
        keys = grams[labels]
        columns = []
        for table in reversed(tables):
            keys, last = np.divmod(keys, base)
            columns.append(last)
            if table is not None:
                keys = table[keys]
        columns.append(keys)
        return list(zip(*(words[column].tolist() for column in reversed(columns))))

    return NgramTable(n=n, entries=tuple(_top_counts(counts, spell, top_k)))


def _count_grams(
    lengths: np.ndarray, ids: np.ndarray, base: int, n: int
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray | None]]:
    """The distinct keys of the n-grams and their counts, with the tables
    that decode the keys.

    The key of each window is built in place, one token at a time:
    key * base + next id.  Before a round whose keys could overflow, the
    keys are renumbered 0..G-1 and the sorted distinct keys kept as that
    round's table.  Windows that cross a document end get the key -1, and
    one in-place sort then groups equal keys for counting.
    """
    width = max(len(ids) - n + 1, 0)
    keys = ids[:width].copy()
    bound = base  # every key is below bound
    tables: list[np.ndarray | None] = []
    for j in range(1, n):
        table = None
        if bound * base - 1 > np.iinfo(keys.dtype).max:
            table, keys = np.unique(keys, return_inverse=True)
            bound = len(table)
        tables.append(table)
        keys *= base
        keys += ids[j : j + width]
        bound *= base
    # a document of length m ending at e owns no window starting at
    # e-k for k < n and k <= m
    ends = np.cumsum(lengths)
    for k in range(1, n):
        starts = ends[lengths >= k] - k
        keys[starts[starts < width]] = -1
    keys.sort()
    keys = keys[np.searchsorted(keys, 0) :]
    runs = np.flatnonzero(run_starts(keys))
    return keys[runs], np.diff(runs, append=len(keys)), tables


def cloud_weights(documents: TokenIds, top_k: int) -> CloudWeights:
    """Unigram counts, the top ``top_k`` of them in ``rank_tokens`` order."""
    _, ids, tokens = documents
    counts = np.bincount(ids, minlength=len(tokens))
    words = np.array(tokens, dtype=object)
    ranked = _top_counts(counts, lambda labels: words[labels].tolist(), top_k)
    return CloudWeights(entries=dict(ranked))


def _top_counts(
    counts: np.ndarray,
    spell: Callable[[np.ndarray], list[Hashable]],
    top_k: int | None,
) -> list[tuple[Hashable, int]]:
    """(key, count) of the ``top_k`` labels counted at least once (all with
    ``None``), in ``rank_tokens`` order; ``spell`` maps labels to keys.

    A label whose count is below the k-th largest cannot be in the top k,
    so only the others are spelled and ranked; ties at the k-th count all
    stay, for ``rank_tokens`` to break on their keys.
    """
    labels = np.flatnonzero(counts)
    if top_k is not None and 0 < top_k < len(labels):
        kth = np.partition(counts[labels], len(labels) - top_k)[len(labels) - top_k]
        labels = labels[counts[labels] >= kth]
    keyed = dict(zip(spell(labels), counts[labels].tolist()))
    return [(key, keyed[key]) for key in rank_tokens(keyed, top_k=top_k)]


def sentiment_distribution(labels: np.ndarray) -> dict[SentimentLabel, int]:
    """Per-class counts of label codes."""
    counts = np.bincount(labels, minlength=len(SentimentLabel)).tolist()
    return {label: counts[label] for label in SentimentLabel}


def ngram_csv(table: NgramTable) -> str:
    lines = ["gram,count"]
    for gram, count in table.entries:
        lines.append(f"{' '.join(gram)},{count}")
    return "\n".join(lines) + "\n"


# -- SVG rendering ----------------------------------------------------------

_SVG_WIDTH = 640
_LABEL_COLUMN = 200
_BAR_MAX = 400
_BAR_HEIGHT = 18
_BAR_GAP = 6
_MARGIN = 10


def _bar_chart(rows: list[tuple[str, int]]) -> str:
    height = _MARGIN * 2 + len(rows) * (_BAR_HEIGHT + _BAR_GAP) - _BAR_GAP
    max_count = max(count for _, count in rows)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_SVG_WIDTH}" height="{height}">',
    ]
    y = _MARGIN
    for label, count in rows:
        width = _BAR_MAX * count / max_count if max_count else 0.0
        text_y = y + _BAR_HEIGHT - 5
        parts.append(
            f'<text x="{_MARGIN}" y="{text_y}" font-family="sans-serif" '
            f'font-size="12">{_escape(label)} ({count})</text>'
        )
        parts.append(
            f'<rect x="{_LABEL_COLUMN}" y="{y}" width="{width:.2f}" '
            f'height="{_BAR_HEIGHT}" fill="#4477aa"/>'
        )
        y += _BAR_HEIGHT + _BAR_GAP
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _text_cloud(entries: dict[str, int]) -> str:
    counts = list(entries.values())
    cmin, cmax = min(counts), max(counts)
    min_px, max_px = 12.0, 40.0
    parts = ['<?xml version="1.0" encoding="UTF-8"?>']
    rows = []
    y = _MARGIN
    for word, count in entries.items():
        if cmax == cmin:
            size = max_px
        else:
            size = min_px + (max_px - min_px) * (count - cmin) / (cmax - cmin)
        y += size + 4
        rows.append(
            f'<text x="{_MARGIN}" y="{y:.2f}" font-family="sans-serif" '
            f'font-size="{size:.2f}">{_escape(word)}</text>'
        )
    height = y + _MARGIN
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_SVG_WIDTH}" height="{height:.2f}">'
    )
    parts.extend(rows)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_svg(data, path: str | Path) -> Path:
    """Write a deterministic SVG for an NgramTable, CloudWeights, or
    sentiment-distribution mapping."""
    if isinstance(data, NgramTable):
        if not data.entries:
            raise ValueError("cannot render an empty n-gram table")
        content = _bar_chart([(" ".join(gram), count) for gram, count in data.entries])
    elif isinstance(data, CloudWeights):
        if not data.entries:
            raise ValueError("cannot render empty cloud weights")
        content = _text_cloud(data.entries)
    elif isinstance(data, Mapping):
        if not data:
            raise ValueError("cannot render an empty distribution")
        rows = [(label_name(label), count) for label, count in sorted(data.items())]
        content = _bar_chart(rows)
    else:
        raise TypeError(f"cannot render {type(data).__name__}")
    return artifacts.write_text(content, path)
