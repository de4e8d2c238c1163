"""Frequency analytics: n-gram tables, word-cloud weights, label counts.

Grams never cross document boundaries.  Counting runs at C speed: one
``Counter`` is fed by ``zip`` over n shifted copies of each document's
tokens, chained across documents, so no Python code runs per token.
Ranking goes through :func:`~ppkmsent.preprocess.rank_tokens`, the one
order of every vocabulary and chart (count descending, ties lexicographic);
with a ``top_k`` it keeps a bounded heap, O(G log k) for G distinct grams,
instead of sorting all of them.  Rendering is deterministic SVG —
rank-ordered bars and scaled-text rows, byte-identical for identical input —
because the countable weights, not the layout, are the testable content.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Mapping, Sequence

from ppkmsent import artifacts
from ppkmsent.preprocess import Document, SentimentLabel, label_name, rank_tokens


@dataclass(frozen=True)
class NgramTable:
    """Counted n-grams sorted by count descending, ties lexicographic."""

    n: int
    entries: tuple[tuple[tuple[str, ...], int], ...]


@dataclass(frozen=True)
class CloudWeights:
    """Word -> count map restricted to the top K words."""

    entries: dict[str, int]


def ngrams(documents: Sequence[Document], n: int, top_k: int | None = None) -> NgramTable:
    """Sliding-window gram counts within each document, the top ``top_k``
    of them (all with ``None``) in ``rank_tokens`` order.

    ``zip`` over the n copies ``tokens[0:]``, ..., ``tokens[n-1:]`` yields
    each document's grams ``tokens[i:i+n]`` and stops at its end, so grams
    never cross documents.  One ``Counter`` counts them all in C; ranking is
    a bounded heap, O(G log top_k) for G distinct grams.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    counts: Counter[tuple[str, ...]] = Counter(
        chain.from_iterable(
            zip(*(doc.tokens[i:] for i in range(n))) for doc in documents
        )
    )
    ranked = rank_tokens(counts, top_k=top_k)
    return NgramTable(n=n, entries=tuple((gram, counts[gram]) for gram in ranked))


def cloud_weights(
    documents: Sequence[Document],
    top_k: int,
    extra_stopwords: frozenset[str] | set[str] = frozenset(),
) -> CloudWeights:
    """Unigram counts minus extra stopwords, the top ``top_k`` of them in
    ``rank_tokens`` order."""
    counts: Counter[str] = Counter(
        chain.from_iterable(doc.tokens for doc in documents)
    )
    for word in extra_stopwords:
        counts.pop(word, None)
    ranked = rank_tokens(counts, top_k=top_k)
    return CloudWeights(entries={word: counts[word] for word in ranked})


def sentiment_distribution(documents: Sequence[Document]) -> dict[SentimentLabel, int]:
    """Per-class document counts; every document must carry a label."""
    counts = {label: 0 for label in SentimentLabel}
    for doc in documents:
        if doc.label is None:
            raise ValueError(f"unlabeled document: {doc.id!r}")
        counts[doc.label] += 1
    return counts


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
