"""Confusion-matrix accounting and precision/recall/F metrics.

Rows are true labels, columns predicted labels.  Per-class metrics use the
one-vs-rest reduction: precision = TP/(TP+FP), recall = TP/(TP+FN),
F = 2TP/(2TP+FP+FN).  Zero-denominator cases yield 0 and are flagged rather
than raised, so degenerate models still produce reports.  Computation is
plain Python float arithmetic on small integer counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ppkmsent.preprocess import SentimentLabel

NUM_CLASSES = 3


@dataclass(frozen=True)
class ConfusionMatrix:
    """3x3 counts; counts[i][j] = documents with true i predicted j."""

    counts: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if len(self.counts) != NUM_CLASSES or any(len(r) != NUM_CLASSES for r in self.counts):
            raise ValueError("confusion matrix must be 3x3")
        if any(c < 0 for row in self.counts for c in row):
            raise ValueError("confusion matrix counts must be non-negative")

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.counts)


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f_score: float
    support: int
    undefined: frozenset[str]


@dataclass(frozen=True)
class MetricsReport:
    per_class: tuple[ClassMetrics, ...]  # indexed by label code
    macro_precision: float
    macro_recall: float
    macro_f: float
    accuracy: float


def confusion(
    true_labels: Sequence[SentimentLabel], predicted_labels: Sequence[SentimentLabel]
) -> ConfusionMatrix:
    """Tally true/predicted pairs into a 3x3 matrix."""
    if len(true_labels) != len(predicted_labels):
        raise ValueError(
            f"label lists differ in length: {len(true_labels)} vs {len(predicted_labels)}"
        )
    if not true_labels:
        raise ValueError("cannot build a confusion matrix from zero pairs")
    counts = [[0] * NUM_CLASSES for _ in range(NUM_CLASSES)]
    for true, pred in zip(true_labels, predicted_labels):
        counts[int(true)][int(pred)] += 1
    return ConfusionMatrix(counts=tuple(tuple(row) for row in counts))


def metrics(cm: ConfusionMatrix) -> MetricsReport:
    """Per-class and macro precision/recall/F plus accuracy."""
    if cm.total < 1:
        raise ValueError("empty confusion matrix")
    per_class = []
    for c in range(NUM_CLASSES):
        tp = cm.counts[c][c]
        fp = sum(cm.counts[r][c] for r in range(NUM_CLASSES)) - tp
        fn = sum(cm.counts[c]) - tp
        undefined = set()
        if tp + fp > 0:
            precision = tp / (tp + fp)
        else:
            precision = 0.0
            undefined.add("precision")
        if tp + fn > 0:
            recall = tp / (tp + fn)
        else:
            recall = 0.0
            undefined.add("recall")
        if 2 * tp + fp + fn > 0:
            f_score = 2 * tp / (2 * tp + fp + fn)
        else:
            f_score = 0.0
            undefined.add("f_score")
        per_class.append(
            ClassMetrics(
                precision=precision,
                recall=recall,
                f_score=f_score,
                support=tp + fn,
                undefined=frozenset(undefined),
            )
        )
    macro_precision = (per_class[0].precision + per_class[1].precision + per_class[2].precision) / 3
    macro_recall = (per_class[0].recall + per_class[1].recall + per_class[2].recall) / 3
    macro_f = (per_class[0].f_score + per_class[1].f_score + per_class[2].f_score) / 3
    accuracy = sum(cm.counts[c][c] for c in range(NUM_CLASSES)) / cm.total
    return MetricsReport(
        per_class=tuple(per_class),
        macro_precision=macro_precision,
        macro_recall=macro_recall,
        macro_f=macro_f,
        accuracy=accuracy,
    )


@dataclass(frozen=True)
class ComparisonTable:
    """Named macro metrics sorted by macro F descending (stable)."""

    rows: tuple[tuple[str, float, float, float], ...]

    def to_text(self) -> str:
        name_width = max(len("model"), *(len(r[0]) for r in self.rows))
        header = f"{'model':<{name_width}}  {'macro_p':>8}  {'macro_r':>8}  {'macro_f':>8}"
        lines = [header, "-" * len(header)]
        for name, mp, mr, mf in self.rows:
            lines.append(f"{name:<{name_width}}  {mp:>8.4f}  {mr:>8.4f}  {mf:>8.4f}")
        return "\n".join(lines) + "\n"


def compare(reports: Sequence[tuple[str, MetricsReport]]) -> ComparisonTable:
    """Side-by-side macro metrics for two or more named reports."""
    if len(reports) < 2:
        raise ValueError("compare needs at least 2 reports")
    rows = [
        (name, rep.macro_precision, rep.macro_recall, rep.macro_f) for name, rep in reports
    ]
    rows.sort(key=lambda row: -row[3])  # stable: ties keep insertion order
    return ComparisonTable(rows=tuple(rows))


def report_as_dict(report: MetricsReport) -> dict:
    """JSON-ready representation with per-class detail."""
    return {
        "per_class": {
            SentimentLabel(c).name.lower(): {
                "precision": m.precision,
                "recall": m.recall,
                "f_score": m.f_score,
                "support": m.support,
                "undefined": sorted(m.undefined),
            }
            for c, m in enumerate(report.per_class)
        },
        "macro_precision": report.macro_precision,
        "macro_recall": report.macro_recall,
        "macro_f": report.macro_f,
        "accuracy": report.accuracy,
    }
