"""Tests for confusion-matrix accounting and precision/recall/F metrics."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppkmsent.evaluation import (
    ClassMetrics,
    ConfusionMatrix,
    MetricsReport,
    compare,
    confusion,
    metrics,
    report_as_dict,
)
from ppkmsent.preprocess import SentimentLabel

NEG, NEU, POS = (
    SentimentLabel.NEGATIVE,
    SentimentLabel.NEUTRAL,
    SentimentLabel.POSITIVE,
)


def cm(rows) -> ConfusionMatrix:
    return ConfusionMatrix(counts=tuple(tuple(r) for r in rows))


matrix_strategy = st.lists(
    st.lists(st.integers(min_value=0, max_value=40), min_size=3, max_size=3),
    min_size=3,
    max_size=3,
).filter(lambda rows: sum(sum(r) for r in rows) > 0)


def exact_metrics(rows):
    """Exact-rational one-vs-rest metrics for a 3x3 count matrix."""
    out = []
    for c in range(3):
        tp = rows[c][c]
        fp = sum(rows[r][c] for r in range(3)) - tp
        fn = sum(rows[c]) - tp
        precision = Fraction(tp, tp + fp) if tp + fp else Fraction(0)
        recall = Fraction(tp, tp + fn) if tp + fn else Fraction(0)
        f_score = (
            Fraction(2 * tp, 2 * tp + fp + fn) if 2 * tp + fp + fn else Fraction(0)
        )
        out.append((precision, recall, f_score))
    return out


class TestConfusion:
    def test_counts_land_on_true_row_predicted_column(self):
        true = [NEG, NEG, POS, NEU, POS]
        pred = [NEG, POS, POS, NEU, NEG]
        result = confusion(true, pred)
        assert result.counts == (
            (1, 0, 1),
            (0, 1, 0),
            (1, 0, 1),
        )
        assert result.total == 5

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            confusion([NEG], [NEG, POS])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="zero pairs"):
            confusion([], [])

    def test_matrix_shape_validated(self):
        with pytest.raises(ValueError, match="3x3"):
            ConfusionMatrix(counts=((1, 2), (3, 4)))
        with pytest.raises(ValueError, match="non-negative"):
            cm([[1, 0, 0], [0, -1, 0], [0, 0, 1]])

    @given(
        st.lists(
            st.tuples(st.sampled_from([NEG, NEU, POS]), st.sampled_from([NEG, NEU, POS])),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=200)
    def test_total_matches_pair_count_and_diagonal_matches_agreements(self, pairs):
        true = [t for t, _ in pairs]
        pred = [p for _, p in pairs]
        result = confusion(true, pred)
        assert result.total == len(pairs)
        agreements = sum(1 for t, p in pairs if t == p)
        assert sum(result.counts[c][c] for c in range(3)) == agreements


class TestMetrics:
    def test_worked_single_class_case(self):
        # negative class: TP=8, FP=2, FN=4
        report = metrics(
            cm(
                [
                    [8, 3, 1],  # 4 false negatives for class 0
                    [2, 5, 0],
                    [0, 0, 6],
                ]
            )
        )
        neg = report.per_class[0]
        assert neg.precision == pytest.approx(0.8, abs=1e-12)
        assert neg.recall == pytest.approx(2 / 3, abs=1e-4)
        assert neg.f_score == pytest.approx(16 / 22, abs=1e-9)
        assert neg.support == 12
        assert neg.undefined == frozenset()

    def test_perfect_predictions(self):
        report = metrics(cm([[4, 0, 0], [0, 5, 0], [0, 0, 6]]))
        assert report.accuracy == 1.0
        assert report.macro_precision == 1.0
        assert report.macro_recall == 1.0
        assert report.macro_f == 1.0

    def test_zero_denominators_flagged_not_raised(self):
        # nothing predicted as class 2, nothing truly class 1
        report = metrics(cm([[3, 1, 0], [0, 0, 0], [2, 1, 0]]))
        neu = report.per_class[1]
        assert neu.recall == 0.0 and "recall" in neu.undefined
        pos = report.per_class[2]
        assert pos.precision == 0.0 and "precision" in pos.undefined
        # class 2 has FN>0 so F stays defined
        assert "f_score" not in pos.undefined

    def test_all_three_flags_when_class_absent_everywhere(self):
        report = metrics(cm([[5, 0, 0], [0, 5, 0], [0, 0, 0]]))
        pos = report.per_class[2]
        assert pos.undefined == frozenset({"precision", "recall", "f_score"})
        assert pos.precision == pos.recall == pos.f_score == 0.0
        assert pos.support == 0

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            metrics(cm([[0, 0, 0]] * 3))

    @given(matrix_strategy)
    @settings(max_examples=300)
    def test_matches_exact_rational_oracle(self, rows):
        report = metrics(cm(rows))
        want = exact_metrics(rows)
        for c in range(3):
            got = report.per_class[c]
            assert got.precision == pytest.approx(float(want[c][0]), abs=1e-12)
            assert got.recall == pytest.approx(float(want[c][1]), abs=1e-12)
            assert got.f_score == pytest.approx(float(want[c][2]), abs=1e-12)
        macro_f = sum(w[2] for w in want) / 3
        assert report.macro_f == pytest.approx(float(macro_f), abs=1e-12)
        diag = sum(rows[c][c] for c in range(3))
        assert report.accuracy == pytest.approx(
            diag / sum(sum(r) for r in rows), abs=1e-12
        )

    @given(matrix_strategy)
    @settings(max_examples=200)
    def test_f_is_harmonic_mean_when_defined(self, rows):
        report = metrics(cm(rows))
        for m in report.per_class:
            if m.precision + m.recall > 0:
                harmonic = 2 * m.precision * m.recall / (m.precision + m.recall)
                assert m.f_score == pytest.approx(harmonic, abs=1e-9)
            if not m.undefined:
                assert min(m.precision, m.recall) - 1e-12 <= m.f_score
                assert m.f_score <= max(m.precision, m.recall) + 1e-12

    @given(matrix_strategy)
    @settings(max_examples=200)
    def test_relabeling_permutes_per_class_metrics(self, rows):
        report = metrics(cm(rows))
        perm = (2, 0, 1)  # relabel classes c -> perm[c]
        permuted_rows = [[0] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(3):
                permuted_rows[perm[i]][perm[j]] = rows[i][j]
        permuted = metrics(cm(permuted_rows))
        for c in range(3):
            assert permuted.per_class[perm[c]] == report.per_class[c]
        assert permuted.macro_f == pytest.approx(report.macro_f, abs=1e-12)
        assert permuted.accuracy == pytest.approx(report.accuracy, abs=1e-12)

    def test_identity_predictions_have_unit_metrics(self):
        labels = [NEG] * 3 + [NEU] * 4 + [POS] * 5
        report = metrics(confusion(labels, labels))
        assert report.accuracy == 1.0
        for m in report.per_class:
            assert (m.precision, m.recall, m.f_score) == (1.0, 1.0, 1.0)


class TestCompare:
    def r(self, macro_f: float) -> MetricsReport:
        m = ClassMetrics(0.5, 0.5, macro_f, 1, frozenset())
        return MetricsReport(
            per_class=(m, m, m),
            macro_precision=0.5,
            macro_recall=0.5,
            macro_f=macro_f,
            accuracy=0.5,
        )

    def test_rows_sorted_by_macro_f_descending(self):
        table = compare(
            [("mnb", self.r(0.7)), ("svm", self.r(0.9)), ("enc", self.r(0.8))]
        )
        assert [row[0] for row in table.rows] == ["svm", "enc", "mnb"]

    def test_sort_is_stable_on_ties(self):
        table = compare([("first", self.r(0.5)), ("second", self.r(0.5))])
        assert [row[0] for row in table.rows] == ["first", "second"]

    def test_requires_two_reports(self):
        with pytest.raises(ValueError, match="at least 2"):
            compare([("solo", self.r(0.5))])

    def test_csv_and_text_rendering(self):
        # the CSV that eval writes from these rows is checked in
        # test_pipeline's TestEvalStage
        table = compare([("a", self.r(0.75)), ("b", self.r(0.25))])
        assert table.rows[0] == ("a", 0.5, 0.5, 0.75)
        text = table.to_text()
        assert "model" in text and "macro_f" in text
        body = text.strip().split("\n")
        assert body[2].startswith("a") and body[3].startswith("b")
        assert "0.7500" in body[2]


class TestReportSerialization:
    def test_json_compatible(self):
        import json

        report = metrics(cm([[1, 2, 0], [0, 3, 1], [1, 0, 2]]))
        payload = report_as_dict(report)
        assert json.loads(json.dumps(payload)) == payload
        assert set(payload["per_class"]) == {"negative", "neutral", "positive"}
        assert payload["accuracy"] == report.accuracy

    def test_undefined_flags_are_sorted_lists(self):
        report = metrics(cm([[5, 0, 0], [0, 5, 0], [0, 0, 0]]))
        per_class = report_as_dict(report)["per_class"]
        assert per_class["positive"]["undefined"] == ["f_score", "precision", "recall"]
        assert per_class["negative"]["undefined"] == []
