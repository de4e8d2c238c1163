"""Tests for n-gram tables, cloud weights, and deterministic SVG rendering."""

from __future__ import annotations

import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import labeled_documents, make_doc
from ppkmsent import pipeline
from ppkmsent.fixtures import synthetic_tweets, write_jsonl
from ppkmsent.preprocess import SentimentLabel, label_codes, token_ids
from ppkmsent.viz import (
    CloudWeights,
    NgramTable,
    cloud_weights,
    ngram_csv,
    ngrams,
    render_svg,
    sentiment_distribution,
)

NEG, NEU, POS = (
    SentimentLabel.NEGATIVE,
    SentimentLabel.NEUTRAL,
    SentimentLabel.POSITIVE,
)

token_lists = st.lists(
    st.lists(st.sampled_from(["ppkm", "rugi", "usaha", "bantuan"]), max_size=6),
    max_size=8,
)
# three words and short documents give many tied counts; n = 4 exceeds
# every document of up to three tokens
tied_token_lists = st.lists(
    st.lists(st.sampled_from(["a", "b", "c"]), max_size=3),
    max_size=12,
)
top_ks = st.sampled_from([None, 0, 1, 2, 7, 10**6])


def reference_ngrams(documents, n, top_k=None):
    """The per-token loop and full sort that ``ngrams`` replaces."""
    counts = Counter()
    for doc in documents:
        tokens = doc.tokens
        for i in range(len(tokens) - n + 1):
            counts[tokens[i : i + n]] += 1
    ordered = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    if top_k is not None:
        ordered = ordered[:top_k]
    return NgramTable(n=n, entries=tuple(ordered))


def reference_cloud_weights(documents, top_k):
    """The per-document count and full sort that ``cloud_weights`` replaces."""
    counts = Counter()
    for doc in documents:
        counts.update(doc.tokens)
    ordered = sorted(counts.items(), key=lambda item: (-item[1], item[0]))[:top_k]
    return CloudWeights(entries=dict(ordered))


@pytest.fixture(scope="module")
def labeled_fixture_documents(tmp_path_factory):
    """The labeled rows of ``synthetic_tweets(3000, seed=1)``."""
    tmp = tmp_path_factory.mktemp("viz-fixture")
    write_jsonl(synthetic_tweets(3000, seed=1), tmp / "raw.jsonl")
    config = pipeline.PipelineConfig(output_dir=tmp / "out", corpus_path=tmp / "raw.jsonl")
    pipeline.run_ingest(config)
    pipeline.run_label(config)
    return labeled_documents(config.output_dir)


class TestNgrams:
    def docs(self):
        return [
            make_doc(["ppkm", "rugi", "ppkm", "rugi"], doc_id="a"),
            make_doc(["rugi", "ppkm"], doc_id="b"),
        ]

    def test_unigram_hand_count(self):
        table = ngrams(token_ids(self.docs()), 1)
        assert table.n == 1
        assert table.entries == (
            (("ppkm",), 3),
            (("rugi",), 3),
        )

    def test_bigram_hand_count(self):
        table = ngrams(token_ids(self.docs()), 2)
        # doc a: (ppkm,rugi) (rugi,ppkm) (ppkm,rugi); doc b: (rugi,ppkm)
        assert table.entries == (
            (("ppkm", "rugi"), 2),
            (("rugi", "ppkm"), 2),
        )

    def test_grams_do_not_cross_document_boundaries(self):
        docs = [make_doc(["a", "b"], doc_id="x"), make_doc(["c", "d"], doc_id="y")]
        table = ngrams(token_ids(docs), 2)
        grams = {gram for gram, _ in table.entries}
        assert ("b", "c") not in grams
        assert grams == {("a", "b"), ("c", "d")}

    def test_top_k_truncates_after_sorting(self):
        docs = [make_doc(["z", "z", "z", "a", "a", "m"], doc_id="x")]
        table = ngrams(token_ids(docs), 1, top_k=2)
        assert table.entries == ((("z",), 3), (("a",), 2))

    def test_ties_broken_lexicographically(self):
        docs = [make_doc(["b", "a"], doc_id="x")]
        table = ngrams(token_ids(docs), 1)
        assert table.entries == ((("a",), 1), (("b",), 1))

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError, match=">= 1"):
            ngrams(token_ids([]), 0)

    def test_short_documents_yield_no_grams(self):
        assert ngrams(token_ids([make_doc(["solo"], doc_id="x")]), 2).entries == ()

    @given(token_lists, st.integers(min_value=1, max_value=3))
    @settings(max_examples=200)
    def test_total_gram_count_matches_window_arithmetic(self, lists, n):
        docs = [make_doc(toks, doc_id=str(i)) for i, toks in enumerate(lists)]
        table = ngrams(token_ids(docs), n)
        want_total = sum(max(0, len(toks) - n + 1) for toks in lists)
        assert sum(count for _, count in table.entries) == want_total
        counts = [count for _, count in table.entries]
        assert counts == sorted(counts, reverse=True)

    @given(token_lists)
    @settings(max_examples=200)
    def test_unigrams_match_direct_counter(self, lists):
        docs = [make_doc(toks, doc_id=str(i)) for i, toks in enumerate(lists)]
        table = ngrams(token_ids(docs), 1)
        direct = Counter(tok for toks in lists for tok in toks)
        assert {gram[0]: count for gram, count in table.entries} == dict(direct)

    @given(tied_token_lists, st.integers(min_value=1, max_value=5), top_ks)
    @settings(max_examples=300)
    def test_matches_the_reference_loop(self, lists, n, top_k):
        docs = [make_doc(toks, doc_id=str(i)) for i, toks in enumerate(lists)]
        want = reference_ngrams(docs, n, top_k)
        assert ngrams(token_ids(docs), n, top_k) == want

    @pytest.mark.parametrize("top_k", [None, 5])
    def test_four_grams_over_seventy_thousand_distinct_tokens(self, top_k):
        # U = 70,000 distinct ids: a 4-gram keyed by id1*U**3 + ... + id4
        # would reach 2.4e19 and wrap int64; renumbering the 3-gram keys
        # first keeps every key below U * (T + 1) for T tokens
        words = [f"w{i}" for i in range(70_000)]
        docs = [
            make_doc(words, doc_id="all"),
            make_doc(words[::-1], doc_id="reversed"),
            make_doc(words[:9] * 3, doc_id="repeats"),
            make_doc(words[-3:], doc_id="short"),
        ]
        assert ngrams(token_ids(docs), 4, top_k) == reference_ngrams(docs, 4, top_k)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("top_k", [None, 20])
    def test_matches_the_reference_on_the_labeled_fixture(
        self, labeled_fixture_documents, n, top_k
    ):
        docs = labeled_fixture_documents
        assert ngrams(token_ids(docs), n, top_k) == reference_ngrams(docs, n, top_k)

    def test_zero_top_k_is_empty_and_none_keeps_every_gram(self):
        docs = [make_doc(["x", "x", "y", "z"], doc_id="a")]
        assert ngrams(token_ids(docs), 1, top_k=0).entries == ()
        assert ngrams(token_ids(docs), 1, top_k=None).entries == (
            (("x",), 2),
            (("y",), 1),
            (("z",), 1),
        )

    def test_negative_top_k_rejected(self):
        docs = [make_doc(["x", "x", "y", "z"], doc_id="a")]
        with pytest.raises(ValueError, match="top_k"):
            ngrams(token_ids(docs), 1, top_k=-1)


class TestCloudWeights:
    def test_matches_unigram_table(self):
        docs = [
            make_doc(["ppkm", "rugi", "ppkm"], doc_id="a"),
            make_doc(["usaha"], doc_id="b"),
        ]
        cloud = cloud_weights(token_ids(docs), top_k=10)
        table = ngrams(token_ids(docs), 1)
        assert cloud.entries == {g[0]: c for g, c in table.entries}

    def test_top_k_keeps_most_frequent(self):
        docs = [make_doc(["z", "z", "a", "m", "m", "m"], doc_id="a")]
        cloud = cloud_weights(token_ids(docs), top_k=2)
        assert cloud.entries == {"m": 3, "z": 2}

    @given(tied_token_lists, top_ks.filter(lambda k: k is not None))
    @settings(max_examples=300)
    def test_matches_the_reference_loop(self, lists, top_k):
        docs = [make_doc(toks, doc_id=str(i)) for i, toks in enumerate(lists)]
        want = list(reference_cloud_weights(docs, top_k).entries.items())
        got = cloud_weights(token_ids(docs), top_k)
        assert list(got.entries.items()) == want

    @pytest.mark.parametrize("top_k", [1, 20, 10**6])
    def test_matches_the_reference_on_the_labeled_fixture(
        self, labeled_fixture_documents, top_k
    ):
        docs = labeled_fixture_documents
        want = reference_cloud_weights(docs, top_k)
        got = cloud_weights(token_ids(docs), top_k)
        assert list(got.entries.items()) == list(want.entries.items())

    def test_zero_top_k_is_empty(self):
        docs = [make_doc(["x", "x", "y", "z"], doc_id="a")]
        assert cloud_weights(token_ids(docs), top_k=0).entries == {}

    def test_negative_top_k_rejected(self):
        docs = [make_doc(["x", "x", "y", "z"], doc_id="a")]
        with pytest.raises(ValueError, match="top_k"):
            cloud_weights(token_ids(docs), top_k=-1)


class TestSentimentDistribution:
    def test_counts_by_label(self):
        docs = [
            make_doc(["x"], NEG, "a"),
            make_doc(["y"], NEG, "b"),
            make_doc(["z"], POS, "c"),
        ]
        assert sentiment_distribution(label_codes(docs)) == {NEG: 2, NEU: 0, POS: 1}

    def test_unlabeled_document_rejected(self):
        with pytest.raises(ValueError, match="unlabeled"):
            sentiment_distribution(label_codes([make_doc(["x"], None, "a")]))


class TestNgramCsv:
    def test_renders_space_joined_grams(self):
        table = NgramTable(n=2, entries=((("a", "b"), 3), (("c", "d"), 1)))
        assert ngram_csv(table) == "gram,count\na b,3\nc d,1\n"


class TestRenderSvg:
    def table(self):
        return NgramTable(
            n=1, entries=((("ppkm",), 4), (("rugi",), 2), (("usaha",), 1))
        )

    def test_ngram_render_is_deterministic(self, tmp_path):
        p1 = render_svg(self.table(), tmp_path / "a.svg")
        p2 = render_svg(self.table(), tmp_path / "b.svg")
        assert p1.read_bytes() == p2.read_bytes()

    def test_bar_chart_has_one_rect_per_entry_with_proportional_widths(self, tmp_path):
        path = render_svg(self.table(), tmp_path / "bars.svg")
        text = path.read_text(encoding="utf-8")
        widths = [float(w) for w in re.findall(r'<rect [^>]*width="([0-9.]+)"', text)]
        assert len(widths) == 3
        assert widths[0] == pytest.approx(400.0)
        assert widths[1] == pytest.approx(200.0)
        assert widths[2] == pytest.approx(100.0)
        assert text.count("<text") == 3
        assert "ppkm (4)" in text

    def test_cloud_font_sizes_monotone_in_count(self, tmp_path):
        cloud = CloudWeights(entries={"besar": 9, "sedang": 5, "kecil": 1})
        path = render_svg(cloud, tmp_path / "cloud.svg")
        text = path.read_text(encoding="utf-8")
        sizes = {
            m.group(2): float(m.group(1))
            for m in re.finditer(r'font-size="([0-9.]+)">([a-z]+)</text>', text)
        }
        assert sizes["besar"] > sizes["sedang"] > sizes["kecil"]
        assert sizes["besar"] == pytest.approx(40.0)
        assert sizes["kecil"] == pytest.approx(12.0)

    def test_uniform_cloud_uses_the_maximum_size(self, tmp_path):
        cloud = CloudWeights(entries={"a": 2, "b": 2})
        text = render_svg(cloud, tmp_path / "u.svg").read_text(encoding="utf-8")
        sizes = re.findall(r'font-size="([0-9.]+)"', text)
        assert sizes == ["40.00", "40.00"]

    def test_distribution_render(self, tmp_path):
        path = render_svg({NEG: 3, NEU: 1, POS: 2}, tmp_path / "dist.svg")
        text = path.read_text(encoding="utf-8")
        assert "negative (3)" in text
        assert "neutral (1)" in text
        assert "positive (2)" in text

    def test_markup_characters_escaped(self, tmp_path):
        table = NgramTable(n=1, entries=((("a<b&c>d",), 1),))
        text = render_svg(table, tmp_path / "esc.svg").read_text(encoding="utf-8")
        assert "a&lt;b&amp;c&gt;d" in text
        assert "a<b" not in text

    def test_empty_inputs_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty n-gram"):
            render_svg(NgramTable(n=1, entries=()), tmp_path / "x.svg")
        with pytest.raises(ValueError, match="empty cloud"):
            render_svg(CloudWeights(entries={}), tmp_path / "x.svg")
        with pytest.raises(ValueError, match="empty distribution"):
            render_svg({}, tmp_path / "x.svg")
        with pytest.raises(TypeError, match="render"):
            render_svg(42, tmp_path / "x.svg")
