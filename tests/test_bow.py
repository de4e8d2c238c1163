"""Tests for bag-of-words features, Multinomial Naive Bayes and linear SVM."""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_doc, separable_fixture
from ppkmsent.bow import (
    MODEL_MAGIC,
    BowVocab,
    MnbModel,
    SvmConfig,
    SvmModel,
    build_vocab,
    feature_matrix,
    hinge_objective,
    load_model,
    mnb_predict,
    mnb_train,
    predict_batch,
    save_model,
    svm_predict,
    svm_train,
    vectorize,
)
from ppkmsent.errors import CheckpointFormatError, MissingClassError
from ppkmsent.preprocess import SentimentLabel, labeled_ids, rank_tokens, token_ids

NEG, NEU, POS = (
    SentimentLabel.NEGATIVE,
    SentimentLabel.NEUTRAL,
    SentimentLabel.POSITIVE,
)


def three_class_docs():
    return [
        make_doc(["ppkm", "rugi"], NEG, "d0"),
        make_doc(["ppkm", "berlaku"], NEU, "d1"),
        make_doc(["ppkm", "bagus"], POS, "d2"),
    ]


WORDS = st.sampled_from(["a", "b", "c", "d", "e", "f", "g"])


def reference_build_vocab(documents, min_count=1):
    """The per-document Counters that ``build_vocab``'s id pass replaced."""
    totals = Counter(chain.from_iterable(doc.tokens for doc in documents))
    doc_freq = Counter(chain.from_iterable(set(doc.tokens) for doc in documents))
    kept = rank_tokens(totals, min_count)
    return BowVocab(
        token_to_index={t: i for i, t in enumerate(kept)},
        document_frequency=tuple(doc_freq[t] for t in kept),
        num_documents=len(documents),
    )


class TestBuildVocab:
    @settings(max_examples=300, deadline=None)
    @given(
        train=st.lists(st.lists(WORDS, max_size=10), min_size=1, max_size=8),
        min_count=st.integers(min_value=1, max_value=5),
    )
    @example(train=[[]], min_count=1)
    @example(train=[["a", "a", "a"], [], ["a"]], min_count=2)
    def test_equals_the_counter_reference(self, train, min_count):
        docs = [make_doc(tokens, doc_id=f"t{i}") for i, tokens in enumerate(train)]
        want = reference_build_vocab(docs, min_count)
        assert build_vocab(token_ids(docs), min_count) == want

    def test_document_frequency_counts_documents_not_tokens(self):
        docs = [
            make_doc(["ppkm", "ppkm", "jakarta"], doc_id="a"),
            make_doc(["ppkm"], doc_id="b"),
        ]
        vocab = build_vocab(token_ids(docs))
        idx = vocab.token_to_index["ppkm"]
        assert vocab.document_frequency[idx] == 2
        assert vocab.num_documents == 2

    def test_index_order_by_count_then_lexicographic(self):
        docs = [
            make_doc(["b", "b", "a", "c"], doc_id="a"),
            make_doc(["a", "c"], doc_id="b"),
        ]
        vocab = build_vocab(token_ids(docs))
        # counts: a=2, b=2, c=2 -> all tie, lexicographic
        assert vocab.tokens_in_index_order() == ["a", "b", "c"]
        docs.append(make_doc(["b"], doc_id="c"))
        vocab = build_vocab(token_ids(docs))
        # now b=3 leads
        assert vocab.tokens_in_index_order() == ["b", "a", "c"]

    def test_indices_are_dense(self):
        vocab = build_vocab(token_ids([make_doc(["x", "y", "z"], doc_id="a")]))
        assert sorted(vocab.token_to_index.values()) == list(range(vocab.size))

    def test_min_count_drops_hapax_tokens(self):
        docs = [
            make_doc(["ppkm", "unik"], doc_id="a"),
            make_doc(["ppkm"], doc_id="b"),
        ]
        vocab = build_vocab(token_ids(docs), min_count=2)
        assert vocab.tokens_in_index_order() == ["ppkm"]

    def test_validation(self):
        with pytest.raises(ValueError, match="empty"):
            build_vocab(token_ids([]))
        with pytest.raises(ValueError, match="min_count"):
            build_vocab(token_ids([make_doc(["x"], doc_id="a")]), min_count=0)

    def test_order_invariant_under_document_permutation(self):
        docs = [
            make_doc(["ppkm", "jakarta"], doc_id="a"),
            make_doc(["jakarta"], doc_id="b"),
            make_doc(["ppkm", "covid19"], doc_id="c"),
        ]
        forward = build_vocab(token_ids(docs))
        backward = build_vocab(token_ids(list(reversed(docs))))
        assert forward == backward
        assert all(
            df <= forward.num_documents for df in forward.document_frequency
        )


def reference_vectorize(document, vocab, mode):
    """The per-document dict features feature_matrix replaced, with each
    tf-idf norm added up by an explicit loop."""
    counts = {}
    for token in document.tokens:
        idx = vocab.token_to_index.get(token)
        if idx is not None:
            counts[idx] = counts.get(idx, 0.0) + 1.0
    if mode == "tf" or not counts:
        return counts
    n = vocab.num_documents
    weighted = {
        idx: count * (math.log((1 + n) / (1 + vocab.document_frequency[idx])) + 1.0)
        for idx, count in counts.items()
    }
    squares = 0.0
    for value in weighted.values():
        squares += value * value
    norm = math.sqrt(squares)
    return {idx: value / norm for idx, value in weighted.items()}


def csr(rows):
    """CSR triple of hand-written {index: value} rows, in each row's order."""
    indptr = np.cumsum([0] + [len(row) for row in rows])
    indices = np.array([i for row in rows for i in row], dtype=np.intp)
    values = np.array([v for row in rows for v in row.values()], dtype=float)
    return indptr, indices, values


def matrix_rows(matrix):
    """The rows of a CSR triple as {index: value} dicts, in stored order."""
    indptr, indices, values = matrix
    return [
        dict(zip(indices[a:b].tolist(), values[a:b].tolist()))
        for a, b in zip(indptr[:-1], indptr[1:])
    ]


class TestFeatureMatrix:
    @settings(max_examples=200, deadline=None)
    @given(
        train=st.lists(st.lists(WORDS, max_size=6), min_size=1, max_size=6),
        queries=st.lists(
            st.lists(st.one_of(WORDS, st.sampled_from(["oov", "lain"])), max_size=12),
            max_size=8,
        ),
        min_count=st.integers(min_value=1, max_value=4),
        mode=st.sampled_from(["tf", "tfidf"]),
    )
    @example(
        train=[["a", "b"]],
        queries=[[], ["oov", "lain", "oov"], ["b", "b", "a", "b"]],
        min_count=1,
        mode="tfidf",
    )
    def test_rows_equal_the_reference(self, train, queries, min_count, mode):
        # min_count above every total leaves a vocabulary of size 0
        vocab = build_vocab(
            token_ids([make_doc(t, doc_id=f"t{i}") for i, t in enumerate(train)]),
            min_count,
        )
        docs = [make_doc(q, doc_id=f"q{i}") for i, q in enumerate(queries)]
        indptr, indices, values = feature_matrix(token_ids(docs), vocab, mode)
        assert indptr.shape == (len(docs) + 1,)
        expected = [reference_vectorize(doc, vocab, mode) for doc in docs]
        got = matrix_rows((indptr, indices, values))
        for row, want in zip(got, expected):
            assert list(row.items()) == list(want.items())
        for doc, want in zip(docs, expected):
            assert list(vectorize(doc, vocab, mode).items()) == list(want.items())

    def test_no_documents(self):
        vocab = build_vocab(token_ids([make_doc(["a"], doc_id="t")]))
        for mode in ("tf", "tfidf"):
            indptr, indices, values = feature_matrix(token_ids([]), vocab, mode)
            assert indptr.tolist() == [0]
            assert indices.size == values.size == 0

    def test_tfidf_norm_adds_in_order_on_every_python(self):
        # builtin sum() compensates from Python 3.12 on and rounds the
        # first entry's norm differently (a: 0.22941573387056177)
        docs = [
            make_doc(["a", "b", "b", "b", "c", "c", "c"], doc_id="x"),
            make_doc(["d"], doc_id="y"),
        ]
        vocab = build_vocab(token_ids(docs))
        row = vectorize(docs[0], vocab, mode="tfidf")
        assert [(vocab.tokens_in_index_order()[i], v) for i, v in row.items()] == [
            ("a", 0.2294157338705618),
            ("b", 0.6882472016116853),
            ("c", 0.6882472016116853),
        ]


class TestVectorize:
    def test_oov_only_document_is_a_zero_vector(self):
        vocab = build_vocab(token_ids([make_doc(["ppkm"], doc_id="a")]))
        assert vectorize(make_doc(["asing"], doc_id="b"), vocab) == {}

    def test_tf_counts(self):
        vocab = build_vocab(token_ids([make_doc(["ppkm", "jakarta"], doc_id="a")]))
        row = vectorize(make_doc(["ppkm", "ppkm"], doc_id="b"), vocab, mode="tf")
        assert row == {vocab.token_to_index["ppkm"]: 2.0}

    def test_tfidf_matches_hand_computed_formula(self):
        docs = [
            make_doc(["ppkm", "jakarta"], doc_id="a"),
            make_doc(["ppkm"], doc_id="b"),
            make_doc(["ppkm", "bali"], doc_id="c"),
        ]
        vocab = build_vocab(token_ids(docs))
        row = vectorize(
            make_doc(["ppkm", "ppkm", "jakarta"], doc_id="q"), vocab, mode="tfidf"
        )
        n = 3
        w_ppkm = 2.0 * (math.log((1 + n) / (1 + 3)) + 1.0)
        w_jakarta = 1.0 * (math.log((1 + n) / (1 + 1)) + 1.0)
        norm = math.sqrt(w_ppkm**2 + w_jakarta**2)
        assert row[vocab.token_to_index["ppkm"]] == pytest.approx(w_ppkm / norm, abs=1e-12)
        assert row[vocab.token_to_index["jakarta"]] == pytest.approx(
            w_jakarta / norm, abs=1e-12
        )

    def test_tfidf_rows_have_unit_norm(self):
        docs = three_class_docs()
        vocab = build_vocab(token_ids(docs))
        for doc in docs:
            row = vectorize(doc, vocab, mode="tfidf")
            assert math.sqrt(sum(v * v for v in row.values())) == pytest.approx(1.0)

    def test_unsupported_mode(self):
        vocab = build_vocab(token_ids([make_doc(["x"], doc_id="a")]))
        with pytest.raises(ValueError, match="feature mode"):
            vectorize(make_doc(["x"], doc_id="b"), vocab, mode="binary")


def fraction_mnb_scores(train, vocab, alpha, tokens):
    """Independent Bayes computation in exact rational arithmetic."""
    n = len(train)
    v = vocab.size
    scores = []
    for c in range(3):
        class_docs = [d for d in train if int(d.label) == c]
        prior = Fraction(len(class_docs), n)
        token_counts = {}
        total = 0
        for doc in class_docs:
            for token in doc.tokens:
                if token in vocab.token_to_index:
                    token_counts[token] = token_counts.get(token, 0) + 1
                    total += 1
        score = math.log(prior)
        for token in tokens:
            if token not in vocab.token_to_index:
                continue
            score += math.log(
                Fraction(token_counts.get(token, 0) + alpha, total + alpha * v)
            )
        scores.append(score)
    return scores


def reference_mnb_arrays(train, vocab, alpha):
    """The per-token counting loop that ``mnb_train``'s bincount replaces."""
    v = vocab.size
    class_counts = np.zeros(3)
    token_counts = np.zeros((3, v))
    for doc in train:
        class_counts[int(doc.label)] += 1
        for token in doc.tokens:
            idx = vocab.token_to_index.get(token)
            if idx is not None:
                token_counts[int(doc.label), idx] += 1
    totals = token_counts.sum(axis=1, keepdims=True)
    return (
        np.log(class_counts / len(train)),
        np.log((token_counts + alpha) / (totals + alpha * v)),
    )


class TestMnb:
    # min_count 8 leaves 29 of the 40 words, so some tokens are out of vocabulary
    @pytest.mark.parametrize("min_count", [1, 8])
    def test_arrays_equal_the_per_token_loop(self, min_count):
        docs = random_corpus(n=90, vocab_words=40, seed=5)
        vocab = build_vocab(token_ids(docs), min_count=min_count)
        model = mnb_train(labeled_ids(docs), vocab, alpha=0.5)
        prior, likelihood = reference_mnb_arrays(docs, vocab, 0.5)
        assert np.array_equal(model.class_log_prior, prior)
        assert np.array_equal(model.token_log_likelihood, likelihood)

    def test_balanced_corpus_has_uniform_priors(self):
        docs = [
            make_doc(["a"], NEG, "d0"),
            make_doc(["b"], NEG, "d1"),
            make_doc(["c"], NEU, "d2"),
            make_doc(["d"], NEU, "d3"),
            make_doc(["e"], POS, "d4"),
            make_doc(["f"], POS, "d5"),
        ]
        model = mnb_train(labeled_ids(docs), build_vocab(token_ids(docs)))
        assert np.allclose(model.class_log_prior, math.log(1 / 3), atol=1e-12)

    def test_prior_and_likelihood_rows_normalize(self):
        docs = three_class_docs() + [make_doc(["ppkm", "rugi", "rugi"], NEG, "d3")]
        model = mnb_train(labeled_ids(docs), build_vocab(token_ids(docs)))
        assert np.exp(model.class_log_prior).sum() == pytest.approx(1.0, abs=1e-9)
        row_sums = np.exp(model.token_log_likelihood).sum(axis=1)
        assert np.allclose(row_sums, 1.0, atol=1e-9)

    def test_single_token_vocabulary_gives_zero_log_likelihood(self):
        # vocabulary from one single-token document: V=1, count=1, total=1,
        # so the smoothed likelihood is ln((1+1)/(1+1)) = 0 exactly
        vocab = build_vocab(token_ids([make_doc(["ppkm"], NEG, "seed")]))
        assert vocab.size == 1
        train = [
            make_doc(["ppkm"], NEG, "d0"),
            make_doc(["tenang"], NEU, "d1"),
            make_doc(["bagus"], POS, "d2"),
        ]
        model = mnb_train(labeled_ids(train), vocab, alpha=1.0)
        idx = vocab.token_to_index["ppkm"]
        assert model.token_log_likelihood[int(NEG), idx] == 0.0

    def test_training_needs_every_class(self):
        docs = [make_doc(["a"], NEG, "d0"), make_doc(["b"], POS, "d1")]
        with pytest.raises(MissingClassError, match="NEUTRAL"):
            mnb_train(labeled_ids(docs), build_vocab(token_ids(docs)))

    def test_validation(self):
        docs = three_class_docs()
        vocab = build_vocab(token_ids(docs))
        with pytest.raises(ValueError, match="empty"):
            mnb_train(labeled_ids([]), vocab)
        for bad in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="alpha"):
                mnb_train(labeled_ids(docs), vocab, alpha=bad)

    def test_matches_exact_bayes_oracle_on_random_small_corpora(self):
        rng = random.Random(0)
        worst = 0.0
        for _ in range(50):
            n_docs = rng.randint(3, 10)
            universe = [f"w{i}" for i in range(rng.randint(1, 6))]
            docs = []
            for i in range(n_docs):
                label = SentimentLabel(i % 3) if i < 3 else SentimentLabel(rng.randrange(3))
                tokens = [rng.choice(universe) for _ in range(rng.randint(0, 6))]
                docs.append(make_doc(tokens, label, f"d{i}"))
            vocab = build_vocab(token_ids(docs))
            model = mnb_train(labeled_ids(docs), vocab, alpha=1.0)
            for _ in range(5):
                probe = [
                    rng.choice(universe + ["oov-token"])
                    for _ in range(rng.randint(0, 5))
                ]
                _, scores = mnb_predict(make_doc(probe, None, "probe"), model, vocab)
                oracle = fraction_mnb_scores(docs, vocab, 1, probe)
                worst = max(worst, float(np.max(np.abs(scores - np.array(oracle)))))
        assert worst < 1e-9

    def test_empty_document_falls_back_to_priors(self):
        docs = three_class_docs() + [make_doc(["ppkm", "lagi"], NEG, "d3")]
        vocab = build_vocab(token_ids(docs))
        model = mnb_train(labeled_ids(docs), vocab)
        label, scores = mnb_predict(make_doc([], None, "empty"), model, vocab)
        assert np.array_equal(scores, model.class_log_prior)
        assert label is NEG  # NEG has the largest prior (2 of 4 documents)

    def test_class_exclusive_token_wins(self):
        docs = three_class_docs()
        vocab = build_vocab(token_ids(docs))
        model = mnb_train(labeled_ids(docs), vocab)
        label, _ = mnb_predict(make_doc(["bagus", "bagus"], None, "q"), model, vocab)
        assert label is POS

    def test_exact_tie_breaks_to_lowest_label_code(self):
        docs = [
            make_doc(["t"], NEG, "d0"),
            make_doc(["t"], NEU, "d1"),
            make_doc(["t"], POS, "d2"),
        ]
        vocab = build_vocab(token_ids(docs))
        model = mnb_train(labeled_ids(docs), vocab)
        label, scores = mnb_predict(make_doc(["t"], None, "q"), model, vocab)
        assert scores[0] == scores[1] == scores[2]
        assert label is NEG

    def test_parameters_invariant_under_training_order(self):
        docs = three_class_docs() + [make_doc(["rugi", "parah"], NEG, "d3")]
        vocab = build_vocab(token_ids(docs))
        a = mnb_train(labeled_ids(docs), vocab)
        b = mnb_train(labeled_ids(list(reversed(docs))), vocab)
        assert np.array_equal(a.class_log_prior, b.class_log_prior)
        assert np.array_equal(a.token_log_likelihood, b.token_log_likelihood)


class TestSvm:
    def train_fixture(self, **overrides):
        docs = separable_fixture()
        vocab = build_vocab(token_ids(docs))
        defaults = dict(
            regularization_lambda=0.01, epochs=50, seed=0, feature_mode="tf"
        )
        defaults.update(overrides)
        return docs, vocab, svm_train(labeled_ids(docs), vocab, SvmConfig(**defaults))

    def test_separable_fixture_reaches_full_training_accuracy(self):
        docs, vocab, model = self.train_fixture()
        correct = sum(
            1 for d in docs if svm_predict(d, model, vocab)[0] is d.label
        )
        assert correct == len(docs)

    def test_doubling_lambda_never_increases_weight_norm(self):
        norms = []
        for lam in (0.01, 0.02, 0.04, 0.08):
            _, _, model = self.train_fixture(regularization_lambda=lam)
            norms.append(float(np.linalg.norm(model.weights)))
        assert all(a >= b for a, b in zip(norms, norms[1:]))

    def test_same_seed_reproduces_weights_exactly(self):
        _, _, a = self.train_fixture()
        _, _, b = self.train_fixture()
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.biases, b.biases)

    def test_mean_final_objective_improves_over_twenty_seeds(self):
        docs = separable_fixture()
        vocab = build_vocab(token_ids(docs))
        initials, finals = [], []
        for seed in range(20):
            model = svm_train(
                labeled_ids(docs),
                vocab,
                SvmConfig(
                    regularization_lambda=0.05,
                    epochs=10,
                    seed=seed,
                    feature_mode="tf",
                ),
            )
            initials.append(np.mean(model.initial_objective))
            finals.append(np.mean(model.final_objective))
        assert np.mean(finals) < np.mean(initials)

    def test_huge_lambda_collapses_weights_and_margins(self):
        # every update step scales as 1/lambda, so at huge lambda the
        # separator degenerates: weights and margins both vanish
        docs, vocab, small_lambda = self.train_fixture(regularization_lambda=0.01)
        _, _, huge_lambda = self.train_fixture(regularization_lambda=1e6)
        small_norm = float(np.linalg.norm(small_lambda.weights))
        huge_norm = float(np.linalg.norm(huge_lambda.weights))
        assert huge_norm < 1e-3
        assert huge_norm < 1e-4 * small_norm
        for doc in docs:
            _, margins = svm_predict(doc, huge_lambda, vocab)
            assert float(np.max(np.abs(margins))) < 1e-3

    def test_zero_vector_input_yields_bias_argmax(self):
        _, vocab, model = self.train_fixture()
        label, margins = svm_predict(make_doc(["asing"], None, "q"), model, vocab)
        assert np.array_equal(margins, model.biases)
        assert label is SentimentLabel(int(np.argmax(model.biases)))

    def test_held_out_points_deep_in_each_class_region(self):
        _, vocab, model = self.train_fixture()
        assert svm_predict(make_doc(["fa"] * 6, None, "qn"), model, vocab)[0] is NEG
        assert svm_predict(make_doc(["fb"] * 6, None, "qp"), model, vocab)[0] is POS

    def test_scaled_input_keeps_argmax_when_biases_are_zero(self):
        vocab = build_vocab(token_ids([make_doc(["fa", "fb"], doc_id="basis")]))
        weights = np.array([[2.0, -1.0], [0.5, 0.5], [-1.0, 2.0]])
        model = SvmModel(
            weights=weights,
            biases=np.zeros(3),
            regularization_lambda=0.01,
            feature_mode="tf",
        )
        base = make_doc(["fa", "fa", "fb"], None, "x")
        scaled = make_doc(["fa", "fa", "fb"] * 5, None, "kx")
        label_x, margins_x = svm_predict(base, model, vocab)
        label_kx, margins_kx = svm_predict(scaled, model, vocab)
        assert label_x is label_kx
        assert np.allclose(margins_kx, 5.0 * margins_x)

    def test_training_order_permutation_keeps_fixture_predictions(self):
        docs = separable_fixture()
        vocab = build_vocab(token_ids(docs))
        config = SvmConfig(regularization_lambda=0.01, epochs=50, seed=0, feature_mode="tf")
        shuffled = list(docs)
        random.Random(3).shuffle(shuffled)
        a = svm_train(labeled_ids(docs), vocab, config)
        b = svm_train(labeled_ids(shuffled), vocab, config)
        probes = [
            make_doc(["fa"] * 4, None, "qa"),
            make_doc(["fb"] * 4, None, "qb"),
            make_doc(["fa", "fb"], None, "qc"),
        ]
        for probe in probes:
            assert svm_predict(probe, a, vocab)[0] is svm_predict(probe, b, vocab)[0]

    def test_single_class_training_rejected(self):
        docs = [make_doc(["a"], NEG, "d0"), make_doc(["b"], NEG, "d1")]
        with pytest.raises(MissingClassError, match="2 classes"):
            svm_train(labeled_ids(docs), build_vocab(token_ids(docs)), SvmConfig())

    def test_two_classes_are_enough(self):
        docs = [make_doc(["fa"] * 3, NEG, "d0"), make_doc(["fb"] * 3, POS, "d1")]
        labeled = labeled_ids(docs)
        vocab = build_vocab(labeled.documents)
        model = svm_train(labeled, vocab, SvmConfig(feature_mode="tf"))
        assert model.weights.shape == (3, 2)

    def test_config_validation(self):
        for bad in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="lambda"):
                SvmConfig(regularization_lambda=bad)
        with pytest.raises(ValueError, match="epochs"):
            SvmConfig(epochs=0)
        with pytest.raises(ValueError, match="feature mode"):
            SvmConfig(feature_mode="hash")

    def test_hinge_objective_at_zero_weights_is_mean_hinge(self):
        rows = [{0: 1.0}, {1: 2.0}]
        ys = np.array([1.0, -1.0])
        assert hinge_objective(np.zeros(2), 0.0, csr(rows), ys, 0.5) == pytest.approx(1.0)


def reference_hinge_objective(w, b, rows, ys, lam):
    """hinge_objective's formula, indexing numpy scalars."""
    total = 0.0
    for row, y in zip(rows, ys):
        margin = y * (sum(w[i] * v for i, v in row.items()) + b)
        total += max(0.0, 1.0 - margin)
    return 0.5 * lam * float(w @ w) + total / len(rows)


def reference_svm_train(train, vocab, config):
    """Pegasos in its per-step form: every step shrinks all of w by
    (1 - 1/t), then a violation adds y*x/(lambda*t)."""
    rows = [vectorize(doc, vocab, mode=config.feature_mode) for doc in train]
    labels = np.array([int(doc.label) for doc in train])
    lam = config.regularization_lambda
    weights, biases = np.zeros((3, vocab.size)), np.zeros(3)
    initial_obj, final_obj = [], []
    class_seeds = np.random.SeedSequence(config.seed).spawn(3)
    for c in range(3):
        rng = np.random.default_rng(class_seeds[c])
        ys = np.where(labels == c, 1.0, -1.0)
        w, b, t = np.zeros(vocab.size), 0.0, 0
        initial_obj.append(reference_hinge_objective(w, b, rows, ys, lam))
        for _ in range(config.epochs):
            for idx in rng.permutation(len(rows)):
                t += 1
                eta = 1.0 / (lam * t)
                row, y = rows[idx], ys[idx]
                margin = y * (sum(w[i] * value for i, value in row.items()) + b)
                w *= 1.0 - eta * lam
                if margin < 1.0:
                    for i, value in row.items():
                        w[i] += eta * y * value
                    b += eta * y
        weights[c], biases[c] = w, b
        final_obj.append(reference_hinge_objective(w, b, rows, ys, lam))
    return SvmModel(
        weights=weights,
        biases=biases,
        regularization_lambda=lam,
        feature_mode=config.feature_mode,
        initial_objective=tuple(initial_obj),
        final_objective=tuple(final_obj),
    )


def random_corpus(n=60, vocab_words=30, seed=11):
    rng = random.Random(seed)
    words = [f"w{i}" for i in range(vocab_words)]
    return [
        make_doc(rng.choices(words, k=rng.randint(1, 8)), SentimentLabel(i % 3), f"r{i}")
        for i in range(n)
    ]


class TestClosedFormPegasos:
    @pytest.mark.parametrize("corpus", [separable_fixture, random_corpus])
    @pytest.mark.parametrize("feature_mode", ["tf", "tfidf"])
    @pytest.mark.parametrize("epochs", [1, 50])
    def test_matches_the_per_step_loop(self, corpus, feature_mode, epochs):
        docs = corpus()
        vocab = build_vocab(token_ids(docs))
        config = SvmConfig(
            regularization_lambda=0.01, epochs=epochs, seed=3, feature_mode=feature_mode
        )
        model = svm_train(labeled_ids(docs), vocab, config)
        reference = reference_svm_train(docs, vocab, config)
        assert np.allclose(model.weights, reference.weights, rtol=0, atol=1e-12)
        assert np.array_equal(model.biases, reference.biases)
        assert model.initial_objective == reference.initial_objective
        assert np.allclose(
            model.final_objective, reference.final_objective, rtol=0, atol=1e-12
        )
        for doc in docs:
            assert svm_predict(doc, model, vocab)[0] is svm_predict(doc, reference, vocab)[0]

    def test_hinge_objective_pinned_to_the_reference_formula(self):
        # dyadic values sum exactly in any order
        w = np.array([0.5, -1.25, 2.0])
        rows = [{0: 1.0, 2: 0.5}, {1: 2.0}, {0: 0.25, 1: 1.0, 2: 1.0}]
        ys = np.array([1.0, 1.0, -1.0])
        value = hinge_objective(w, 0.125, csr(rows), ys, 0.5)
        assert value == reference_hinge_objective(w, 0.125, rows, ys, 0.5)
        assert value == 0.5 * 0.5 * 5.8125 + (3.375 + 2.0) / 3

    def test_hinge_objective_matches_the_reference_on_tfidf_rows(self):
        docs = random_corpus()
        vocab = build_vocab(token_ids(docs))
        rows = [vectorize(d, vocab, mode="tfidf") for d in docs]
        ys = np.where(np.arange(len(docs)) % 3 == 0, 1.0, -1.0)
        w = np.random.default_rng(5).normal(size=vocab.size)
        matrix = feature_matrix(token_ids(docs), vocab, "tfidf")
        assert hinge_objective(w, -0.3, matrix, ys, 0.01) == pytest.approx(
            reference_hinge_objective(w, -0.3, rows, ys, 0.01), rel=1e-12
        )

    def test_hinge_objective_sums_the_rows_in_order(self):
        # svm_model.json stores final_objective, so its summation order is
        # part of the file's bytes; at 100 rows np.sum's pairwise order
        # already gives another result
        docs = random_corpus(n=100)
        vocab = build_vocab(token_ids(docs))
        rows = [vectorize(d, vocab, mode="tfidf") for d in docs]
        ys = np.where(np.arange(len(docs)) % 3 == 0, 1.0, -1.0)
        w = np.random.default_rng(5).normal(size=vocab.size)
        matrix = feature_matrix(token_ids(docs), vocab, "tfidf")
        assert hinge_objective(w, -0.3, matrix, ys, 0.01) == reference_hinge_objective(
            w, -0.3, rows, ys, 0.01
        )

    def test_rerun_saves_identical_bytes(self, tmp_path):
        docs = random_corpus()
        vocab = build_vocab(token_ids(docs))
        config = SvmConfig(regularization_lambda=0.01, epochs=5, seed=0)
        for name in ("a.json", "b.json"):
            model = svm_train(labeled_ids(docs), vocab, config)
            save_model(model, vocab, tmp_path / name)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def reference_scores(document, model, vocab):
    """The per-document loop predict_batch replaced: offsets first, then
    each nonzero's weight column in vectorize order."""
    if isinstance(model, MnbModel):
        offsets, weights, mode = model.class_log_prior, model.token_log_likelihood, "tf"
    else:
        offsets, weights, mode = model.biases, model.weights, model.feature_mode
    scores = offsets.copy()
    for idx, value in vectorize(document, vocab, mode=mode).items():
        scores += value * weights[:, idx]
    return SentimentLabel(int(np.argmax(scores))), scores


def trained_models(labeled, vocab):
    yield mnb_train(labeled, vocab)
    for mode in ("tf", "tfidf"):
        config = SvmConfig(regularization_lambda=0.01, epochs=5, seed=1, feature_mode=mode)
        yield svm_train(labeled, vocab, config)


class TestPredictBatch:
    def test_feature_matrix_keeps_row_order(self):
        # first-occurrence order within a row; an OOV-only row is empty
        vocab = BowVocab(
            token_to_index={t: i for i, t in enumerate("abcde")},
            document_frequency=(1,) * 5,
            num_documents=1,
        )
        docs = [make_doc(["e", "b", "e"]), make_doc(["oov"]), make_doc(["a"])]
        indptr, indices, values = feature_matrix(token_ids(docs), vocab)
        assert indptr.tolist() == [0, 2, 2, 3]
        assert indices.tolist() == [4, 1, 0]
        assert values.tolist() == [2.0, 1.0, 1.0]

    @pytest.mark.parametrize("corpus", [separable_fixture, random_corpus])
    def test_scores_equal_the_per_document_loop(self, corpus):
        docs = corpus()
        vocab = build_vocab(token_ids(docs))
        probes = docs + [make_doc([], None, "empty"), make_doc(["asing", "lain"], None, "oov")]
        for model in trained_models(labeled_ids(docs), vocab):
            labels, scores = predict_batch(token_ids(probes), model, vocab)
            assert scores.shape == (len(probes), 3)
            for doc, label, row in zip(probes, labels, scores):
                expected_label, expected = reference_scores(doc, model, vocab)
                assert label is expected_label
                assert np.array_equal(row, expected)

    def test_empty_and_out_of_vocabulary_documents_score_the_offsets(self):
        docs = random_corpus()
        vocab = build_vocab(token_ids(docs))
        probes = [make_doc([], None, "empty"), make_doc(["asing"], None, "oov")]
        for model in trained_models(labeled_ids(docs), vocab):
            offsets = model.class_log_prior if isinstance(model, MnbModel) else model.biases
            _, scores = predict_batch(token_ids(probes), model, vocab)
            assert np.array_equal(scores, [offsets, offsets])

    @pytest.mark.parametrize(
        "offsets, expected", [([0.0, 0.0, 0.0], NEG), ([-1.0, 0.5, 0.5], NEU)]
    )
    def test_ties_go_to_the_lowest_label_code(self, offsets, expected):
        vocab = build_vocab(token_ids([make_doc(["fa"], doc_id="basis")]))
        model = SvmModel(
            weights=np.zeros((3, 1)),
            biases=np.array(offsets),
            regularization_lambda=0.01,
            feature_mode="tf",
        )
        probes = [make_doc([], None, "e"), make_doc(["fa"], None, "q")]
        labels, _ = predict_batch(token_ids(probes), model, vocab)
        assert labels == [expected, expected]

    def test_no_documents_give_no_labels(self):
        docs = three_class_docs()
        vocab = build_vocab(token_ids(docs))
        model = mnb_train(labeled_ids(docs), vocab)
        labels, scores = predict_batch(token_ids([]), model, vocab)
        assert labels == []
        assert scores.shape == (0, 3)

    def test_unsupported_model_type_rejected(self):
        vocab = build_vocab(token_ids([make_doc(["x"], doc_id="a")]))
        with pytest.raises(TypeError, match="unsupported model"):
            predict_batch(token_ids([make_doc(["x"], doc_id="q")]), object(), vocab)


def split_corpus(words: list[list[str]], seed: int):
    """A labeled corpus (all three classes, some empty documents) cut into
    a shuffled training and probe half, each half's ids twice: from its own
    documents, and taken from the whole corpus's id table."""
    docs = [
        make_doc(tokens, SentimentLabel(i % 3), f"d{i}") for i, tokens in enumerate(words)
    ]
    labeled = labeled_ids(docs)
    rng = np.random.default_rng(seed)
    rest = rng.permutation(np.arange(3, len(docs)))
    # documents 0, 1 and 2 hold the three classes
    train_rows = rng.permutation(np.concatenate([[0, 1, 2], rest[: len(rest) // 2]]))
    probe_rows = rest[len(rest) // 2 :]
    return (
        labeled_ids([docs[i] for i in train_rows.tolist()]),
        labeled.take(train_rows),
        token_ids([docs[i] for i in probe_rows.tolist()]),
        labeled.take(probe_rows).documents,
    )


def assert_models_equal(got, want):
    assert type(got) is type(want)
    for name, value in vars(want).items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(getattr(got, name), value), name
        else:
            assert getattr(got, name) == value, name


class TestTokenIdsInput:
    """Token ids taken from a larger corpus's id table, so that some ids go
    unused, give what the same documents' own ids give, element for
    element."""

    @given(
        st.lists(st.lists(WORDS, max_size=6), min_size=6, max_size=24),
        st.integers(min_value=0, max_value=2**16),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_bow_function_gives_the_document_result(self, words, seed, min_count):
        train_own, train_taken, probe_own, probe_taken = split_corpus(words, seed)
        vocab = build_vocab(train_own.documents, min_count=min_count)
        assert build_vocab(train_taken.documents, min_count=min_count) == vocab
        for own, taken in (
            (train_own.documents, train_taken.documents),
            (probe_own, probe_taken),
        ):
            for mode in ("tf", "tfidf"):
                for got, want in zip(
                    feature_matrix(taken, vocab, mode), feature_matrix(own, vocab, mode)
                ):
                    assert got.dtype == want.dtype
                    assert np.array_equal(got, want)
        models = list(trained_models(train_own, vocab))
        assert len(models) == len(list(trained_models(train_taken, vocab)))
        for got, want in zip(trained_models(train_taken, vocab), models):
            assert_models_equal(got, want)
            got_labels, got_scores = predict_batch(probe_taken, want, vocab)
            want_labels, want_scores = predict_batch(probe_own, want, vocab)
            assert got_labels == want_labels
            assert np.array_equal(got_scores, want_scores)


class TestModelPersistence:
    def test_mnb_round_trip(self, tmp_path):
        docs = three_class_docs()
        vocab = build_vocab(token_ids(docs))
        model = mnb_train(labeled_ids(docs), vocab, alpha=0.5)
        path = tmp_path / "mnb.json"
        save_model(model, vocab, path)
        loaded, loaded_vocab = load_model(path)
        assert np.array_equal(loaded.class_log_prior, model.class_log_prior)
        assert np.array_equal(loaded.token_log_likelihood, model.token_log_likelihood)
        assert loaded.smoothing_alpha == 0.5
        assert loaded_vocab == vocab
        probe = make_doc(["ppkm", "bagus"], None, "q")
        assert mnb_predict(probe, loaded, loaded_vocab)[0] is (
            mnb_predict(probe, model, vocab)[0]
        )

    def test_svm_round_trip(self, tmp_path):
        docs = separable_fixture()
        vocab = build_vocab(token_ids(docs))
        model = svm_train(
            labeled_ids(docs),
            vocab,
            SvmConfig(regularization_lambda=0.05, epochs=5, feature_mode="tfidf"),
        )
        path = tmp_path / "svm.json"
        save_model(model, vocab, path)
        loaded, loaded_vocab = load_model(path)
        assert np.array_equal(loaded.weights, model.weights)
        assert np.array_equal(loaded.biases, model.biases)
        assert loaded.feature_mode == "tfidf"
        assert loaded.initial_objective == model.initial_objective
        assert loaded.final_objective == model.final_objective
        assert loaded_vocab == vocab

    def test_magic_and_version_guards(self, tmp_path):
        docs = three_class_docs()
        vocab = build_vocab(token_ids(docs))
        model = mnb_train(labeled_ids(docs), vocab)
        path = tmp_path / "model.json"
        save_model(model, vocab, path)

        import json

        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["magic"] == MODEL_MAGIC

        for patch in ({"magic": "other"}, {"version": 9999}, {"kind": "forest"}):
            broken = dict(payload)
            broken.update(patch)
            path.write_text(json.dumps(broken), encoding="utf-8")
            with pytest.raises(CheckpointFormatError):
                load_model(path)

    def test_expected_kind_guard(self, tmp_path):
        docs = three_class_docs()
        vocab = build_vocab(token_ids(docs))
        path = tmp_path / "model.json"
        save_model(mnb_train(labeled_ids(docs), vocab), vocab, path)
        assert isinstance(load_model(path, "mnb")[0], MnbModel)
        with pytest.raises(CheckpointFormatError, match="expected 'svm'"):
            load_model(path, "svm")

    def test_unsupported_model_type_rejected(self, tmp_path):
        vocab = build_vocab(token_ids([make_doc(["x"], doc_id="a")]))
        with pytest.raises(TypeError, match="unsupported model"):
            save_model(object(), vocab, tmp_path / "bad.json")
