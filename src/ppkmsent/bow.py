"""Bag-of-words baselines: Multinomial Naive Bayes and a linear SVM.

Tokens are counted as integer ids, never as Python objects per document.
Every function takes documents as :class:`~ppkmsent.preprocess.TokenIds`,
the training functions as :class:`~ppkmsent.preprocess.LabeledIds`; only
the one-document views (:func:`vectorize`, :func:`mnb_predict`,
:func:`svm_predict`) take a ``Document``.  :func:`build_vocab` takes each
token's total and document frequency by ``np.bincount``, the latter over
the distinct (document, id) keys left by one sort.  The featurizer,
:func:`feature_matrix`, and :func:`mnb_train` map ids to vocabulary
indices through a table with one entry per token of the id table, and drop
OOV tokens.  The featurizer's output is the CSR triple (indptr,
indices, values) of a list of documents, each row's entries in the order
its in-vocabulary tokens first occur, found by one stable argsort of the
(document, index) keys.  The SVM trains on rows in its feature mode, both
models score on them, and :func:`vectorize` is one document's row; MNB
training needs only per-class token totals, one bincount over (class,
index) cells.  Every sum over a row, a tf-idf norm or a score, adds its
terms in stored order (``_row_sums``), as a plain Python loop would;
builtin ``sum()`` adds floats with compensation from Python 3.12 on, so the
features would otherwise depend on the Python version.

MNB uses raw counts with Laplace smoothing; the SVM trains three
one-vs-rest hinge-loss separators by Pegasos-style stochastic subgradient
descent on tf-idf features, in closed form: after step t the weights are
w = S/(lambda*t), S the sum of y*x over the margin violations so far, so a
step costs only the row's nonzeros.

Both models score the same way: offsets (3,) + W (3, V) . x, with the MNB
prior and log-likelihoods on tf counts or the SVM biases and weights on its
feature mode.  :func:`predict_batch` gives every row of the documents'
feature matrix a leading unit entry for the offset and sums it in stored
order, offset first.  Ties at prediction time break toward the lowest
label code (Negative < Neutral < Positive) so argmax is total.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from ppkmsent import artifacts
from ppkmsent.errors import CheckpointFormatError, MissingClassError
from ppkmsent.preprocess import (
    Document,
    LabeledIds,
    SentimentLabel,
    TokenIds,
    rank_tokens,
    run_starts,
    token_ids,
)

MODEL_MAGIC = "ppkmsent/bow-model"
MODEL_VERSION = 1

NUM_CLASSES = 3


@dataclass(frozen=True)
class BowVocab:
    """Dense token index over the training split.

    Indices run 0..V-1 in :func:`~ppkmsent.preprocess.rank_tokens` order.
    """

    token_to_index: dict[str, int]
    document_frequency: tuple[int, ...]
    num_documents: int

    @property
    def size(self) -> int:
        return len(self.token_to_index)

    def tokens_in_index_order(self) -> list[str]:
        return sorted(self.token_to_index, key=self.token_to_index.__getitem__)

    @cached_property
    def idf(self) -> np.ndarray:
        """ln((1+N)/(1+df)) + 1 per index, by ``math.log`` as a per-token
        loop takes it; computed once per vocabulary."""
        n = self.num_documents
        return np.array(
            [math.log((1 + n) / (1 + df)) + 1.0 for df in self.document_frequency],
            dtype=float,
        )


def build_vocab(documents: TokenIds, min_count: int = 1) -> BowVocab:
    """Count tokens over the training documents and assign dense indices."""
    lengths, ids, tokens = documents
    if not len(lengths):
        raise ValueError("cannot build a vocabulary from an empty training set")
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    u = len(tokens)
    totals = dict(zip(tokens, np.bincount(ids, minlength=u).tolist()))
    # a token's document frequency counts its distinct (document, id) pairs
    pairs = _pair_keys(lengths, ids, u)
    pairs.sort()
    distinct = pairs[run_starts(pairs)]
    del pairs
    distinct %= max(u, 1)
    doc_freq = dict(zip(tokens, np.bincount(distinct, minlength=u).tolist()))
    # tokens of the id table that these documents do not use count 0, and
    # rank_tokens drops them with every other count below min_count
    kept = rank_tokens(totals, min_count)
    return BowVocab(
        token_to_index={t: i for i, t in enumerate(kept)},
        document_frequency=tuple(doc_freq[t] for t in kept),
        num_documents=len(lengths),
    )


def feature_matrix(
    documents: TokenIds, vocab: BowVocab, mode: str = "tf"
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR triple (indptr, indices, values) of the documents' features.

    Row r holds entries indptr[r]:indptr[r+1], one per distinct
    in-vocabulary token of document r, in the order the tokens first occur;
    OOV tokens are ignored.  "tf" gives raw counts.  "tfidf" multiplies
    counts by ln((1+N)/(1+df)) + 1 and divides each row by its L2 norm,
    its squares added in stored order.
    """
    if mode not in ("tf", "tfidf"):
        raise ValueError(f"unsupported feature mode: {mode!r}")
    lengths, indices = _in_vocabulary(documents, vocab)
    lengths, indices, counts = _row_counts(lengths, indices, vocab.size)
    values = counts.astype(float)
    indptr = np.zeros(len(lengths) + 1, dtype=np.intp)
    np.cumsum(lengths, out=indptr[1:])
    if mode == "tfidf":
        values *= vocab.idf[indices]
        values /= np.repeat(np.sqrt(_row_sums(indptr, values * values)), lengths)
    return indptr, indices, values


def _in_vocabulary(
    documents: TokenIds, vocab: BowVocab
) -> tuple[np.ndarray, np.ndarray]:
    """Each document's number of in-vocabulary tokens, and their vocabulary
    indices in document order, OOV tokens dropped."""
    indices = documents.lookup(vocab.token_to_index, -1)
    known = indices >= 0
    n = len(documents.lengths)
    docs = np.repeat(np.arange(n), documents.lengths)[known]
    return np.bincount(docs, minlength=n), indices[known]


def _pair_keys(lengths: np.ndarray, ids: np.ndarray, size: int) -> np.ndarray:
    """d * size + id for each id, d the document that owns it (document d
    owns the next ``lengths[d]`` of ``ids``, each below ``size``)."""
    keys = np.repeat(np.arange(len(lengths)) * size, lengths)
    keys += ids
    return keys


def _row_counts(
    lengths: np.ndarray, ids: np.ndarray, size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per document, its number of distinct ids; and for each distinct id
    of each document, the id and its count, in first-occurrence order.

    A stable argsort of the (document, id) keys groups each pair's
    occurrences, first occurrence first.  Each pair's count is scattered
    to the position of its first occurrence, and reading the positions in
    order gives every document's ids in the order they first occur.
    """
    keys = _pair_keys(lengths, ids, size)
    order = np.argsort(keys, kind="stable")
    runs = np.flatnonzero(run_starts(keys[order]))
    del keys
    count_at = np.zeros(len(ids), dtype=np.intp)
    count_at[order[runs]] = np.diff(runs, append=len(ids))
    del order, runs
    firsts = np.flatnonzero(count_at)
    rows = np.repeat(np.arange(len(lengths)), lengths)[firsts]
    return np.bincount(rows, minlength=len(lengths)), ids[firsts], count_at[firsts]


def vectorize(document: Document, vocab: BowVocab, mode: str = "tf") -> dict[int, float]:
    """The document's :func:`feature_matrix` row as {index: value}."""
    _, indices, values = feature_matrix(token_ids([document]), vocab, mode)
    return dict(zip(indices.tolist(), values.tolist()))


def _row_sums(indptr: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """Sum of each CSR row's terms, added in stored order from 0.0.

    np.bincount accumulates its weights in input order, so a row sums
    exactly as a Python loop over its entries would.
    """
    n = len(indptr) - 1
    row_ids = np.repeat(np.arange(n), np.diff(indptr))
    return np.bincount(row_ids, weights=terms, minlength=n)


def _require_all_classes(labels: np.ndarray, need_all: bool = True) -> set[SentimentLabel]:
    present = set(map(SentimentLabel, np.unique(labels).tolist()))
    if need_all and len(present) < NUM_CLASSES:
        missing = [lbl.name for lbl in SentimentLabel if lbl not in present]
        raise MissingClassError(f"classes absent from training data: {missing}")
    return present


# ---------------------------------------------------------------------------
# Multinomial Naive Bayes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MnbModel:
    class_log_prior: np.ndarray  # (3,)
    token_log_likelihood: np.ndarray  # (3, V)
    smoothing_alpha: float


def mnb_train(train: LabeledIds, vocab: BowVocab, alpha: float = 1.0) -> MnbModel:
    """Fit smoothed multinomial likelihoods.

    prior_c = ln(N_c / N); likelihood_ct = ln((count_ct + alpha) /
    (total_c + alpha * V)) where total_c sums vocabulary-token counts in
    class c, so each class row exp-sums to 1.
    """
    documents, labels = train
    if not len(labels):
        raise ValueError("empty training set")
    if not 0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    _require_all_classes(labels)
    v = vocab.size
    class_counts = np.bincount(labels, minlength=NUM_CLASSES)
    # each in-vocabulary token adds one to cell c*V + i, all in one bincount;
    # the integer counts convert exactly, so the floats below equal a loop's
    lengths, indices = _in_vocabulary(documents, vocab)
    cells = np.repeat(labels * v, lengths) + indices
    token_counts = np.bincount(cells, minlength=NUM_CLASSES * v).reshape(NUM_CLASSES, v)
    class_log_prior = np.log(class_counts / len(labels))
    if v == 0:
        token_log_likelihood = np.zeros((NUM_CLASSES, 0))
    else:
        totals = token_counts.sum(axis=1, keepdims=True)
        token_log_likelihood = np.log((token_counts + alpha) / (totals + alpha * v))
    return MnbModel(
        class_log_prior=class_log_prior,
        token_log_likelihood=token_log_likelihood,
        smoothing_alpha=float(alpha),
    )


def mnb_predict(
    document: Document, model: MnbModel, vocab: BowVocab
) -> tuple[SentimentLabel, np.ndarray]:
    """Argmax of prior + sum of count-weighted log likelihoods."""
    labels, scores = predict_batch(token_ids([document]), model, vocab)
    return labels[0], scores[0]


# ---------------------------------------------------------------------------
# Linear SVM (one-vs-rest Pegasos)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SvmConfig:
    regularization_lambda: float = 0.01
    epochs: int = 50
    seed: int = 0
    feature_mode: str = "tfidf"

    def __post_init__(self):
        if not 0 < self.regularization_lambda < math.inf:
            raise ValueError("regularization_lambda must be positive and finite")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.feature_mode not in ("tf", "tfidf"):
            raise ValueError(f"unsupported feature mode: {self.feature_mode!r}")


@dataclass(frozen=True)
class SvmModel:
    weights: np.ndarray  # (3, V)
    biases: np.ndarray  # (3,)
    regularization_lambda: float
    feature_mode: str
    initial_objective: tuple[float, ...] = field(default=())
    final_objective: tuple[float, ...] = field(default=())


def _row_dicts(
    matrix: tuple[np.ndarray, np.ndarray, np.ndarray], v: int
) -> list[dict[int, float]]:
    """Each CSR row as an {index: value} dict in stored order, for the
    Pegasos loop.

    The index ints come from one shared table, so a column that recurs
    across rows costs one int object, not one per entry.  Dicts rather
    than (indices, values) lists: with the lists, a process that runs the
    classic benchmark's stages in a loop ended each iteration about 6 MB
    larger, although the stage's own peak was the same.
    """
    indptr, indices, values = matrix
    ids = np.arange(v, dtype=object)[indices].tolist()
    floats = values.tolist()
    bounds = indptr.tolist()
    return [
        dict(zip(ids[start:end], floats[start:end]))
        for start, end in zip(bounds, bounds[1:])
    ]


def hinge_objective(
    w: np.ndarray,
    b: float,
    matrix: tuple[np.ndarray, np.ndarray, np.ndarray],
    ys: np.ndarray,
    lam: float,
) -> float:
    """lam/2 * ||w||^2 + mean hinge loss over the rows of a feature_matrix."""
    indptr, indices, values = matrix
    dots = _row_sums(indptr, values * w[indices])
    hinge = np.maximum(0.0, 1.0 - ys * (dots + b))
    # a running total in row order, not np.sum's pairwise order
    return 0.5 * lam * float(w @ w) + float(np.cumsum(hinge)[-1]) / len(hinge)


def svm_train(train: LabeledIds, vocab: BowVocab, config: SvmConfig) -> SvmModel:
    """Train three one-vs-rest hinge separators with step size 1/(lambda*t).

    Pegasos starts from w = 0 and at step t shrinks w by (1 - 1/t) before
    adding y*x/(lambda*t) on a margin violation.  The shrink factors
    telescope, so after step t exactly w = S/(lambda*t), where S is the sum
    of y*x over the violations so far.  The loop keeps S as a plain list
    and touches only each row's nonzeros; w is formed once per class.

    The bias is updated on margin violations but never shrunk by the
    regularizer.  Because every update step scales as 1/lambda, very large
    lambda drives both weights and margins toward zero.  Deterministic for
    a fixed seed.
    """
    documents, labels = train
    present = _require_all_classes(labels, need_all=False)
    if len(present) < 2:
        raise MissingClassError("SVM training needs at least 2 classes present")
    v = vocab.size
    matrix = feature_matrix(documents, vocab, config.feature_mode)
    rows = _row_dicts(matrix, v)
    lam = config.regularization_lambda

    solved = []
    class_seeds = np.random.SeedSequence(config.seed).spawn(NUM_CLASSES)
    for c in range(NUM_CLASSES):
        rng = np.random.default_rng(class_seeds[c])
        ys = np.where(labels == c, 1.0, -1.0)
        signs = ys.tolist()
        s = [0.0] * v  # sum of y*x over violations; w = s / (lam * t)
        b = 0.0
        t = 0
        for _ in range(config.epochs):
            for idx in rng.permutation(len(rows)).tolist():
                t += 1
                row = rows[idx]
                y = signs[idx]
                if t == 1:
                    margin = y * b  # w = 0 before the first step
                else:
                    dot = 0.0
                    for i, value in row.items():
                        dot += s[i] * value
                    margin = y * (dot / (lam * (t - 1)) + b)
                if margin < 1.0:
                    for i, value in row.items():
                        s[i] += y * value
                    b += y / (lam * t)
        solved.append((np.array(s) / (lam * t), b, ys))

    # drop the row dicts before the passes allocate their temporaries
    del rows
    final_obj = tuple(hinge_objective(w, b, matrix, ys, lam) for w, b, ys in solved)

    return SvmModel(
        weights=np.array([w for w, _, _ in solved]),
        biases=np.array([b for _, b, _ in solved]),
        regularization_lambda=lam,
        feature_mode=config.feature_mode,
        # at w = 0, b = 0 every hinge term is exactly 1
        initial_objective=(1.0,) * NUM_CLASSES,
        final_objective=final_obj,
    )


def svm_predict(
    document: Document, model: SvmModel, vocab: BowVocab
) -> tuple[SentimentLabel, np.ndarray]:
    """Argmax of per-class margins w_c . x + b_c."""
    labels, margins = predict_batch(token_ids([document]), model, vocab)
    return labels[0], margins[0]


# ---------------------------------------------------------------------------
# Batch scoring
# ---------------------------------------------------------------------------


def predict_batch(
    documents: TokenIds, model: MnbModel | SvmModel, vocab: BowVocab
) -> tuple[list[SentimentLabel], np.ndarray]:
    """Labels and (n, 3) scores offsets + W . x for every document.

    Each row sums its offset first and then its nonzeros in stored order,
    the order of a per-document loop, so the scores do not depend
    on how many documents share a call.
    """
    if isinstance(model, MnbModel):
        offsets, weights, mode = model.class_log_prior, model.token_log_likelihood, "tf"
    elif isinstance(model, SvmModel):
        offsets, weights, mode = model.biases, model.weights, model.feature_mode
    else:
        raise TypeError(f"unsupported model type: {type(model).__name__}")
    indptr, indices, values = feature_matrix(documents, vocab, mode)
    # a unit entry in an extra column V leads every row, so the offset is
    # the first term of its sum
    starts = indptr[:-1]
    indices = np.insert(indices, starts, vocab.size)
    values = np.insert(values, starts, 1.0)
    indptr = indptr + np.arange(len(indptr))
    table = np.hstack([weights, offsets[:, None]])
    scores = np.column_stack(
        [_row_sums(indptr, values * table[c, indices]) for c in range(NUM_CLASSES)]
    )
    labels = [SentimentLabel(int(code)) for code in np.argmax(scores, axis=1)]
    return labels, scores


# ---------------------------------------------------------------------------
# Persistence (versioned JSON container)
# ---------------------------------------------------------------------------


def _vocab_to_payload(vocab: BowVocab) -> dict:
    return {
        "tokens": vocab.tokens_in_index_order(),
        "document_frequency": list(vocab.document_frequency),
        "num_documents": vocab.num_documents,
    }


def _vocab_from_payload(payload: dict, path) -> BowVocab:
    try:
        tokens = artifacts.str_list(payload, "tokens")
    except ValueError as exc:
        raise CheckpointFormatError(f"{path}: vocab {exc}") from exc
    token_to_index = {t: i for i, t in enumerate(tokens)}
    if len(token_to_index) != len(tokens):
        raise CheckpointFormatError(f"{path}: vocab.tokens repeats a token")
    return BowVocab(
        token_to_index=token_to_index,
        document_frequency=tuple(payload["document_frequency"]),
        num_documents=payload["num_documents"],
    )


def save_model(model, vocab: BowVocab, path: str | Path) -> None:
    """Write an MNB or SVM model with its vocabulary as versioned JSON."""
    if isinstance(model, MnbModel):
        payload = {
            "kind": "mnb",
            "class_log_prior": model.class_log_prior.tolist(),
            "token_log_likelihood": model.token_log_likelihood.tolist(),
            "smoothing_alpha": model.smoothing_alpha,
        }
    elif isinstance(model, SvmModel):
        payload = {
            "kind": "svm",
            "weights": model.weights.tolist(),
            "biases": model.biases.tolist(),
            "regularization_lambda": model.regularization_lambda,
            "feature_mode": model.feature_mode,
            "initial_objective": list(model.initial_objective),
            "final_objective": list(model.final_objective),
        }
    else:
        raise TypeError(f"unsupported model type: {type(model).__name__}")
    payload["magic"] = MODEL_MAGIC
    payload["version"] = MODEL_VERSION
    payload["vocab"] = _vocab_to_payload(vocab)
    artifacts.write_json(payload, path)


def _shaped_array(payload: dict, key: str, shape: tuple[int, ...], path) -> np.ndarray:
    value = np.array(payload[key], dtype=float)
    if value.shape != shape:
        raise CheckpointFormatError(f"{path}: {key} has shape {value.shape}, expected {shape}")
    if not np.isfinite(value).all():
        raise CheckpointFormatError(f"{path}: {key} holds a non-finite value")
    return value


def load_model(path: str | Path, kind: str | None = None):
    """Load (model, vocab) from a container written by save_model.

    A CheckpointFormatError names the file and the field when the file
    holds another kind of model than ``kind`` ("mnb" or "svm", when
    given), when a vocabulary token is not a string or repeats, when a
    weight, offset or document-frequency array does not match the
    vocabulary's shape, when a weight or offset is not finite, when the
    document count N is below 1, and when a document frequency is not an
    integer in 0..N.
    """
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or payload.get("magic") != MODEL_MAGIC:
        raise CheckpointFormatError(f"{path}: not a ppkmsent bow model file")
    if payload.get("version") != MODEL_VERSION:
        raise CheckpointFormatError(
            f"{path}: unsupported model version {payload.get('version')!r}"
        )
    if kind is not None and payload.get("kind") != kind:
        raise CheckpointFormatError(
            f"{path}: holds a {payload.get('kind')!r} model, expected {kind!r}"
        )
    vocab = _vocab_from_payload(payload["vocab"], path)
    if len(vocab.document_frequency) != vocab.size:
        raise CheckpointFormatError(
            f"{path}: {len(vocab.document_frequency)} document frequencies "
            f"for {vocab.size} vocabulary tokens"
        )
    n = vocab.num_documents
    if not artifacts.is_int(n) or n < 1:
        raise CheckpointFormatError(f"{path}: vocab.num_documents is {n!r}, expected >= 1")
    frequencies = vocab.document_frequency
    if not all(artifacts.is_int(df) and 0 <= df <= n for df in frequencies):
        raise CheckpointFormatError(
            f"{path}: vocab.document_frequency holds a value outside 0..{n}"
        )
    weight_shape = (NUM_CLASSES, vocab.size)
    if payload["kind"] == "mnb":
        model = MnbModel(
            class_log_prior=_shaped_array(payload, "class_log_prior", (NUM_CLASSES,), path),
            token_log_likelihood=_shaped_array(
                payload, "token_log_likelihood", weight_shape, path
            ),
            smoothing_alpha=payload["smoothing_alpha"],
        )
    elif payload["kind"] == "svm":
        model = SvmModel(
            weights=_shaped_array(payload, "weights", weight_shape, path),
            biases=_shaped_array(payload, "biases", (NUM_CLASSES,), path),
            regularization_lambda=payload["regularization_lambda"],
            feature_mode=payload["feature_mode"],
            initial_objective=tuple(payload.get("initial_objective", ())),
            final_objective=tuple(payload.get("final_objective", ())),
        )
    else:
        raise CheckpointFormatError(f"{path}: unknown model kind {payload['kind']!r}")
    return model, vocab
