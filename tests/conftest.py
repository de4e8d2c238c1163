"""Shared helpers for the test suite."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ppkmsent import artifacts, corpus, lexicon
from ppkmsent.data import default_lexicon
from ppkmsent.preprocess import Document, SentimentLabel, label_codes, parse_label

_LABELED_ROW_FIELDS = {"id": str, "raw_text": str, "clean_text": str, "label": str}


def document_from_row(payload: object) -> Document:
    """The Document a ``labeled.jsonl`` row spells; ValueError on a row of
    the wrong shape."""
    payload = artifacts.check_row(payload, _LABELED_ROW_FIELDS)
    return Document(
        payload["id"],
        payload["raw_text"],
        payload["clean_text"],
        tuple(artifacts.str_list(payload, "tokens")),
        parse_label(payload["label"]),
    )


def labeled_documents(output_dir: Path) -> list[Document]:
    """The documents of the ``labeled.jsonl`` in ``output_dir``, parsed row
    by row; no stage reads them this way."""
    return artifacts.load_jsonl(output_dir / "labeled.jsonl", document_from_row)[0]


def worksheet_keeping_labels(documents: list[Document]) -> list[lexicon.WorksheetRow]:
    """The label stage's worksheet for labeled documents, each document's
    own label standing as a review override, so that it is the final one."""
    overrides = {doc.id: doc.label for doc in documents}
    return lexicon.label_corpus(documents, default_lexicon(), overrides=overrides)


def split_documents(
    documents: list[Document], spec: corpus.SplitSpec
) -> list[list[Document]]:
    """The documents of each part that ``corpus.split`` gives for their
    label codes."""
    parts = corpus.split(label_codes(documents), spec)
    return [[documents[i] for i in part.tolist()] for part in parts]


def make_doc(
    tokens: list[str] | tuple[str, ...],
    label: SentimentLabel | None = None,
    doc_id: str | None = None,
) -> Document:
    """Build a Document directly from a token list, skipping cleansing."""
    text = " ".join(tokens)
    return Document(
        id=doc_id if doc_id is not None else ("-".join(tokens) or "empty"),
        raw_text=text,
        clean_text=text,
        tokens=tuple(tokens),
        label=label,
    )


def separable_fixture() -> list[Document]:
    """A linearly separable 15-document corpus over two feature tokens.

    Negative documents are dominated by "fa", positive by "fb", and the
    neutral class sits on the balanced diagonal, so raw counts admit a
    perfect linear separator for each one-vs-rest problem.
    """
    neg = [
        make_doc(["fa"] * 3, SentimentLabel.NEGATIVE, f"n{i}") for i in range(3)
    ]
    neg.append(make_doc(["fa"] * 4, SentimentLabel.NEGATIVE, "n3"))
    neg.append(make_doc(["fa", "fa", "fa", "fb"], SentimentLabel.NEGATIVE, "n4"))
    pos = [
        make_doc(["fb"] * 3, SentimentLabel.POSITIVE, f"p{i}") for i in range(3)
    ]
    pos.append(make_doc(["fb"] * 4, SentimentLabel.POSITIVE, "p3"))
    pos.append(make_doc(["fb", "fb", "fb", "fa"], SentimentLabel.POSITIVE, "p4"))
    neu = [make_doc(["fa", "fb"], SentimentLabel.NEUTRAL, f"z{i}") for i in range(5)]
    return neg + neu + pos


def encoder_gradient_check(
    num_layers: int = 1, num_heads: int = 1
) -> dict[str, float]:
    """Compare analytic encoder gradients against central finite differences.

    Runs a 4-wide encoder (one layer and one head by default) on a fixed
    two-sequence batch whose second row ends in padding, and returns the
    relative error per parameter tensor, where the relative error is
    ||g_a - g_n|| / max(||g_a|| + ||g_n||, 1e-12).  With two or more layers
    the inner layers run on every position and the last on [CLS] alone.

    At the standard init scale (std 0.02) the attention-projection
    gradients sit near 3e-9, below what float64 central differences can
    resolve, so every non-gain, non-bias tensor is scaled by 25 first;
    that lifts the signal while keeping the network well-conditioned.  The
    params are float64: the same code runs in float32 by default, but float32
    central differences cannot resolve these gradients.
    """
    from ppkmsent.encoder.config import EncoderConfig
    from ppkmsent.encoder.model import backward, cross_entropy, forward, init_params

    config = EncoderConfig(
        num_layers=num_layers,
        num_heads=num_heads,
        hidden_size=4,
        feedforward_size=8,
        max_sequence_length=4,
        vocab_size=8,
        dropout_rate=0.0,
    )
    params = init_params(config, seed=0, dtype=np.float64)
    for name, tensor in params.items():
        if not name.endswith(("_gain", "_bias", "head_b")):
            tensor *= 25.0

    ids = np.array([[2, 4, 5, 3], [2, 6, 3, 0]], dtype=np.int64)
    mask = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 0.0]])
    labels = np.array([0, 2], dtype=np.int64)

    def batch_loss() -> float:
        result = forward(ids, mask, params, config, "eval")
        return cross_entropy(result.logits, labels)[0]

    result = forward(ids, mask, params, config, "eval", want_cache=True)
    _, dlogits = cross_entropy(result.logits, labels)
    grads = backward(dlogits, params, config, result.cache)

    eps = 1e-5
    errors: dict[str, float] = {}
    for name, tensor in params.items():
        numeric = np.zeros_like(tensor)
        flat_tensor = tensor.reshape(-1)
        flat_numeric = numeric.reshape(-1)
        for i in range(flat_tensor.size):
            original = flat_tensor[i]
            flat_tensor[i] = original + eps
            loss_plus = batch_loss()
            flat_tensor[i] = original - eps
            loss_minus = batch_loss()
            flat_tensor[i] = original
            flat_numeric[i] = (loss_plus - loss_minus) / (2.0 * eps)
        analytic = grads[name]
        denom = max(
            float(np.linalg.norm(analytic)) + float(np.linalg.norm(numeric)),
            1e-12,
        )
        errors[name] = float(np.linalg.norm(analytic - numeric)) / denom
    return errors
