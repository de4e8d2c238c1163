"""Fine-tuning loop, prediction helpers and training-history serialisation."""

from __future__ import annotations

import logging
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from ppkmsent.encoder.config import EncoderConfig, TrainProfile
from ppkmsent.encoder.model import (
    EncoderParams,
    backward,
    cross_entropy,
    forward,
    init_params,
    softmax,
)
from ppkmsent.encoder.vocab import TokenVocab, format_input
from ppkmsent.errors import (
    ConfigError,
    EncoderNumericsError,
    TrainingDivergedError,
)
from ppkmsent.preprocess import Document, SentimentLabel

logger = logging.getLogger(__name__)

HISTORY_HEADER = ("epoch", "train_loss", "train_acc", "val_loss", "val_acc")


@dataclass(frozen=True)
class EpochStats:
    """Loss and accuracy recorded after one training epoch."""

    epoch: int
    train_loss: float
    train_acc: float
    val_loss: float
    val_acc: float


class _AdamState:
    """First/second moment accumulators for every named tensor."""

    def __init__(self, params: EncoderParams) -> None:
        self.step = 0
        self.m = {name: np.zeros_like(t) for name, t in params.named_tensors()}
        self.v = {name: np.zeros_like(t) for name, t in params.named_tensors()}


def _adam_step(
    params: EncoderParams,
    grads: dict[str, np.ndarray],
    state: _AdamState,
    profile: TrainProfile,
) -> None:
    state.step += 1
    t = state.step
    beta1, beta2 = profile.adam_beta1, profile.adam_beta2
    correction1 = 1.0 - beta1**t
    correction2 = 1.0 - beta2**t
    for name, tensor in params.named_tensors():
        g = grads[name]
        state.m[name] = beta1 * state.m[name] + (1.0 - beta1) * g
        state.v[name] = beta2 * state.v[name] + (1.0 - beta2) * g**2
        m_hat = state.m[name] / correction1
        v_hat = state.v[name] / correction2
        params.replace_tensor(
            name,
            tensor
            - profile.learning_rate * m_hat / (np.sqrt(v_hat) + profile.adam_epsilon),
        )


def encode_documents(
    documents: Sequence[Document],
    vocab: TokenVocab,
    config: EncoderConfig,
    require_labels: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Stack formatted inputs for a document batch.

    Returns (ids, mask, labels); ``labels`` is None when ``require_labels``
    is False and any document is unlabeled.
    """
    if not documents:
        raise ConfigError("cannot encode an empty document batch")
    ids_rows = []
    mask_rows = []
    labels: list[int] = []
    labeled = True
    for doc in documents:
        ids, mask = format_input(doc.tokens, vocab, config.max_sequence_length)
        ids_rows.append(ids)
        mask_rows.append(mask)
        if doc.label is None:
            labeled = False
            if require_labels:
                raise ConfigError(f"document {doc.id!r} has no label")
        else:
            labels.append(int(doc.label))
    return (
        np.stack(ids_rows),
        np.stack(mask_rows),
        np.asarray(labels, dtype=np.int64) if labeled else None,
    )


def _trim(ids: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cut the trailing columns that are padding in every row.

    Inputs follow the ``[CLS] … [SEP] [PAD]…`` layout, so the cut keeps
    every real token and the batch's width becomes its longest real
    sequence.  Padded keys are masked out of attention, so the logits do
    not depend on the width.
    """
    width = int(np.nonzero(mask)[-1].max()) + 1
    return ids[..., :width], mask[..., :width]


def _batches(
    ids: np.ndarray,
    mask: np.ndarray,
    batch_size: int,
    order: np.ndarray | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield ``(rows, ids, mask)`` for consecutive batches of ``batch_size``
    rows, taken in ``order`` (default: dataset order) and trimmed by
    :func:`_trim`."""
    if order is None:
        order = np.arange(ids.shape[0])
    for start in range(0, order.shape[0], batch_size):
        rows = order[start : start + batch_size]
        yield (rows, *_trim(ids[rows], mask[rows]))


def _evaluate(
    ids: np.ndarray,
    mask: np.ndarray,
    labels: np.ndarray,
    params: EncoderParams,
    config: EncoderConfig,
    batch_size: int,
) -> tuple[float, float]:
    """Mean loss and accuracy over a dataset in eval mode."""
    total = ids.shape[0]
    loss_sum = 0.0
    correct = 0
    for rows, batch_ids, batch_mask in _batches(ids, mask, batch_size):
        result = forward(batch_ids, batch_mask, params, config, "eval")
        loss, _ = cross_entropy(result.logits, labels[rows])
        loss_sum += loss * rows.shape[0]
        correct += int(np.sum(np.argmax(result.logits, axis=-1) == labels[rows]))
    return loss_sum / total, correct / total


def fine_tune(
    train_documents: Sequence[Document],
    val_documents: Sequence[Document],
    vocab: TokenVocab,
    config: EncoderConfig,
    profile: TrainProfile,
) -> tuple[EncoderParams, list[EpochStats]]:
    """Train the encoder classifier from random initial weights.

    Shuffling, dropout and initialisation all derive from ``profile.seed``,
    so repeated calls with identical inputs produce identical weights and
    history.  Raises :class:`TrainingDivergedError` when a batch loss or any
    activation stops being finite.
    """
    seed_seq = np.random.SeedSequence(profile.seed)
    init_seq, train_seq = seed_seq.spawn(2)
    params = init_params(config, init_seq)
    rng = np.random.Generator(np.random.PCG64(train_seq))
    state = _AdamState(params)

    train_ids, train_mask, train_labels = encode_documents(
        train_documents, vocab, config
    )
    if val_documents:
        val_ids, val_mask, val_labels = encode_documents(
            val_documents, vocab, config
        )
    history: list[EpochStats] = []
    for epoch in range(1, profile.epochs + 1):
        order = rng.permutation(train_ids.shape[0])
        batches = _batches(train_ids, train_mask, profile.batch_size, order)
        for step, (rows, batch_ids, batch_mask) in enumerate(batches):
            try:
                result = forward(
                    batch_ids,
                    batch_mask,
                    params,
                    config,
                    "train",
                    rng=rng,
                    want_cache=True,
                )
                loss, dlogits = cross_entropy(result.logits, train_labels[rows])
                if not math.isfinite(loss):
                    raise TrainingDivergedError(
                        epoch, step, f"batch loss is {loss!r}"
                    )
                grads = backward(dlogits, params, config, result.cache)
            except EncoderNumericsError as exc:
                # non-finite activations are a divergence of this training
                # run, so surface them with epoch/step context
                raise TrainingDivergedError(epoch, step, str(exc)) from exc
            _adam_step(params, grads, state, profile)
        try:
            train_loss, train_acc = _evaluate(
                train_ids, train_mask, train_labels, params, config, profile.batch_size
            )
            if val_documents:
                val_loss, val_acc = _evaluate(
                    val_ids, val_mask, val_labels, params, config, profile.batch_size
                )
            else:
                val_loss, val_acc = float("nan"), float("nan")
        except EncoderNumericsError as exc:
            # the last parameter update of the epoch left non-finite weights
            raise TrainingDivergedError(epoch, step, str(exc)) from exc
        history.append(
            EpochStats(epoch, train_loss, train_acc, val_loss, val_acc)
        )
        logger.info(
            "epoch %d/%d train_loss=%.4f train_acc=%.4f val_loss=%.4f val_acc=%.4f",
            epoch,
            profile.epochs,
            train_loss,
            train_acc,
            val_loss,
            val_acc,
        )
    return params, history


def predict(
    document: Document,
    params: EncoderParams,
    vocab: TokenVocab,
    config: EncoderConfig,
) -> tuple[SentimentLabel, np.ndarray]:
    """Predicted label and class-probability vector for one document."""
    ids, mask = _trim(
        *format_input(document.tokens, vocab, config.max_sequence_length)
    )
    result = forward(ids, mask, params, config, "eval")
    probs = softmax(result.logits, axis=-1)[0]
    return SentimentLabel(int(np.argmax(probs))), probs


def predict_batch(
    documents: Sequence[Document],
    params: EncoderParams,
    vocab: TokenVocab,
    config: EncoderConfig,
    batch_size: int = 32,
) -> list[SentimentLabel]:
    """Predicted labels for a document sequence, in order."""
    ids, mask, _ = encode_documents(
        documents, vocab, config, require_labels=False
    )
    labels: list[SentimentLabel] = []
    for _, batch_ids, batch_mask in _batches(ids, mask, batch_size):
        result = forward(batch_ids, batch_mask, params, config, "eval")
        labels.extend(
            SentimentLabel(int(i)) for i in np.argmax(result.logits, axis=-1)
        )
    return labels


def history_to_csv(
    history: Sequence[EpochStats], profile: TrainProfile | None = None
) -> str:
    """Render training history as CSV text.

    When ``profile`` is given, a leading comment line records the schedule so
    the file is self-describing.
    """
    lines: list[str] = []
    if profile is not None:
        lines.append(
            f"# batch_size={profile.batch_size} epochs={profile.epochs} "
            f"learning_rate={profile.learning_rate!r}"
        )
    lines.append(",".join(HISTORY_HEADER))
    for row in history:
        lines.append(
            f"{row.epoch},{row.train_loss!r},{row.train_acc!r},"
            f"{row.val_loss!r},{row.val_acc!r}"
        )
    return "\n".join(lines) + "\n"
