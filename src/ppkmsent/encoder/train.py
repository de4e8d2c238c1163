"""Fine-tuning loop, prediction helpers and training-history serialisation.

Documents arrive as token ids: :func:`fine_tune` takes the training and
validation splits as :class:`~ppkmsent.preprocess.LabeledIds`, and
:func:`encode_documents` and :func:`predict_batch` take
:class:`~ppkmsent.preprocess.TokenIds`.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from ppkmsent.encoder.config import EncoderConfig, TrainProfile
from ppkmsent.encoder.model import (
    FlatTensors,
    backward,
    cross_entropy,
    forward,
    init_params,
)
# bench/spans.py counts format_input calls here by name (ROADMAP item 4)
from ppkmsent.encoder.vocab import TokenVocab, format_input, input_rows  # noqa: F401
from ppkmsent.errors import (
    ConfigError,
    EncoderNumericsError,
    TrainingDivergedError,
)
from ppkmsent.preprocess import LabeledIds, SentimentLabel, TokenIds

logger = logging.getLogger(__name__)

# train_* is the running mean over the epoch's training batches (dropout on),
# val_* an eval-mode pass over the validation split after the epoch
HISTORY_HEADER = ("epoch", "train_loss", "train_acc", "val_loss", "val_acc")


@dataclass(frozen=True)
class EpochStats:
    """Loss and accuracy of one training epoch (see ``HISTORY_HEADER``)."""

    epoch: int
    train_loss: float
    train_acc: float
    val_loss: float
    val_acc: float


class _AdamState:
    """Adam's step count and moments, with the weights they update.

    The weights are the params themselves, not a copy; m and v are zeroed
    :class:`FlatTensors` of the same layout, so one elementwise pass over
    the ``flat`` buffers updates every tensor in place.
    """

    def __init__(self, params: FlatTensors) -> None:
        self.step = 0
        self.weights = params
        shapes = {name: t.shape for name, t in params.items()}
        self.m = FlatTensors(shapes, params.flat.dtype)
        self.v = FlatTensors(shapes, params.flat.dtype)


def _adam_step(grads: FlatTensors, state: _AdamState, profile: TrainProfile) -> None:
    """Adam update of every weight in place, bit-equal to the textbook formula
    operation for operation; the gradients are overwritten as scratch space.
    ``grads`` has the weights' layout, as ``backward`` returns it."""
    state.step += 1
    beta1, beta2 = profile.adam_beta1, profile.adam_beta2
    correction1 = 1.0 - beta1**state.step
    correction2 = 1.0 - beta2**state.step
    g, m, v = grads.flat, state.m.flat, state.v.flat
    scratch = np.multiply(g, 1.0 - beta1)
    m *= beta1
    m += scratch
    np.square(g, out=g)
    g *= 1.0 - beta2
    v *= beta2
    v += g
    # g becomes lr * m_hat and scratch sqrt(v_hat) + eps
    np.divide(m, correction1, out=g)
    g *= profile.learning_rate
    np.divide(v, correction2, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += profile.adam_epsilon
    g /= scratch
    state.weights.flat -= g


def _check_weights_finite(weights: FlatTensors, epoch: int, step: int) -> None:
    if np.isfinite(weights.flat).all():
        return
    name = next(name for name, t in weights.items() if not np.isfinite(t).all())
    raise TrainingDivergedError(
        epoch, step, f"non-finite values in {name} after the update"
    )


def encode_documents(
    documents: TokenIds, vocab: TokenVocab, config: EncoderConfig
) -> tuple[np.ndarray, np.ndarray]:
    """The documents' :func:`~ppkmsent.encoder.vocab.input_rows`: (ids,
    mask)."""
    if not len(documents.lengths):
        raise ConfigError("cannot encode an empty document batch")
    return input_rows(documents, vocab, config.max_sequence_length)


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


def _eval_logits(
    ids: np.ndarray,
    mask: np.ndarray,
    params: FlatTensors,
    config: EncoderConfig,
    batch_size: int,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``(rows, logits)`` of each consecutive batch, forward in eval mode."""
    for rows, batch_ids, batch_mask in _batches(ids, mask, batch_size):
        yield rows, forward(batch_ids, batch_mask, params, config, "eval").logits


def _evaluate(
    ids: np.ndarray,
    mask: np.ndarray,
    labels: np.ndarray,
    params: FlatTensors,
    config: EncoderConfig,
    batch_size: int,
) -> tuple[float, float]:
    """Mean loss and accuracy over a dataset in eval mode."""
    total = ids.shape[0]
    loss_sum = 0.0
    correct = 0
    for rows, logits in _eval_logits(ids, mask, params, config, batch_size):
        loss, _ = cross_entropy(logits, labels[rows])
        loss_sum += loss * rows.shape[0]
        correct += int(np.sum(np.argmax(logits, axis=-1) == labels[rows]))
    return loss_sum / total, correct / total


def fine_tune(
    train: LabeledIds,
    val: LabeledIds,
    vocab: TokenVocab,
    config: EncoderConfig,
    profile: TrainProfile,
) -> tuple[FlatTensors, list[EpochStats]]:
    """Train the encoder classifier from random initial weights.

    Initialisation, shuffling and dropout all derive from ``profile.seed``,
    so repeated calls with identical inputs produce identical weights and
    history.  Each has a stream of its own: two ``SeedSequence`` children
    for the weights and the epoch order, and for dropout the step key
    ``(seed, epoch, step)`` that ``forward`` extends per site.  Raises
    :class:`TrainingDivergedError` when a batch loss, any activation or,
    with no validation set, any weight at the end of an epoch stops being
    finite.  The working precision is the params' dtype, float32 from
    :func:`init_params`.
    """
    seed_seq = np.random.SeedSequence(profile.seed)
    init_seq, shuffle_seq = seed_seq.spawn(2)
    params = init_params(config, init_seq)
    shuffle = np.random.Generator(np.random.PCG64(shuffle_seq))
    state = _AdamState(params)

    train_ids, train_mask = encode_documents(train.documents, vocab, config)
    train_labels = train.labels.astype(np.int64)
    has_validation = len(val.labels) > 0
    if has_validation:
        val_ids, val_mask = encode_documents(val.documents, vocab, config)
        val_labels = val.labels.astype(np.int64)
    history: list[EpochStats] = []
    # every non-finite value is caught below (batch loss, layer outputs and,
    # without a validation pass, the weights), so numpy's floating-point
    # warnings would only repeat the error on stderr
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(1, profile.epochs + 1):
            order = shuffle.permutation(train_ids.shape[0])
            batches = _batches(train_ids, train_mask, profile.batch_size, order)
            loss_sum = 0.0
            correct = 0
            for step, (rows, batch_ids, batch_mask) in enumerate(batches):
                try:
                    result = forward(
                        batch_ids,
                        batch_mask,
                        params,
                        config,
                        "train",
                        key=(profile.seed, epoch, step),
                        want_cache=True,
                    )
                    loss, dlogits = cross_entropy(
                        result.logits, train_labels[rows]
                    )
                    if not math.isfinite(loss):
                        raise TrainingDivergedError(
                            epoch, step, f"batch loss is {loss!r}"
                        )
                    grads = backward(dlogits, params, config, result.cache)
                except EncoderNumericsError as exc:
                    # non-finite activations are a divergence of this training
                    # run, so surface them with epoch/step context
                    raise TrainingDivergedError(epoch, step, str(exc)) from exc
                loss_sum += loss * rows.shape[0]
                predicted = np.argmax(result.logits, axis=-1)
                correct += int(np.sum(predicted == train_labels[rows]))
                _adam_step(grads, state, profile)
            train_loss = loss_sum / train_ids.shape[0]
            train_acc = correct / train_ids.shape[0]
            val_loss = val_acc = float("nan")
            if has_validation:
                try:
                    val_loss, val_acc = _evaluate(
                        val_ids,
                        val_mask,
                        val_labels,
                        params,
                        config,
                        profile.batch_size,
                    )
                except EncoderNumericsError as exc:
                    # the epoch's last update left non-finite weights
                    raise TrainingDivergedError(epoch, step, str(exc)) from exc
            else:
                # nothing reads the weights after the epoch's last update, so
                # check them before they are returned and checkpointed
                _check_weights_finite(state.weights, epoch, step)
            history.append(
                EpochStats(epoch, train_loss, train_acc, val_loss, val_acc)
            )
            logger.info(
                "epoch %d/%d train_loss=%.4f train_acc=%.4f "
                "val_loss=%.4f val_acc=%.4f",
                epoch,
                profile.epochs,
                train_loss,
                train_acc,
                val_loss,
                val_acc,
            )
    return params, history


def predict_batch(
    documents: TokenIds,
    params: FlatTensors,
    vocab: TokenVocab,
    config: EncoderConfig,
    batch_size: int = 32,
) -> list[SentimentLabel]:
    """Predicted labels for a document sequence, in order."""
    ids, mask = encode_documents(documents, vocab, config)
    labels: list[SentimentLabel] = []
    for _, logits in _eval_logits(ids, mask, params, config, batch_size):
        labels.extend(map(SentimentLabel, np.argmax(logits, axis=-1).tolist()))
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
