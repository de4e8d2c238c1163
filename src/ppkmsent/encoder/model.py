"""Transformer encoder in plain numpy with hand-written gradients.

The stack is a post-layer-norm BERT-style encoder: learned token and position
embeddings, ``num_layers`` blocks of masked multi-head scaled dot-product
attention and a GELU feed-forward sublayer (each followed by residual add and
layer norm), then an affine classification head over the position-0 hidden
state.  The attention/feed-forward projections carry no bias terms.

The params are a :class:`FlatTensors`: every weight tensor, under its
``param_shapes`` name (``"layers.{i}.wq"`` for a block's query projection),
is a view of one buffer, ``params.flat``, which Adam updates in place.

Per-token work runs on the batch's real tokens only.  Between layers the
residual stream holds the real-token rows ``(n_real, hidden)``, packed in
(sequence, position) order, so the embeddings, every projection and weight
gradient (one GEMM each), the layer norms, the GELU feed-forward, the
residual adds and the dropout multiplies skip padding.  Attention runs at
the batch width: keys and values are scattered into the ``(batch, heads,
seq, head_size)`` layout with zero rows at padded positions, which stay
masked keys, and an inner layer's contexts are gathered back to the real
rows.  The head reads position 0 (``[CLS]``) alone, so the last layer
queries that row only: its query, attention output, residual, layer norms,
feed-forward and both dropouts act on one row per sequence.

Each dropout site draws the packed rows it masks, and only those, from a
stream of its own, ``default_rng((*key, site))``: ``key`` names the
training step, and ``site`` is 0 at the embedding and ``2i + 1``, ``2i + 2``
at layer ``i``'s attention and feed-forward outputs.  So no mask depends
on the padding or on another site's draws.

Inputs may have any width up to ``max_sequence_length``.  Padded key
positions are masked out of attention, so trailing padding never changes
the logits or the gradients; the training and prediction helpers in
:mod:`ppkmsent.encoder.train` therefore cut each batch to its longest real
sequence rather than pass the fixed-length rows of ``input_rows``.

The working precision is ``params.flat.dtype``: every activation, the
gradients and (in :mod:`ppkmsent.encoder.train`) the Adam moments follow
it, because the scalar constants are Python floats and the masks take the
params' dtype.  ``init_params`` and ``load_checkpoint`` give float32, the
precision the checkpoint stores, so training and evaluation see the same
weights; a caller that passes float64 params gets the same code in
float64.  ``backward`` consumes the cache produced by a training-mode
``forward`` call and returns a gradient for every parameter tensor;
gradients are exact, which the test suite checks in float64 against
central finite differences.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np
from numpy.typing import DTypeLike

from ppkmsent.encoder.config import EncoderConfig
from ppkmsent.errors import ConfigError, EncoderNumericsError

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


class FlatTensors(dict):
    """Named tensors that are consecutive views of one zeroed buffer, ``flat``.

    The names, shapes and order come from a ``param_shapes`` table, so one
    elementwise pass over ``flat`` acts on every tensor.  The params, their
    gradients and Adam's moments are each one.  Tensors are written in
    place, never rebound, so ``flat`` stays what every name reads.
    """

    def __init__(self, shapes: Mapping[str, tuple[int, ...]], dtype: DTypeLike):
        super().__init__()
        self.flat = np.zeros(sum(math.prod(s) for s in shapes.values()), dtype)
        start = 0
        for name, shape in shapes.items():
            stop = start + math.prod(shape)
            self[name] = self.flat[start:stop].reshape(shape)
            start = stop


def param_shapes(config: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """Name and shape of every parameter tensor of ``config``'s encoder.

    This table is the encoder's layout, the one place its shapes and the
    params' names and order are written; ``init_params`` fills it and
    ``load_checkpoint`` checks a file against it.
    """
    d = config.hidden_size
    f = config.feedforward_size
    block = {
        "wq": (d, d),
        "wk": (d, d),
        "wv": (d, d),
        "wo": (d, d),
        "ln1_gain": (d,),
        "ln1_bias": (d,),
        "w1": (d, f),
        "w2": (f, d),
        "ln2_gain": (d,),
        "ln2_bias": (d,),
    }
    shapes = {
        "token_embedding": (config.vocab_size, d),
        "position_embedding": (config.max_sequence_length, d),
    }
    for i in range(config.num_layers):
        shapes.update((f"layers.{i}.{name}", shape) for name, shape in block.items())
    shapes["head_w"] = (d, config.num_classes)
    shapes["head_b"] = (config.num_classes,)
    return shapes


def _truncated_normal(
    rng: np.random.Generator, shape: tuple[int, ...], std: float
) -> np.ndarray:
    """Normal(0, std) draws with values beyond two deviations redrawn."""
    out = rng.standard_normal(shape) * std
    bad = np.abs(out) > 2.0 * std
    while bad.any():
        out[bad] = rng.standard_normal(int(bad.sum())) * std
        bad = np.abs(out) > 2.0 * std
    return out


def init_params(
    config: EncoderConfig,
    seed: int | np.random.SeedSequence = 0,
    dtype: DTypeLike = np.float32,
) -> FlatTensors:
    """Random initial weights: ones for layer-norm gains, zeros for biases
    and truncated normal (std 0.02) for everything else, drawn in
    ``param_shapes`` order.

    The draws are float64 in every ``dtype`` and rounded once, so a float32
    init is the float64 init of the same seed, rounded.
    """
    if config.vocab_size < 1:
        raise ConfigError(
            f"vocab_size must be >= 1 to initialise weights, got "
            f"{config.vocab_size}"
        )
    rng = np.random.Generator(np.random.PCG64(seed))
    params = FlatTensors(param_shapes(config), dtype)
    for name, tensor in params.items():
        if name.endswith("_gain"):
            tensor[...] = 1.0
        elif not name.endswith(("_bias", "head_b")):
            tensor[...] = _truncated_normal(rng, tensor.shape, 0.02)
    return params


# softmax, GELU and layer norm work in place on the arrays they create, in
# the order of the plain expression, so the values match it bit for bit


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``: ``exp(x - max) / sum(...)``."""
    # the max is exact, so it is taken as an elementwise maximum over a
    # contiguous copy with ``axis`` first: numpy reduces a short last axis
    # several times slower
    top = np.ascontiguousarray(np.moveaxis(x, axis, 0)).max(axis=0)
    out = x - np.expand_dims(top, axis)
    np.exp(out, out=out)
    out /= np.sum(out, axis=axis, keepdims=True)
    return out


# the powers below are written as products: numpy's general ``**`` is an
# order of magnitude slower than a multiply, and GELU runs on every
# feed-forward unit in both passes
def _gelu_tanh(x: np.ndarray) -> np.ndarray:
    """``tanh(C * (x + A * (x * x * x)))``, the tanh-approximation term."""
    t = x * x
    t *= x
    t *= _GELU_A
    t += x
    t *= _GELU_C
    return np.tanh(t, out=t)


def _gelu(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """tanh-approximation GELU ``0.5 * x * (1.0 + t)``, where ``t`` is
    ``_gelu_tanh(x)``."""
    out = t + 1.0
    out *= 0.5 * x
    return out


def _gelu_grad(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Derivative of ``_gelu`` at ``x``, from the forward's tanh term ``t``:
    ``0.5 * (1 + t) + 0.5 * x * (1 - t * t) * C * (1 + 3 * A * (x * x))``."""
    poly = x * x
    poly *= 3.0 * _GELU_A
    poly += 1.0
    out = t * t
    np.subtract(1.0, out, out=out)
    out *= 0.5 * x
    out *= _GELU_C
    out *= poly
    poly = t + 1.0
    poly *= 0.5
    out += poly
    return out


def _layer_norm(
    x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float
) -> tuple[np.ndarray, dict]:
    n = x.shape[-1]
    normalized = x - x.sum(axis=-1, keepdims=True) / n
    variance = np.square(normalized).sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(variance + eps)
    normalized *= inv
    out = normalized * gain
    out += bias
    return out, {"normalized": normalized, "inv": inv, "gain": gain}


def _layer_norm_backward(
    dout: np.ndarray, cache: dict, dgain: np.ndarray, dbias: np.ndarray
) -> np.ndarray:
    """Gradient at the input of ``_layer_norm`` over rows,
    ``inv * (dnorm - mean(dnorm) - normalized * mean(dnorm * normalized))``
    with ``dnorm = dout * gain``; the gain and bias gradients are written
    into ``dgain`` and ``dbias``."""
    normalized = cache["normalized"]
    n = dout.shape[-1]
    np.sum(dout * normalized, axis=0, out=dgain)
    np.sum(dout, axis=0, out=dbias)
    dx = dout * cache["gain"]
    mean_proj = (dx * normalized).sum(axis=-1, keepdims=True) / n
    dx -= dx.sum(axis=-1, keepdims=True) / n
    dx -= normalized * mean_proj
    dx *= cache["inv"]
    return dx


def _split_heads(x: np.ndarray, batch: int, num_heads: int) -> np.ndarray:
    """Token rows ``(batch * seq, hidden)`` as ``(batch, heads, seq, head_size)``."""
    rows, hidden = x.shape
    return x.reshape(batch, rows // batch, num_heads, hidden // num_heads).transpose(
        0, 2, 1, 3
    )


def _merge_heads(x: np.ndarray) -> np.ndarray:
    """The inverse of ``_split_heads``: token rows ``(batch * seq, hidden)``."""
    batch, heads, seq, head_size = x.shape
    return x.transpose(0, 2, 1, 3).reshape(batch * seq, heads * head_size)


def _scatter(x: np.ndarray, rows: np.ndarray, total: int) -> np.ndarray:
    """``x`` as the rows ``rows`` of a ``total``-row array of zeros."""
    out = np.zeros((total, x.shape[1]), x.dtype)
    out[rows] = x
    return out


def _site_rng(key: tuple[int, ...] | None, site: int) -> np.random.Generator | None:
    """The dropout stream of ``site`` under the step ``key``, if there is one."""
    return None if key is None else np.random.default_rng((*key, site))


def _dropout(
    x: np.ndarray, rate: float, rng: np.random.Generator | None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Inverted dropout with one random per element of ``x``; returns the
    rescaled keep mask for the backward pass."""
    if rate <= 0.0:
        return x, None
    if rng is None:
        raise ConfigError("training-mode forward with dropout needs a keyed rng")
    keep = (rng.random(x.shape) >= rate).astype(x.dtype) / (1.0 - rate)
    return x * keep, keep


def _check_finite(x: np.ndarray, where: str) -> None:
    if not np.isfinite(x).all():
        raise EncoderNumericsError(f"non-finite values in {where}")


@dataclass
class ForwardResult:
    """Outputs of one forward pass."""

    logits: np.ndarray
    cache: dict | None = None


def forward(
    ids: np.ndarray,
    mask: np.ndarray,
    params: FlatTensors,
    config: EncoderConfig,
    mode: str = "eval",
    key: tuple[int, ...] | None = None,
    want_cache: bool = False,
) -> ForwardResult:
    """Run the encoder over a batch.

    ``ids`` is (batch, seq) int64 and ``mask`` the matching 0/1 array; 1-d
    inputs are treated as a batch of one.  ``mode`` is ``"train"`` (dropout
    active, needs ``key`` when the rate is nonzero) or ``"eval"``.  ``key``,
    a tuple of non-negative ints, seeds every dropout site's stream (see the
    module docstring); ``fine_tune`` passes ``(seed, epoch, step)``.  Padded
    key positions are excluded from attention by setting their scores to
    -inf before the softmax; padding therefore never changes the logits.
    """
    if mode not in ("train", "eval"):
        raise ConfigError(f"mode must be 'train' or 'eval', got {mode!r}")
    ids = np.atleast_2d(np.asarray(ids, dtype=np.int64))
    mask = np.atleast_2d(np.asarray(mask, dtype=params.flat.dtype))
    if ids.shape != mask.shape:
        raise ConfigError(
            f"ids shape {ids.shape} does not match mask shape {mask.shape}"
        )
    batch, seq = ids.shape
    if seq > config.max_sequence_length:
        raise ConfigError(
            f"sequence length {seq} exceeds configured maximum "
            f"{config.max_sequence_length}"
        )
    if ids.min() < 0 or ids.max() >= config.vocab_size:
        raise ConfigError("token id out of vocabulary range")
    if mask[:, 0].min() < 1.0:
        raise ConfigError("position 0 must be unmasked in every sequence")

    rate = config.dropout_rate if mode == "train" else 0.0
    eps = config.layer_norm_eps
    heads = config.num_heads
    scale = 1.0 / math.sqrt(config.head_size)
    padded = batch * seq
    # the real tokens as rows of the padded (batch * seq) layout; position 0
    # is real in every sequence, so cls indexes each one's [CLS] packed row
    real = mask.astype(bool).ravel()
    rows = np.flatnonzero(real)
    cls = np.flatnonzero(rows % seq == 0)
    # padded keys, shared by every layer and head
    pad_keys = ~real.reshape(batch, 1, 1, seq)

    token_ids = ids.ravel()[rows]
    embedded = params["token_embedding"][token_ids]
    embedded += params["position_embedding"][rows % seq]
    x, emb_keep = _dropout(embedded, rate, _site_rng(key, 0))

    cache: dict = {
        "ids": token_ids,
        "rows": rows,
        "cls": cls,
        "emb_keep": emb_keep,
        "layers": [],
    }
    last = config.num_layers - 1
    for index in range(config.num_layers):
        p = f"layers.{index}."
        # the head reads [CLS] alone, so the last layer queries that row of
        # each sequence; inner layers query every real row
        x_in = x
        x_q = x_in[cls] if index == last else x_in
        q = x_q @ params[p + "wq"]
        if index != last:
            q = _scatter(q, rows, padded)
        q = _split_heads(q, batch, heads)
        k = _split_heads(_scatter(x_in @ params[p + "wk"], rows, padded), batch, heads)
        v = _split_heads(_scatter(x_in @ params[p + "wv"], rows, padded), batch, heads)
        scores = q @ k.transpose(0, 1, 3, 2)
        scores *= scale
        np.copyto(scores, -np.inf, where=pad_keys)
        probs = softmax(scores, axis=-1)
        context = _merge_heads(probs @ v)
        if index != last:
            context = context[rows]
        attn_out = context @ params[p + "wo"]
        attn_dropped, attn_keep = _dropout(
            attn_out, rate, _site_rng(key, 2 * index + 1)
        )
        attn_dropped += x_q
        x1, ln1_cache = _layer_norm(
            attn_dropped, params[p + "ln1_gain"], params[p + "ln1_bias"], eps
        )
        hidden = x1 @ params[p + "w1"]
        tanh = _gelu_tanh(hidden)
        activated = _gelu(hidden, tanh)
        ffn_out = activated @ params[p + "w2"]
        ffn_dropped, ffn_keep = _dropout(
            ffn_out, rate, _site_rng(key, 2 * index + 2)
        )
        ffn_dropped += x1
        x, ln2_cache = _layer_norm(
            ffn_dropped, params[p + "ln2_gain"], params[p + "ln2_bias"], eps
        )
        _check_finite(x, f"output of encoder layer {index}")
        if want_cache:
            cache["layers"].append(
                {
                    "x_in": x_in,
                    "x_q": x_q,
                    "q": q,
                    "k": k,
                    "v": v,
                    "probs": probs,
                    "context": context,
                    "attn_keep": attn_keep,
                    "ln1": ln1_cache,
                    "x1": x1,
                    "hidden": hidden,
                    "tanh": tanh,
                    "activated": activated,
                    "ffn_keep": ffn_keep,
                    "ln2": ln2_cache,
                }
            )

    # one row per sequence: the [CLS] hidden state
    cls_vector = x
    logits = cls_vector @ params["head_w"] + params["head_b"]
    _check_finite(logits, "classifier logits")
    if want_cache:
        cache["cls_vector"] = cls_vector
        cache["seq"] = seq
    return ForwardResult(logits=logits, cache=cache if want_cache else None)


def cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy loss and its gradient with respect to the logits."""
    logits = np.atleast_2d(logits)
    labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    batch = logits.shape[0]
    if labels.shape != (batch,):
        raise ConfigError(
            f"labels shape {labels.shape} does not match batch size {batch}"
        )
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_probs = shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))
    loss = -float(np.mean(log_probs[np.arange(batch), labels]))
    dlogits = np.exp(log_probs)
    dlogits[np.arange(batch), labels] -= 1.0
    dlogits /= batch
    return loss, dlogits


def backward(
    dlogits: np.ndarray,
    params: FlatTensors,
    config: EncoderConfig,
    cache: dict,
) -> FlatTensors:
    """Gradients of the loss for every parameter tensor, as views of one
    buffer in ``param_shapes`` order.

    ``cache`` must come from a ``forward`` call with ``want_cache=True`` on
    the same batch; ``dlogits`` is the loss gradient at the logits.
    """
    if cache is None or len(cache.get("layers", ())) != config.num_layers:
        raise ConfigError("backward needs the cache from forward(want_cache=True)")
    heads = config.num_heads
    scale = 1.0 / math.sqrt(config.head_size)
    seq, rows, cls = cache["seq"], cache["rows"], cache["cls"]
    # every gradient is written into its view; the embeddings are added into
    grads = FlatTensors(param_shapes(config), params.flat.dtype)

    dlogits = np.atleast_2d(dlogits)
    np.matmul(cache["cls_vector"].T, dlogits, out=grads["head_w"])
    np.sum(dlogits, axis=0, out=grads["head_b"])

    # the head's gradient reaches the last layer's one query row per sequence
    batch = dlogits.shape[0]
    padded = batch * seq
    dx = dlogits @ params["head_w"].T

    last = config.num_layers - 1
    for index in range(last, -1, -1):
        c = cache["layers"][index]
        p = f"layers.{index}."

        dy2 = _layer_norm_backward(
            dx, c["ln2"], grads[p + "ln2_gain"], grads[p + "ln2_bias"]
        )
        dffn = dy2 if c["ffn_keep"] is None else dy2 * c["ffn_keep"]

        np.matmul(c["activated"].T, dffn, out=grads[p + "w2"])
        dhidden = dffn @ params[p + "w2"].T
        dhidden *= _gelu_grad(c["hidden"], c["tanh"])
        np.matmul(c["x1"].T, dhidden, out=grads[p + "w1"])
        dx1 = dhidden @ params[p + "w1"].T
        dx1 += dy2

        dy1 = _layer_norm_backward(
            dx1, c["ln1"], grads[p + "ln1_gain"], grads[p + "ln1_bias"]
        )
        dattn = dy1 if c["attn_keep"] is None else dy1 * c["attn_keep"]

        np.matmul(c["context"].T, dattn, out=grads[p + "wo"])
        dcontext = dattn @ params[p + "wo"].T
        if index != last:
            dcontext = _scatter(dcontext, rows, padded)
        dcontext = _split_heads(dcontext, batch, heads)
        dprobs = dcontext @ c["v"].transpose(0, 1, 3, 2)
        dv = c["probs"].transpose(0, 1, 3, 2) @ dcontext
        # softmax backward; padded positions have prob 0 and get no gradient
        probs = c["probs"]
        dscores = dprobs
        dscores -= np.sum(dprobs * probs, axis=-1, keepdims=True)
        dscores *= probs
        dscores *= scale
        # back to the real rows: every key and value row, and the query rows
        dq_m = _merge_heads(dscores @ c["k"])
        if index != last:
            dq_m = dq_m[rows]
        dk_m = _merge_heads(dscores.transpose(0, 1, 3, 2) @ c["q"])[rows]
        dv_m = _merge_heads(dv)[rows]

        np.matmul(c["x_q"].T, dq_m, out=grads[p + "wq"])
        np.matmul(c["x_in"].T, dk_m, out=grads[p + "wk"])
        np.matmul(c["x_in"].T, dv_m, out=grads[p + "wv"])
        dx = dk_m @ params[p + "wk"].T
        dx += dv_m @ params[p + "wv"].T
        # the query rows and the residual: every real row, or the [CLS] rows
        dx_q = dq_m @ params[p + "wq"].T
        dx_q += dy1
        if index == last:
            dx[cls] += dx_q
        else:
            dx += dx_q

    dembed = dx if cache["emb_keep"] is None else dx * cache["emb_keep"]
    # summing the padded layout over the batch adds each position's rows in
    # batch order, as np.add.at would, at a fraction of its cost
    dpadded = _scatter(dembed, rows, padded).reshape(batch, seq, -1)
    np.sum(dpadded, axis=0, out=grads["position_embedding"][:seq])
    # one index per element takes numpy's faster 1-D ``ufunc.at`` path; it
    # adds in the same order as the row-wise call, so the sums are the same
    width = dembed.shape[1]
    elements = (cache["ids"][:, None] * width + np.arange(width)).ravel()
    np.add.at(grads["token_embedding"].reshape(-1), elements, dembed.reshape(-1))
    return grads
