"""Transformer encoder in plain numpy with hand-written gradients.

The stack is a post-layer-norm BERT-style encoder: learned token and position
embeddings, ``num_layers`` blocks of masked multi-head scaled dot-product
attention and a GELU feed-forward sublayer (each followed by residual add and
layer norm), then an affine classification head over the position-0 hidden
state.  The attention/feed-forward projections carry no bias terms.

The blocks run on 2-D token rows ``(batch * seq, hidden)``, so every
projection and weight gradient is one GEMM; only the attention products use
the ``(batch, heads, seq, head_size)`` layout.  The head reads position 0
(``[CLS]``) alone, so the last layer computes that row only: its keys and
values come from every position, but its query, attention output, residual,
layer norms, feed-forward and both dropouts act on one row per sequence, and
dropout draws randoms for that row only.  Each layer's query rows are thus a
prefix of each sequence: every position for inner layers, one for the last.

Inputs may have any width up to ``max_sequence_length``.  Padded key
positions are masked out of attention, so trailing padding never changes
the logits or the gradients; the training and prediction helpers in
:mod:`ppkmsent.encoder.train` therefore cut each batch to its longest real
sequence rather than pass the fixed-length rows of ``format_input``.

The working precision is the dtype of the params: every activation, the
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
from dataclasses import dataclass, fields

import numpy as np
from numpy.typing import DTypeLike

from ppkmsent.encoder.config import EncoderConfig
from ppkmsent.errors import ConfigError, EncoderNumericsError

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


@dataclass
class LayerParams:
    """Weights for one encoder block; the field order is the checkpoint order."""

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    ln1_gain: np.ndarray
    ln1_bias: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    ln2_gain: np.ndarray
    ln2_bias: np.ndarray


@dataclass
class EncoderParams:
    """All weights of the encoder classifier."""

    token_embedding: np.ndarray
    position_embedding: np.ndarray
    layers: list[LayerParams]
    head_w: np.ndarray
    head_b: np.ndarray

    def named_tensors(self) -> list[tuple[str, np.ndarray]]:
        """Every parameter tensor under a stable name, in ``param_shapes``
        order: the fields in order, each layer's fields in place of ``layers``."""
        named = []
        for f in fields(self):
            if f.name == "layers":
                named.extend(
                    (f"layers.{i}.{g.name}", getattr(layer, g.name))
                    for i, layer in enumerate(self.layers)
                    for g in fields(layer)
                )
            else:
                named.append((f.name, getattr(self, f.name)))
        return named

    @classmethod
    def from_named(
        cls, tensors: Mapping[str, np.ndarray], num_layers: int
    ) -> EncoderParams:
        """The inverse of ``named_tensors``: params holding the arrays of
        ``tensors`` (not copies), which must have every name of a
        ``num_layers``-layer encoder."""
        layers = [
            LayerParams(
                **{g.name: tensors[f"layers.{i}.{g.name}"] for g in fields(LayerParams)}
            )
            for i in range(num_layers)
        ]
        rest = {f.name: tensors[f.name] for f in fields(cls) if f.name != "layers"}
        return cls(layers=layers, **rest)


def param_shapes(config: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """Name and shape of every parameter tensor of ``config``'s encoder.

    This table is the encoder's layout, the one place its shapes are
    written.  Its names and order are those of
    ``EncoderParams.named_tensors``; ``init_params`` fills it and
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
) -> EncoderParams:
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
    tensors = {}
    for name, shape in param_shapes(config).items():
        if name.endswith("_gain"):
            tensors[name] = np.ones(shape, dtype=dtype)
        elif name.endswith(("_bias", "head_b")):
            tensors[name] = np.zeros(shape, dtype=dtype)
        else:
            tensors[name] = _truncated_normal(rng, shape, 0.02).astype(dtype, copy=False)
    return EncoderParams.from_named(tensors, config.num_layers)


# softmax, GELU and layer norm work in place on the arrays they create, in
# the order of the plain expression, so the values match it bit for bit


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``: ``exp(x - max) / sum(...)``."""
    out = x - np.max(x, axis=axis, keepdims=True)
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
    dout: np.ndarray, cache: dict
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients at the input, gain and bias of ``_layer_norm`` over rows:
    ``inv * (dnorm - mean(dnorm) - normalized * mean(dnorm * normalized))``
    with ``dnorm = dout * gain``."""
    normalized = cache["normalized"]
    n = dout.shape[-1]
    dgain = np.sum(dout * normalized, axis=0)
    dbias = np.sum(dout, axis=0)
    dx = dout * cache["gain"]
    mean_proj = (dx * normalized).sum(axis=-1, keepdims=True) / n
    dx -= dx.sum(axis=-1, keepdims=True) / n
    dx -= normalized * mean_proj
    dx *= cache["inv"]
    return dx, dgain, dbias


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


def _dropout(
    x: np.ndarray, rate: float, rng: np.random.Generator | None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Inverted dropout; returns the rescaled keep mask for the backward pass."""
    if rate <= 0.0:
        return x, None
    if rng is None:
        raise ConfigError("training-mode forward with dropout needs an rng")
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
    params: EncoderParams,
    config: EncoderConfig,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
    want_cache: bool = False,
) -> ForwardResult:
    """Run the encoder over a batch.

    ``ids`` is (batch, seq) int64 and ``mask`` the matching 0/1 array; 1-d
    inputs are treated as a batch of one.  ``mode`` is ``"train"`` (dropout
    active, needs ``rng`` when the rate is nonzero) or ``"eval"``.  Padded
    key positions are excluded from attention by setting their scores to
    -inf before the softmax; padding therefore never changes the logits.
    """
    if mode not in ("train", "eval"):
        raise ConfigError(f"mode must be 'train' or 'eval', got {mode!r}")
    ids = np.atleast_2d(np.asarray(ids, dtype=np.int64))
    mask = np.atleast_2d(np.asarray(mask, dtype=params.token_embedding.dtype))
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
    # padded keys, shared by every layer and head
    pad_keys = ~mask.astype(bool)[:, None, None, :]

    embedded = params.token_embedding[ids]
    embedded += params.position_embedding[:seq]
    x, emb_keep = _dropout(embedded.reshape(batch * seq, -1), rate, rng)

    cache: dict = {"ids": ids, "emb_keep": emb_keep, "layers": []}
    last = len(params.layers) - 1
    for index, layer in enumerate(params.layers):
        # the head reads position 0 alone, so the last layer's query rows are
        # that prefix of each sequence; keys and values span every position
        rows = 1 if index == last else seq
        x_in = x
        x_q = x_in.reshape(batch, seq, -1)[:, :rows].reshape(batch * rows, -1)
        q = _split_heads(x_q @ layer.wq, batch, heads)
        k = _split_heads(x_in @ layer.wk, batch, heads)
        v = _split_heads(x_in @ layer.wv, batch, heads)
        scores = q @ k.transpose(0, 1, 3, 2)
        scores *= scale
        np.copyto(scores, -np.inf, where=pad_keys)
        probs = softmax(scores, axis=-1)
        context = _merge_heads(probs @ v)
        attn_out = context @ layer.wo
        attn_dropped, attn_keep = _dropout(attn_out, rate, rng)
        attn_dropped += x_q
        x1, ln1_cache = _layer_norm(attn_dropped, layer.ln1_gain, layer.ln1_bias, eps)
        hidden = x1 @ layer.w1
        tanh = _gelu_tanh(hidden)
        activated = _gelu(hidden, tanh)
        ffn_out = activated @ layer.w2
        ffn_dropped, ffn_keep = _dropout(ffn_out, rate, rng)
        ffn_dropped += x1
        x, ln2_cache = _layer_norm(ffn_dropped, layer.ln2_gain, layer.ln2_bias, eps)
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
    logits = cls_vector @ params.head_w + params.head_b
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
    params: EncoderParams,
    config: EncoderConfig,
    cache: dict,
) -> dict[str, np.ndarray]:
    """Gradients of the loss for every parameter tensor.

    ``cache`` must come from a ``forward`` call with ``want_cache=True`` on
    the same batch; ``dlogits`` is the loss gradient at the logits.
    """
    if cache is None or len(cache.get("layers", ())) != len(params.layers):
        raise ConfigError("backward needs the cache from forward(want_cache=True)")
    heads = config.num_heads
    scale = 1.0 / math.sqrt(config.head_size)
    seq = cache["seq"]
    # the embeddings are scattered into; every other gradient is assigned whole
    grads: dict[str, np.ndarray] = {
        "token_embedding": np.zeros_like(params.token_embedding),
        "position_embedding": np.zeros_like(params.position_embedding),
    }

    dlogits = np.atleast_2d(dlogits)
    cls_vector = cache["cls_vector"]
    grads["head_w"] = cls_vector.T @ dlogits
    grads["head_b"] = dlogits.sum(axis=0)

    # the head's gradient reaches the last layer's one query row per sequence
    batch = dlogits.shape[0]
    dx = dlogits @ params.head_w.T

    for index in range(len(params.layers) - 1, -1, -1):
        layer = params.layers[index]
        c = cache["layers"][index]
        prefix = f"layers.{index}."

        dy2, dg2, db2 = _layer_norm_backward(dx, c["ln2"])
        grads[prefix + "ln2_gain"] = dg2
        grads[prefix + "ln2_bias"] = db2
        dffn = dy2 if c["ffn_keep"] is None else dy2 * c["ffn_keep"]

        grads[prefix + "w2"] = c["activated"].T @ dffn
        dhidden = dffn @ layer.w2.T
        dhidden *= _gelu_grad(c["hidden"], c["tanh"])
        grads[prefix + "w1"] = c["x1"].T @ dhidden
        dx1 = dhidden @ layer.w1.T
        dx1 += dy2

        dy1, dg1, db1 = _layer_norm_backward(dx1, c["ln1"])
        grads[prefix + "ln1_gain"] = dg1
        grads[prefix + "ln1_bias"] = db1
        dattn = dy1 if c["attn_keep"] is None else dy1 * c["attn_keep"]

        grads[prefix + "wo"] = c["context"].T @ dattn
        dcontext = _split_heads(dattn @ layer.wo.T, batch, heads)
        dprobs = dcontext @ c["v"].transpose(0, 1, 3, 2)
        dv = c["probs"].transpose(0, 1, 3, 2) @ dcontext
        # softmax backward; padded positions have prob 0 and get no gradient
        probs = c["probs"]
        dscores = dprobs
        dscores -= np.sum(dprobs * probs, axis=-1, keepdims=True)
        dscores *= probs
        dscores *= scale
        dq_m = _merge_heads(dscores @ c["k"])
        dk_m = _merge_heads(dscores.transpose(0, 1, 3, 2) @ c["q"])
        dv_m = _merge_heads(dv)

        grads[prefix + "wq"] = c["x_q"].T @ dq_m
        grads[prefix + "wk"] = c["x_in"].T @ dk_m
        grads[prefix + "wv"] = c["x_in"].T @ dv_m
        dx = dk_m @ layer.wk.T
        dx += dv_m @ layer.wv.T
        # the query rows and the residual are each sequence's first rows
        dx_q = dq_m @ layer.wq.T
        dx_q += dy1
        rows = dx_q.shape[0] // batch
        dx.reshape(batch, seq, -1)[:, :rows] += dx_q.reshape(batch, rows, -1)

    dembed = dx if cache["emb_keep"] is None else dx * cache["emb_keep"]
    dembed = dembed.reshape(batch, seq, -1)
    grads["position_embedding"][:seq] = dembed.sum(axis=0)
    np.add.at(grads["token_embedding"], cache["ids"], dembed)
    return grads
