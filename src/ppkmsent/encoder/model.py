"""Transformer encoder in plain numpy with hand-written gradients.

The stack is a post-layer-norm BERT-style encoder: learned token and position
embeddings, ``num_layers`` blocks of masked multi-head scaled dot-product
attention and a GELU feed-forward sublayer (each followed by residual add and
layer norm), then an affine classification head over the position-0 hidden
state.  The attention/feed-forward projections carry no bias terms.

Inputs may have any width up to ``max_sequence_length``.  Padded key
positions are masked out of attention, so trailing padding never changes
the logits or the gradients; the training and prediction helpers in
:mod:`ppkmsent.encoder.train` therefore cut each batch to its longest real
sequence rather than pass the fixed-length rows of ``format_input``.

Everything runs in float64.  ``backward`` consumes the cache produced by a
training-mode ``forward`` call and returns a gradient for every parameter
tensor; gradients are exact, which the test suite checks against central
finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ppkmsent.encoder.config import EncoderConfig
from ppkmsent.errors import ConfigError, EncoderNumericsError

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


@dataclass
class LayerParams:
    """Weights for one encoder block."""

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
    layers: list[LayerParams] = field(default_factory=list)
    head_w: np.ndarray = None  # type: ignore[assignment]
    head_b: np.ndarray = None  # type: ignore[assignment]

    def named_tensors(self) -> list[tuple[str, np.ndarray]]:
        """Every parameter tensor under a stable name, in a fixed order."""
        named = [
            ("token_embedding", self.token_embedding),
            ("position_embedding", self.position_embedding),
        ]
        for i, layer in enumerate(self.layers):
            prefix = f"layers.{i}."
            named.extend(
                (prefix + name, getattr(layer, name))
                for name in (
                    "wq",
                    "wk",
                    "wv",
                    "wo",
                    "ln1_gain",
                    "ln1_bias",
                    "w1",
                    "w2",
                    "ln2_gain",
                    "ln2_bias",
                )
            )
        named.append(("head_w", self.head_w))
        named.append(("head_b", self.head_b))
        return named

    def replace_tensor(self, name: str, value: np.ndarray) -> None:
        """Overwrite one named tensor in place (used by the optimiser)."""
        if name in ("token_embedding", "position_embedding", "head_w", "head_b"):
            setattr(self, name, value)
            return
        _, index, attr = name.split(".")
        setattr(self.layers[int(index)], attr, value)


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
    config: EncoderConfig, seed: int | np.random.SeedSequence = 0
) -> EncoderParams:
    """Random initial weights: truncated normal (std 0.02) for projections
    and embeddings, ones for layer-norm gains, zeros for biases."""
    if config.vocab_size < 1:
        raise ConfigError(
            f"vocab_size must be >= 1 to initialise weights, got "
            f"{config.vocab_size}"
        )
    rng = np.random.Generator(np.random.PCG64(seed))
    d = config.hidden_size
    f = config.feedforward_size
    std = 0.02
    params = EncoderParams(
        token_embedding=_truncated_normal(rng, (config.vocab_size, d), std),
        position_embedding=_truncated_normal(
            rng, (config.max_sequence_length, d), std
        ),
    )
    for _ in range(config.num_layers):
        params.layers.append(
            LayerParams(
                wq=_truncated_normal(rng, (d, d), std),
                wk=_truncated_normal(rng, (d, d), std),
                wv=_truncated_normal(rng, (d, d), std),
                wo=_truncated_normal(rng, (d, d), std),
                ln1_gain=np.ones(d),
                ln1_bias=np.zeros(d),
                w1=_truncated_normal(rng, (d, f), std),
                w2=_truncated_normal(rng, (f, d), std),
                ln2_gain=np.ones(d),
                ln2_bias=np.zeros(d),
            )
        )
    params.head_w = _truncated_normal(rng, (d, config.num_classes), std)
    params.head_b = np.zeros(config.num_classes)
    return params


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


# the powers below are written as products: numpy's general ``**`` is an
# order of magnitude slower than a multiply, and GELU runs on every
# feed-forward unit in both passes
def _gelu(x: np.ndarray) -> np.ndarray:
    """tanh-approximation GELU."""
    return 0.5 * x * (1.0 + np.tanh(_GELU_C * (x + _GELU_A * (x * x * x))))


def _gelu_grad(x: np.ndarray) -> np.ndarray:
    t = np.tanh(_GELU_C * (x + _GELU_A * (x * x * x)))
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * _GELU_C * (
        1.0 + 3.0 * _GELU_A * (x * x)
    )


def _layer_norm(
    x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float
) -> tuple[np.ndarray, dict]:
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    variance = np.mean(centered**2, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(variance + eps)
    normalized = centered * inv
    out = normalized * gain + bias
    return out, {"normalized": normalized, "inv": inv, "gain": gain}


def _layer_norm_backward(
    dout: np.ndarray, cache: dict
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    normalized = cache["normalized"]
    inv = cache["inv"]
    dgain = np.sum(dout * normalized, axis=tuple(range(dout.ndim - 1)))
    dbias = np.sum(dout, axis=tuple(range(dout.ndim - 1)))
    dnorm = dout * cache["gain"]
    dx = inv * (
        dnorm
        - dnorm.mean(axis=-1, keepdims=True)
        - normalized * np.mean(dnorm * normalized, axis=-1, keepdims=True)
    )
    return dx, dgain, dbias


def _split_heads(x: np.ndarray, num_heads: int) -> np.ndarray:
    batch, seq, hidden = x.shape
    return x.reshape(batch, seq, num_heads, hidden // num_heads).transpose(
        0, 2, 1, 3
    )


def _merge_heads(x: np.ndarray) -> np.ndarray:
    batch, heads, seq, head_size = x.shape
    return x.transpose(0, 2, 1, 3).reshape(batch, seq, heads * head_size)


def _dropout(
    x: np.ndarray, rate: float, rng: np.random.Generator | None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Inverted dropout; returns the rescaled keep mask for the backward pass."""
    if rate <= 0.0:
        return x, None
    if rng is None:
        raise ConfigError("training-mode forward with dropout needs an rng")
    keep = (rng.random(x.shape) >= rate).astype(np.float64) / (1.0 - rate)
    return x * keep, keep


def _check_finite(x: np.ndarray, where: str) -> None:
    if not np.isfinite(x).all():
        raise EncoderNumericsError(f"non-finite values in {where}")


@dataclass
class ForwardResult:
    """Outputs of one forward pass."""

    logits: np.ndarray
    cls_vector: np.ndarray
    attentions: tuple[np.ndarray, ...]
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
    mask = np.atleast_2d(np.asarray(mask, dtype=np.float64))
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
    # boolean key mask shared by every layer and head
    key_mask = mask.astype(bool)[:, None, None, :]

    embedded = params.token_embedding[ids] + params.position_embedding[:seq]
    x, emb_keep = _dropout(embedded, rate, rng)

    cache: dict = {"ids": ids, "emb_keep": emb_keep, "layers": []}
    attentions: list[np.ndarray] = []
    for index, layer in enumerate(params.layers):
        x_in = x
        q = _split_heads(x_in @ layer.wq, heads)
        k = _split_heads(x_in @ layer.wk, heads)
        v = _split_heads(x_in @ layer.wv, heads)
        scores = (q @ k.transpose(0, 1, 3, 2)) * scale
        scores = np.where(key_mask, scores, -np.inf)
        probs = softmax(scores, axis=-1)
        context = _merge_heads(probs @ v)
        attn_out = context @ layer.wo
        attn_dropped, attn_keep = _dropout(attn_out, rate, rng)
        x1, ln1_cache = _layer_norm(
            x_in + attn_dropped, layer.ln1_gain, layer.ln1_bias, eps
        )
        hidden = x1 @ layer.w1
        activated = _gelu(hidden)
        ffn_out = activated @ layer.w2
        ffn_dropped, ffn_keep = _dropout(ffn_out, rate, rng)
        x, ln2_cache = _layer_norm(
            x1 + ffn_dropped, layer.ln2_gain, layer.ln2_bias, eps
        )
        _check_finite(x, f"output of encoder layer {index}")
        attentions.append(probs)
        if want_cache:
            cache["layers"].append(
                {
                    "x_in": x_in,
                    "q": q,
                    "k": k,
                    "v": v,
                    "probs": probs,
                    "context": context,
                    "attn_keep": attn_keep,
                    "ln1": ln1_cache,
                    "x1": x1,
                    "hidden": hidden,
                    "activated": activated,
                    "ffn_keep": ffn_keep,
                    "ln2": ln2_cache,
                }
            )

    cls_vector = x[:, 0, :]
    logits = cls_vector @ params.head_w + params.head_b
    _check_finite(logits, "classifier logits")
    if want_cache:
        cache["cls_vector"] = cls_vector
        cache["seq"] = seq
    return ForwardResult(
        logits=logits,
        cls_vector=cls_vector,
        attentions=tuple(attentions),
        cache=cache if want_cache else None,
    )


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
    hidden_size = config.hidden_size
    ffn_size = config.feedforward_size
    seq = cache["seq"]
    grads: dict[str, np.ndarray] = {
        name: np.zeros_like(tensor) for name, tensor in params.named_tensors()
    }

    dlogits = np.atleast_2d(dlogits)
    cls_vector = cache["cls_vector"]
    grads["head_w"] = cls_vector.T @ dlogits
    grads["head_b"] = dlogits.sum(axis=0)

    # gradient flows into position 0 of the final hidden states only
    dx = np.zeros((dlogits.shape[0], seq, hidden_size))
    dx[:, 0, :] = dlogits @ params.head_w.T

    for index in range(len(params.layers) - 1, -1, -1):
        layer = params.layers[index]
        c = cache["layers"][index]
        prefix = f"layers.{index}."

        dy2, dg2, db2 = _layer_norm_backward(dx, c["ln2"])
        grads[prefix + "ln2_gain"] = dg2
        grads[prefix + "ln2_bias"] = db2
        dffn = dy2 if c["ffn_keep"] is None else dy2 * c["ffn_keep"]
        dx1 = dy2.copy()

        activated_2d = c["activated"].reshape(-1, ffn_size)
        grads[prefix + "w2"] = activated_2d.T @ dffn.reshape(-1, hidden_size)
        dactivated = dffn @ layer.w2.T
        dhidden = dactivated * _gelu_grad(c["hidden"])
        x1_2d = c["x1"].reshape(-1, hidden_size)
        grads[prefix + "w1"] = x1_2d.T @ dhidden.reshape(-1, ffn_size)
        dx1 += dhidden @ layer.w1.T

        dy1, dg1, db1 = _layer_norm_backward(dx1, c["ln1"])
        grads[prefix + "ln1_gain"] = dg1
        grads[prefix + "ln1_bias"] = db1
        dattn = dy1 if c["attn_keep"] is None else dy1 * c["attn_keep"]
        dx_in = dy1.copy()

        context_2d = c["context"].reshape(-1, hidden_size)
        grads[prefix + "wo"] = context_2d.T @ dattn.reshape(-1, hidden_size)
        dcontext = _split_heads(dattn @ layer.wo.T, heads)
        dprobs = dcontext @ c["v"].transpose(0, 1, 3, 2)
        dv = c["probs"].transpose(0, 1, 3, 2) @ dcontext
        # softmax backward; padded positions have prob 0 and get no gradient
        probs = c["probs"]
        dscores = probs * (dprobs - np.sum(dprobs * probs, axis=-1, keepdims=True))
        dq = (dscores @ c["k"]) * scale
        dk = (dscores.transpose(0, 1, 3, 2) @ c["q"]) * scale

        dq_m = _merge_heads(dq).reshape(-1, hidden_size)
        dk_m = _merge_heads(dk).reshape(-1, hidden_size)
        dv_m = _merge_heads(dv).reshape(-1, hidden_size)
        x_in_2d = c["x_in"].reshape(-1, hidden_size)
        grads[prefix + "wq"] = x_in_2d.T @ dq_m
        grads[prefix + "wk"] = x_in_2d.T @ dk_m
        grads[prefix + "wv"] = x_in_2d.T @ dv_m
        dx_in += (
            dq_m.reshape(dx.shape) @ layer.wq.T
            + dk_m.reshape(dx.shape) @ layer.wk.T
            + dv_m.reshape(dx.shape) @ layer.wv.T
        )
        dx = dx_in

    dembed = dx if cache["emb_keep"] is None else dx * cache["emb_keep"]
    grads["position_embedding"][:seq] = dembed.sum(axis=0)
    np.add.at(grads["token_embedding"], cache["ids"], dembed)
    return grads
