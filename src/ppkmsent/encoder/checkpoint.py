"""Binary checkpoint format for encoder weights.

Layout (all integers little-endian uint32):

* 8 magic bytes ``PPKMENC\\x01``
* format version
* config-JSON byte length, then the UTF-8 config JSON (sorted keys)
* tensor count, then per tensor: name length, UTF-8 name, ndim, each
  dimension, raw float32 little-endian data

Tensors are stored in the fixed ``named_tensors`` order and validated
against the config on load, so a checkpoint either reconstructs the exact
architecture it was saved from or fails loudly.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from ppkmsent import artifacts
from ppkmsent.encoder.config import EncoderConfig
from ppkmsent.encoder.model import EncoderParams, LayerParams
from ppkmsent.errors import CheckpointFormatError, ConfigError

CHECKPOINT_MAGIC = b"PPKMENC\x01"
CHECKPOINT_VERSION = 1


def save_checkpoint(
    params: EncoderParams, config: EncoderConfig, path: str | Path
) -> None:
    """Write weights and architecture to ``path``."""
    header = json.dumps(config.to_dict(), sort_keys=True).encode("utf-8")
    named = params.named_tensors()
    chunks = [
        CHECKPOINT_MAGIC,
        struct.pack("<I", CHECKPOINT_VERSION),
        struct.pack("<I", len(header)),
        header,
        struct.pack("<I", len(named)),
    ]
    for name, tensor in named:
        name_bytes = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(name_bytes)))
        chunks.append(name_bytes)
        chunks.append(struct.pack("<I", tensor.ndim))
        chunks.append(struct.pack(f"<{tensor.ndim}I", *tensor.shape))
        chunks.append(np.ascontiguousarray(tensor, dtype="<f4").tobytes())
    artifacts.write_bytes(b"".join(chunks), path)


class _Reader:
    def __init__(self, data: bytes) -> None:
        self.data = data
        self.offset = 0

    def take(self, count: int) -> bytes:
        if self.offset + count > len(self.data):
            raise CheckpointFormatError("checkpoint file is truncated")
        out = self.data[self.offset : self.offset + count]
        self.offset += count
        return out

    def take_u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def _expected_shapes(config: EncoderConfig) -> dict[str, tuple[int, ...]]:
    d = config.hidden_size
    f = config.feedforward_size
    shapes: dict[str, tuple[int, ...]] = {
        "token_embedding": (config.vocab_size, d),
        "position_embedding": (config.max_sequence_length, d),
        "head_w": (d, config.num_classes),
        "head_b": (config.num_classes,),
    }
    for i in range(config.num_layers):
        prefix = f"layers.{i}."
        shapes[prefix + "wq"] = (d, d)
        shapes[prefix + "wk"] = (d, d)
        shapes[prefix + "wv"] = (d, d)
        shapes[prefix + "wo"] = (d, d)
        shapes[prefix + "ln1_gain"] = (d,)
        shapes[prefix + "ln1_bias"] = (d,)
        shapes[prefix + "w1"] = (d, f)
        shapes[prefix + "w2"] = (f, d)
        shapes[prefix + "ln2_gain"] = (d,)
        shapes[prefix + "ln2_bias"] = (d,)
    return shapes


def load_checkpoint(path: str | Path) -> tuple[EncoderParams, EncoderConfig]:
    """Read a checkpoint and rebuild (params, config).

    The tensors come back float32, the stored values bit for bit, so a
    float32 model scores with exactly the weights it was saved with.

    Raises :class:`CheckpointFormatError` on bad magic, unknown version,
    truncation, or tensor names/shapes that do not match the stored config.
    """
    reader = _Reader(Path(path).read_bytes())
    if reader.take(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(f"{path} is not an encoder checkpoint")
    version = reader.take_u32()
    if version != CHECKPOINT_VERSION:
        raise CheckpointFormatError(
            f"unsupported checkpoint version {version}, expected "
            f"{CHECKPOINT_VERSION}"
        )
    header_len = reader.take_u32()
    try:
        config_dict = json.loads(reader.take(header_len).decode("utf-8"))
        config = EncoderConfig.from_dict(config_dict)
    except (ValueError, ConfigError) as exc:
        raise CheckpointFormatError(f"bad checkpoint config: {exc}") from exc

    tensors: dict[str, np.ndarray] = {}
    for _ in range(reader.take_u32()):
        name_len = reader.take_u32()
        name = reader.take(name_len).decode("utf-8")
        ndim = reader.take_u32()
        shape = tuple(reader.take_u32() for _ in range(ndim))
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        raw = reader.take(count * 4)
        tensors[name] = (
            np.frombuffer(raw, dtype="<f4").astype(np.float32).reshape(shape)
        )
    if reader.offset != len(reader.data):
        raise CheckpointFormatError("checkpoint has trailing bytes")

    expected = _expected_shapes(config)
    if set(tensors) != set(expected):
        missing = sorted(set(expected) - set(tensors))
        extra = sorted(set(tensors) - set(expected))
        raise CheckpointFormatError(
            f"tensor names do not match config (missing {missing}, "
            f"unexpected {extra})"
        )
    for name, shape in expected.items():
        if tensors[name].shape != shape:
            raise CheckpointFormatError(
                f"tensor {name} has shape {tensors[name].shape}, expected "
                f"{shape}"
            )

    params = EncoderParams(
        token_embedding=tensors["token_embedding"],
        position_embedding=tensors["position_embedding"],
        head_w=tensors["head_w"],
        head_b=tensors["head_b"],
    )
    for i in range(config.num_layers):
        prefix = f"layers.{i}."
        params.layers.append(
            LayerParams(
                wq=tensors[prefix + "wq"],
                wk=tensors[prefix + "wk"],
                wv=tensors[prefix + "wv"],
                wo=tensors[prefix + "wo"],
                ln1_gain=tensors[prefix + "ln1_gain"],
                ln1_bias=tensors[prefix + "ln1_bias"],
                w1=tensors[prefix + "w1"],
                w2=tensors[prefix + "w2"],
                ln2_gain=tensors[prefix + "ln2_gain"],
                ln2_bias=tensors[prefix + "ln2_bias"],
            )
        )
    return params, config
