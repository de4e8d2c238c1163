"""Binary checkpoint format for encoder weights.

Layout (all integers little-endian uint32):

* 8 magic bytes ``PPKMENC\\x01``
* format version
* config-JSON byte length, then the UTF-8 config JSON (sorted keys)
* tensor count, then per tensor: name length, UTF-8 name, ndim, each
  dimension, raw float32 little-endian data

Tensors are stored in ``param_shapes`` order, the order of the params'
``FlatTensors``.  On load the names and shapes are checked
against ``param_shapes`` of the stored config, so a checkpoint either
reconstructs the exact architecture it was saved from or fails loudly,
naming the file.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from ppkmsent import artifacts
from ppkmsent.encoder.config import EncoderConfig
from ppkmsent.encoder.model import FlatTensors, param_shapes
from ppkmsent.errors import CheckpointFormatError, ConfigError

CHECKPOINT_MAGIC = b"PPKMENC\x01"
CHECKPOINT_VERSION = 1


def save_checkpoint(
    params: FlatTensors, config: EncoderConfig, path: str | Path
) -> None:
    """Write weights and architecture to ``path``."""
    header = json.dumps(config.to_dict(), sort_keys=True).encode("utf-8")
    chunks = [
        CHECKPOINT_MAGIC,
        struct.pack("<I", CHECKPOINT_VERSION),
        struct.pack("<I", len(header)),
        header,
        struct.pack("<I", len(params)),
    ]
    for name, tensor in params.items():
        name_bytes = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(name_bytes)))
        chunks.append(name_bytes)
        chunks.append(struct.pack("<I", tensor.ndim))
        chunks.append(struct.pack(f"<{tensor.ndim}I", *tensor.shape))
        chunks.append(np.ascontiguousarray(tensor, dtype="<f4").tobytes())
    artifacts.write_bytes(b"".join(chunks), path)


class _Reader:
    def __init__(self, path: str | Path) -> None:
        self.path = path
        self.data = Path(path).read_bytes()
        self.offset = 0

    def take(self, count: int) -> bytes:
        if self.offset + count > len(self.data):
            raise CheckpointFormatError(f"{self.path}: checkpoint file is truncated")
        out = self.data[self.offset : self.offset + count]
        self.offset += count
        return out

    def take_u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def load_checkpoint(path: str | Path) -> tuple[FlatTensors, EncoderConfig]:
    """Read a checkpoint and rebuild (params, config).

    The tensors come back float32, the stored values bit for bit, so a
    float32 model scores with exactly the weights it was saved with.

    Raises :class:`CheckpointFormatError`, naming ``path``, on bad magic,
    unknown version, truncation, trailing bytes, a config header that does
    not describe an encoder, or tensor names/shapes that do not match
    ``param_shapes`` of that config.
    """
    reader = _Reader(path)
    if reader.take(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(f"{path} is not an encoder checkpoint")
    version = reader.take_u32()
    if version != CHECKPOINT_VERSION:
        raise CheckpointFormatError(
            f"{path}: unsupported checkpoint version {version}, expected "
            f"{CHECKPOINT_VERSION}"
        )
    header = reader.take(reader.take_u32())
    try:
        config = EncoderConfig.from_dict(json.loads(header.decode("utf-8")))
        expected = param_shapes(config)
    except (ValueError, TypeError, ConfigError) as exc:
        # TypeError: a header that is not an object, or a value of the wrong type
        raise CheckpointFormatError(f"{path}: bad checkpoint config: {exc}") from exc

    tensors: dict[str, np.ndarray] = {}
    for _ in range(reader.take_u32()):
        name_len = reader.take_u32()
        name = reader.take(name_len).decode("utf-8")
        ndim = reader.take_u32()
        shape = tuple(reader.take_u32() for _ in range(ndim))
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        raw = reader.take(count * 4)
        tensors[name] = np.frombuffer(raw, dtype="<f4").reshape(shape)
    if reader.offset != len(reader.data):
        raise CheckpointFormatError(f"{path}: checkpoint has trailing bytes")

    if set(tensors) != set(expected):
        missing = sorted(set(expected) - set(tensors))
        extra = sorted(set(tensors) - set(expected))
        raise CheckpointFormatError(
            f"{path}: tensor names do not match config (missing {missing}, "
            f"unexpected {extra})"
        )
    for name, shape in expected.items():
        if tensors[name].shape != shape:
            raise CheckpointFormatError(
                f"{path}: tensor {name} has shape {tensors[name].shape}, "
                f"expected {shape}"
            )
    params = FlatTensors(expected, np.float32)
    for name, tensor in params.items():
        tensor[...] = tensors[name]
    return params, config
