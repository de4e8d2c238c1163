"""Artifact format and write policy; every file the package writes goes
through this module.

Format: UTF-8 text with ``\\n`` line endings and a final newline; JSON with
one-space indent and sorted keys; JSON Lines with one compact sorted-key
object per line; CSV quoted by the ``csv`` module under a header row.
Floats render as ``repr`` and no artifact records when it was written, so
reruns with unchanged inputs and seed are byte-identical.

The one binary artifact, the labeled documents as token ids
(:func:`encode_labeled_ids`), is a header line of compact sorted-key JSON
(magic, version, document and id counts, and the token table), then the
little-endian ``int8`` label codes, ``int32`` document lengths and
``int32`` token ids, with nothing after them.

Each write goes to ``.<name>.<pid>.tmp`` beside the target, which
``os.replace`` then swaps in, so an interrupted write leaves the previous
file or none, never a partial one.  Plain ``open`` keeps the umask's mode
(0644 under umask 022).  There is no fsync: durability against power loss
is out of scope.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import io
import json
import json.scanner
import os
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from itertools import islice, repeat
from pathlib import Path
from typing import BinaryIO

import numpy as np

from ppkmsent.errors import CheckpointFormatError, ConfigError, StageOrderError
from ppkmsent.preprocess import LabeledIds, SentimentLabel, TokenIds

LABELED_IDS_MAGIC = "ppkmsent/labeled-ids"
LABELED_IDS_VERSION = 1


@contextmanager
def _replacing(path: Path) -> Iterator[BinaryIO]:
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temp, "wb") as handle:
            yield handle
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def write_bytes(data: bytes, path: str | Path) -> Path:
    """Atomically replace ``path`` with ``data``."""
    path = Path(path)
    with _replacing(path) as handle:
        handle.write(data)
    return path


def write_text(text: str, path: str | Path) -> Path:
    return write_bytes(text.encode("utf-8"), path)


def write_json(payload: object, path: str | Path) -> Path:
    return write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", path)


# what json.dumps(row, sort_keys=True) builds anew for every call
_JSONL_ENCODER = json.JSONEncoder(sort_keys=True)
# lines encoded per write: bounds the text held at once for a long iterator
_WRITE_BATCH = 1024


def write_jsonl(rows: Iterable[dict], path: str | Path) -> Path:
    """Write dict rows as JSON Lines, ``json.dumps(row, sort_keys=True)``
    per line, ``_WRITE_BATCH`` lines per write.

    Each row is encoded as soon as it is drawn, so only encoded text is
    held: a batch of live rows from a generator outlasts the collector's
    youngest generation and sets off extra passes over every live object.
    """
    path = Path(path)
    encode = _JSONL_ENCODER.encode
    rows = iter(rows)
    with _replacing(path) as handle:
        while lines := list(map(encode, islice(rows, _WRITE_BATCH))):
            handle.write(("\n".join(lines) + "\n").encode("utf-8"))
    return path


def write_csv(header: tuple[str, ...], rows: Iterable[tuple], path: str | Path) -> Path:
    """Write a header and rows as CSV, encoded as the rows are drawn."""
    path = Path(path)
    with _replacing(path) as handle:
        with io.TextIOWrapper(handle, "utf-8", newline="") as text:
            writer = csv.writer(text, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
    return path


def read_id_csv(path: Path, column: str, parse: Callable[[str], object]) -> dict:
    """Read an ``id,<column>`` CSV into ``{id: parse(value)}``; a wrong
    header, or a value (missing: "") that ``parse`` rejects with ValueError,
    is a ConfigError naming ``<path>:<line>``."""
    values = {}
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["id", column]:
            raise ConfigError(f"{path}: expected header id,{column}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            rid, value = (row + [""])[:2]
            try:
                values[rid.strip()] = parse(value)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    return values


def check_row(payload: object, fields: dict[str, type]) -> dict:
    """``payload`` when it is an object holding each field with its type;
    ValueError otherwise."""
    if not isinstance(payload, dict):
        raise ValueError("row is not a JSON object")
    # one pass in C for a good row; the loop only names the first bad field
    if not all(map(isinstance, map(payload.get, fields), fields.values())):
        for key, kind in fields.items():
            if not isinstance(payload.get(key), kind):
                raise ValueError(f"{key!r} is missing or not a {kind.__name__}")
    return payload


def str_list(payload: dict, key: str) -> list[str]:
    """``payload[key]`` when it is a list of str; ValueError otherwise."""
    value = payload.get(key)
    if not isinstance(value, list) or not all(map(isinstance, value, repeat(str))):
        raise ValueError(f"{key!r} is missing or not a list of str")
    return value


def corpus_row(payload: object) -> tuple[str, str]:
    """(id, text) of a ``corpus.jsonl`` row."""
    row = check_row(payload, {"id": str, "text": str})
    return row["id"], row["text"]


# json.loads' own C scanner, called directly for a line that is one value
# and its newline; any other line goes through json.loads itself, so the
# values and error messages are json.loads'
_scan_json = json.scanner.make_scanner(json.JSONDecoder())


def _json_line(text: str) -> object:
    """``json.loads(text)`` for one line of a JSONL file."""
    try:
        value, end = _scan_json(text, 0)
    except (StopIteration, ValueError):
        return json.loads(text)
    return value if text[end:] in ("", "\n") else json.loads(text)


def load_jsonl(path: Path, parse_row: Callable[[object], object]) -> tuple[list, str]:
    """Parse every non-blank line of a JSONL artifact; a malformed row is a
    ConfigError naming ``<path>:<line>``.

    Returns the parsed rows and the SHA-256 of the bytes they were parsed
    from, so that a manifest records exactly the file that was used and
    the file is read once.

    The cyclic garbage collector is paused while the rows are built: the
    rows are acyclic, and with it running, every few hundred new containers
    set off a pass over all the rows built so far.  Its previous state is
    restored whether the load succeeds or fails.
    """
    rows = []
    digest = hashlib.sha256()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        with open(path, "rb") as handle:
            for lineno, line in enumerate(handle, start=1):
                digest.update(line)
                try:
                    text = line.decode("utf-8")
                    if text.strip():
                        rows.append(parse_row(_json_line(text)))
                except ValueError as exc:
                    raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    finally:
        if was_enabled:
            gc.enable()
    return rows, digest.hexdigest()


def encode_labeled_ids(labeled: LabeledIds) -> bytes:
    """The labeled-ids format (module docstring) of ``labeled``."""
    documents, labels = labeled
    header = {
        "magic": LABELED_IDS_MAGIC,
        "version": LABELED_IDS_VERSION,
        "documents": len(labels),
        "ids": len(documents.ids),
        "tokens": documents.tokens,
    }
    return b"".join(
        (
            json.dumps(header, sort_keys=True, separators=(",", ":")).encode("ascii"),
            b"\n",
            labels.astype("<i1").tobytes(),
            documents.lengths.astype("<i4").tobytes(),
            documents.ids.astype("<i4").tobytes(),
        )
    )


def is_int(value: object) -> bool:
    """An int from JSON, not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def decode_labeled_ids(data: bytes, path: Path) -> LabeledIds:
    """Inverse of :func:`encode_labeled_ids`, with ``intp`` arrays.

    A CheckpointFormatError names ``path`` when the header is not a
    labeled-ids header of this version, when the token table repeats a
    token, when the body is not exactly as long as the header's counts
    say, and when a label code is not a label, a length is negative, the
    lengths do not sum to the number of ids or an id is outside the token
    table.
    """
    end = data.find(b"\n")
    try:
        header = json.loads(data[:end]) if end >= 0 else None
    except ValueError:
        header = None
    if not isinstance(header, dict) or header.get("magic") != LABELED_IDS_MAGIC:
        raise CheckpointFormatError(f"{path}: not a labeled-ids file")
    if (version := header.get("version")) != LABELED_IDS_VERSION:
        raise CheckpointFormatError(f"{path}: unsupported version {version!r}")
    n, t, tokens = header.get("documents"), header.get("ids"), header.get("tokens")
    counts_ok = is_int(n) and is_int(t) and min(n, t) >= 0
    if not (counts_ok and isinstance(tokens, list)) or not all(
        map(isinstance, tokens, repeat(str))
    ):
        raise CheckpointFormatError(f"{path}: malformed header")
    if len(set(tokens)) != len(tokens):
        raise CheckpointFormatError(f"{path}: the token table repeats a token")
    body = memoryview(data)[end + 1 :]
    if len(body) != 5 * n + 4 * t:
        raise CheckpointFormatError(
            f"{path}: {len(body)} bytes follow the header, but {n} documents "
            f"of {t} ids take {5 * n + 4 * t}"
        )
    labels = np.frombuffer(body, "<i1", n).astype(np.intp)
    lengths = np.frombuffer(body, "<i4", n, n).astype(np.intp)
    ids = np.frombuffer(body, "<i4", t, 5 * n).astype(np.intp)
    if n and not 0 <= labels.min() <= labels.max() < len(SentimentLabel):
        raise CheckpointFormatError(f"{path}: a label code is not a label")
    if n and lengths.min() < 0:
        raise CheckpointFormatError(f"{path}: a document length is negative")
    if (total := int(lengths.sum())) != t:
        raise CheckpointFormatError(
            f"{path}: the document lengths sum to {total}, not to the {t} ids"
        )
    if t and not 0 <= ids.min() <= ids.max() < len(tokens):
        raise CheckpointFormatError(f"{path}: an id is outside the token table")
    return LabeledIds(TokenIds(lengths, ids, tokens), labels)


def require_artifact(path: Path, producer: str) -> Path:
    """``path`` when it exists, else a StageOrderError naming ``producer``."""
    if not path.is_file():
        raise StageOrderError(path.name, f"run the {producer} stage first")
    return path


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()
