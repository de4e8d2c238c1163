"""Tests for the artifact module's write policy."""

from __future__ import annotations

import ast
import csv
import gc
import hashlib
import io
import json
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ppkmsent
from conftest import document_from_row, make_doc
from ppkmsent import artifacts, pipeline
from ppkmsent.errors import CheckpointFormatError, ConfigError
from ppkmsent.preprocess import SentimentLabel, labeled_ids, token_ids

PACKAGE_DIR = Path(ppkmsent.__file__).parent

_WRITE_METHODS = ("write_text", "write_bytes")
_WRITE_MODE_CHARS = set("wax+")


def _opens_for_writing(call: ast.Call, name: str) -> bool:
    # builtin and io open take the mode second, Path.open first
    position = 0 if name == "open" and isinstance(call.func, ast.Attribute) else 1
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"]
    if len(call.args) > position:
        modes.append(call.args[position])
    for mode in modes:
        if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
            return True  # a computed mode may write
        if _WRITE_MODE_CHARS & set(mode.value):
            return True
    return False


def file_writes(source: str) -> list[int]:
    """Line numbers of calls that write a file without going through
    ``artifacts``: ``.write_text(``/``.write_bytes(`` on anything but the
    ``artifacts`` module, ``json.dump(`` and ``open`` in a w/a/x/+ mode."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute):
            name = func.attr
            owner = func.value.id if isinstance(func.value, ast.Name) else None
        elif isinstance(func, ast.Name):
            name, owner = func.id, None
        else:
            continue
        if (
            (name in _WRITE_METHODS and owner != "artifacts")
            or (name == "dump" and owner == "json")
            or (name == "open" and _opens_for_writing(node, name))
        ):
            lines.append(node.lineno)
    return lines


class TestSingleWriter:
    def test_scan_finds_each_write_idiom(self):
        source = (
            "path.write_text(text)\n"
            "Path(p).write_bytes(data)\n"
            "json.dump(payload, handle)\n"
            "open(path, 'w')\n"
            "open(path, mode='a', encoding='utf-8')\n"
            "path.open('x')\n"
            "io.open(path, 'r+')\n"
            "open(path, mode)\n"
            "artifacts.write_text(text, path)\n"
            "open(path, encoding='utf-8')\n"
            "open(path, 'rb')\n"
            "path.open()\n"
            "json.dumps(payload)\n"
        )
        assert file_writes(source) == [1, 2, 3, 4, 5, 6, 7, 8]

    def test_only_the_artifact_module_writes_files(self):
        found = [
            f"{path.relative_to(PACKAGE_DIR)}:{line}"
            for path in sorted(PACKAGE_DIR.rglob("*.py"))
            if path != PACKAGE_DIR / "artifacts.py"
            for line in file_writes(path.read_text(encoding="utf-8"))
        ]
        assert found == []


GOOD_ROW = {
    "id": "t1",
    "raw_text": "PPKM Rugi",
    "clean_text": "ppkm rugi",
    "tokens": ["ppkm", "rugi"],
    "label": "Negative",
}


def labeled_file(tmp_path: Path, bad_line: bytes) -> Path:
    """A labeled.jsonl whose third line (after a blank one) is ``bad_line``."""
    path = tmp_path / pipeline.LABELED_FILE
    good = json.dumps(GOOD_ROW, sort_keys=True).encode("utf-8")
    path.write_bytes(good + b"\n\n" + bad_line + b"\n" + good + b"\n")
    return path


def row(**changes) -> bytes:
    payload = {**GOOD_ROW, **changes}
    kept = {k: v for k, v in payload.items() if v is not None}
    return json.dumps(kept).encode("utf-8")


class TestLoadJsonl:
    def test_rows_and_the_digest_of_the_parsed_bytes(self, tmp_path):
        path = labeled_file(tmp_path, row(id="t2", label="Positive"))
        docs, digest = artifacts.load_jsonl(path, document_from_row)
        assert [d.id for d in docs] == ["t1", "t2", "t1"]
        assert docs[1].label is SentimentLabel.POSITIVE
        assert docs[1].tokens == ("ppkm", "rugi")
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()

    @pytest.mark.parametrize(
        "bad_line, message",
        [
            (b"[1, 2]", "row is not a JSON object"),
            (row(id=None), "'id' is missing or not a str"),
            (row(raw_text=5), "'raw_text' is missing or not a str"),
            # the first bad field in field order is named
            (row(clean_text=None, label=3), "'clean_text' is missing or not a str"),
            (row(label=1), "'label' is missing or not a str"),
            (row(tokens="ppkm rugi"), "'tokens' is missing or not a list of str"),
            (row(tokens=None), "'tokens' is missing or not a list of str"),
            (row(tokens=["ppkm", 2]), "'tokens' is missing or not a list of str"),
            (row(label="great"), "unknown sentiment label: 'great'"),
            (
                b"{not json",
                "Expecting property name enclosed in double quotes: "
                "line 1 column 2 (char 1)",
            ),
            (
                b"\xff{}",
                "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
            ),
        ],
        ids=[
            "not-an-object",
            "missing-field",
            "non-str-field",
            "first-bad-field",
            "non-str-label",
            "tokens-not-a-list",
            "tokens-missing",
            "non-str-token",
            "unknown-label",
            "not-json",
            "not-utf-8",
        ],
    )
    def test_malformed_row_names_path_and_line(self, tmp_path, bad_line, message):
        path = labeled_file(tmp_path, bad_line)
        with pytest.raises(ConfigError) as caught:
            artifacts.load_jsonl(path, document_from_row)
        assert str(caught.value) == f"{path}:3: {message}"

    @pytest.mark.parametrize(
        "text",
        [
            '{"a": [1, "x"]}\n',
            '{"a": 1}',
            '  {"a": 1}\n',
            '{"a": 1}\r\n',
            '{"a": 1} \n',
            '{"a": 1} x\n',
            '{"a": 1}{"b": 2}\n',
            '1 2\n',
            '"s"\n',
            "NaN\n",
            '\ufeff{"a": 1}\n',
            '{"a": \n',
            "{not json\n",
        ],
    )
    def test_a_line_parses_as_json_loads_parses_it(self, text):
        try:
            expected = ("value", json.loads(text))
        except ValueError as exc:
            expected = ("error", str(exc))
        try:
            got = ("value", artifacts._json_line(text))
        except ValueError as exc:
            got = ("error", str(exc))
        assert got == expected

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize(
        "bad_line", [row(id="t2"), row(label="great")], ids=["ok", "bad"]
    )
    def test_collector_state_is_restored(self, tmp_path, enabled, bad_line):
        path = labeled_file(tmp_path, bad_line)
        seen = []

        def parse(payload):
            seen.append(gc.isenabled())
            return document_from_row(payload)

        was_enabled = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            try:
                artifacts.load_jsonl(path, parse)
            except ConfigError:
                assert b"great" in bad_line
            assert gc.isenabled() is enabled
            assert seen and not any(seen)
        finally:
            gc.enable() if was_enabled else gc.disable()


B = artifacts._WRITE_BATCH


def dumps_lines(rows) -> bytes:
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in rows).encode("utf-8")


def mixed_rows(count: int) -> list[dict]:
    """Rows with non-ASCII text, control characters, NaN and nested dicts."""
    kinds = [
        lambda i: {"id": f"r{i}", "text": "ppkm jualan"},
        lambda i: {"text": "rugi — naïve 😷 ﻿", "id": f"r{i}"},
        lambda i: {"id": f"r{i}", "text": "tab\there\nline\x00nul\x1f "},
        lambda i: {"id": f"r{i}", "score": float("nan"), "inf": float("-inf")},
        lambda i: {"z": {"b": [1, 2.5, None], "a": {"y": True, "x": "é"}}, "a": i},
    ]
    return [kinds[i % len(kinds)](i) for i in range(count)]


def rows_then_raise():
    """More than one batch of rows, then a failure of the row source."""
    yield from mixed_rows(B + 7)
    raise RuntimeError("row source failed")


class TestWriteJsonl:
    @pytest.mark.parametrize("count", [0, 1, B - 1, B, B + 1, 2 * B + 1])
    @pytest.mark.parametrize("as_generator", [False, True], ids=["list", "generator"])
    def test_bytes_are_json_dumps_per_line(self, tmp_path, count, as_generator):
        rows = mixed_rows(count)
        path = tmp_path / "rows.jsonl"
        artifacts.write_jsonl((r for r in rows) if as_generator else rows, path)
        assert path.read_bytes() == dumps_lines(rows)

    def test_each_row_is_released_once_encoded(self, tmp_path):
        # rows held for a whole batch would outlast the collector's youngest
        # generation and set off passes over every live object
        class Row(dict):
            __slots__ = ("__weakref__",)

        alive = [0]
        most_alive = 0

        def released():
            alive[0] -= 1

        def rows():
            nonlocal most_alive
            for i in range(2 * B + 1):
                most_alive = max(most_alive, alive[0])
                row = Row(id=f"r{i}", tokens=["a", "b"])
                alive[0] += 1
                weakref.finalize(row, released)
                yield row
                del row

        artifacts.write_jsonl(rows(), tmp_path / "rows.jsonl")
        assert most_alive == 0

    @pytest.mark.parametrize(
        "make_rows, error",
        [
            (rows_then_raise, RuntimeError),
            (lambda: mixed_rows(B + 3) + [{"id": "bad", "tokens": {"a set"}}], TypeError),
        ],
        ids=["iterator-raises", "unserializable-row"],
    )
    def test_a_failed_write_keeps_the_previous_file(self, tmp_path, make_rows, error):
        path = tmp_path / "rows.jsonl"
        path.write_bytes(b"previous\n")
        with pytest.raises(error):
            artifacts.write_jsonl(make_rows(), path)
        assert path.read_bytes() == b"previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["rows.jsonl"]


CSV_HEADER = ("id", "text", "score")
# commas, quotes, newlines and non-ASCII, each of which the csv module quotes
# or the encoder must carry
CSV_ROWS = [
    ("plain", "ppkm jualan", "1"),
    ("comma", "rugi, tutup", "-2"),
    ("quote", 'kata "PPKM" lagi', "0"),
    ("newline", "baris\nbaru\r\nlagi", "3"),
    ("non-ascii", "naïve — 😷 é", ""),
]
CSV_FIELDS = st.text(alphabet=st.sampled_from(list('ab,"\n\r é😷')), max_size=6)


def csv_bytes(rows) -> bytes:
    """What ``csv.writer`` with ``lineterminator="\n"`` writes, in UTF-8."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(rows)
    return buffer.getvalue().encode("utf-8")


class TestWriteCsv:
    # 2,000 rows span several of the text layer's buffers
    @pytest.mark.parametrize("count", [0, 1, len(CSV_ROWS), 2000])
    def test_bytes_are_the_csv_writers(self, tmp_path, count):
        rows = [CSV_ROWS[i % len(CSV_ROWS)] for i in range(count)]
        path = tmp_path / "rows.csv"
        artifacts.write_csv(CSV_HEADER, iter(rows), path)
        assert path.read_bytes() == csv_bytes(rows)

    @given(st.lists(st.tuples(CSV_FIELDS, CSV_FIELDS, CSV_FIELDS), max_size=5))
    @settings(max_examples=100)
    def test_any_fields_give_the_csv_writers_bytes(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("csv") / "rows.csv"
        artifacts.write_csv(CSV_HEADER, rows, path)
        assert path.read_bytes() == csv_bytes(rows)

    def test_a_failed_write_keeps_the_previous_file(self, tmp_path):
        def rows():
            yield from CSV_ROWS * 400
            raise RuntimeError("row source failed")

        path = tmp_path / "rows.csv"
        path.write_bytes(b"previous\n")
        with pytest.raises(RuntimeError, match="row source failed"):
            artifacts.write_csv(CSV_HEADER, rows(), path)
        assert path.read_bytes() == b"previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["rows.csv"]


# tokens as the label stage never makes them, to show the format does not
# rely on cleansing: non-ASCII, quotes, backslashes, newlines and spaces
TOKENS = st.text(
    alphabet=st.sampled_from(['a', 'b', 'é', '😷', '"', "'", '\\', '\n', ' ', '\x00']),
    min_size=1,
    max_size=3,
)
LABELED_DOCS = st.lists(
    st.tuples(st.lists(TOKENS, max_size=5), st.sampled_from(list(SentimentLabel))),
    max_size=8,
)


def labeled_docs(rows) -> list:
    return [make_doc(tokens, label, str(i)) for i, (tokens, label) in enumerate(rows)]


class TestLabeledIds:
    @given(LABELED_DOCS)
    @settings(max_examples=200)
    @example([])
    @example([([], SentimentLabel.NEUTRAL)])
    @example([(["\n", '"'], SentimentLabel.NEGATIVE), ([], SentimentLabel.POSITIVE)])
    def test_the_file_round_trips_token_ids_and_labels(self, rows):
        docs = labeled_docs(rows)
        data = artifacts.encode_labeled_ids(labeled_ids(docs))
        (lengths, ids, tokens), labels = artifacts.decode_labeled_ids(data, Path("f"))
        want = token_ids(docs)
        assert lengths.dtype == ids.dtype == labels.dtype == np.intp
        assert lengths.tolist() == want.lengths.tolist()
        assert ids.tolist() == want.ids.tolist()
        assert tokens == want.tokens
        assert labels.tolist() == [int(label) for _, label in rows]
        # one ASCII header line, then 1 + 4 bytes per document and 4 per id
        header, _, body = data.partition(b"\n")
        assert header.isascii()
        assert len(body) == 5 * len(docs) + 4 * len(want.ids)

    def test_the_bytes_are_little_endian_after_one_header_line(self):
        docs = [
            make_doc(["b", "a", "b"], SentimentLabel.POSITIVE, "x"),
            make_doc([], SentimentLabel.NEGATIVE, "y"),
        ]
        data = artifacts.encode_labeled_ids(labeled_ids(docs))
        assert data == (
            b'{"documents":2,"ids":3,"magic":"ppkmsent/labeled-ids",'
            b'"tokens":["b","a"],"version":1}\n'
            b"\x02\x00"
            b"\x03\x00\x00\x00\x00\x00\x00\x00"
            b"\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00"
        )

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"", "not a labeled-ids file"),
            (b'{"magic": "ppkmsent/labeled-ids"}', "not a labeled-ids file"),
            (b"\xff\n", "not a labeled-ids file"),
            (b"[]\n", "not a labeled-ids file"),
            (b'{"magic": "other"}\n', "not a labeled-ids file"),
            (b'{"magic": "ppkmsent/labeled-ids", "version": 2}\n', "unsupported version 2"),
            (
                b'{"magic":"ppkmsent/labeled-ids","version":1,"documents":-1,'
                b'"ids":0,"tokens":[]}\n',
                "malformed header",
            ),
            (
                b'{"magic":"ppkmsent/labeled-ids","version":1,"documents":true,'
                b'"ids":0,"tokens":[]}\n',
                "malformed header",
            ),
            (
                b'{"magic":"ppkmsent/labeled-ids","version":1,"documents":0,'
                b'"ids":0,"tokens":[1]}\n',
                "malformed header",
            ),
            (
                b'{"magic":"ppkmsent/labeled-ids","version":1,"documents":0,'
                b'"ids":0,"tokens":["a","a"]}\n',
                "the token table repeats a token",
            ),
            (
                b'{"magic":"ppkmsent/labeled-ids","version":1,"documents":1,'
                b'"ids":0,"tokens":[]}\n\x00\x00\x00\x00',
                "4 bytes follow the header, but 1 documents of 0 ids take 5",
            ),
            (
                b'{"magic":"ppkmsent/labeled-ids","version":1,"documents":0,'
                b'"ids":0,"tokens":[]}\n\x00',
                "1 bytes follow the header, but 0 documents of 0 ids take 0",
            ),
            (
                b'{"magic":"ppkmsent/labeled-ids","version":1,"documents":1,'
                b'"ids":0,"tokens":[]}\n\x03\x00\x00\x00\x00',
                "a label code is not a label",
            ),
            (
                b'{"magic":"ppkmsent/labeled-ids","version":1,"documents":1,'
                b'"ids":0,"tokens":[]}\n\xff\x00\x00\x00\x00',
                "a label code is not a label",
            ),
            (
                b'{"magic":"ppkmsent/labeled-ids","version":1,"documents":2,'
                b'"ids":0,"tokens":[]}\n\x00\x00\xff\xff\xff\xff\x01\x00\x00\x00',
                "a document length is negative",
            ),
            (
                b'{"magic":"ppkmsent/labeled-ids","version":1,"documents":1,'
                b'"ids":1,"tokens":["a"]}\n\x00\x02\x00\x00\x00\x00\x00\x00\x00',
                "the document lengths sum to 2, not to the 1 ids",
            ),
            (
                b'{"magic":"ppkmsent/labeled-ids","version":1,"documents":1,'
                b'"ids":1,"tokens":["a"]}\n\x00\x01\x00\x00\x00\x01\x00\x00\x00',
                "an id is outside the token table",
            ),
            (
                b'{"magic":"ppkmsent/labeled-ids","version":1,"documents":1,'
                b'"ids":1,"tokens":["a"]}\n\x00\x01\x00\x00\x00\xff\xff\xff\xff',
                "an id is outside the token table",
            ),
        ],
        ids=[
            "empty",
            "no-header-line",
            "header-not-utf-8",
            "header-not-an-object",
            "wrong-magic",
            "other-version",
            "negative-count",
            "bool-count",
            "token-not-a-string",
            "repeated-token",
            "short-body",
            "long-body",
            "label-above-range",
            "label-negative",
            "negative-length",
            "lengths-do-not-sum",
            "id-past-the-table",
            "negative-id",
        ],
    )
    def test_a_malformed_file_names_its_path(self, data, message):
        with pytest.raises(CheckpointFormatError) as caught:
            artifacts.decode_labeled_ids(data, Path("out/labeled_ids.bin"))
        assert str(caught.value) == f"out/labeled_ids.bin: {message}"
