"""Tests for the artifact module's write policy."""

from __future__ import annotations

import ast
import gc
import hashlib
import json
import weakref
from pathlib import Path

import pytest

import ppkmsent
from ppkmsent import artifacts, pipeline
from ppkmsent.errors import ConfigError
from ppkmsent.preprocess import SentimentLabel

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
        docs, digest = artifacts.load_jsonl(path, pipeline.document_from_json)
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
            artifacts.load_jsonl(path, pipeline.document_from_json)
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
            return pipeline.document_from_json(payload)

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
