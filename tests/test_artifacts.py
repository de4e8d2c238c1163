"""Tests for the artifact module's write policy."""

from __future__ import annotations

import ast
from pathlib import Path

import ppkmsent

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
