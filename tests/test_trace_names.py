"""The benchmark's tracer patches program functions by name; every name it
lists must exist, so that a rename fails here and not only in a traced
benchmark run."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("_bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_traced_name_resolves():
    spans = load_spans()
    targets = [entry[:2] for entry in spans.SPANS + spans.AGGREGATES]
    targets += [spans.FORWARD, spans.STAGE_TABLE]
    missing = [
        f"{module}.{name}"
        for module, name in targets
        if getattr(importlib.import_module(module), name, None) is None
    ]
    assert missing == []
