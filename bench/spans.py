"""Layer tracing from outside the program.

``Tracer.install`` replaces each traced function under the name its caller
looks it up by (``ppkmsent.encoder.train.forward``, not
``ppkmsent.encoder.model.forward``), and ``Tracer.uninstall`` puts every
original back.  Nothing under ``src/`` knows it is being traced.

Two kinds of wrapper feed one frame stack:

* span wrappers record ``(name, start, end, parent, child time)`` in
  memory, one span per call;
* aggregate wrappers, for functions called once per document, keep only a
  call count, total time and self time per name.

Every call adds its duration to the child time of the frame directly
above it.  A frame's self time is its duration minus its child time, so
the self times of all spans and aggregates sum to the duration of the
root spans (one per CLI stage call).  ``run.py`` compares that sum with the
wall time it measures around each call.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass

# (module the caller reads the name from, attribute, layer, metric name)
SPANS = (
    ("ppkmsent.cli", "main", "cli", "cli.main"),
    ("ppkmsent.pipeline", "load_config", "pipeline", "pipeline.load_config"),
    (
        "ppkmsent.pipeline",
        "load_labeled_documents",
        "pipeline",
        "pipeline.load_labeled_documents",
    ),
    ("ppkmsent.corpus", "ingest_file", "corpus", "corpus.ingest_file"),
    ("ppkmsent.corpus", "dedupe", "corpus", "corpus.dedupe"),
    ("ppkmsent.corpus", "filter_relevant", "corpus", "corpus.filter_relevant"),
    ("ppkmsent.corpus", "split", "corpus", "corpus.split"),
    ("ppkmsent.lexicon", "label_corpus", "lexicon", "lexicon.label_corpus"),
    ("ppkmsent.bow", "build_vocab", "bow", "bow.build_vocab"),
    ("ppkmsent.bow", "mnb_train", "bow", "bow.mnb_train"),
    ("ppkmsent.bow", "svm_train", "bow", "bow.svm_train"),
    ("ppkmsent.bow", "save_model", "bow", "bow.save_model"),
    ("ppkmsent.bow", "load_model", "bow", "bow.load_model"),
    ("ppkmsent.evaluation", "confusion", "evaluation", "evaluation.confusion"),
    ("ppkmsent.evaluation", "metrics", "evaluation", "evaluation.metrics"),
    ("ppkmsent.viz", "ngrams", "viz", "viz.ngrams"),
    ("ppkmsent.viz", "cloud_weights", "viz", "viz.cloud_weights"),
    ("ppkmsent.viz", "render_svg", "viz", "viz.render_svg"),
    (
        "ppkmsent.encoder.vocab",
        "build_token_vocab",
        "encoder.vocab",
        "encoder.build_token_vocab",
    ),
    ("ppkmsent.encoder.train", "fine_tune", "encoder.train", "encoder.fine_tune"),
    (
        "ppkmsent.encoder.train",
        "predict_batch",
        "encoder.train",
        "encoder.predict_batch",
    ),
    (
        "ppkmsent.encoder.train",
        "encode_documents",
        "encoder.train",
        "encoder.encode_documents",
    ),
    ("ppkmsent.encoder.train", "backward", "encoder.model", "encoder.backward"),
    (
        "ppkmsent.encoder.train",
        "cross_entropy",
        "encoder.model",
        "encoder.cross_entropy",
    ),
    (
        "ppkmsent.encoder.checkpoint",
        "save_checkpoint",
        "encoder.checkpoint",
        "encoder.save_checkpoint",
    ),
    (
        "ppkmsent.encoder.checkpoint",
        "load_checkpoint",
        "encoder.checkpoint",
        "encoder.load_checkpoint",
    ),
)

AGGREGATES = (
    ("ppkmsent.pipeline", "make_document", "preprocess", "preprocess.make_document"),
    ("ppkmsent.lexicon", "score_document", "lexicon", "lexicon.score_document"),
    ("ppkmsent.bow", "vectorize", "bow", "bow.vectorize"),
    ("ppkmsent.bow", "mnb_predict", "bow", "bow.predict"),
    ("ppkmsent.bow", "svm_predict", "bow", "bow.predict"),
    ("ppkmsent.encoder.train", "format_input", "encoder.vocab", "encoder.format_input"),
)

# the CLI picks its stage runner out of this table, so the runners are
# wrapped inside it rather than on the pipeline module
STAGE_TABLE = ("ppkmsent.cli", "_STAGE_RUNNERS")
FORWARD = ("ppkmsent.encoder.train", "forward")

LAYERS = (
    "cli",
    "pipeline",
    "corpus",
    "preprocess",
    "lexicon",
    "bow",
    "evaluation",
    "viz",
    "encoder.vocab",
    "encoder.model",
    "encoder.train",
    "encoder.checkpoint",
)


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    child_s: float

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


@dataclass
class Aggregate:
    layer: str
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class _Frame:
    __slots__ = ("span_index", "child_s")

    def __init__(self, span_index: int | None) -> None:
        self.span_index = span_index
        self.child_s = 0.0


class Tracer:
    """Collects spans and per-document aggregates for one traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.aggregates: dict[str, Aggregate] = {}
        # forward passes: (mode, mask positions, real-token positions,
        # batch * seq^2)
        self.forward_shapes: list[tuple[str, int, float, int]] = []
        self.vocab_sizes: list[int] = []
        self._stack: list[_Frame] = []
        self._originals: list[tuple[object, str, object]] = []
        self._stage_originals: dict[str, object] = {}

    # -- wrappers ---------------------------------------------------------

    def _span(self, func, name: str, layer: str, on_call=None):
        spans = self.spans
        stack = self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            parent = next(
                (f.span_index for f in reversed(stack) if f.span_index is not None),
                None,
            )
            index = len(spans)
            span = Span(name, layer, 0.0, 0.0, parent, 0.0)
            spans.append(span)
            frame = _Frame(index)
            stack.append(frame)
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                span.child_s = frame.child_s
                if stack:
                    stack[-1].child_s += span.end - span.start
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        return wrapper

    def _aggregate(self, func, name: str, layer: str):
        entry = self.aggregates.setdefault(name, Aggregate(layer))
        stack = self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            frame = _Frame(None)
            stack.append(frame)
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                entry.calls += 1
                entry.total_s += elapsed
                entry.self_s += elapsed - frame.child_s
                if stack:
                    stack[-1].child_s += elapsed

        return wrapper

    def _forward(self, func):
        shapes = self.forward_shapes
        wrapped = {
            mode: self._span(func, f"encoder.forward.{mode}", "encoder.model")
            for mode in ("train", "eval")
        }

        @functools.wraps(func)
        def wrapper(ids, mask, params, config, mode="eval", *args, **kwargs):
            batch, seq = (1, mask.shape[0]) if mask.ndim == 1 else mask.shape
            shapes.append((mode, int(mask.size), float(mask.sum()), batch * seq * seq))
            return wrapped[mode](ids, mask, params, config, mode, *args, **kwargs)

        return wrapper

    def _record_vocab(self, args, kwargs, result) -> None:
        self.vocab_sizes.append(result.size)

    # -- install / uninstall ----------------------------------------------

    def _patch(self, module, attr: str, replacement) -> None:
        self._originals.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self) -> None:
        for module_name, attr, layer, name in SPANS:
            module = importlib.import_module(module_name)
            on_call = self._record_vocab if name == "bow.build_vocab" else None
            self._patch(
                module, attr, self._span(getattr(module, attr), name, layer, on_call)
            )
        for module_name, attr, layer, name in AGGREGATES:
            module = importlib.import_module(module_name)
            self._patch(module, attr, self._aggregate(getattr(module, attr), name, layer))
        module = importlib.import_module(FORWARD[0])
        self._patch(module, FORWARD[1], self._forward(getattr(module, FORWARD[1])))
        table = getattr(importlib.import_module(STAGE_TABLE[0]), STAGE_TABLE[1])
        self._stage_originals = dict(table)
        for stage, runner in table.items():
            table[stage] = self._span(runner, f"pipeline.run_{stage}", "pipeline")

    def uninstall(self) -> None:
        table = getattr(importlib.import_module(STAGE_TABLE[0]), STAGE_TABLE[1])
        table.update(self._stage_originals)
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ------------------------------------------------------------

    def layer_self_times(self) -> dict[str, float]:
        totals = dict.fromkeys(LAYERS, 0.0)
        for span in self.spans:
            totals[span.layer] += span.self_s
        for entry in self.aggregates.values():
            totals[entry.layer] += entry.self_s
        return totals

    def span_totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, self seconds)."""
        out: dict[str, tuple[int, float, float]] = {}
        for span in self.spans:
            calls, total, own = out.get(span.name, (0, 0.0, 0.0))
            out[span.name] = (calls + 1, total + span.end - span.start, own + span.self_s)
        return out

    def spans_as_rows(self) -> list[dict]:
        return [
            {
                "name": s.name,
                "layer": s.layer,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "self_s": s.self_s,
            }
            for s in self.spans
        ]


def is_clean() -> bool:
    """True when no traced name is still replaced by a wrapper."""
    for module_name, attr, _, _ in SPANS + AGGREGATES + ((*FORWARD, None, None),):
        if hasattr(getattr(importlib.import_module(module_name), attr), "__wrapped__"):
            return False
    table = getattr(importlib.import_module(STAGE_TABLE[0]), STAGE_TABLE[1])
    return not any(hasattr(runner, "__wrapped__") for runner in table.values())


def layer_metrics(tracer: Tracer, ingest_report: dict) -> dict[str, float]:
    """Per-layer metrics of one traced iteration, by metric name."""
    totals = tracer.span_totals()
    aggregates = tracer.aggregates

    def total(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[1]

    def own(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[2]

    def calls(name: str) -> int:
        if name in aggregates:
            return aggregates[name].calls
        return totals.get(name, (0, 0.0, 0.0))[0]

    def agg_total(name: str) -> float:
        return aggregates[name].total_s if name in aggregates else 0.0

    shapes = tracer.forward_shapes
    positions = sum(s[1] for s in shapes)
    values = {
        "encoder.forward.train_s": total("encoder.forward.train"),
        "encoder.forward.eval_s": total("encoder.forward.eval"),
        "encoder.forward.calls": len(shapes),
        "encoder.backward_s": total("encoder.backward"),
        "encoder.fine_tune.self_s": own("encoder.fine_tune"),
        "encoder.steps": calls("encoder.backward"),
        "encoder.pad_efficiency": sum(s[2] for s in shapes) / positions if positions else 0.0,
        "encoder.attention_positions": sum(s[3] for s in shapes),
        "encoder.cross_entropy_s": total("encoder.cross_entropy"),
        "encoder.encode_documents_s": total("encoder.encode_documents"),
        "encoder.format_input.calls": calls("encoder.format_input"),
        "encoder.build_token_vocab_s": total("encoder.build_token_vocab"),
        "encoder.predict_batch_s": total("encoder.predict_batch"),
        "encoder.save_checkpoint_s": total("encoder.save_checkpoint"),
        "encoder.load_checkpoint_s": total("encoder.load_checkpoint"),
        "bow.svm_train_s": total("bow.svm_train"),
        "bow.mnb_train_s": total("bow.mnb_train"),
        "bow.build_vocab_s": total("bow.build_vocab"),
        "bow.vectorize.calls": calls("bow.vectorize"),
        "bow.vocab_size": max(tracer.vocab_sizes, default=0),
        "bow.predict_s": agg_total("bow.predict"),
        "bow.predict.calls": calls("bow.predict"),
        "bow.save_model_s": total("bow.save_model"),
        "bow.load_model_s": total("bow.load_model"),
        "corpus.ingest_file_s": total("corpus.ingest_file"),
        "corpus.dedupe_s": total("corpus.dedupe"),
        "corpus.filter_relevant_s": total("corpus.filter_relevant"),
        "corpus.kept_ratio": ingest_report["kept"] / ingest_report["parsed"],
        "corpus.split_s": total("corpus.split"),
        "corpus.split.calls": calls("corpus.split"),
        "preprocess.make_document_s": agg_total("preprocess.make_document"),
        "preprocess.make_document.calls": calls("preprocess.make_document"),
        "lexicon.label_corpus_s": total("lexicon.label_corpus"),
        "lexicon.score_document_s": agg_total("lexicon.score_document"),
        "lexicon.score_document.calls": calls("lexicon.score_document"),
        "evaluation.metrics_s": total("evaluation.confusion") + total("evaluation.metrics"),
        "viz.ngrams_s": total("viz.ngrams"),
        "viz.cloud_weights_s": total("viz.cloud_weights"),
        "viz.render_svg_s": total("viz.render_svg"),
        "pipeline.load_config_s": total("pipeline.load_config"),
        "pipeline.load_labeled_documents_s": total("pipeline.load_labeled_documents"),
        "pipeline.load_labeled_documents.calls": calls("pipeline.load_labeled_documents"),
        "pipeline.self_s": sum(
            own_s for name, (_, _, own_s) in totals.items() if name.startswith("pipeline.run_")
        ),
    }
    for layer, self_s in tracer.layer_self_times().items():
        values[f"self.{layer}_s"] = self_s
    return values
