"""Terminal review pass: relevance verdicts and label overrides.

The reviewer steps through corpus records (or, once the label stage has
run, worksheet rows with proposed labels) and issues single-key decisions:

* ``k`` keep, ``d`` drop (relevance verdicts consumed by ingest),
* ``0``/``1``/``2`` override the label to negative/neutral/positive
  (consumed by the label stage; implies keep),
* enter accepts the proposal, ``q`` stops the session.

Progress persists after every decision in a checksummed ``progress.json``,
so an interrupted session resumes at the first unreviewed record.  A CSV
edited elsewhere (the spreadsheet route) can be imported instead: either a
verdict file (``id,verdict``), an override file (``id,label``), or an
edited worksheet whose changed ``final_label`` values become overrides
(``drop`` in that column drops the record).
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TextIO

from ppkmsent import artifacts, pipeline
from ppkmsent.errors import ConfigError, CorruptProgressError
from ppkmsent.lexicon import WORKSHEET_HEADER
from ppkmsent.preprocess import SentimentLabel, label_name, parse_label

PROGRESS_FILE = "progress.json"

_LABEL_KEYS = {
    "0": SentimentLabel.NEGATIVE,
    "1": SentimentLabel.NEUTRAL,
    "2": SentimentLabel.POSITIVE,
}


@dataclass
class ReviewItem:
    """One record shown to the reviewer."""

    id: str
    text: str
    proposed_label: SentimentLabel | None = None


@dataclass
class ReviewState:
    """Decisions accumulated so far plus the resume position."""

    source: str = "corpus"
    position: int = 0
    verdicts: dict[str, str] = field(default_factory=dict)
    overrides: dict[str, SentimentLabel] = field(default_factory=dict)


def _state_payload(state: ReviewState) -> dict:
    return {
        "source": state.source,
        "position": state.position,
        "verdicts": dict(sorted(state.verdicts.items())),
        "overrides": {
            rid: label_name(label)
            for rid, label in sorted(state.overrides.items())
        },
    }


def _payload_checksum(payload: dict) -> str:
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(body).hexdigest()


def save_progress(state: ReviewState, output_dir: Path) -> Path:
    payload = _state_payload(state)
    document = {"payload": payload, "checksum": _payload_checksum(payload)}
    return artifacts.write_json(document, output_dir / PROGRESS_FILE)


def load_progress(output_dir: Path) -> ReviewState | None:
    """Load saved progress; None when absent; checksum failure raises."""
    path = output_dir / PROGRESS_FILE
    if not path.is_file():
        return None
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
        payload = document["payload"]
        stored = document["checksum"]
    except (ValueError, KeyError, TypeError) as exc:
        raise CorruptProgressError(f"{path}: unreadable progress file") from exc
    if _payload_checksum(payload) != stored:
        raise CorruptProgressError(f"{path}: checksum mismatch")
    return ReviewState(
        source=payload["source"],
        position=int(payload["position"]),
        verdicts=dict(payload["verdicts"]),
        overrides={
            rid: parse_label(name) for rid, name in payload["overrides"].items()
        },
    )


def _persist(state: ReviewState, output_dir: Path) -> None:
    pipeline.write_verdicts(state.verdicts, output_dir / pipeline.VERDICTS_FILE)
    # a record dropped at relevance review never reaches the label stage, so
    # its label override (if any) must not survive into the overrides file
    live_overrides = {
        rid: label
        for rid, label in state.overrides.items()
        if state.verdicts.get(rid) != "drop"
    }
    pipeline.write_label_overrides(
        live_overrides, output_dir / pipeline.OVERRIDES_FILE
    )
    save_progress(state, output_dir)


def load_review_items(output_dir: Path) -> tuple[str, list[ReviewItem]]:
    """Worksheet rows when the label stage has run, else corpus records."""
    worksheet = output_dir / pipeline.WORKSHEET_FILE
    if worksheet.is_file():
        items = [
            ReviewItem(id=row[0], text=row[1], proposed_label=proposed)
            for _, row, proposed in _read_worksheet(worksheet)
        ]
        return "worksheet", items
    corpus = artifacts.require_artifact(output_dir / pipeline.CORPUS_FILE, "ingest")
    rows, _ = artifacts.load_jsonl(corpus, artifacts.corpus_row)
    return "corpus", [ReviewItem(id=rid, text=text) for rid, text in rows]


def _read_worksheet(path: Path) -> list[tuple[int, list[str], SentimentLabel]]:
    """(line number, columns, proposed label) for each row of a worksheet.

    Columns are read by position, so a header other than WORKSHEET_HEADER,
    a row with fewer than its five columns, or an unknown
    ``proposed_label`` is a ConfigError naming ``<path>:<line>``.
    """
    rows = []
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = [name.strip() for name in next(reader, [])]
        if header != list(WORKSHEET_HEADER):
            raise ConfigError(
                f"{path}:1: expected the header {','.join(WORKSHEET_HEADER)}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < len(WORKSHEET_HEADER):
                raise ConfigError(
                    f"{path}:{lineno}: expected {len(WORKSHEET_HEADER)} columns, "
                    f"got {len(row)}"
                )
            try:
                proposed_label = parse_label(row[3])
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from exc
            rows.append((lineno, row, proposed_label))
    return rows


def _import_worksheet(path: Path, state: ReviewState) -> None:
    for lineno, row, proposed_label in _read_worksheet(path):
        rid = row[0].strip()
        final = row[4].strip().lower()
        if final == "drop":
            state.verdicts[rid] = "drop"
            continue
        try:
            final_label = parse_label(final)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
        if final_label != proposed_label:
            state.overrides[rid] = final_label


def import_decisions(path: str | Path, output_dir: Path) -> ReviewState:
    """Merge an externally edited CSV into the persisted review state.

    Accepted headers: ``id,verdict`` (relevance file), ``id,label``
    (override file), or the five-column review worksheet, where a changed
    ``final_label`` becomes an override and the value ``drop`` a drop
    verdict.  The end state is identical to entering the same decisions
    interactively.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"import file not found: {path}")
    state = load_progress(output_dir) or ReviewState()
    with open(path, encoding="utf-8", newline="") as handle:
        header = [h.strip() for h in (next(csv.reader(handle), None) or [])]
    if header[:2] == ["id", "verdict"]:
        state.verdicts.update(pipeline.read_verdicts(path))
    elif header[:2] == ["id", "label"]:
        state.overrides.update(pipeline.read_label_overrides(path))
    elif header == list(WORKSHEET_HEADER):
        _import_worksheet(path, state)
    else:
        raise ConfigError(
            f"{path}: unrecognized header {','.join(header)!r}; expected "
            "id,verdict or id,label or the review worksheet columns"
        )
    _persist(state, output_dir)
    return state


def run_review(
    config: pipeline.PipelineConfig,
    input_stream: TextIO,
    output_stream: TextIO,
    import_path: str | Path | None = None,
    fresh: bool = False,
) -> ReviewState:
    """Interactive review session (or batch import when ``import_path``).

    ``fresh`` discards saved progress and starts from the first record.
    """
    output_dir = config.output_dir
    output_dir.mkdir(parents=True, exist_ok=True)
    if import_path is not None:
        state = import_decisions(import_path, output_dir)
        print(
            f"imported decisions: {len(state.verdicts)} verdicts, "
            f"{len(state.overrides)} label overrides",
            file=output_stream,
        )
        return state

    source, items = load_review_items(output_dir)
    state = None if fresh else load_progress(output_dir)
    if state is None or state.source != source:
        previous = state
        state = ReviewState(source=source)
        if previous is not None:
            # decisions carry over when the record source changes
            state.verdicts = previous.verdicts
            state.overrides = previous.overrides

    print(
        f"reviewing {len(items)} records from {source} "
        f"(starting at {state.position + 1})",
        file=output_stream,
    )
    print(
        "keys: k=keep d=drop 0=negative 1=neutral 2=positive "
        "enter=accept q=quit",
        file=output_stream,
    )
    while state.position < len(items):
        item = items[state.position]
        proposal = (
            f" [proposed: {label_name(item.proposed_label)}]"
            if item.proposed_label is not None
            else ""
        )
        print(f"{state.position + 1}/{len(items)} {item.id}{proposal}", file=output_stream)
        print(f"  {item.text}", file=output_stream)
        line = input_stream.readline()
        if line == "":
            break  # end of input behaves like quit
        key = line.strip().lower()
        if key == "q":
            break
        if key in ("", "k"):
            state.verdicts[item.id] = "keep"
        elif key == "d":
            state.verdicts[item.id] = "drop"
        elif key in _LABEL_KEYS:
            state.verdicts[item.id] = "keep"
            state.overrides[item.id] = _LABEL_KEYS[key]
        else:
            print(f"  unrecognized key {key!r}; record unchanged", file=output_stream)
            continue
        state.position += 1
        _persist(state, output_dir)
    remaining = len(items) - state.position
    _persist(state, output_dir)
    print(
        f"saved {len(state.verdicts)} verdicts and {len(state.overrides)} "
        f"label overrides ({remaining} records unreviewed)",
        file=output_stream,
    )
    return state
