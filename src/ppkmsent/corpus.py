"""Corpus ingestion, rate-limit simulation, triage, and splitting.

Raw records arrive from JSONL or CSV files (the offline stand-in for an API
pull).  ``acquire_permit`` models the collection budget of 900 requests per
15-minute window against an injected clock, so the constraint is testable
without credentials.  Triage is dedupe plus keyword relevance with optional
human verdicts, and ``split`` cuts label codes into deterministic
train/validation/test index arrays.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import dataclass, replace
from datetime import datetime, timedelta, timezone
from fractions import Fraction
from pathlib import Path

import numpy as np

from ppkmsent.errors import IngestError, NonMonotonicClockError, UnknownIdError

logger = logging.getLogger("ppkmsent")

DEFAULT_WINDOW = timedelta(minutes=15)
DEFAULT_MAX_REQUESTS = 900


@dataclass(frozen=True)
class TweetRecord:
    """One raw collected post."""

    id: str
    text: str
    created_at: datetime | None = None


@dataclass(frozen=True)
class RowError:
    line: int
    message: str


@dataclass(frozen=True)
class IngestResult:
    records: list[TweetRecord]
    errors: list[RowError]


@dataclass(frozen=True)
class RateLimitState:
    """Request budget over a sliding window.

    ``grant_times`` holds the timestamps of grants still inside the window,
    oldest first; ``window_start`` is therefore the oldest live grant.  The
    window empties ("resets") once every grant is older than
    ``window_length``.  Keeping the full grant log guarantees that no
    window-length span ever sees more than ``max_requests`` grants, which a
    single counter with hard resets cannot.
    """

    window_length: timedelta = DEFAULT_WINDOW
    max_requests: int = DEFAULT_MAX_REQUESTS
    grant_times: tuple[datetime, ...] = ()

    @property
    def window_start(self) -> datetime | None:
        return self.grant_times[0] if self.grant_times else None

    @property
    def requests_in_window(self) -> int:
        return len(self.grant_times)


@dataclass(frozen=True)
class PermitDecision:
    granted: bool
    state: RateLimitState
    retry_at: datetime | None = None


def acquire_permit(state: RateLimitState, now: datetime) -> PermitDecision:
    """Decide one fetch request against the sliding request budget.

    Grants while fewer than ``max_requests`` grants are younger than
    ``window_length``; a denial carries the instant the oldest grant
    expires and a slot reopens.
    """
    start = state.window_start
    if start is not None and now < start:
        raise NonMonotonicClockError(
            f"clock moved backwards: now={now.isoformat()} precedes "
            f"window_start={start.isoformat()}"
        )
    live = tuple(t for t in state.grant_times if now - t < state.window_length)
    if len(live) < state.max_requests:
        new_state = replace(state, grant_times=live + (now,))
        return PermitDecision(granted=True, state=new_state)
    if live:
        retry_at = live[0] + state.window_length
    else:
        # max_requests == 0: nothing can ever be granted
        retry_at = now + state.window_length
    return PermitDecision(granted=False, state=replace(state, grant_times=live), retry_at=retry_at)


def _parse_created_at(value: str) -> datetime:
    # RFC 3339; Python 3.10 fromisoformat doesn't accept a trailing 'Z'
    text = value.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    parsed = datetime.fromisoformat(text)
    if parsed.tzinfo is None:
        parsed = parsed.replace(tzinfo=timezone.utc)
    return parsed.astimezone(timezone.utc)


def _build_record(obj: dict, line: int, errors: list[RowError]) -> TweetRecord | None:
    rec_id = obj.get("id")
    text = obj.get("text")
    if rec_id is None or str(rec_id) == "":
        errors.append(RowError(line, "missing or empty 'id'"))
        return None
    if text is None:
        errors.append(RowError(line, "missing 'text'"))
        return None
    created_at = None
    raw_created = obj.get("created_at")
    if raw_created not in (None, ""):
        try:
            created_at = _parse_created_at(str(raw_created))
        except ValueError:
            errors.append(RowError(line, f"unparseable created_at: {raw_created!r}"))
            return None
    return TweetRecord(id=str(rec_id), text=str(text), created_at=created_at)


def ingest_file(path: str | Path, format: str = "jsonl") -> IngestResult:
    """Stream raw records from a JSONL or CSV file.

    Returns the well-formed records in file order plus a report of
    malformed rows (with line numbers); nothing is silently dropped.  A
    duplicate id keeps the first occurrence and reports both lines.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"corpus file not found: {path}")
    if format not in ("jsonl", "csv"):
        raise IngestError(f"unsupported corpus format: {format!r}")

    records: list[TweetRecord] = []
    errors: list[RowError] = []
    seen_lines: dict[str, int] = {}

    def accept(record: TweetRecord | None, line: int) -> None:
        if record is None:
            return
        first = seen_lines.get(record.id)
        if first is not None:
            errors.append(
                RowError(line, f"duplicate id {record.id!r} (first seen at line {first})")
            )
            return
        seen_lines[record.id] = line
        records.append(record)

    with open(path, encoding="utf-8", newline="") as handle:
        if format == "jsonl":
            for line_num, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    errors.append(RowError(line_num, f"invalid JSON: {exc.msg}"))
                    continue
                if not isinstance(obj, dict):
                    errors.append(RowError(line_num, "row is not a JSON object"))
                    continue
                accept(_build_record(obj, line_num, errors), line_num)
        else:
            reader = csv.DictReader(handle)
            if reader.fieldnames is None:
                raise IngestError(f"{path}: empty CSV file")
            missing = {"id", "text"} - set(reader.fieldnames)
            if missing:
                raise IngestError(
                    f"{path}: CSV header lacks required columns: {sorted(missing)}"
                )
            # header occupies line 1
            for line_num, row in enumerate(reader, start=2):
                obj = {k: v for k, v in row.items() if k is not None and v is not None}
                accept(_build_record(obj, line_num, errors), line_num)

    logger.info("ingested %d records (%d row errors) from %s", len(records), len(errors), path)
    return IngestResult(records=records, errors=errors)


def _normalized_text(text: str) -> str:
    return " ".join(text.lower().split())


def dedupe(
    records: list[TweetRecord], key: str = "normalized_text"
) -> tuple[list[TweetRecord], list[TweetRecord]]:
    """Keep the first occurrence per key; return (kept, removed) in order."""
    if key not in ("id", "normalized_text"):
        raise ValueError(f"unsupported dedupe key: {key!r}")
    seen: set[str] = set()
    kept: list[TweetRecord] = []
    removed: list[TweetRecord] = []
    for record in records:
        value = record.id if key == "id" else _normalized_text(record.text)
        if value in seen:
            removed.append(record)
        else:
            seen.add(value)
            kept.append(record)
    return kept, removed


def match_keywords(text: str, keywords: list[str]) -> tuple[str, ...]:
    """Case-insensitive containment check; returns each distinct matched
    keyword once, lowercase, in listed order."""
    lowered = text.lower()
    return tuple(kw for kw in dict.fromkeys(map(str.lower, keywords)) if kw in lowered)


def filter_relevant(
    records: list[TweetRecord],
    keywords: list[str],
    verdicts: dict[str, str] | None = None,
    mode: str = "any",
) -> list[tuple[TweetRecord, tuple[str, ...]]]:
    """Keep records mentioning the configured keywords, honoring verdicts;
    each kept record comes paired with the keywords it matched.

    ``mode`` is "any" (default: at least one keyword present) or "all".  A
    verdicts entry (id -> "keep"/"drop") overrides the keyword decision;
    this encodes the manual pass for posts that mention a keyword without
    being about it.  Verdicts naming unknown ids raise.
    """
    if not keywords:
        raise ValueError("keywords must be non-empty")
    if mode not in ("any", "all"):
        raise ValueError(f"unsupported keyword mode: {mode!r}")
    verdicts = verdicts or {}
    known_ids = {record.id for record in records}
    unknown = set(verdicts) - known_ids
    if unknown:
        raise UnknownIdError(unknown)
    for rec_id, verdict in verdicts.items():
        if verdict not in ("keep", "drop"):
            raise ValueError(f"verdict for {rec_id!r} must be keep or drop, got {verdict!r}")

    distinct = len(set(map(str.lower, keywords)))
    kept: list[tuple[TweetRecord, tuple[str, ...]]] = []
    for record in records:
        matched = match_keywords(record.text, keywords)
        if mode == "any":
            relevant = bool(matched)
        else:
            relevant = len(matched) == distinct
        verdict = verdicts.get(record.id)
        if verdict == "keep":
            relevant = True
        elif verdict == "drop":
            relevant = False
        if relevant:
            kept.append((record, matched))
    return kept


def _as_fraction(value) -> Fraction:
    # str goes through Fraction directly so "0.1" and "4877/5315" stay exact
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a fraction")


@dataclass(frozen=True)
class SplitSpec:
    """Train/validation/test fractions plus the shuffle seed."""

    train_fraction: Fraction
    validation_fraction: Fraction
    test_fraction: Fraction
    seed: int = 0
    stratified: bool = False

    def __post_init__(self):
        for name in ("train_fraction", "validation_fraction", "test_fraction"):
            object.__setattr__(self, name, _as_fraction(getattr(self, name)))
            frac = getattr(self, name)
            if frac < 0 or frac > 1:
                raise ValueError(f"{name} must lie in [0, 1], got {frac}")
        total = self.train_fraction + self.validation_fraction + self.test_fraction
        if abs(total - 1) > Fraction(1, 10**9):
            raise ValueError(f"fractions must sum to 1 within 1e-9, got {float(total)}")


# exact fractions of a 4877/293/145 train/validation/test split of 5315
PAPER_SPLIT_FRACTIONS = (
    Fraction(4877, 5315),
    Fraction(293, 5315),
    Fraction(145, 5315),
)


def _bucket_sizes(n: int, spec: SplitSpec) -> tuple[int, int, int]:
    n_train = math.floor(spec.train_fraction * n)
    n_val = math.floor(spec.validation_fraction * n)
    n_test = math.floor(spec.test_fraction * n)
    n_train += n - (n_train + n_val + n_test)  # remainder goes to train
    return n_train, n_val, n_test


def split(
    labels: np.ndarray, spec: SplitSpec
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic, exhaustive, disjoint train/validation/test partition
    of label codes, as three arrays of indices into them.

    Each stratum, the rows of one label in ascending order (all rows in one
    stratum when unstratified), is permuted by one draw of the seeded
    generator.  Its sizes are floor(fraction * n) with the remainder
    assigned to train, so stratified mode keeps class proportions to within
    one document per class.
    """
    if not len(labels):
        raise ValueError("cannot split an empty document list")
    rng = np.random.default_rng(np.random.PCG64(spec.seed))
    strata = labels if spec.stratified else np.zeros_like(labels)
    parts: tuple[list, list, list] = ([], [], [])
    for key in np.unique(strata):
        rows = np.flatnonzero(strata == key)
        shuffled = rows[rng.permutation(len(rows))]
        n_train, n_val, _ = _bucket_sizes(len(rows), spec)
        for part, piece in zip(parts, np.split(shuffled, [n_train, n_train + n_val])):
            part.append(piece)
    return tuple(np.concatenate(part) for part in parts)
