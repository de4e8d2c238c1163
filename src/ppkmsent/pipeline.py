"""Pipeline orchestration: config file, stage runners, artifact manifests.

The pipeline is a fixed stage sequence — ingest → review → label → train →
eval → viz — driven by one key=value config file.  Every stage reads its
predecessor's artifacts from the output directory, writes its own, and drops
a ``<stage>.manifest.json`` recording SHA-256 hashes of the exact inputs and
outputs plus a hash of the effective settings.  All artifacts are rendered
deterministically (sorted keys, repr floats, no timestamps), so reruns with
unchanged inputs and seed are byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import os
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

from ppkmsent import bow, corpus, evaluation, lexicon, viz
from ppkmsent.data import (
    LEXICON_NEGATIVE_FILE,
    LEXICON_POSITIVE_FILE,
    STOPWORDS_FILE,
    data_path,
)
from ppkmsent.encoder import checkpoint as enc_checkpoint
from ppkmsent.encoder import config as enc_config
from ppkmsent.encoder import train as enc_train
from ppkmsent.encoder import vocab as enc_vocab
from ppkmsent.errors import ConfigError, StageOrderError
from ppkmsent.preprocess import (
    Document,
    SentimentLabel,
    label_name,
    load_stopwords,
    make_document,
    parse_label,
)

logger = logging.getLogger(__name__)

OUTPUT_DIR_ENV = "PPKMSENT_OUTPUT_DIR"

CORPUS_FILE = "corpus.jsonl"
INGEST_REPORT_FILE = "ingest_report.json"
LABELED_FILE = "labeled.jsonl"
WORKSHEET_FILE = "worksheet.csv"
VERDICTS_FILE = "review_verdicts.csv"
OVERRIDES_FILE = "label_overrides.csv"
HISTORY_FILE = "history.csv"
BERT_VOCAB_FILE = "bert_vocab.json"
METRICS_SUMMARY_FILE = "metrics_summary.csv"
COMPARISON_CSV_FILE = "comparison.csv"
COMPARISON_TXT_FILE = "comparison.txt"

MODEL_NAMES = ("bert", "mnb", "svm", "lexicon")
MODEL_FILES = {
    "bert": "bert.ckpt",
    "mnb": "mnb_model.json",
    "svm": "svm_model.json",
    "lexicon": "lexicon_model.json",
}

LEXICON_MODEL_MAGIC = "ppkmsent/lexicon-model"
LEXICON_MODEL_VERSION = 1

ARTIFACT_VERSION = 1

_PROFILE_DEFAULTS = {
    "paper": enc_config.PAPER_PROFILE,
    "desk": enc_config.DESK_PROFILE,
}


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class PipelineConfig:
    """Resolved settings shared by every pipeline stage."""

    output_dir: Path
    corpus_path: Path | None = None
    corpus_format: str = "jsonl"
    stopwords_path: Path | None = None
    lexicon_positive_path: Path | None = None
    lexicon_negative_path: Path | None = None
    keywords: tuple[str, ...] = ("ppkm", "jakarta")
    keyword_mode: str = "any"
    dedupe_key: str = "normalized_text"
    train_fraction: Fraction = corpus.PAPER_SPLIT_FRACTIONS[0]
    validation_fraction: Fraction = corpus.PAPER_SPLIT_FRACTIONS[1]
    test_fraction: Fraction = corpus.PAPER_SPLIT_FRACTIONS[2]
    stratified: bool = True
    model: str = "bert"
    profile_name: str = "desk"
    batch_size: int | None = None
    epochs: int | None = None
    learning_rate: float | None = None
    num_layers: int | None = None
    num_heads: int | None = None
    hidden_size: int | None = None
    feedforward_size: int | None = None
    max_sequence_length: int | None = None
    dropout_rate: float = 0.1
    min_count: int = 1
    mnb_alpha: float = 1.0
    svm_lambda: float = 0.01
    svm_epochs: int = 50
    svm_feature_mode: str = "tfidf"
    top_k: int = 20
    ngram_n: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.corpus_format not in ("jsonl", "csv"):
            raise ConfigError(
                f"corpus_format must be jsonl or csv, got {self.corpus_format!r}"
            )
        if not self.keywords:
            raise ConfigError("keywords must not be empty")
        if self.keyword_mode not in ("any", "all"):
            raise ConfigError(
                f"keyword_mode must be any or all, got {self.keyword_mode!r}"
            )
        if self.dedupe_key not in ("normalized_text", "id"):
            raise ConfigError(
                f"dedupe_key must be normalized_text or id, got {self.dedupe_key!r}"
            )
        if self.model not in MODEL_NAMES:
            raise ConfigError(
                f"model must be one of {', '.join(MODEL_NAMES)}, got {self.model!r}"
            )
        if self.profile_name not in _PROFILE_DEFAULTS:
            raise ConfigError(
                f"profile must be paper or desk, got {self.profile_name!r}"
            )
        if self.svm_feature_mode not in ("tf", "tfidf"):
            raise ConfigError(
                f"svm_feature_mode must be tf or tfidf, got "
                f"{self.svm_feature_mode!r}"
            )
        for name, value in (
            ("min_count", self.min_count),
            ("svm_epochs", self.svm_epochs),
            ("top_k", self.top_k),
            ("ngram_n", self.ngram_n),
        ):
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.mnb_alpha <= 0:
            raise ConfigError(f"mnb_alpha must be positive, got {self.mnb_alpha}")
        if self.svm_lambda <= 0:
            raise ConfigError(f"svm_lambda must be positive, got {self.svm_lambda}")
        # type-check the split and profile overrides up front, before any
        # stage starts writing
        try:
            self.split_spec()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        self.train_profile()
        if self.model == "bert":
            self.encoder_config(vocab_size=enc_vocab.SEP_ID + 2)

    def split_spec(self) -> corpus.SplitSpec:
        return corpus.SplitSpec(
            train_fraction=self.train_fraction,
            validation_fraction=self.validation_fraction,
            test_fraction=self.test_fraction,
            seed=self.seed,
            stratified=self.stratified,
        )

    def train_profile(self) -> enc_config.TrainProfile:
        base = _PROFILE_DEFAULTS[self.profile_name]
        overrides: dict = {"seed": self.seed}
        if self.batch_size is not None:
            overrides["batch_size"] = self.batch_size
        if self.epochs is not None:
            overrides["epochs"] = self.epochs
        if self.learning_rate is not None:
            overrides["learning_rate"] = self.learning_rate
        return replace(base, **overrides)

    def encoder_config(self, vocab_size: int) -> enc_config.EncoderConfig:
        if self.profile_name == "paper":
            base = enc_config.paper_config(vocab_size, self.dropout_rate)
        else:
            base = enc_config.desk_config(vocab_size, self.dropout_rate)
        overrides: dict = {}
        for key in (
            "num_layers",
            "num_heads",
            "hidden_size",
            "feedforward_size",
            "max_sequence_length",
        ):
            value = getattr(self, key)
            if value is not None:
                overrides[key] = value
        return replace(base, **overrides) if overrides else base

    def resolved_stopwords_path(self) -> Path:
        return self.stopwords_path or data_path(STOPWORDS_FILE)

    def resolved_lexicon_paths(self) -> tuple[Path, Path]:
        return (
            self.lexicon_positive_path or data_path(LEXICON_POSITIVE_FILE),
            self.lexicon_negative_path or data_path(LEXICON_NEGATIVE_FILE),
        )

    def settings_dump(self) -> str:
        """Canonical key=value dump of all non-path settings.

        Path contents are captured separately as manifest input hashes, so
        the dump (and its hash) is independent of filesystem layout.
        """
        values = {
            "corpus_format": self.corpus_format,
            "keywords": ",".join(self.keywords),
            "keyword_mode": self.keyword_mode,
            "dedupe_key": self.dedupe_key,
            "train_fraction": str(self.train_fraction),
            "validation_fraction": str(self.validation_fraction),
            "test_fraction": str(self.test_fraction),
            "stratified": str(self.stratified).lower(),
            "model": self.model,
            "profile": self.profile_name,
            "train_profile": json.dumps(
                self.train_profile().to_dict(), sort_keys=True
            ),
            "dropout_rate": repr(self.dropout_rate),
            "min_count": str(self.min_count),
            "mnb_alpha": repr(self.mnb_alpha),
            "svm_lambda": repr(self.svm_lambda),
            "svm_epochs": str(self.svm_epochs),
            "svm_feature_mode": self.svm_feature_mode,
            "top_k": str(self.top_k),
            "ngram_n": str(self.ngram_n),
            "seed": str(self.seed),
        }
        for key in (
            "num_layers",
            "num_heads",
            "hidden_size",
            "feedforward_size",
            "max_sequence_length",
        ):
            value = getattr(self, key)
            if value is not None:
                values[key] = str(value)
        return "".join(f"{k}={v}\n" for k, v in sorted(values.items()))


_PATH_KEYS = {
    "corpus_path",
    "output_dir",
    "stopwords_path",
    "lexicon_positive_path",
    "lexicon_negative_path",
}
_STR_KEYS = {
    "corpus_format",
    "keyword_mode",
    "dedupe_key",
    "model",
    "svm_feature_mode",
}
_INT_KEYS = {
    "batch_size",
    "epochs",
    "num_layers",
    "num_heads",
    "hidden_size",
    "feedforward_size",
    "max_sequence_length",
    "min_count",
    "svm_epochs",
    "top_k",
    "ngram_n",
    "seed",
}
_FLOAT_KEYS = {"learning_rate", "dropout_rate", "mnb_alpha", "svm_lambda"}
_FRACTION_KEYS = {"train_fraction", "validation_fraction", "test_fraction"}
_BOOL_KEYS = {"stratified"}

_KEY_ALIASES = {"profile": "profile_name"}

_ALL_KEYS = (
    _PATH_KEYS
    | _STR_KEYS
    | _INT_KEYS
    | _FLOAT_KEYS
    | _FRACTION_KEYS
    | _BOOL_KEYS
    | {"keywords", "profile"}
)


def parse_config_text(text: str, base_dir: Path) -> dict:
    """Parse ``key = value`` lines into typed settings.

    Blank lines and '#' comments are ignored; relative paths resolve
    against ``base_dir``; duplicate or unknown keys are errors.
    """
    settings: dict = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _ALL_KEYS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        field_name = _KEY_ALIASES.get(key, key)
        if field_name in settings:
            raise ConfigError(f"line {lineno}: duplicate config key {key!r}")
        try:
            if key in _PATH_KEYS:
                settings[field_name] = (base_dir / value).resolve()
            elif key == "keywords":
                keywords = tuple(
                    kw.strip().lower() for kw in value.split(",") if kw.strip()
                )
                settings[field_name] = keywords
            elif key in _INT_KEYS:
                settings[field_name] = int(value)
            elif key in _FLOAT_KEYS:
                settings[field_name] = float(value)
            elif key in _FRACTION_KEYS:
                settings[field_name] = Fraction(value)
            elif key in _BOOL_KEYS:
                if value.lower() not in ("true", "false"):
                    raise ValueError(f"expected true or false, got {value!r}")
                settings[field_name] = value.lower() == "true"
            else:
                settings[field_name] = value
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    return settings


def load_config(path: str | Path, env: dict | None = None) -> PipelineConfig:
    """Load and fully validate a pipeline config file.

    ``PPKMSENT_OUTPUT_DIR`` (from ``env`` or the process environment)
    overrides the configured output directory.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    settings = parse_config_text(
        path.read_text(encoding="utf-8"), path.resolve().parent
    )
    env = os.environ if env is None else env
    override = env.get(OUTPUT_DIR_ENV)
    if override:
        settings["output_dir"] = Path(override).resolve()
    if "output_dir" not in settings:
        raise ConfigError("config must set output_dir")
    try:
        config = PipelineConfig(**settings)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    for name in ("stopwords_path", "lexicon_positive_path", "lexicon_negative_path"):
        value = getattr(config, name)
        if value is not None and not value.is_file():
            raise ConfigError(f"{name} does not exist: {value}")
    return config


# ---------------------------------------------------------------------------
# artifact helpers


def _sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(
    config: PipelineConfig,
    stage: str,
    inputs: dict[str, Path],
    outputs: list[Path],
) -> Path:
    manifest = {
        "artifact_version": ARTIFACT_VERSION,
        "stage": stage,
        "settings_sha256": _sha256_bytes(config.settings_dump().encode("utf-8")),
        "inputs": {name: _sha256_file(p) for name, p in sorted(inputs.items())},
        "outputs": {p.name: _sha256_file(p) for p in outputs},
    }
    path = config.output_dir / f"{stage}.manifest.json"
    path.write_text(
        json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def _require_artifact(path: Path, producer: str) -> Path:
    if not path.is_file():
        raise StageOrderError(path.name, f"run the {producer} stage first")
    return path


def document_to_json(doc: Document, score: int | None = None) -> dict:
    payload: dict = {
        "id": doc.id,
        "raw_text": doc.raw_text,
        "clean_text": doc.clean_text,
        "tokens": list(doc.tokens),
    }
    if doc.label is not None:
        payload["label"] = label_name(doc.label)
    if score is not None:
        payload["score"] = score
    return payload


_DOCUMENT_FIELDS = {"id": str, "raw_text": str, "clean_text": str, "tokens": list}


def document_from_json(payload: object) -> Document:
    """Inverse of :func:`document_to_json`; raises ValueError on a row of
    the wrong shape."""
    if not isinstance(payload, dict):
        raise ValueError("row is not a JSON object")
    for key, kind in _DOCUMENT_FIELDS.items():
        if not isinstance(payload.get(key), kind):
            raise ValueError(f"{key!r} is missing or not a {kind.__name__}")
    label = payload.get("label")
    if label is not None and not isinstance(label, str):
        raise ValueError("'label' is not a str")
    return Document(
        id=payload["id"],
        raw_text=payload["raw_text"],
        clean_text=payload["clean_text"],
        tokens=tuple(payload["tokens"]),
        label=parse_label(label) if label is not None else None,
    )


def _write_jsonl(rows: list[dict], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, sort_keys=True) + "\n")


def _read_jsonl(path: Path) -> list[dict]:
    rows = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                rows.append(json.loads(line))
    return rows


def load_labeled_documents(output_dir: Path) -> list[Document]:
    path = _require_artifact(output_dir / LABELED_FILE, "label")
    documents = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                documents.append(document_from_json(json.loads(line)))
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    return documents


def _csv_text(header: tuple[str, ...], rows: list[tuple[str, ...]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def read_verdicts(path: Path) -> dict[str, str]:
    """Read a review verdicts CSV (columns id, verdict in {keep, drop})."""
    verdicts: dict[str, str] = {}
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["id", "verdict"]:
            raise ConfigError(f"{path}: expected header id,verdict")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < 2 or row[1].strip() not in ("keep", "drop"):
                raise ConfigError(
                    f"{path}:{lineno}: verdict must be keep or drop"
                )
            verdicts[row[0].strip()] = row[1].strip()
    return verdicts


def write_verdicts(verdicts: dict[str, str], path: Path) -> None:
    rows = [(rid, verdicts[rid]) for rid in sorted(verdicts)]
    path.write_text(_csv_text(("id", "verdict"), rows), encoding="utf-8")


def read_label_overrides(path: Path) -> dict[str, SentimentLabel]:
    """Read a label override CSV (columns id, label)."""
    overrides: dict[str, SentimentLabel] = {}
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["id", "label"]:
            raise ConfigError(f"{path}: expected header id,label")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                overrides[row[0].strip()] = parse_label(row[1])
            except (IndexError, ValueError) as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    return overrides


def write_label_overrides(
    overrides: dict[str, SentimentLabel], path: Path
) -> None:
    rows = [(rid, label_name(overrides[rid])) for rid in sorted(overrides)]
    path.write_text(_csv_text(("id", "label"), rows), encoding="utf-8")


# ---------------------------------------------------------------------------
# stages


def run_ingest(config: PipelineConfig) -> list[Path]:
    """Read raw records, dedupe, filter for relevance, write the corpus."""
    if config.corpus_path is None:
        raise ConfigError("ingest needs corpus_path in the config")
    if not config.corpus_path.is_file():
        raise ConfigError(f"corpus_path does not exist: {config.corpus_path}")
    config.output_dir.mkdir(parents=True, exist_ok=True)

    result = corpus.ingest_file(config.corpus_path, config.corpus_format)
    kept, removed = corpus.dedupe(result.records, key=config.dedupe_key)

    verdicts: dict[str, str] = {}
    verdicts_path = config.output_dir / VERDICTS_FILE
    inputs = {"corpus_path": config.corpus_path}
    if verdicts_path.is_file():
        verdicts = read_verdicts(verdicts_path)
        inputs[VERDICTS_FILE] = verdicts_path

    keywords = list(config.keywords)
    relevant = corpus.filter_relevant(
        kept, keywords, verdicts or None, mode=config.keyword_mode
    )
    kept_ids = {r.id for r in relevant}
    dropped_by_verdict = sum(
        1
        for r in kept
        if r.id not in kept_ids and verdicts.get(r.id) == "drop"
    )
    dropped_no_keyword = len(kept) - len(relevant) - dropped_by_verdict

    corpus_rows = []
    for record in relevant:
        row: dict = {
            "id": record.id,
            "text": record.text,
            "matched_keywords": list(record.matched_keywords),
        }
        if record.created_at is not None:
            row["created_at"] = record.created_at.isoformat()
        corpus_rows.append(row)
    corpus_out = config.output_dir / CORPUS_FILE
    _write_jsonl(corpus_rows, corpus_out)

    report = {
        "raw_rows": len(result.records) + len(result.errors),
        "parsed": len(result.records),
        "row_errors": [
            {"line": e.line, "message": e.message} for e in result.errors
        ],
        "duplicates_removed": len(removed),
        "dedupe_key": config.dedupe_key,
        "dropped_no_keyword": dropped_no_keyword,
        "dropped_by_verdict": dropped_by_verdict,
        "verdicts_applied": len(verdicts),
        "kept": len(relevant),
    }
    report_out = config.output_dir / INGEST_REPORT_FILE
    report_out.write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    outputs = [corpus_out, report_out]
    outputs.append(_write_manifest(config, "ingest", inputs, outputs))
    logger.info(
        "ingest: %d raw rows -> %d kept (%d duplicates, %d off-topic, "
        "%d dropped by verdict)",
        report["raw_rows"],
        report["kept"],
        report["duplicates_removed"],
        dropped_no_keyword,
        dropped_by_verdict,
    )
    return outputs


def run_label(config: PipelineConfig) -> list[Path]:
    """Preprocess the corpus and bootstrap-label it with the lexicon."""
    corpus_path = _require_artifact(config.output_dir / CORPUS_FILE, "ingest")
    stopwords_path = config.resolved_stopwords_path()
    pos_path, neg_path = config.resolved_lexicon_paths()
    try:
        stopwords = load_stopwords(stopwords_path)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    lex = lexicon.load_lexicon(pos_path, neg_path)

    documents = [
        make_document(row["id"], row["text"], stopwords)
        for row in _read_jsonl(corpus_path)
    ]
    overrides: dict[str, SentimentLabel] = {}
    overrides_path = config.output_dir / OVERRIDES_FILE
    inputs = {
        CORPUS_FILE: corpus_path,
        "stopwords": stopwords_path,
        "lexicon_positive": pos_path,
        "lexicon_negative": neg_path,
    }
    if overrides_path.is_file():
        overrides = read_label_overrides(overrides_path)
        inputs[OVERRIDES_FILE] = overrides_path

    labeled, worksheet = lexicon.label_corpus(documents, lex, overrides or None)
    score_by_id = {row.id: row.score for row in worksheet}
    labeled_out = config.output_dir / LABELED_FILE
    _write_jsonl(
        [document_to_json(doc, score=score_by_id[doc.id]) for doc in labeled],
        labeled_out,
    )
    worksheet_out = config.output_dir / WORKSHEET_FILE
    worksheet_out.write_text(
        _csv_text(lexicon.WORKSHEET_HEADER, lexicon.worksheet_csv_rows(worksheet)),
        encoding="utf-8",
    )
    outputs = [labeled_out, worksheet_out]
    outputs.append(_write_manifest(config, "label", inputs, outputs))
    counts = {label: 0 for label in SentimentLabel}
    for doc in labeled:
        counts[doc.label] += 1
    logger.info(
        "label: %d documents -> %d negative / %d neutral / %d positive "
        "(%d overrides)",
        len(labeled),
        counts[SentimentLabel.NEGATIVE],
        counts[SentimentLabel.NEUTRAL],
        counts[SentimentLabel.POSITIVE],
        len(overrides),
    )
    return outputs


def _split_labeled(
    config: PipelineConfig, documents: list[Document]
) -> tuple[list[Document], list[Document], list[Document]]:
    return corpus.split(documents, config.split_spec())


def run_train(config: PipelineConfig) -> list[Path]:
    """Fit the selected model on the training split and save it."""
    documents = load_labeled_documents(config.output_dir)
    train_docs, val_docs, _ = _split_labeled(config, documents)
    if not train_docs:
        raise ConfigError("training split is empty; check the split fractions")
    labeled_path = config.output_dir / LABELED_FILE
    inputs = {LABELED_FILE: labeled_path}
    model_out = config.output_dir / MODEL_FILES[config.model]
    outputs: list[Path] = [model_out]

    if config.model == "lexicon":
        pos_path, neg_path = config.resolved_lexicon_paths()
        lex = lexicon.load_lexicon(pos_path, neg_path)
        payload = {
            "magic": LEXICON_MODEL_MAGIC,
            "version": LEXICON_MODEL_VERSION,
            "positive": sorted(lex.positive),
            "negative": sorted(lex.negative),
        }
        model_out.write_text(
            json.dumps(payload, indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        inputs["lexicon_positive"] = pos_path
        inputs["lexicon_negative"] = neg_path
    elif config.model == "mnb":
        vocab = bow.build_vocab(train_docs, min_count=config.min_count)
        model = bow.mnb_train(train_docs, vocab, alpha=config.mnb_alpha)
        bow.save_model(model, vocab, model_out)
    elif config.model == "svm":
        vocab = bow.build_vocab(train_docs, min_count=config.min_count)
        model = bow.svm_train(
            train_docs,
            vocab,
            bow.SvmConfig(
                regularization_lambda=config.svm_lambda,
                epochs=config.svm_epochs,
                seed=config.seed,
                feature_mode=config.svm_feature_mode,
            ),
        )
        bow.save_model(model, vocab, model_out)
    else:  # bert
        token_vocab = enc_vocab.build_token_vocab(
            train_docs, min_count=config.min_count
        )
        encoder_config = config.encoder_config(vocab_size=token_vocab.size)
        profile = config.train_profile()
        params, history = enc_train.fine_tune(
            train_docs, val_docs, token_vocab, encoder_config, profile
        )
        enc_checkpoint.save_checkpoint(params, encoder_config, model_out)
        vocab_out = config.output_dir / BERT_VOCAB_FILE
        vocab_out.write_text(
            json.dumps(token_vocab.to_dict(), indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        history_out = config.output_dir / HISTORY_FILE
        history_out.write_text(
            enc_train.history_to_csv(history, profile), encoding="utf-8"
        )
        outputs.extend([vocab_out, history_out])

    outputs.append(_write_manifest(config, "train", inputs, outputs))
    logger.info(
        "train: fitted %s on %d documents (validation %d)",
        config.model,
        len(train_docs),
        len(val_docs),
    )
    return outputs


def _predict_with_model(
    name: str,
    output_dir: Path,
    test_docs: list[Document],
) -> list[SentimentLabel]:
    """Load a trained model file and predict the test split."""
    model_path = output_dir / MODEL_FILES[name]
    if name == "lexicon":
        payload = json.loads(model_path.read_text(encoding="utf-8"))
        if payload.get("magic") != LEXICON_MODEL_MAGIC:
            raise ConfigError(f"{model_path} is not a lexicon model file")
        lex = lexicon.LexiconDict(
            positive=frozenset(payload["positive"]),
            negative=frozenset(payload["negative"]),
        )
        return [
            lexicon.score_document(doc.tokens, lex).label for doc in test_docs
        ]
    if name in ("mnb", "svm"):
        model, vocab = bow.load_model(model_path)
        predict = bow.mnb_predict if name == "mnb" else bow.svm_predict
        return [predict(doc, model, vocab)[0] for doc in test_docs]
    params, encoder_config = enc_checkpoint.load_checkpoint(model_path)
    vocab_path = _require_artifact(output_dir / BERT_VOCAB_FILE, "train")
    token_vocab = enc_vocab.TokenVocab.from_dict(
        json.loads(vocab_path.read_text(encoding="utf-8"))
    )
    return enc_train.predict_batch(test_docs, params, token_vocab, encoder_config)


def run_eval(config: PipelineConfig) -> list[Path]:
    """Evaluate every trained model on the test split; compare when >= 2."""
    documents = load_labeled_documents(config.output_dir)
    _, _, test_docs = _split_labeled(config, documents)
    if not test_docs:
        raise ConfigError("test split is empty; check the split fractions")
    available = [
        name
        for name in MODEL_NAMES
        if (config.output_dir / MODEL_FILES[name]).is_file()
    ]
    if not available:
        raise StageOrderError(
            MODEL_FILES[config.model], "run the train stage first"
        )
    true_labels = [doc.label for doc in test_docs]
    inputs = {LABELED_FILE: config.output_dir / LABELED_FILE}
    outputs: list[Path] = []
    named_reports: list[tuple[str, evaluation.MetricsReport]] = []
    for name in available:
        inputs[MODEL_FILES[name]] = config.output_dir / MODEL_FILES[name]
        if name == "bert":
            inputs[BERT_VOCAB_FILE] = _require_artifact(
                config.output_dir / BERT_VOCAB_FILE, "train"
            )
        predicted = _predict_with_model(name, config.output_dir, test_docs)
        cm = evaluation.confusion(true_labels, predicted)
        report = evaluation.metrics(cm)
        named_reports.append((name, report))
        payload = {
            "model": name,
            "confusion": [list(row) for row in cm.counts],
            **evaluation.report_as_dict(report),
        }
        report_out = config.output_dir / f"metrics_{name}.json"
        report_out.write_text(
            json.dumps(payload, indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        outputs.append(report_out)
        logger.info(
            "eval: %s macro_f=%.4f accuracy=%.4f on %d test documents",
            name,
            report.macro_f,
            report.accuracy,
            len(test_docs),
        )

    summary_rows = [
        (
            name,
            repr(report.macro_precision),
            repr(report.macro_recall),
            repr(report.macro_f),
            repr(report.accuracy),
        )
        for name, report in named_reports
    ]
    summary_out = config.output_dir / METRICS_SUMMARY_FILE
    summary_out.write_text(
        _csv_text(
            ("model", "macro_precision", "macro_recall", "macro_f", "accuracy"),
            summary_rows,
        ),
        encoding="utf-8",
    )
    outputs.append(summary_out)
    if len(named_reports) >= 2:
        outputs.extend(_write_comparison(config, named_reports))
    outputs.append(_write_manifest(config, "eval", inputs, outputs))
    return outputs


def _write_comparison(
    config: PipelineConfig,
    named_reports: list[tuple[str, evaluation.MetricsReport]],
) -> list[Path]:
    table = evaluation.compare(named_reports)
    csv_out = config.output_dir / COMPARISON_CSV_FILE
    csv_out.write_text(table.to_csv(), encoding="utf-8")
    txt_out = config.output_dir / COMPARISON_TXT_FILE
    txt_out.write_text(table.to_text(), encoding="utf-8")
    return [csv_out, txt_out]


def run_compare(config: PipelineConfig) -> list[Path]:
    """Rebuild the comparison table from stored evaluation reports."""
    named_reports: list[tuple[str, evaluation.MetricsReport]] = []
    inputs: dict[str, Path] = {}
    for name in MODEL_NAMES:
        report_path = config.output_dir / f"metrics_{name}.json"
        if report_path.is_file():
            payload = json.loads(report_path.read_text(encoding="utf-8"))
            named_reports.append((name, evaluation.report_from_dict(payload)))
            inputs[report_path.name] = report_path
    if len(named_reports) < 2:
        raise StageOrderError(
            "metrics_<model>.json (need at least 2)",
            "run the eval stage for at least two trained models first",
        )
    outputs = _write_comparison(config, named_reports)
    outputs.append(_write_manifest(config, "compare", inputs, outputs))
    return outputs


def run_viz(config: PipelineConfig) -> list[Path]:
    """Frequency tables, cloud weights, distribution counts, and SVGs."""
    documents = load_labeled_documents(config.output_dir)
    inputs = {LABELED_FILE: config.output_dir / LABELED_FILE}
    outputs: list[Path] = []

    unigrams = viz.ngrams(documents, 1, config.top_k)
    grams = viz.ngrams(documents, config.ngram_n, config.top_k)
    cloud = viz.cloud_weights(documents, config.top_k)
    distribution = viz.sentiment_distribution(documents)

    unigram_csv_out = config.output_dir / "unigrams.csv"
    unigram_csv_out.write_text(viz.ngram_csv(unigrams), encoding="utf-8")
    outputs.append(unigram_csv_out)
    ngram_csv_out = config.output_dir / f"ngrams_{config.ngram_n}.csv"
    ngram_csv_out.write_text(viz.ngram_csv(grams), encoding="utf-8")
    outputs.append(ngram_csv_out)

    cloud_out = config.output_dir / "cloud_weights.json"
    cloud_out.write_text(
        json.dumps(dict(sorted(cloud.entries.items())), indent=1, sort_keys=True)
        + "\n",
        encoding="utf-8",
    )
    outputs.append(cloud_out)

    distribution_out = config.output_dir / "sentiment_distribution.json"
    distribution_out.write_text(
        json.dumps(
            {label_name(label): count for label, count in distribution.items()},
            indent=1,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    outputs.append(distribution_out)

    for data, filename in (
        (unigrams, "unigrams.svg"),
        (grams, f"ngrams_{config.ngram_n}.svg"),
        (cloud, "cloud.svg"),
        (distribution, "distribution.svg"),
    ):
        entries = getattr(data, "entries", data)
        if not entries:
            logger.info("viz: skipping %s (no counts to draw)", filename)
            continue
        outputs.append(viz.render_svg(data, config.output_dir / filename))

    outputs.append(_write_manifest(config, "viz", inputs, outputs))
    logger.info("viz: wrote %d artifacts", len(outputs))
    return outputs
