"""Pipeline orchestration: config file, stage runners, artifact manifests.

The pipeline is a fixed stage sequence — ingest → review → label → train →
eval → viz — driven by one key=value config file.  Every stage reads its
predecessor's artifacts from the output directory, writes its own, and drops
a ``<stage>.manifest.json`` (``train_<model>.manifest.json`` for ``train``)
recording SHA-256 hashes of the exact inputs and outputs plus a hash of the
effective settings.  A train manifest also records the split its model was
fitted on, and ``eval`` refuses a model whose split differs from the one the
current config gives, or whose files are not the ones the manifest
records.  ``label`` checks ``corpus.jsonl`` against
``ingest.manifest.json`` and writes the labeled documents twice: as
``labeled.jsonl``, the record a person reads, and as token ids
(``labeled_ids.bin``), which ``train``, ``eval`` and ``viz`` read after
checking both files against ``label.manifest.json``.  Artifacts are
rendered and written by :mod:`ppkmsent.artifacts`, so reruns with unchanged
inputs and seed are byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from ppkmsent import artifacts, bow, corpus, evaluation, lexicon, viz
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
from ppkmsent.errors import CheckpointFormatError, ConfigError, StageOrderError
from ppkmsent.preprocess import (
    Document,
    LabeledIds,
    SentimentLabel,
    TokenIds,
    label_name,
    load_stopwords,
    make_document,
    parse_label,
    token_ids,
)

logger = logging.getLogger(__name__)

OUTPUT_DIR_ENV = "PPKMSENT_OUTPUT_DIR"

CORPUS_FILE = "corpus.jsonl"
INGEST_MANIFEST_FILE = "ingest.manifest.json"
INGEST_REPORT_FILE = "ingest_report.json"
LABELED_FILE = "labeled.jsonl"
LABELED_IDS_FILE = "labeled_ids.bin"
LABEL_MANIFEST_FILE = "label.manifest.json"
WORKSHEET_FILE = "worksheet.csv"
VERDICTS_FILE = "review_verdicts.csv"
OVERRIDES_FILE = "label_overrides.csv"
HISTORY_FILE = "history.csv"
BERT_VOCAB_FILE = "bert_vocab.json"
METRICS_SUMMARY_FILE = "metrics_summary.csv"
COMPARISON_CSV_FILE = "comparison.csv"
COMPARISON_TXT_FILE = "comparison.txt"

LEXICON_MODEL_MAGIC = "ppkmsent/lexicon-model"
LEXICON_MODEL_VERSION = 1

ARTIFACT_VERSION = 1

# profile name -> (training schedule, architecture for a vocabulary size)
_PROFILES = {
    "paper": (enc_config.PAPER_PROFILE, enc_config.paper_config),
    "desk": (enc_config.DESK_PROFILE, enc_config.desk_config),
}

# optional overrides of the profile's training schedule and architecture
_TRAIN_PROFILE_KEYS = ("batch_size", "epochs", "learning_rate")
_ARCHITECTURE_KEYS = (
    "num_layers",
    "num_heads",
    "hidden_size",
    "feedforward_size",
    "max_sequence_length",
)


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
        if self.model not in MODELS:
            raise ConfigError(
                f"model must be one of {', '.join(MODELS)}, got {self.model!r}"
            )
        if self.profile_name not in _PROFILES:
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
        for name in ("mnb_alpha", "svm_lambda"):
            value = getattr(self, name)
            if not 0 < value < math.inf:  # false for nan as well
                raise ConfigError(f"{name} must be positive and finite, got {value}")
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

    def _overrides(self, keys: tuple[str, ...]) -> dict:
        values = {key: getattr(self, key) for key in keys}
        return {key: value for key, value in values.items() if value is not None}

    def train_profile(self) -> enc_config.TrainProfile:
        base, _ = _PROFILES[self.profile_name]
        overrides = self._overrides(_TRAIN_PROFILE_KEYS)
        return replace(base, seed=self.seed, **overrides)

    def encoder_config(self, vocab_size: int) -> enc_config.EncoderConfig:
        _, architecture = _PROFILES[self.profile_name]
        base = architecture(vocab_size, self.dropout_rate)
        return replace(base, **self._overrides(_ARCHITECTURE_KEYS))

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
        the dump (and its hash) is independent of filesystem layout.  The
        training-schedule overrides appear resolved, inside ``train_profile``;
        an architecture override appears only when it is set.
        """
        values = {
            "train_profile": json.dumps(
                self.train_profile().to_dict(), sort_keys=True
            )
        }
        for key, (name, kind) in _CONFIG_KEYS.items():
            value = getattr(self, name)
            if kind is Path or name in _TRAIN_PROFILE_KEYS or value is None:
                continue
            values[key] = _FORMATTERS.get(kind, str)(value)
        return "".join(f"{k}={v}\n" for k, v in sorted(values.items()))


def _value_type(hint: object) -> type:
    """The type a config value parses to: ``X | None`` gives ``X`` and
    ``tuple[str, ...]`` gives ``tuple``."""
    origin = get_origin(hint)
    if origin is tuple:
        return tuple
    if origin is not None:
        (hint,) = [arg for arg in get_args(hint) if arg is not type(None)]
    return hint


def _parse_bool(value: str) -> bool:
    if value.lower() not in ("true", "false"):
        raise ValueError(f"expected true or false, got {value!r}")
    return value.lower() == "true"


def _parse_keywords(value: str) -> tuple[str, ...]:
    return tuple(kw.strip().lower() for kw in value.split(",") if kw.strip())


# paths are parsed relative to the config file, so they have no entry here
_PARSERS = {
    str: str,
    int: int,
    float: float,
    Fraction: Fraction,
    bool: _parse_bool,
    tuple: _parse_keywords,
}
_FORMATTERS = {bool: lambda value: str(value).lower(), tuple: ",".join}

# the profile_name field is spelled "profile" in config files and in the
# settings dump
_FIELD_KEYS = {"profile_name": "profile"}

# config key -> (PipelineConfig field, value type)
_CONFIG_KEYS = {
    _FIELD_KEYS.get(name, name): (name, _value_type(hint))
    for name, hint in get_type_hints(PipelineConfig).items()
}


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
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        field_name, kind = _CONFIG_KEYS[key]
        if field_name in settings:
            raise ConfigError(f"line {lineno}: duplicate config key {key!r}")
        try:
            if kind is Path:
                settings[field_name] = (base_dir / value).resolve()
            else:
                settings[field_name] = _PARSERS[kind](value)
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
# artifacts


def _write_manifest(
    config: PipelineConfig,
    stage: str,
    inputs: dict[str, Path | str],
    outputs: list[Path],
    name: str | None = None,
    split: dict | None = None,
) -> Path:
    """Write ``<name>.manifest.json``, ``name`` defaulting to the stage.

    An input given as a str is the SHA-256 the stage already took of the
    bytes it read; a Path is hashed here.  ``split`` is a
    ``_split_record``, kept under that key."""
    settings = config.settings_dump().encode("utf-8")
    manifest = {
        "artifact_version": ARTIFACT_VERSION,
        "stage": stage,
        "settings_sha256": hashlib.sha256(settings).hexdigest(),
        "inputs": {
            n: p if isinstance(p, str) else artifacts.sha256_file(p)
            for n, p in sorted(inputs.items())
        },
        "outputs": {p.name: artifacts.sha256_file(p) for p in outputs},
    }
    if split is not None:
        manifest["split"] = split
    path = config.output_dir / f"{name or stage}.manifest.json"
    return artifacts.write_json(manifest, path)


def _split_record(config: PipelineConfig, labeled_sha256: str) -> dict:
    """What decides the train/validation/test split: the split settings and
    the SHA-256 of the ``labeled.jsonl`` bytes the documents came from."""
    spec = config.split_spec()
    return {
        "seed": spec.seed,
        "train_fraction": str(spec.train_fraction),
        "validation_fraction": str(spec.validation_fraction),
        "test_fraction": str(spec.test_fraction),
        "stratified": spec.stratified,
        "labeled_sha256": labeled_sha256,
    }


def _check_trained_model(config: PipelineConfig, model: str, split: dict) -> dict[str, str]:
    """The SHA-256 of the model's train manifest and of each file the model
    is scored from, keyed by file name, after checking that the manifest
    records ``split`` and those files.

    Raises ConfigError naming the model and the first split field that
    differs, so that no model is scored on documents it was trained on,
    and naming the file and the manifest when a model file is missing or
    is not the one train wrote.
    """
    path = config.output_dir / f"train_{model}.manifest.json"
    if not path.is_file():
        raise ConfigError(
            f"{model}: {path} is missing, so the split the model was trained "
            f"on is unknown; run train again"
        )
    data = path.read_bytes()
    try:
        manifest = json.loads(data)
        recorded = manifest.get("split")
    except (ValueError, AttributeError) as exc:
        raise ConfigError(f"{model}: {path} is not a train manifest") from exc
    if not isinstance(recorded, dict):
        raise ConfigError(f"{model}: {path} records no split; run train again")
    for field, value in split.items():
        if recorded.get(field) != value:
            what = (
                f"{LABELED_FILE} has changed"
                if field == "labeled_sha256"
                else f"{field} was {recorded.get(field)!r}, now {value!r}"
            )
            raise ConfigError(
                f"{model} was trained on another split ({what}); run train again"
            )
    spec = MODELS[model]
    files = [config.output_dir / name for name in (spec.file, *spec.predict_inputs)]
    digests = {p: artifacts.sha256_file(p) if p.is_file() else None for p in files}
    _check_outputs(path, digests, manifest)
    digests[path] = hashlib.sha256(data).hexdigest()
    return {p.name: digest for p, digest in digests.items()}


def document_to_json(doc: Document, row: lexicon.WorksheetRow) -> dict:
    return {
        "id": doc.id,
        "raw_text": doc.raw_text,
        "clean_text": doc.clean_text,
        "tokens": list(doc.tokens),
        "label": label_name(row.final_label),
        "score": row.score,
    }


def _check_outputs(
    manifest_path: Path, digests: dict[Path, str | None], manifest: object = None
) -> None:
    """Check each file against the output digest that a stage's manifest
    records; a digest of None stands for a missing file.  ``manifest`` is
    the manifest's parsed JSON when the caller has read it, else it is
    read here.

    A missing manifest, a file that is not a manifest, a missing file or a
    digest that differs is a ConfigError naming the file and the manifest.
    """
    # train_<model>.manifest.json is written by the train stage
    stage = manifest_path.name.removesuffix(".manifest.json").partition("_")[0]
    rerun = f"run {stage} again"
    checked = f"{next(iter(digests)).name} cannot be checked; {rerun}"
    if manifest is None:
        if not manifest_path.is_file():
            raise ConfigError(f"{manifest_path} is missing, so {checked}")
        try:
            manifest = json.loads(manifest_path.read_bytes())
        except ValueError:
            pass
    recorded = manifest.get("outputs") if isinstance(manifest, dict) else None
    if not isinstance(recorded, dict):
        raise ConfigError(f"{manifest_path} is not a {stage} manifest, so {checked}")
    for path, digest in digests.items():
        if digest is None:
            raise ConfigError(
                f"{path} is missing, though {manifest_path} lists it; {rerun}"
            )
        if recorded.get(path.name) != digest:
            raise ConfigError(
                f"{path} is not the file {manifest_path} records "
                f"(changed since {stage} ran); {rerun}"
            )


def load_labeled_documents(output_dir: Path) -> tuple[LabeledIds, dict[str, str]]:
    """The labeled documents as token ids, and the SHA-256 of
    ``labeled.jsonl`` and of the id file they were read from, keyed by
    file name.

    Both files must be the ones ``label.manifest.json`` records: a missing
    manifest or id file, or a file whose digest differs (``labeled.jsonl``
    edited after ``label`` ran, say), is a ConfigError naming the file and
    the manifest.  An id file that does not decode is a
    CheckpointFormatError naming it.  ``labeled.jsonl`` is hashed, never
    parsed.
    """
    labeled_path = artifacts.require_artifact(output_dir / LABELED_FILE, "label")
    ids_path = output_dir / LABELED_IDS_FILE
    data = ids_path.read_bytes() if ids_path.is_file() else None
    digests = {
        labeled_path: artifacts.sha256_file(labeled_path),
        ids_path: None if data is None else hashlib.sha256(data).hexdigest(),
    }
    _check_outputs(output_dir / LABEL_MANIFEST_FILE, digests)
    return (
        artifacts.decode_labeled_ids(data, ids_path),
        {path.name: digest for path, digest in digests.items()},
    )


def _parse_verdict(value: str) -> str:
    if value.strip() not in ("keep", "drop"):
        raise ValueError("verdict must be keep or drop")
    return value.strip()


def read_verdicts(path: Path) -> dict[str, str]:
    """Read a review verdicts CSV (columns id, verdict in {keep, drop})."""
    return artifacts.read_id_csv(path, "verdict", _parse_verdict)


def write_verdicts(verdicts: dict[str, str], path: Path) -> None:
    artifacts.write_csv(("id", "verdict"), sorted(verdicts.items()), path)


def read_label_overrides(path: Path) -> dict[str, SentimentLabel]:
    """Read a label override CSV (columns id, label)."""
    return artifacts.read_id_csv(path, "label", parse_label)


def write_label_overrides(
    overrides: dict[str, SentimentLabel], path: Path
) -> None:
    rows = sorted((rid, label_name(label)) for rid, label in overrides.items())
    artifacts.write_csv(("id", "label"), rows, path)


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

    relevant = corpus.filter_relevant(
        kept, list(config.keywords), verdicts or None, mode=config.keyword_mode
    )
    # a drop verdict always removes its record
    dropped_by_verdict = sum(verdicts.get(r.id) == "drop" for r in kept)
    dropped_no_keyword = len(kept) - len(relevant) - dropped_by_verdict

    corpus_rows = []
    for record, matched in relevant:
        row: dict = {
            "id": record.id,
            "text": record.text,
            "matched_keywords": list(matched),
        }
        if record.created_at is not None:
            row["created_at"] = record.created_at.isoformat()
        corpus_rows.append(row)
    corpus_out = artifacts.write_jsonl(corpus_rows, config.output_dir / CORPUS_FILE)

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
    report_out = artifacts.write_json(report, config.output_dir / INGEST_REPORT_FILE)
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
    corpus_path = artifacts.require_artifact(config.output_dir / CORPUS_FILE, "ingest")
    stopwords_path = config.resolved_stopwords_path()
    pos_path, neg_path = config.resolved_lexicon_paths()
    try:
        stopwords = load_stopwords(stopwords_path)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    lex = lexicon.load_lexicon(pos_path, neg_path)

    rows, corpus_sha256 = artifacts.load_jsonl(corpus_path, artifacts.corpus_row)
    ingest_manifest = config.output_dir / INGEST_MANIFEST_FILE
    _check_outputs(ingest_manifest, {corpus_path: corpus_sha256})
    documents = [make_document(doc_id, text, stopwords) for doc_id, text in rows]
    del rows
    overrides: dict[str, SentimentLabel] = {}
    overrides_path = config.output_dir / OVERRIDES_FILE
    inputs: dict[str, Path | str] = {
        CORPUS_FILE: corpus_sha256,
        "stopwords": stopwords_path,
        "lexicon_positive": pos_path,
        "lexicon_negative": neg_path,
    }
    if overrides_path.is_file():
        overrides = read_label_overrides(overrides_path)
        inputs[OVERRIDES_FILE] = overrides_path

    worksheet = lexicon.label_corpus(documents, lex, overrides or None)
    outputs = write_label_artifacts(config, documents, worksheet, inputs)
    counts = Counter(row.final_label for row in worksheet)
    logger.info(
        "label: %d documents -> %d negative / %d neutral / %d positive "
        "(%d overrides)",
        len(worksheet),
        counts[SentimentLabel.NEGATIVE],
        counts[SentimentLabel.NEUTRAL],
        counts[SentimentLabel.POSITIVE],
        len(overrides),
    )
    return outputs


def write_label_artifacts(
    config: PipelineConfig,
    documents: list[Document],
    worksheet: list[lexicon.WorksheetRow],
    inputs: dict[str, Path | str],
) -> list[Path]:
    """Write what ``label`` writes: ``labeled.jsonl``, whose row i is
    document i with the score and final label of worksheet row i, the same
    documents and labels as token ids, the worksheet and the label
    manifest, which records ``inputs``."""
    out = config.output_dir
    codes = np.array([row.final_label for row in worksheet], dtype=np.intp)
    outputs = [
        artifacts.write_jsonl(
            map(document_to_json, documents, worksheet), out / LABELED_FILE
        ),
        artifacts.write_bytes(
            artifacts.encode_labeled_ids(LabeledIds(token_ids(documents), codes)),
            out / LABELED_IDS_FILE,
        ),
        artifacts.write_csv(
            lexicon.WORKSHEET_HEADER,
            lexicon.worksheet_csv_rows(worksheet),
            out / WORKSHEET_FILE,
        ),
    ]
    outputs.append(_write_manifest(config, "label", inputs, outputs))
    return outputs


# ---------------------------------------------------------------------------
# models: train and predict functions look library functions up on their
# modules at call time, so that a wrapper installed there is seen


def _model_path(config: PipelineConfig) -> Path:
    return config.output_dir / MODELS[config.model].file


def _train_bert(
    config: PipelineConfig, train_docs: LabeledIds, val_docs: LabeledIds
) -> dict[str, Path]:
    token_vocab = enc_vocab.build_token_vocab(
        train_docs.documents, min_count=config.min_count
    )
    encoder_config = config.encoder_config(vocab_size=token_vocab.size)
    profile = config.train_profile()
    params, history = enc_train.fine_tune(
        train_docs, val_docs, token_vocab, encoder_config, profile
    )
    enc_checkpoint.save_checkpoint(params, encoder_config, _model_path(config))
    artifacts.write_json(token_vocab.to_dict(), config.output_dir / BERT_VOCAB_FILE)
    artifacts.write_text(
        enc_train.history_to_csv(history, profile), config.output_dir / HISTORY_FILE
    )
    return {}


def _predict_bert(output_dir: Path, test_docs: TokenIds) -> list[SentimentLabel]:
    checkpoint_path = output_dir / MODELS["bert"].file
    vocab_path = output_dir / BERT_VOCAB_FILE
    params, encoder_config = enc_checkpoint.load_checkpoint(checkpoint_path)
    try:
        token_vocab = enc_vocab.TokenVocab.from_dict(
            json.loads(vocab_path.read_text(encoding="utf-8"))
        )
    except (ValueError, ConfigError) as exc:
        raise CheckpointFormatError(f"{vocab_path}: {exc}") from exc
    if token_vocab.size != encoder_config.vocab_size:
        raise CheckpointFormatError(
            f"{vocab_path} holds {token_vocab.size} tokens, but {checkpoint_path} "
            f"was trained on {encoder_config.vocab_size}"
        )
    return enc_train.predict_batch(test_docs, params, token_vocab, encoder_config)


def _train_mnb(
    config: PipelineConfig, train_docs: LabeledIds, val_docs: LabeledIds
) -> dict[str, Path]:
    vocab = bow.build_vocab(train_docs.documents, min_count=config.min_count)
    model = bow.mnb_train(train_docs, vocab, alpha=config.mnb_alpha)
    bow.save_model(model, vocab, _model_path(config))
    return {}


def _predict_bow(
    kind: str, output_dir: Path, test_docs: TokenIds
) -> list[SentimentLabel]:
    model, vocab = bow.load_model(output_dir / MODELS[kind].file, kind)
    return bow.predict_batch(test_docs, model, vocab)[0]


def _train_svm(
    config: PipelineConfig, train_docs: LabeledIds, val_docs: LabeledIds
) -> dict[str, Path]:
    vocab = bow.build_vocab(train_docs.documents, min_count=config.min_count)
    svm_config = bow.SvmConfig(
        regularization_lambda=config.svm_lambda,
        epochs=config.svm_epochs,
        seed=config.seed,
        feature_mode=config.svm_feature_mode,
    )
    model = bow.svm_train(train_docs, vocab, svm_config)
    bow.save_model(model, vocab, _model_path(config))
    return {}


def _train_lexicon(
    config: PipelineConfig, train_docs: LabeledIds, val_docs: LabeledIds
) -> dict[str, Path]:
    pos_path, neg_path = config.resolved_lexicon_paths()
    lex = lexicon.load_lexicon(pos_path, neg_path)
    payload = {
        "magic": LEXICON_MODEL_MAGIC,
        "version": LEXICON_MODEL_VERSION,
        "positive": sorted(lex.positive),
        "negative": sorted(lex.negative),
    }
    artifacts.write_json(payload, _model_path(config))
    return {"lexicon_positive": pos_path, "lexicon_negative": neg_path}


def _predict_lexicon(output_dir: Path, test_docs: TokenIds) -> list[SentimentLabel]:
    path = output_dir / MODELS["lexicon"].file
    payload = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(payload, dict) or payload.get("magic") != LEXICON_MODEL_MAGIC:
        raise CheckpointFormatError(f"{path} is not a lexicon model file")
    if (version := payload.get("version")) != LEXICON_MODEL_VERSION:
        raise CheckpointFormatError(f"{path}: unsupported model version {version!r}")
    lex = lexicon.LexiconDict(
        positive=frozenset(artifacts.str_list(payload, "positive")),
        negative=frozenset(artifacts.str_list(payload, "negative")),
    )
    return [
        lexicon.score_document(tokens, lex).label for tokens in test_docs.sequences()
    ]


@dataclass(frozen=True)
class ModelSpec:
    """How the train and eval stages handle one model.

    ``train(config, train_docs, val_docs)`` fits the labeled ids of the
    training and validation splits, writes ``file`` and ``train_outputs``
    into the output directory and returns the further inputs it read,
    keyed by manifest name.  ``predict(output_dir, test_docs)`` reads
    ``file`` and ``predict_inputs`` back and labels the test split's token
    ids.
    """

    file: str
    train: Callable[[PipelineConfig, LabeledIds, LabeledIds], dict[str, Path]]
    predict: Callable[[Path, TokenIds], list[SentimentLabel]]
    train_outputs: tuple[str, ...] = ()
    predict_inputs: tuple[str, ...] = ()


# in evaluation and comparison order
MODELS = {
    "bert": ModelSpec(
        "bert.ckpt",
        _train_bert,
        _predict_bert,
        train_outputs=(BERT_VOCAB_FILE, HISTORY_FILE),
        predict_inputs=(BERT_VOCAB_FILE,),
    ),
    "mnb": ModelSpec("mnb_model.json", _train_mnb, partial(_predict_bow, "mnb")),
    "svm": ModelSpec("svm_model.json", _train_svm, partial(_predict_bow, "svm")),
    "lexicon": ModelSpec("lexicon_model.json", _train_lexicon, _predict_lexicon),
}


def run_train(config: PipelineConfig) -> list[Path]:
    """Fit the selected model on the training split and save it."""
    labeled, digests = load_labeled_documents(config.output_dir)
    train_rows, val_rows, _ = corpus.split(labeled.labels, config.split_spec())
    if not len(train_rows):
        raise ConfigError("training split is empty; check the split fractions")
    spec = MODELS[config.model]
    inputs: dict[str, Path | str] = dict(digests)
    inputs.update(spec.train(config, labeled.take(train_rows), labeled.take(val_rows)))
    outputs = [config.output_dir / name for name in (spec.file, *spec.train_outputs)]
    # one manifest per model, so models trained into one directory keep theirs
    outputs.append(
        _write_manifest(
            config,
            "train",
            inputs,
            outputs,
            f"train_{config.model}",
            split=_split_record(config, digests[LABELED_FILE]),
        )
    )
    logger.info(
        "train: fitted %s on %d documents (validation %d)",
        config.model,
        len(train_rows),
        len(val_rows),
    )
    return outputs


def run_eval(config: PipelineConfig) -> list[Path]:
    """Evaluate every trained model on the test split; compare when >= 2."""
    labeled, digests = load_labeled_documents(config.output_dir)
    _, _, test_rows = corpus.split(labeled.labels, config.split_spec())
    if not len(test_rows):
        raise ConfigError("test split is empty; check the split fractions")
    available = {
        name: spec
        for name, spec in MODELS.items()
        if (config.output_dir / spec.file).is_file()
    }
    if not available:
        raise StageOrderError(
            MODELS[config.model].file, "run the train stage first"
        )
    # every model must have been trained on the split scored here, checked
    # before any report is written
    split = _split_record(config, digests[LABELED_FILE])
    inputs: dict[str, Path | str] = dict(digests)
    for name in available:
        inputs.update(_check_trained_model(config, name, split))
    test = labeled.take(test_rows)
    true_labels = list(map(SentimentLabel, test.labels.tolist()))
    outputs: list[Path] = []
    named_reports: list[tuple[str, evaluation.MetricsReport]] = []
    for name, spec in available.items():
        try:
            predicted = spec.predict(config.output_dir, test.documents)
        except (ValueError, KeyError, TypeError) as exc:
            model_files = (config.output_dir / f for f in (spec.file, *spec.predict_inputs))
            raise CheckpointFormatError(
                f"{', '.join(map(str, model_files))}: unreadable {name} model "
                f"({type(exc).__name__}: {exc})"
            ) from exc
        cm = evaluation.confusion(true_labels, predicted)
        report = evaluation.metrics(cm)
        named_reports.append((name, report))
        payload = {
            "model": name,
            "confusion": [list(row) for row in cm.counts],
            **evaluation.report_as_dict(report),
        }
        outputs.append(
            artifacts.write_json(payload, config.output_dir / f"metrics_{name}.json")
        )
        logger.info(
            "eval: %s macro_f=%.4f accuracy=%.4f on %d test documents",
            name,
            report.macro_f,
            report.accuracy,
            len(test_rows),
        )

    out = config.output_dir
    header = ("model", "macro_precision", "macro_recall", "macro_f", "accuracy")
    summary_rows = (
        (name, r.macro_precision, r.macro_recall, r.macro_f, r.accuracy)
        for name, r in named_reports
    )
    outputs.append(artifacts.write_csv(header, summary_rows, out / METRICS_SUMMARY_FILE))
    if len(named_reports) >= 2:
        # the summary's macro columns ranked by macro F; the csv module
        # writes each float as its repr, as in the summary
        table = evaluation.compare(named_reports)
        outputs += [
            artifacts.write_csv(header[:4], table.rows, out / COMPARISON_CSV_FILE),
            artifacts.write_text(table.to_text(), out / COMPARISON_TXT_FILE),
        ]
    outputs.append(_write_manifest(config, "eval", inputs, outputs))
    return outputs


def run_viz(config: PipelineConfig) -> list[Path]:
    """Frequency tables, cloud weights, distribution counts, and SVGs."""
    out = config.output_dir
    grams_stem = f"ngrams_{config.ngram_n}"
    (ids, labels), inputs = load_labeled_documents(out)
    unigrams = viz.ngrams(ids, 1, config.top_k)
    grams = viz.ngrams(ids, config.ngram_n, config.top_k)
    cloud = viz.cloud_weights(ids, config.top_k)
    distribution = viz.sentiment_distribution(labels)

    counts = {label_name(label): count for label, count in distribution.items()}
    outputs = [
        artifacts.write_text(viz.ngram_csv(unigrams), out / "unigrams.csv"),
        artifacts.write_text(viz.ngram_csv(grams), out / f"{grams_stem}.csv"),
        artifacts.write_json(cloud.entries, out / "cloud_weights.json"),
        artifacts.write_json(counts, out / "sentiment_distribution.json"),
    ]

    for data, filename in (
        (unigrams, "unigrams.svg"),
        (grams, f"{grams_stem}.svg"),
        (cloud, "cloud.svg"),
        (distribution, "distribution.svg"),
    ):
        entries = getattr(data, "entries", data)
        if not entries:
            logger.info("viz: skipping %s (no counts to draw)", filename)
            continue
        outputs.append(viz.render_svg(data, out / filename))

    outputs.append(_write_manifest(config, "viz", inputs, outputs))
    logger.info("viz: wrote %d artifacts", len(outputs))
    return outputs
