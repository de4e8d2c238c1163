"""Bundled synthetic corpora for tests, demos and end-to-end runs.

Two generators live here:

* :func:`synthetic_documents` — a separable labeled corpus.  Each class
  draws its cue words from a class-exclusive pool (negative and positive
  cues also appear in the bundled sentiment lexicon, so lexicon bootstrap
  labeling agrees with the true labels), padded with topical filler words
  shared by all classes so the fillers carry no signal.  Class proportions
  follow the 3590:925:800 negative/neutral/positive shape of the real
  corpus via largest-remainder apportionment.
* :func:`synthetic_tweets` — noisy raw records (URLs, @mentions, hashtags,
  mixed-case keywords, duplicates, off-topic rows) for exercising the
  ingest/review stages ahead of the clean corpus.

Both are deterministic functions of their seed.
"""

from __future__ import annotations

from collections.abc import Sequence
from datetime import datetime, timedelta

import numpy as np

from ppkmsent.artifacts import write_jsonl  # noqa: F401  (re-exported)
from ppkmsent.errors import ConfigError
from ppkmsent.preprocess import Document, SentimentLabel, make_document

# class proportions of the labeled corpus: negative, neutral, positive
CLASS_RATIO = {
    SentimentLabel.NEGATIVE: 3590,
    SentimentLabel.NEUTRAL: 925,
    SentimentLabel.POSITIVE: 800,
}

# class-exclusive cue words; negative/positive cues are all present in the
# bundled lexicon files, neutral cues are in neither lexicon
NEGATIVE_CUES = (
    "rugi",
    "sedih",
    "kecewa",
    "susah",
    "parah",
    "bangkrut",
    "beban",
    "menderita",
    "buruk",
    "mahal",
)
POSITIVE_CUES = (
    "bersyukur",
    "dermawan",
    "senang",
    "bahagia",
    "bagus",
    "mantap",
    "lancar",
    "sukses",
    "membantu",
    "terbantu",
)
NEUTRAL_CUES = (
    "kebijakan",
    "aturan",
    "info",
    "berita",
    "jadwal",
    "lokasi",
    "wilayah",
    "daerah",
    "masyarakat",
    "pemerintah",
)

# topical filler shared by every class; carries no class signal
SHARED_FILLER = (
    "ppkm",
    "jakarta",
    "jualan",
    "saya",
    "selama",
    "hari",
    "warga",
    "kota",
    "jalan",
    "pasar",
    "masa",
    "minggu",
)

_CUES_BY_LABEL = {
    SentimentLabel.NEGATIVE: NEGATIVE_CUES,
    SentimentLabel.NEUTRAL: NEUTRAL_CUES,
    SentimentLabel.POSITIVE: POSITIVE_CUES,
}
# the cue pools indexed by label value
_CUE_POOLS = tuple(_CUES_BY_LABEL[label] for label in SentimentLabel)

# the example sentence used throughout the docs and tests; "rugi" is the
# only class-bearing token in it
EXAMPLE_SENTENCE = "Jualan saya rugi selama PPKM"


def fixture_class_counts(n: int) -> dict[SentimentLabel, int]:
    """Apportion ``n`` documents across classes by largest remainder."""
    if n < len(CLASS_RATIO):
        raise ConfigError(f"need at least {len(CLASS_RATIO)} documents, got {n}")
    total = sum(CLASS_RATIO.values())
    floors: dict[SentimentLabel, int] = {}
    remainders: list[tuple] = []
    for label in sorted(CLASS_RATIO):
        exact_num = n * CLASS_RATIO[label]
        floors[label] = exact_num // total
        remainders.append((-(exact_num % total), int(label), label))
    leftover = n - sum(floors.values())
    for _, _, label in sorted(remainders)[:leftover]:
        floors[label] += 1
    return floors


def _pick(rng: np.random.Generator, pool: Sequence, size: int | None = None):
    """One item of ``pool`` (``size`` None) or a list of ``size`` items.

    This is the draw ``rng.choice(pool, size)`` makes with replacement,
    without turning ``pool`` into an array on every call; the reference
    tests in ``tests/test_fixtures.py`` pin it to ``choice``'s stream.
    """
    if size is None:
        return pool[rng.integers(len(pool))]
    return [pool[j] for j in rng.integers(0, len(pool), size=int(size)).tolist()]


def synthetic_documents(n: int = 600, seed: int = 0) -> list[Document]:
    """Labeled separable corpus of ``n`` documents."""
    counts = fixture_class_counts(n)
    labels: list[SentimentLabel] = []
    for label in sorted(counts):
        labels.extend([label] * counts[label])
    rng = np.random.Generator(np.random.PCG64(seed))
    order = rng.permutation(n)
    documents: list[Document] = []
    for position, index in enumerate(order):
        label = labels[index]
        cues = _pick(rng, _CUES_BY_LABEL[label], rng.integers(2, 5))
        filler = _pick(rng, SHARED_FILLER, rng.integers(2, 7))
        words = cues + filler
        rng.shuffle(words)
        documents.append(
            make_document(
                f"synt-{position:04d}", " ".join(words), label=label
            )
        )
    return documents


_URL_NOISE = ("https://t.co/abc123", "http://example.com/ppkm-info", "")
_MENTION_NOISE = ("@dinkesdki", "@infojkt", "")
_KEYWORD_FORMS = ("PPKM", "ppkm", "Ppkm", "#PPKM", "Jakarta", "JAKARTA", "jakarta")
# tweet timestamps count minutes from this instant (UTC)
_FIRST_TWEET = datetime(2021, 7, 3)
_OFFTOPIC_TEXTS = (
    "cuaca hari ini panas sekali di kota",
    "resep masakan minggu ini enak banget",
    "nonton bola semalam seru sekali",
    "harga kopi di warung naik lagi",
)


def synthetic_tweets(
    n: int = 80,
    seed: int = 1,
    duplicate_rate: float = 0.05,
    offtopic_rate: float = 0.1,
) -> list[dict]:
    """Noisy raw tweet records for ingest-stage tests.

    Returns dicts with ``id``, ``text`` and (usually) ``created_at`` keys.
    Roughly ``offtopic_rate`` of rows mention no tracked keyword and
    ``duplicate_rate`` repeat an earlier row's text under a new id; each
    rate is in [0, 1] and they sum to at most 1.
    """
    if n < 1:
        raise ConfigError(f"need at least one tweet, got {n}")
    rates = {"duplicate_rate": duplicate_rate, "offtopic_rate": offtopic_rate}
    for name, rate in rates.items():
        if not 0 <= rate <= 1:
            raise ConfigError(f"{name} must be in [0, 1], got {rate}")
    if duplicate_rate + offtopic_rate > 1:
        raise ConfigError(
            "duplicate_rate + offtopic_rate must be at most 1, got "
            f"{duplicate_rate} + {offtopic_rate}"
        )
    rng = np.random.Generator(np.random.PCG64(seed))
    rows: list[dict] = []
    base_minute = 0
    for i in range(n):
        row: dict = {"id": f"tw-{i:05d}"}
        base_minute += int(rng.integers(1, 5))
        draw = rng.random()
        if rows and draw < duplicate_rate:
            row["text"] = rows[int(rng.integers(len(rows)))]["text"]
        elif draw < duplicate_rate + offtopic_rate:
            row["text"] = _pick(rng, _OFFTOPIC_TEXTS)
        else:
            pool = _pick(rng, _CUE_POOLS)
            cues = _pick(rng, pool, rng.integers(1, 4))
            filler = _pick(rng, SHARED_FILLER, rng.integers(2, 6))
            keyword = _pick(rng, _KEYWORD_FORMS)
            url = _pick(rng, _URL_NOISE)
            mention = _pick(rng, _MENTION_NOISE)
            pieces = [*cues, *filler, keyword, mention, url]
            rng.shuffle(pieces)
            row["text"] = " ".join(filter(None, pieces))
        if rng.random() > 0.05:
            stamp = _FIRST_TWEET + timedelta(minutes=base_minute)
            row["created_at"] = stamp.isoformat(timespec="minutes") + ":00Z"
        rows.append(row)
    return rows


def example_document(doc_id: str = "example-1") -> Document:
    """The unlabeled example sentence as a Document."""
    return make_document(doc_id, EXAMPLE_SENTENCE)


def split_documents_by_label(
    documents: Sequence[Document],
) -> dict[SentimentLabel, list[Document]]:
    """Group labeled documents by class (raises on unlabeled input)."""
    grouped: dict[SentimentLabel, list[Document]] = {
        label: [] for label in SentimentLabel
    }
    for doc in documents:
        if doc.label is None:
            raise ConfigError(f"document {doc.id!r} has no label")
        grouped[doc.label].append(doc)
    return grouped
