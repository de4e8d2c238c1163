"""Seeded raw-tweet dumps for the benchmark workloads.

Every dump starts from ``ppkmsent.fixtures.synthetic_tweets`` and appends
filler words drawn from a Zipf distribution over a fixed list of
pseudo-words.  The bundled fixture has only about 40 distinct tokens, which
hides every cost that grows with the vocabulary; real tweet collections
have thousands.  Pseudo-words never collide with a lexicon entry, a
stopword, a fixture word or a tracked keyword, so the lexicon labels of
the underlying fixture rows are unchanged.

``zipf_tweets`` makes one fixture row plus filler per record (short
tweets, mean about 13 tokens after cleaning).  It is a pure function of
its arguments.

Dumps larger than ``CHUNK_ROWS`` are concatenated from independently
seeded fixture chunks: the fixture's duplicate draw is quadratic in its
row count, and its timestamps run past the end of the month after about
16.8k rows.  Filler is shared across chunks, so a fixture text repeated
in two chunks is still a duplicate after filler is added.
"""

from __future__ import annotations

import itertools
import statistics

import numpy as np

from ppkmsent import fixtures
from ppkmsent.data import default_lexicon, default_stopwords

ZIPF_EXPONENT = 1.1
PSEUDO_WORD_COUNT = 20_000
# filler words appended to each fixture row: uniform on [low, high)
FILLER_RANGE = (3, 13)
_CONSONANTS = "bdgklmnprst"
_VOWELS = "aiueo"
# the word list is part of the benchmark definition, not of a workload,
# so it uses its own fixed seed
_WORD_LIST_SEED = 20_230_101
# rows per fixture call; bounds the fixture's quadratic duplicate draw
CHUNK_ROWS = 1000


def pseudo_words(count: int = PSEUDO_WORD_COUNT) -> list[str]:
    """``count`` distinct three-syllable words in a fixed shuffled order."""
    lexicon = default_lexicon()
    reserved = set(default_stopwords().words)
    for phrase in lexicon.positive | lexicon.negative:
        reserved.update(phrase.split())
    reserved.update(
        fixtures.NEGATIVE_CUES
        + fixtures.POSITIVE_CUES
        + fixtures.NEUTRAL_CUES
        + fixtures.SHARED_FILLER
    )
    # consonant-vowel syllables can never spell the keywords "ppkm" or
    # "jakarta", so no filler word makes an off-topic row relevant
    syllables = [c + v for c in _CONSONANTS for v in _VOWELS]
    words = [
        "".join(parts)
        for parts in itertools.product(syllables, repeat=3)
        if "".join(parts) not in reserved
    ]
    rng = np.random.Generator(np.random.PCG64(_WORD_LIST_SEED))
    order = rng.permutation(len(words))[:count]
    return [words[i] for i in order]


class _FillerSource:
    """Zipf-ranked draws over the pseudo-word list."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self.words = pseudo_words()
        weights = np.arange(1, len(self.words) + 1, dtype=np.float64) ** -ZIPF_EXPONENT
        self.cdf = np.cumsum(weights / weights.sum())

    def draw(self) -> list[str]:
        count = int(self.rng.integers(*FILLER_RANGE))
        ranks = np.searchsorted(self.cdf, self.rng.random(count), side="right")
        return [self.words[min(r, len(self.words) - 1)] for r in ranks]


def _fixture_rows(n: int, seed: int) -> list[dict]:
    """``n`` fixture rows from chunks of at most ``CHUNK_ROWS``, ids renumbered."""
    rows: list[dict] = []
    for chunk, start in enumerate(range(0, n, CHUNK_ROWS)):
        chunk_seed = int(np.random.SeedSequence([seed, chunk]).generate_state(1)[0])
        rows.extend(
            fixtures.synthetic_tweets(min(CHUNK_ROWS, n - start), seed=chunk_seed)
        )
    for i, row in enumerate(rows):
        row["id"] = f"tw-{i:06d}"
    return rows


def _with_filler(rows: list[dict], source: _FillerSource) -> list[str]:
    """Row texts plus filler; a repeated fixture text gets the same filler."""
    extended: dict[str, str] = {}
    texts = []
    for row in rows:
        text = row["text"]
        if text not in extended:
            extended[text] = " ".join([text, *source.draw()])
        texts.append(extended[text])
    return texts


def zipf_tweets(n: int, seed: int) -> list[dict]:
    """``n`` raw records: fixture rows with Zipf filler appended."""
    rows = _fixture_rows(n, seed)
    source = _FillerSource(np.random.Generator(np.random.PCG64([seed, 1])))
    for row, text in zip(rows, _with_filler(rows, source)):
        row["text"] = text
    return rows


def describe(token_lists: list[list[str]], max_sequence_length: int) -> dict:
    """Token-level properties of a labeled corpus.

    ``pad_efficiency`` is the share of encoder input positions that hold a
    real token (including ``[CLS]`` and ``[SEP]``) when every document is
    padded to ``max_sequence_length``.
    """
    lengths = [len(tokens) for tokens in token_lists]
    used = [min(n + 2, max_sequence_length) for n in lengths]
    return {
        "documents": len(lengths),
        "distinct_tokens": len({tok for tokens in token_lists for tok in tokens}),
        "tokens_mean": statistics.fmean(lengths),
        "tokens_max": max(lengths),
        "truncated_share": sum(n + 2 > max_sequence_length for n in lengths)
        / len(lengths),
        "pad_efficiency": sum(used) / (len(used) * max_sequence_length),
    }
