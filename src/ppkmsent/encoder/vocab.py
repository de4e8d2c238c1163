"""Token vocabulary and fixed-length input formatting for the encoder."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ppkmsent.errors import ConfigError
from ppkmsent.preprocess import TokenIds, rank_tokens, sequence_ids

PAD_TOKEN = "[PAD]"
UNK_TOKEN = "[UNK]"
CLS_TOKEN = "[CLS]"
SEP_TOKEN = "[SEP]"

PAD_ID = 0
UNK_ID = 1
CLS_ID = 2
SEP_ID = 3

RESERVED_TOKENS = (PAD_TOKEN, UNK_TOKEN, CLS_TOKEN, SEP_TOKEN)


@dataclass(frozen=True)
class TokenVocab:
    """Immutable token-to-id mapping with the four reserved entries first."""

    token_to_id: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for expected_id, token in enumerate(RESERVED_TOKENS):
            if self.token_to_id.get(token) != expected_id:
                raise ConfigError(
                    f"token vocabulary must map {token!r} to id {expected_id}"
                )
        ids = sorted(self.token_to_id.values())
        if ids != list(range(len(ids))):
            raise ConfigError("token vocabulary ids must be contiguous from 0")

    @property
    def size(self) -> int:
        return len(self.token_to_id)

    def tokens_in_id_order(self) -> list[str]:
        return sorted(self.token_to_id, key=self.token_to_id.__getitem__)

    def to_dict(self) -> dict:
        return {"tokens": self.tokens_in_id_order()}

    @classmethod
    def from_dict(cls, data: dict) -> "TokenVocab":
        tokens = data.get("tokens") if isinstance(data, dict) else None
        if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
            raise ConfigError("token vocabulary payload must hold a token list")
        return cls(token_to_id={tok: i for i, tok in enumerate(tokens)})


def build_token_vocab(documents: TokenIds, min_count: int = 1) -> TokenVocab:
    """Build a vocabulary from the documents' token ids.

    Content tokens follow the four reserved entries in
    :func:`~ppkmsent.preprocess.rank_tokens` order.
    """
    if min_count < 1:
        raise ConfigError(f"min_count must be >= 1, got {min_count}")
    _, ids, seen = documents
    counts = dict(zip(seen, np.bincount(ids, minlength=len(seen)).tolist()))
    for reserved in RESERVED_TOKENS:
        counts.pop(reserved, None)
    # a token of the id table that the documents do not use counts 0, below
    # every min_count
    tokens = [*RESERVED_TOKENS, *rank_tokens(counts, min_count)]
    return TokenVocab(token_to_id={tok: i for i, tok in enumerate(tokens)})


def input_rows(
    documents: TokenIds, vocab: TokenVocab, max_sequence_length: int
) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-length id (int64) and mask (float64) rows, one per document,
    laid out in numpy.

    Layout: ``[CLS]``, then content tokens truncated to ``max_sequence_length
    - 2`` (``[UNK]`` for a token not in the vocabulary), then ``[SEP]``, then
    ``[PAD]`` up to the full length.  The mask is 1.0 at every non-pad
    position and 0.0 at pad positions.
    """
    if max_sequence_length < 3:
        raise ConfigError(
            f"max_sequence_length must be >= 3, got {max_sequence_length}"
        )
    lengths = documents.lengths
    content = documents.lookup(vocab.token_to_id, UNK_ID)
    kept = max_sequence_length - 2
    # a token's position in its document: keep the first ``kept``
    starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
    content = content[np.arange(len(content)) - starts < kept]
    lengths = np.minimum(lengths, kept)
    columns = np.arange(max_sequence_length)
    ids = np.full((len(lengths), max_sequence_length), PAD_ID, dtype=np.int64)
    ids[:, 0] = CLS_ID
    # a boolean index fills in row-major order: a row's content token j
    # lands in column 1 + j
    ids[:, 1:][np.greater.outer(lengths, columns[:-1])] = content
    ids[np.arange(len(lengths)), lengths + 1] = SEP_ID
    return ids, np.greater.outer(lengths + 2, columns).astype(np.float64)


def format_input(
    tokens: Sequence[str], vocab: TokenVocab, max_sequence_length: int
) -> tuple[np.ndarray, np.ndarray]:
    """One token sequence's id and mask arrays: the one row of
    :func:`input_rows`."""
    ids, mask = input_rows(sequence_ids([tokens]), vocab, max_sequence_length)
    return ids[0], mask[0]
