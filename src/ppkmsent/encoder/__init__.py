"""Trainable transformer encoder classifier (desk-scale BERT-style stack)."""

from ppkmsent.encoder.checkpoint import load_checkpoint, save_checkpoint
from ppkmsent.encoder.config import (
    DESK_PROFILE,
    PAPER_PROFILE,
    EncoderConfig,
    TrainProfile,
    desk_config,
    paper_config,
)
from ppkmsent.encoder.model import (
    FlatTensors,
    backward,
    cross_entropy,
    forward,
    init_params,
    softmax,
)
from ppkmsent.encoder.train import EpochStats, fine_tune, history_to_csv
from ppkmsent.encoder.vocab import (
    CLS_ID,
    PAD_ID,
    SEP_ID,
    UNK_ID,
    TokenVocab,
    build_token_vocab,
    format_input,
)

__all__ = [
    "CLS_ID",
    "DESK_PROFILE",
    "EncoderConfig",
    "FlatTensors",
    "EpochStats",
    "PAD_ID",
    "PAPER_PROFILE",
    "SEP_ID",
    "TokenVocab",
    "TrainProfile",
    "UNK_ID",
    "backward",
    "build_token_vocab",
    "cross_entropy",
    "desk_config",
    "fine_tune",
    "format_input",
    "forward",
    "history_to_csv",
    "init_params",
    "load_checkpoint",
    "paper_config",
    "save_checkpoint",
    "softmax",
]
