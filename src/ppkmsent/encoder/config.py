"""Hyperparameter containers for the encoder classifier.

Two named setups ship with the package:

* the *paper* profile is the full-size BERT-base shaped stack
  (batch 32, 10 epochs, learning rate 3e-6), and
* the *desk* profile is a small stack with the same architecture that trains
  in seconds on a laptop CPU and is used by the test suite.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from ppkmsent.errors import ConfigError

# full-size architecture constants behind the "paper" profile; kept as
# named constants so configuration files can request this stack explicitly.
PAPER_NUM_LAYERS = 12
PAPER_NUM_HEADS = 12
PAPER_HIDDEN_SIZE = 768
PAPER_FEEDFORWARD_SIZE = 3072
PAPER_MAX_SEQUENCE_LENGTH = 128


@dataclass(frozen=True)
class EncoderConfig:
    """Architecture description for one encoder stack."""

    num_layers: int = 2
    num_heads: int = 4
    hidden_size: int = 64
    feedforward_size: int = 128
    max_sequence_length: int = 64
    vocab_size: int = 0
    num_classes: int = 3
    dropout_rate: float = 0.1
    layer_norm_eps: float = 1e-12

    def __post_init__(self) -> None:
        if self.num_layers < 1:
            raise ConfigError(f"num_layers must be >= 1, got {self.num_layers}")
        if self.num_heads < 1:
            raise ConfigError(f"num_heads must be >= 1, got {self.num_heads}")
        if self.hidden_size < 1:
            raise ConfigError(f"hidden_size must be >= 1, got {self.hidden_size}")
        if self.hidden_size % self.num_heads != 0:
            raise ConfigError(
                f"hidden_size {self.hidden_size} is not divisible by "
                f"num_heads {self.num_heads}"
            )
        if self.feedforward_size < 1:
            raise ConfigError(
                f"feedforward_size must be >= 1, got {self.feedforward_size}"
            )
        if self.max_sequence_length < 3:
            # every formatted input needs room for [CLS], [SEP] and one token
            raise ConfigError(
                f"max_sequence_length must be >= 3, got {self.max_sequence_length}"
            )
        if self.vocab_size < 0:
            raise ConfigError(f"vocab_size must be >= 0, got {self.vocab_size}")
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(
                f"dropout_rate must lie in [0, 1), got {self.dropout_rate}"
            )
        if self.layer_norm_eps <= 0.0:
            raise ConfigError(
                f"layer_norm_eps must be positive, got {self.layer_norm_eps}"
            )

    @property
    def head_size(self) -> int:
        return self.hidden_size // self.num_heads

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "EncoderConfig":
        unknown = sorted(set(data) - set(cls.__dataclass_fields__))
        if unknown:
            raise ConfigError(f"unknown encoder config keys: {unknown}")
        return cls(**data)


@dataclass(frozen=True)
class TrainProfile:
    """Optimisation schedule for fine-tuning."""

    batch_size: int = 32
    epochs: int = 10
    learning_rate: float = 3e-6
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        # zero is allowed as a degenerate no-update schedule
        if not math.isfinite(self.learning_rate) or self.learning_rate < 0.0:
            raise ConfigError(
                f"learning_rate must be finite and >= 0, got {self.learning_rate}"
            )
        if not 0.0 <= self.adam_beta1 < 1.0 or not 0.0 <= self.adam_beta2 < 1.0:
            raise ConfigError("adam betas must lie in [0, 1)")
        if self.adam_epsilon <= 0.0:
            raise ConfigError(
                f"adam_epsilon must be positive, got {self.adam_epsilon}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TrainProfile":
        unknown = sorted(set(data) - set(cls.__dataclass_fields__))
        if unknown:
            raise ConfigError(f"unknown train profile keys: {unknown}")
        return cls(**data)


# full-size fine-tuning schedule.
PAPER_PROFILE = TrainProfile(batch_size=32, epochs=10, learning_rate=3e-6, seed=0)

# schedule for the small stack; the higher learning rate compensates for
# training from random init instead of from a pretrained checkpoint.
DESK_PROFILE = TrainProfile(batch_size=32, epochs=10, learning_rate=1e-3, seed=0)


def paper_config(vocab_size: int, dropout_rate: float = 0.1) -> EncoderConfig:
    """Full-size BERT-base shaped architecture."""
    return EncoderConfig(
        num_layers=PAPER_NUM_LAYERS,
        num_heads=PAPER_NUM_HEADS,
        hidden_size=PAPER_HIDDEN_SIZE,
        feedforward_size=PAPER_FEEDFORWARD_SIZE,
        max_sequence_length=PAPER_MAX_SEQUENCE_LENGTH,
        vocab_size=vocab_size,
        dropout_rate=dropout_rate,
    )


def desk_config(vocab_size: int, dropout_rate: float = 0.1) -> EncoderConfig:
    """Small architecture that trains quickly on a CPU."""
    return EncoderConfig(
        num_layers=2,
        num_heads=4,
        hidden_size=64,
        feedforward_size=128,
        max_sequence_length=64,
        vocab_size=vocab_size,
        dropout_rate=dropout_rate,
    )
