"""Exception types shared across the pipeline."""


class PipelineError(Exception):
    """Base class for all ppkmsent errors."""


class ConfigError(PipelineError):
    """A config file is missing, malformed, or references absent paths."""


class StageOrderError(PipelineError):
    """A stage was run before its predecessor produced the needed artifact."""

    def __init__(self, missing_artifact, hint=""):
        self.missing_artifact = str(missing_artifact)
        message = f"missing artifact: {self.missing_artifact}"
        if hint:
            message += f" ({hint})"
        super().__init__(message)


class IngestError(PipelineError):
    """A corpus file cannot be read at all (beyond per-row errors)."""


class UnknownIdError(PipelineError):
    """A verdict or label override references an id not in the corpus."""

    def __init__(self, ids):
        self.ids = sorted(ids)
        super().__init__("unknown record ids: " + ", ".join(self.ids))


class NonMonotonicClockError(PipelineError):
    """The rate limiter observed a timestamp earlier than its window start."""


class LexiconOverlapError(PipelineError):
    """A phrase appears in both the positive and the negative lexicon."""

    def __init__(self, phrases):
        self.phrases = sorted(phrases)
        super().__init__(
            "phrases present in both lexicons: " + ", ".join(self.phrases)
        )


class MissingClassError(PipelineError):
    """Training data does not cover the classes a model requires."""


class TrainingDivergedError(PipelineError):
    """A training loop produced a non-finite loss."""

    def __init__(self, epoch, step, detail=""):
        self.epoch = epoch
        self.step = step
        message = f"non-finite loss at epoch {epoch}, step {step}"
        if detail:
            message += f": {detail}"
        super().__init__(message)


class EncoderNumericsError(PipelineError):
    """A forward pass produced non-finite values (with layer context)."""


class CheckpointFormatError(PipelineError):
    """A model, checkpoint or report file has the wrong magic, version,
    shape or fields."""


class CorruptProgressError(PipelineError):
    """The review progress file failed its checksum."""
