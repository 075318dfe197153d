"""Exception hierarchy shared across the package.

Three umbrella classes map onto the CLI exit-code contract: ConfigError
exits 2, DataError exits 3, NumericError exits 4. Everything else is a
programming/contract violation and derives from AnswergenError directly.
"""


class AnswergenError(Exception):
    """Base class for all package errors."""


class ConfigError(AnswergenError):
    """Bad configuration value or file (CLI exit 2)."""


class DataError(AnswergenError):
    """Malformed or inconsistent input data (CLI exit 3)."""


class NumericError(AnswergenError):
    """Non-finite values encountered in numeric computation (CLI exit 4)."""


# --- autodiff ---

class ShapeMismatchError(AnswergenError):
    pass


class NonFiniteValueError(NumericError):
    pass


class NonFiniteGradientError(NumericError):
    pass


class TapeConsumedError(AnswergenError):
    """A tape may be consumed by backward exactly once."""


# --- text pipeline ---

class EmptyCorpusError(DataError):
    pass


class EmptyQuestionError(DataError):
    pass


class EmptyPassageError(DataError):
    pass


class MalformedLineError(DataError):
    def __init__(self, line_number: int, message: str, path=None):
        super().__init__(f"{path or ''} line {line_number}: {message}".lstrip())
        self.line_number = line_number


class DimensionMismatchError(DataError):
    pass


# --- seq2seq / selectors ---

class EmptySequenceError(AnswergenError):
    pass


class EmptyFactSetError(AnswergenError):
    pass


class DegenerateDistributionError(NumericError):
    pass


class InvalidScheduleError(ConfigError):
    pass


# --- trainer ---

class NonFiniteLossError(NumericError):
    pass


class VersionMismatchError(DataError):
    pass


class CorruptFileError(DataError):
    pass


# --- metrics ---

class EmptyInputError(DataError):
    pass


class LengthMismatchError(DataError):
    pass
