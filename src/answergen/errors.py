"""Exception hierarchy shared across the package.

A class's ``kind`` and ``exit_code`` attributes are its CLI contract: the three
umbrellas set them, and every other class inherits them (a programming or
contract violation derives from AnswergenError directly)."""


class AnswergenError(Exception):
    """Base class for all package errors."""
    kind, exit_code = "internal", 1


class ConfigError(AnswergenError):
    """Bad configuration value or file."""
    kind, exit_code = "config", 2


class DataError(AnswergenError):
    """Malformed or inconsistent input data."""
    kind, exit_code = "data", 3


class NumericError(AnswergenError):
    """Non-finite values encountered in numeric computation."""
    kind, exit_code = "numeric", 4


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
