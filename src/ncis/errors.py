"""Shared exception types for the ncis package."""


class NcisError(Exception):
    """Base class for all errors raised by this package."""


class ContractError(NcisError, ValueError):
    """A caller violated a documented precondition (bad shape, range, label...)."""


class NumericError(NcisError, ArithmeticError):
    """A computation produced or encountered a non-finite value."""


class SamplingError(NcisError, RuntimeError):
    """Outlier sampling was given a threshold no draw can pass."""


class ParseError(NcisError, ValueError):
    """A configuration file or value could not be parsed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ArtifactError(NcisError, RuntimeError):
    """An artifact file is missing, corrupt, stale, or has the wrong schema."""


class PipelineError(NcisError, RuntimeError):
    """A pipeline stage failed; the message is tagged with the stage name."""
