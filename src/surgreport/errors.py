"""Exception types shared across the pipeline."""

from __future__ import annotations


class SurgReportError(Exception):
    """Base class for all pipeline errors."""


class RecordError(SurgReportError):
    """Raised when a record file cannot be parsed or validated.

    Carries the source name and 1-based line number of the offending record.
    """

    def __init__(self, message: str, source: str = "<records>", line: int | None = None):
        self.source = source
        self.line = line
        location = source if line is None else f"{source}:{line}"
        super().__init__(f"{location}: {message}")


# Annotation files are record files; the name is kept for callers.
AnnotationError = RecordError


class GrammarError(SurgReportError):
    """Raised when caption text violates the clip-caption grammar.

    Carries the 0-based character offset at which parsing failed.
    """

    def __init__(self, message: str, offset: int):
        self.offset = offset
        super().__init__(f"offset {offset}: {message}")


class ConfigError(SurgReportError):
    """Raised when a pipeline configuration is missing or invalid."""


class EndpointError(SurgReportError):
    """Base class for report-generation endpoint failures."""


class MissingCredentialError(EndpointError):
    """The environment variable holding the endpoint credential is unset."""


class TransportError(EndpointError):
    """Network-level failure that persisted through all retry attempts."""


class EndpointStatusError(EndpointError):
    """The endpoint answered with a non-success HTTP status."""

    def __init__(self, message: str, status: int):
        self.status = status
        super().__init__(message)
