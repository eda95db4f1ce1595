"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Operands have incompatible lengths or shapes."""


class InvalidPairError(ValueError):
    """Two codes do not form a valid nested pair."""


class NotInCodeError(ValueError):
    """A word required to be a codeword is not one."""


class LineError(ValueError):
    """An error in a file the program reads, whose message starts with the
    line it is on when that is known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ConfigError(LineError):
    """Invalid run configuration (parameters, attack spec, code files)."""


class InsufficientSiftAbort(Exception):
    """Too few basis-matched positions survived sifting; restart-signaling,
    distinct from a security abort."""


class ProtocolDesyncError(Exception):
    """Internal consistency violation between the two parties (bug surface)."""


class TranscriptError(LineError):
    """Malformed transcript or measurement-record file."""
