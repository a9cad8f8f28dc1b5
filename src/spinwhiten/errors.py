"""Exception types shared across the simulator.

Every error raised by the public API derives from SpinWhitenError so callers
can catch domain failures without masking programming errors. A class exists
only where some caller tells it apart: the command line maps ProtocolError
and QubitCountExceeded to one exit code and the base class to another,
PulseSyntaxError and ProtocolError carry the line (and column) of the
offending statement, and OutOfRange is also a ValueError. Every other
failure is an OutOfRange whose message says what was refused.
"""


class SpinWhitenError(Exception):
    """Base class for all simulator errors."""


class QubitCountExceeded(SpinWhitenError):
    """Requested register is larger than the configured maximum."""


class OutOfRange(SpinWhitenError, ValueError):
    """Argument, state or result the operation does not accept."""


# --- pulse-program DSL ------------------------------------------------------

class PulseSyntaxError(SpinWhitenError):
    """Malformed pulse-program source.

    Carries the source name and the 1-based line and column of the token.
    """

    def __init__(self, line: int, column: int, message: str, source: str = "<string>"):
        super().__init__(f"{source}:line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class ProtocolError(SpinWhitenError):
    """Statement order violates the acquisition protocol.

    Carries the source name and the 1-based line of the offending statement.
    """

    def __init__(self, line: int, message: str, source: str = "<string>"):
        super().__init__(f"{source}:line {line}: {message}")
        self.line = line
