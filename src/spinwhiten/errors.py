"""Exception types shared across the simulator.

Every error raised by the public API derives from SpinWhitenError so callers
can catch domain failures without masking programming errors.
"""


class SpinWhitenError(Exception):
    """Base class for all simulator errors."""


# --- quantum register -------------------------------------------------------

class IndexOutOfRange(SpinWhitenError):
    """Basis index does not fit the register size."""


class QubitCountExceeded(SpinWhitenError):
    """Requested register is larger than the configured maximum."""


class InvalidQubitIndex(SpinWhitenError):
    """Gate references a qubit outside the register."""


class QubitCountMismatch(SpinWhitenError):
    """Circuit and state disagree on register size."""


class OracleScaleExceeded(SpinWhitenError):
    """Dense-matrix oracle requested beyond its size guard."""


# --- spin ensemble ----------------------------------------------------------

class NotTransverse(SpinWhitenError):
    """Operation requires every spin in the transverse plane."""


# --- signal path ------------------------------------------------------------

class NotPowerOfTwo(SpinWhitenError):
    """Trace length must be an exact power of two."""


class LineAboveNyquist(SpinWhitenError):
    """Spectral line frequency exceeds the Nyquist limit of the trace."""


class LengthMismatch(SpinWhitenError):
    """Traces to be combined differ in length or dwell time."""


class EmptyInput(SpinWhitenError):
    """At least one trace is required."""


class WindowOverlap(SpinWhitenError):
    """Peak and noise windows must be disjoint."""


class EmptyWindow(SpinWhitenError):
    """A bin window must select at least one bin."""


class ZeroNoiseFloor(SpinWhitenError):
    """Noise window RMS is indistinguishable from zero."""


class OutOfRange(SpinWhitenError, ValueError):
    """Numeric argument or result outside its documented range."""


# --- pulse-program DSL ------------------------------------------------------

class PulseSyntaxError(SpinWhitenError):
    """Malformed pulse-program source.

    Carries the source name and the 1-based line and column of the token.
    """

    def __init__(self, line: int, column: int, message: str, source: str = "<string>"):
        super().__init__(f"{source}:line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message


class ProtocolError(SpinWhitenError):
    """Statement order violates the acquisition protocol.

    Carries the source name and the 1-based line of the offending statement.
    """

    def __init__(self, line: int, message: str, source: str = "<string>"):
        super().__init__(f"{source}:line {line}: {message}")
        self.line = line
        self.message = message
