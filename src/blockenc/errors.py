"""Exception types raised across the package."""


class BlockencError(Exception):
    """Base class for all blockenc errors."""


class EmptyMatrix(BlockencError):
    """Matrix has no nonzero entries."""


class BadDimension(BlockencError):
    """Matrix dimension is not a power of two, or above the 2**62 int64 label limit."""


class BadInput(BlockencError):
    """Malformed input (duplicate entries, length mismatch, bad file)."""


class EmptyData(BlockencError):
    """No nonzero item magnitudes to prepare."""


class BadGate(BlockencError):
    """Gate is inconsistent with the circuit it is placed in."""

    index: int | None = None  # the refused gate's position in Circuit.gates, if any


class TooLarge(BlockencError):
    """A simulation or verify array exceeds the simulation entry budget."""


class NotPowerOfTwo(BlockencError):
    """Control-set size must be a power of two."""


class NotAdjacent(BlockencError):
    """Basis states differ in more than one bit."""


class BadShift(BlockencError):
    """Shift amount outside the matrix register range."""


class BadLayout(BlockencError):
    """Operator dimension does not match the register layout."""
