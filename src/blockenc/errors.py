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


class TooLarge(BlockencError):
    """Circuit exceeds the dense-simulation qubit budget."""


class NotPowerOfTwo(BlockencError):
    """Control-set size must be a power of two."""


class NotAdjacent(BlockencError):
    """Basis states differ in more than one bit."""


class BadShift(BlockencError):
    """Shift amount outside the matrix register range."""


class BadLayout(BlockencError):
    """Operator dimension does not match the register layout."""
