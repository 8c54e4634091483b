"""Exception types raised across the package: ``BadInput`` for any malformed
input, its subclass ``BadGate`` for a refused gate, and ``TooLarge`` for valid
input over the simulation budget."""


class BlockencError(Exception):
    """Base class for all blockenc errors."""


class BadInput(BlockencError):
    """Malformed input: a matrix, item list, circuit, IR file or option the
    package refuses; the message says which and why."""


class BadGate(BadInput):
    """Gate is inconsistent with the circuit it is placed in."""

    index: int | None = None  # the refused gate's position in Circuit.gates, if any


class TooLarge(BlockencError):
    """A simulation or verify array exceeds the simulation entry budget."""
