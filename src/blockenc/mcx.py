"""Fusion and expansion of multi-controlled X gates sharing a target.

A set of full control labels collapses to a single gate exactly when the
labels agree on some fixed bit positions and enumerate every combination of
the remaining free positions: the set is one ``(mask, value)`` cube, and the
fused gate keeps controls only on the mask.  The reverse direction expands
one gate into such a composition by enumerating chosen don't-care positions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadExpansion, BadInput, NotPowerOfTwo, NotReducible
from .ir import Gate, mcx, pattern_select, select_pattern, x


@dataclass(frozen=True)
class ControlSet:
    """A set of P-bit basis labels, each one full control string."""

    P: int
    labels: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "labels", frozenset(self.labels))
        for v in self.labels:
            if not isinstance(v, int) or not 0 <= v < 1 << self.P:
                raise BadInput(f"bad control label {v!r} for P={self.P}")
        if not self.labels:
            raise BadInput("empty control set")


def submasks(mask: int):
    """Every submask of ``mask``, ascending."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


def is_reducible(s2: ControlSet) -> tuple[int, int] | None:
    """The (mask, value) cube equal to the set, or None if there is none.

    The mask holds the bits on which every label agrees (AND equals OR).  The
    set size must be a power of two; the full set of 2^P labels reduces to
    the empty cube (0, 0), an unconditional X.
    """
    size = len(s2.labels)
    if size & (size - 1):
        raise NotPowerOfTwo(f"control set size {size} is not a power of two")
    common, either = (1 << s2.P) - 1, 0
    for v in s2.labels:
        common &= v
        either |= v
    mask = ((1 << s2.P) - 1) & ~(common ^ either)
    # distinct labels agreeing on P - n fixed bits enumerate the other n
    if mask.bit_count() != s2.P - (size.bit_length() - 1):
        return None
    return mask, common


def reduce_composition(s2: ControlSet, target: int) -> Gate:
    """Single gate equal to the product of MCX(a, target) over a in s2.

    The ambient circuit has P + 1 qubits; ``target`` is its qubit index and
    the control labels map onto the remaining qubits in order.
    """
    cube = is_reducible(s2)
    if cube is None:
        raise NotReducible("control labels do not share a fixed sub-pattern")
    if not 0 <= target <= s2.P:
        raise BadInput(f"target {target} outside the {s2.P + 1}-qubit span")
    if not cube[0]:
        return x(target)
    return mcx(_place_controls(select_pattern(*cube, s2.P), target), target)


def _place_controls(control_pattern: str, target: int) -> str:
    """Insert an X at the target position of a control-only pattern."""
    return control_pattern[:target] + "X" + control_pattern[target:]


def control_gate(label: int, P: int, target: int) -> Gate:
    """MCX fully controlled on one P-bit label, over P + 1 qubits."""
    return mcx(_place_controls(select_pattern((1 << P) - 1, label, P), target), target)


def expand_mcx(pattern: str, target: int, grow: frozenset[int] | set[int]) -> ControlSet:
    """Expand a single gate into the composition over the grown positions.

    ``pattern`` is a full-width gate pattern (don't-care at the target);
    ``grow`` lists bit indices that are currently don't-care and get
    enumerated.  Together with the target they must cover every don't-care,
    so the result is a set of full control labels over the non-target qubits
    whose MCX product equals the original gate exactly.
    """
    width = len(pattern)
    mask, value = pattern_select(pattern, width)
    target_bit = width - 1 - target
    if mask >> target_bit & 1:
        raise BadExpansion("target position must be don't-care in the pattern")
    if target_bit in grow:
        raise BadExpansion("cannot grow over the target qubit")
    grown = 0
    for b in grow:
        if not 0 <= b < width:
            raise BadExpansion(f"bit index {b} outside the pattern")
        if mask >> b & 1:
            raise BadExpansion(f"bit {b} is already constrained")
        grown |= 1 << b
    if ((1 << width) - 1) & ~(mask | grown | 1 << target_bit):
        raise BadExpansion("pattern still has don't-care positions outside grow")
    low = (1 << target_bit) - 1
    labels = set()
    for sub in submasks(grown):
        v = value | sub
        labels.add(v >> (target_bit + 1) << target_bit | v & low)  # target bit dropped
    return ControlSet(width - 1, frozenset(labels))
