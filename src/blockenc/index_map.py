"""Index-map gates: shift cascades and delete/insert flips, fused per group.

A left shift by 2**k increments the matrix register (adding 2**k), realized
as a carry cascade of MCX gates over the top n-k matrix qubits; a right shift
decrements (controls at 0 instead of 1).  Deleting an item in a row flips the
delete qubit under controls on the item slot and the row.  Inserting is a
delete from every row followed by a delete on the wanted rows, which cancels
there.

This module is the one place that turns a group of item labels into gates,
for the compiler and the tests alike:

- ``shift_group``: ``plan_fusion`` over the items sharing one shift, then one
  cascade per fused subgroup;
- ``delete_group``: a cube cover of the items' data labels, times the
  ``delete_rows_plan`` of their shared row set;
- ``insert_stage``: one delete-qubit flip per cube of every inserted label,
  then one delete group per row set.

A set of control labels sharing a target collapses to one gate exactly when
it is a ``(mask, value)`` cube: the labels agree on the mask bits and
enumerate every combination of the others (``is_reducible``).  A fusion plan
fuses such a set directly, and otherwise wraps the gate in a coherent
permutation that relocates the labels onto a cube first (``_emit_plan``).
A padded set that is not a cube is priced by a swap-count bound before it
is solved; ``plan_fusion`` states the bound and decides the one target cube
that both the bound and the route use.  ``shift_cascade`` and
``delete_flip`` are the per-item gates, which the unfused baseline uses
directly.

Item labels and row indices are ints, a label set is a list of distinct ints
with its width alongside, and every control set, in a plan or on a gate, is
a cube (see ``ir``).  ``RegisterLayout.controls`` lifts register cubes to a
gate's full width, once per cascade.  A group's shift is checked once, not
once per cascade, and a subgroup without swaps is its core gates alone, with
no embedding.  The gates are built unchecked: the compiled circuit checks
each one (see ``ir``).

The disjoint cube cover (``_greedy_cubes``) returns a set that is itself a
cube as its own cover, without a search: the largest cube inside a cube is
that cube, so the short path is exact.  Many of a random matrix's covers are
such sets: the two items, real and imaginary, of one complex value.  Any
other set it searches for its largest cubes directly: one depth-first search
per dimension splits the labels on their highest differing bit, carries the
free bits chosen so far down, and takes every wholly uncovered cube into the
cover as it finds it.  It holds a label set
as bitmaps, one per window of the labels' low w bits, with w the widest
window that keeps the bitmaps within 64 bits per label
(``_window_width``): a set in one window splits by a mask, a shift and an
AND, and a set over several windows splits its windows first.  Its memory
follows the labels at every width up to 62, and no table grows with
2**width.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_, or_

from .assignment import (FixedIndexPolicy, build_target_set, mode_pattern, solve_assignment,
                         submasks)
from .errors import BadInput
from .ir import Cube, Gate, RegisterLayout, embed_gates, gate_of, instance, integer, mcx
from .permute import basis_swap, route_permutation


def is_reducible(labels, P: int) -> Cube | None:
    """The cube equal to a set of distinct P-bit labels, or None if there is none.

    The mask holds the bits on which every label agrees (AND equals OR).  The
    set size must be a power of two; the full set of 2^P labels reduces to
    the empty cube (0, 0), an unconditional X.
    """
    P = integer(P, "label width P")
    if P < 0:
        raise BadInput(f"label width P must be >= 0, got {P}")
    try:
        size = len(labels)
        cube = _cube_of(labels, P) if size and not size & (size - 1) else None
    except TypeError:
        raise BadInput(f"labels must be a collection of integers, got {labels!r}") from None
    if not size or size & (size - 1):
        raise BadInput(f"control set size {size} is not a power of two")
    return cube


def _cube_of(labels, P: int) -> Cube | None:
    """The cube equal to a power-of-two collection of distinct P-bit labels, or None.

    The mask holds the bits on which every label agrees (AND equals OR).
    """
    full = (1 << P) - 1
    common, either = reduce(and_, labels, full), reduce(or_, labels, 0)
    mask = full & ~(common ^ either)
    # distinct labels agreeing on P - n fixed bits enumerate the other n
    if mask.bit_count() != P - (len(labels).bit_length() - 1):
        return None
    return mask, common


def shift_cascade(data: Cube, direction: str, amount: int,
                  layout: RegisterLayout) -> list[Gate]:
    """MCX cascade cyclically shifting the matrix register for the data cube."""
    k = _shift_bit(direction, amount, layout)
    return _cascade(layout.controls(data), direction == "L", k, layout)


def _shift_bit(direction: str, amount: int, layout: RegisterLayout) -> int:
    """k of a shift by amount = 2**k on the layout's matrix register, or
    BadInput unless the shift is one."""
    n = instance(layout, RegisterLayout, "layout").n
    amount = integer(amount, "shift amount")
    if amount <= 0 or amount & (amount - 1) or amount >= (1 << n):
        raise BadInput(f"shift amount {amount} invalid for n={n}")
    if direction not in ("L", "R"):
        raise BadInput(f"direction must be L or R, got {direction!r}")
    return amount.bit_length() - 1


def _cascade(controls: Cube, up: bool, k: int, layout: RegisterLayout) -> list[Gate]:
    """The cascade of a checked shift by 2**k, left if ``up``, under full-width controls.

    Matrix bit b sits on qubit total-1-b; its gate, highest b first, is
    controlled on bits k .. b-1, at 1 for a left shift and at 0 for a right one.
    """
    mask, value = controls
    last = layout.total - 1
    return [gate_of(("mcx", last - b, (mask | carry, value | carry if up else value), 0.0))
            for b in range(layout.n - 1, k - 1, -1) for carry in ((1 << b) - (1 << k),)]


def _sorted_labels(labels, width: int, what: str) -> list[int]:
    """The labels as ints, ascending, or BadInput naming ``what`` unless they
    are distinct integers in 0 .. 2**width - 1."""
    try:
        labels = sorted(labels)
    except TypeError:
        raise BadInput(f"{what} must be an iterable of integers, got {labels!r}") from None
    for v in labels:
        if type(v) is not int:  # numpy integers, or not integers at all
            labels = [integer(v, what) for v in labels]
            break
    if labels and (labels[0] < 0 or labels[-1] >> width):
        raise BadInput(f"{what} must lie in 0 .. 2**{width} - 1")
    if len(set(labels)) < len(labels):
        again = next(a for a, b in zip(labels, labels[1:]) if a == b)
        raise BadInput(f"{what} must be distinct, but {again} repeats")
    return labels


def delete_flip(layout: RegisterLayout, data: Cube, matrix: Cube = (0, 0)) -> Gate:
    """Flip the delete qubit under data (and optionally matrix) cube controls."""
    return mcx(layout.controls(data, matrix), layout.del_qubit)


def _window_width(labels: list[int], width: int) -> int:
    """Bits of the windows a cover keeps its label bitmaps in, for sorted labels.

    The largest w <= width for which the windows ``label >> w`` that hold a
    label, at 2**w bits each, take at most 64 bits per label.  The labels
    fill one window more than there are neighbouring labels whose highest
    differing bit is w or above, so one pass over the neighbours counts the
    windows at every w.
    """
    budget = 64 * len(labels)
    if 1 << width <= budget:
        return width
    differ = [0] * (width + 1)  # differ[b]: neighbours whose highest differing bit is b - 1
    for a, b in zip(labels, labels[1:]):
        differ[(a ^ b).bit_length()] += 1
    w, windows = width, 1
    while windows << w > budget:
        windows += differ[w]
        w -= 1
    return w


class _CoverSearch:
    """The state of one disjoint cube cover: its uncovered labels and its cubes.

    A label set is a dict from window (``label >> w``) to a bitmap of the
    window's low w bits, bit i for label ``window << w | i``, with the
    windows ascending and none empty; ``w`` is ``_window_width``, so the
    bitmaps take at most 64 bits per label at any width.  Each step of the
    search is a few operations on whole bitmaps.
    """

    def __init__(self, labels: list[int], width: int):
        self.w = _window_width(labels, width)
        self.inside = (1 << self.w) - 1  # a label's bits inside its window
        self.full = (1 << width) - 1
        self.uncovered: dict[int, int] = {}
        for v in labels:
            key = v >> self.w
            self.uncovered[key] = self.uncovered.get(key, 0) | 1 << (v & self.inside)
        self.left = len(labels)
        self.cover: list[Cube] = []

    def windows(self, node: dict[int, int], dim: int, free: int) -> None:
        """Take each dim-cube inside a label set, in pattern order.

        The labels agree on every bit above the highest one their windows
        differ on, and hold 0 on the ``free`` bits chosen so far, so each
        stands for the cube over them.  Pattern order compares from q0, the
        top bit, with '0' < '1' < 'X'.  The set splits on that highest bit
        into ``low``, ``high`` and the ``low`` labels whose ``high`` twin is
        there (that bit free), searched in that order, and a branch with
        fewer than 2**dim labels is never entered.  A set in one window goes
        on in ``bits``; at dimension 0 its labels are the cubes, for ``take``.
        """
        if not dim:
            for key, labels in node.items():
                self.take(key, 0, labels, free)
            return
        if len(node) == 1:
            ((key, labels),) = node.items()
            self.bits(key, 0, labels, dim, free)
            return
        top = 1 << (next(iter(node)) ^ next(reversed(node))).bit_length() - 1
        low = {k: b for k, b in node.items() if not k & top}
        high = {k: b for k, b in node.items() if k & top}
        both = {k: twins for k, b in low.items() if (twins := b & node.get(k | top, 0))}
        size = 1 << dim
        if _count(low) >= size:
            self.windows(low, dim, free)
        if _count(high) >= size:
            self.windows(high, dim, free)
        if _count(both) >= size >> 1:
            self.windows(both, dim - 1, free | top << self.w)

    def bits(self, key: int, base: int, labels: int, dim: int, free: int) -> None:
        """``windows`` inside one window: bit i of ``labels`` is label ``base | i``.

        The labels agree above the highest bit their lowest and highest
        differ on; that prefix joins ``base``, and the bitmap splits on that
        bit by a mask, a shift and an AND.
        """
        first = (labels & -labels).bit_length() - 1
        vary = (first ^ labels.bit_length() - 1).bit_length()
        prefix = first >> vary << vary
        labels >>= prefix
        base |= prefix
        half = 1 << vary - 1
        low, high = labels & (1 << half) - 1, labels >> half
        size = 1 << dim
        if low.bit_count() >= size:
            self.bits(key, base, low, dim, free)
        if high.bit_count() >= size:
            self.bits(key, base | half, high, dim, free)
        both = low & high
        if dim == 1:
            if both:
                self.take(key, base, both, free | half)
        elif both.bit_count() >= size >> 1:
            self.bits(key, base, both, dim - 1, free | half)

    def take(self, key: int, base: int, labels: int, free: int) -> None:
        """Take, ascending, every cube (``full ^ free``, label) wholly uncovered.

        The cubes of one call are disjoint, since their labels differ off
        the free bits, so they are tested and taken together: an uncovered
        bitmap ANDed with itself shifted by each free bit inside the window,
        over the windows the free bits above it reach.  The branch sets are
        not updated as cubes are taken, so this test catches a cube that
        overlaps one taken before it.
        """
        inside = free & self.inside
        steps = []  # the free bits inside the window, as bitmap shifts
        while inside:
            steps.append(inside & -inside)
            inside &= inside - 1
        if free > self.inside:
            keys = [key | sub for sub in submasks(free >> self.w)]
            fit = -1
            for k in keys:
                fit &= self.uncovered.get(k, 0)
        else:
            keys, fit = (key,), self.uncovered.get(key, 0)
        fit = fit >> base & (1 << labels.bit_length() + (free & self.inside)) - 1
        for step in steps:
            fit &= fit >> step
        taken = labels & fit
        if not taken:
            return
        cubes = taken
        for step in steps:
            cubes |= cubes << step
        cubes <<= base
        for k in keys:
            self.uncovered[k] ^= cubes
            if not self.uncovered[k]:
                del self.uncovered[k]
        self.left -= cubes.bit_count() * len(keys)
        mask, value = self.full ^ free, key << self.w | base
        while taken:
            low = taken & -taken
            self.cover.append((mask, value | low.bit_length() - 1))
            taken ^= low


def _count(node: dict[int, int]) -> int:
    """Labels in a windowed label set."""
    return sum(labels.bit_count() for labels in node.values())


def _greedy_cubes(labels, width: int) -> list[Cube]:
    """Disjoint cover of the labels by (mask, value) cubes, largest cube first.

    Each pick is the largest cube inside the uncovered labels, with the
    smallest pattern on ties: from the top dimension down to 0, every cube
    still wholly uncovered is taken in pattern order as ``_CoverSearch``
    finds it, so the labels left for dimension 0 are taken in ascending
    order.  The search holds the labels as bitmaps over windows of
    ``_window_width`` bits, at most 64 bits per label, so its memory
    follows the labels at every width.  A set that is a cube needs no
    search: it is its own cover.
    """
    labels = sorted(set(labels))
    if not labels:
        return []
    size = len(labels)
    if not size & (size - 1) and (cube := _cube_of(labels, width)) is not None:
        return [cube]  # the largest cube inside a cube is the cube itself
    search = _CoverSearch(labels, width)
    for dim in range(len(labels).bit_length() - 1, -1, -1):
        if search.left >= 1 << dim:
            search.windows(dict(search.uncovered), dim, 0)
    return search.cover


@dataclass
class SubFusion:
    """One fused gate group: a control cube, optionally permute-wrapped."""

    cube: Cube                           # register-local (mask, value)
    swaps: tuple[tuple[int, int], ...] = ()  # register-local routed label swaps


@dataclass
class FusionPlan:
    """How a set of register labels is realized as fused gates."""

    mode: str                            # direct | permute | partition | padded | padded-permute
    subgroups: list[SubFusion]
    pads: tuple[int, ...] = ()

    def total_count(self, core_cost: int) -> int:
        """Gates when every subgroup's core is restored after its permutation."""
        return core_cost * len(self.subgroups) + 2 * sum(len(g.swaps) for g in self.subgroups)


def _permute_subgroup(labels: list[int], P: int, cube: Cube) -> SubFusion:
    """Route the labels onto the given (mask, value) cube, of their own size."""
    pairs = solve_assignment(labels, build_target_set(*cube, P), P)
    return SubFusion(cube, tuple(route_permutation(pairs, P)))


def plan_fusion(labels: list[int], P: int, *, zero_slots: tuple[int, ...] = (),
                policy: FixedIndexPolicy = FixedIndexPolicy.RIGHT_ENDED,
                core_cost: int = 1) -> FusionPlan:
    """Decide how to realize one gate over several P-bit control labels.

    Reducible sets fuse directly.  Irreducible power-of-two sets get a
    permutation wrap.  Other sizes either borrow zero-amplitude slots up to
    the next power of two or fall back to a disjoint cube cover, whichever
    costs fewer gates (ties prefer padding); no ``zero_slots`` means no
    padding.  The cover's cost follows the labels and their cubes.

    The member set, pads included, is tested for a cube once.  A set that is
    not a cube is routed onto the target cube ``(mask, value)``: the
    policy's fixed bits, holding the members' most frequent value there.  The
    cube is decided here, once, for both the bound and the route.  Every
    routed swap exchanges two labels one bit apart, so it brings at most one
    member one mask bit nearer the cube, and the route takes at least
    D = sum(popcount((v ^ value) & mask)) swaps over the members.  A padded
    plan therefore costs at least ``core_cost + 2 * D``; when that is
    strictly more than the cover's count, the cover is returned without
    solving the assignment or routing it.

    Repeated labels, and zero slots that repeat or hold a label, are
    ``BadInput``: every member is one distinct basis label.  The labels are
    checked here once, so the cube test below takes them as they are.
    """
    P = integer(P, "label width P")
    if P < 0:
        raise BadInput(f"label width P must be >= 0, got {P}")
    labels = _sorted_labels(labels, P, "labels")
    zero_slots = _sorted_labels(zero_slots, P, "zero_slots")
    if not set(zero_slots).isdisjoint(labels):
        raise BadInput("zero_slots must not hold a label")
    size = len(labels)
    if not size:
        raise BadInput("control set size 0 is not a power of two")
    pads: tuple[int, ...] = ()
    if size & (size - 1):
        partition = FusionPlan("partition", [SubFusion(c) for c in _greedy_cubes(labels, P)])
        need = (1 << size.bit_length()) - size
        if len(zero_slots) < need:
            return partition
        pads = tuple(zero_slots[:need])
        labels = sorted(labels + list(pads))
    cube = _cube_of(labels, P)
    if cube is not None:  # a padded cube is one gate, below any cover of two or more
        return FusionPlan("padded" if pads else "direct", [SubFusion(cube)], pads)
    mask = policy.resolve(P, len(labels))
    value = mode_pattern(labels, mask)
    if pads:
        distance = sum(((v ^ value) & mask).bit_count() for v in labels)
        if core_cost + 2 * distance > partition.total_count(core_cost):
            return partition
    plan = FusionPlan("padded-permute" if pads else "permute",
                      [_permute_subgroup(labels, P, (mask, value))], pads)
    if pads and plan.total_count(core_cost) > partition.total_count(core_cost):
        return partition
    return plan


def _emit_plan(plan: FusionPlan, core, width: int, qubits: tuple[int, ...],
               defer_restore: bool = False) -> list[Gate]:
    """Gates of a fusion plan: per subgroup, permutation, core, inverse.

    ``core(cube)`` builds a subgroup's fused gates, and the swaps act on the
    register ``qubits`` of a width-qubit circuit.  The inverse permutation is
    the forward swaps in reverse order; with ``defer_restore`` it is left out
    and the caller tracks where the swaps moved the data labels.
    """
    gates: list[Gate] = []
    for sub in plan.subgroups:
        if not sub.swaps:  # a cube: its core alone
            gates += core(sub.cube)
            continue
        fwd = embed_gates([basis_swap(a, b, len(qubits)) for a, b in sub.swaps], width, qubits)
        gates += fwd
        gates += core(sub.cube)
        if not defer_restore:
            gates += fwd[::-1]
    return gates


def shift_group(labels: list[int], direction: str, amount: int, layout: RegisterLayout,
                *, zero_slots: tuple[int, ...] = (),
                policy: FixedIndexPolicy = FixedIndexPolicy.RIGHT_ENDED,
                defer_restore: bool = False) -> tuple[FusionPlan, list[Gate]]:
    """Shift several items at once with as few fused cascades as possible.

    The unitary equals the ordered product of the per-item cascades over every
    member, including the borrowed zero slots in ``plan.pads`` (unless the
    restore is deferred, which leaves the data register permuted).
    """
    k = _shift_bit(direction, amount, layout)  # checked once, for every cascade
    plan = plan_fusion(labels, layout.m, zero_slots=zero_slots, policy=policy,
                       core_cost=layout.n - k)
    up = direction == "L"
    core = lambda cube: _cascade(layout.controls(cube), up, k, layout)
    return plan, _emit_plan(plan, core, layout.total, layout.data_qubits, defer_restore)


def delete_rows_plan(rows, layout: RegisterLayout,
                     policy: FixedIndexPolicy = FixedIndexPolicy.LEFT_ENDED) -> FusionPlan:
    """Fusion plan over row indices on the matrix register."""
    instance(layout, RegisterLayout, "layout")
    return plan_fusion(_sorted_labels(rows, layout.n, "rows"), layout.n, policy=policy)


def delete_group(labels: list[int], rows, layout: RegisterLayout,
                 policy: FixedIndexPolicy = FixedIndexPolicy.LEFT_ENDED
                 ) -> tuple[FusionPlan, list[Gate]]:
    """Flip the delete qubit for every data label on each listed row.

    The data labels are covered by disjoint cubes; each cube gets one copy
    of the row set's plan, which collapses reducible row sets to one gate,
    wraps irreducible power-of-two sets in a row permutation and covers other
    sizes by cubes.
    """
    plan = delete_rows_plan(rows, layout, policy)
    gates: list[Gate] = []
    for cube in _greedy_cubes(_sorted_labels(labels, layout.m, "labels"), layout.m):
        gates += _emit_plan(plan, lambda rows_cube, c=cube: [delete_flip(layout, c, rows_cube)],
                            layout.total, layout.matrix_qubits)
    return plan, gates


def insert_stage(row_groups: list[tuple[tuple[int, ...], list[int]]],
                 layout: RegisterLayout,
                 policy: FixedIndexPolicy = FixedIndexPolicy.LEFT_ENDED) -> list[Gate]:
    """Insert items into their rows: delete everywhere, then un-delete.

    ``row_groups`` pairs each row set with the data labels inserted there.
    The leading gates flip the delete qubit with no matrix controls, one per
    cube of all the labels; each row group's delete flips it back on its
    rows.
    """
    instance(layout, RegisterLayout, "layout")
    try:
        labels = [v for _, members in row_groups for v in members]
    except (TypeError, ValueError):
        raise BadInput(f"row_groups must be (rows, labels) pairs, got {row_groups!r}") from None
    labels = _sorted_labels(labels, layout.m, "labels")
    gates = [delete_flip(layout, cube) for cube in _greedy_cubes(labels, layout.m)]
    for rows, members in row_groups:
        gates += delete_group(members, rows, layout, policy)[1]
    return gates
