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
``shift_cascade`` and ``delete_flip`` are the per-item gates, which the
unfused baseline uses directly.

Item labels and row indices are ints, a label set is a list of distinct ints
with its width alongside, and every control set, in a plan or on a gate, is
a cube (see ``ir``).  ``RegisterLayout.controls`` lifts register cubes to a
gate's full width.  The disjoint cube cover (``_greedy_cubes``) searches the
labels for their largest cubes directly, so its cost follows the labels and
their cubes, not a table of every sub-cube inside the set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .assignment import FixedIndexPolicy, build_target_set, mode_pattern, solve_assignment
from .errors import BadInput, BadShift, NotPowerOfTwo
from .ir import Cube, Gate, RegisterLayout, embed_gates, mcx
from .permute import basis_swap, route_permutation


def is_reducible(labels, P: int) -> Cube | None:
    """The cube equal to a set of distinct P-bit labels, or None if there is none.

    The mask holds the bits on which every label agrees (AND equals OR).  The
    set size must be a power of two; the full set of 2^P labels reduces to
    the empty cube (0, 0), an unconditional X.
    """
    size = len(labels)
    if size & (size - 1):
        raise NotPowerOfTwo(f"control set size {size} is not a power of two")
    common, either = (1 << P) - 1, 0
    for v in labels:
        common &= v
        either |= v
    mask = ((1 << P) - 1) & ~(common ^ either)
    # distinct labels agreeing on P - n fixed bits enumerate the other n
    if mask.bit_count() != P - (size.bit_length() - 1):
        return None
    return mask, common


def shift_cascade(data: Cube, direction: str, amount: int,
                  layout: RegisterLayout) -> list[Gate]:
    """MCX cascade cyclically shifting the matrix register for the data cube."""
    n = layout.n
    if amount <= 0 or amount & (amount - 1) or amount >= (1 << n):
        raise BadShift(f"shift amount {amount} invalid for n={n}")
    if direction not in ("L", "R"):
        raise BadInput(f"direction must be L or R, got {direction!r}")
    k = amount.bit_length() - 1
    gates = []
    for b in range(n - 1, k - 1, -1):  # matrix bit b, highest first
        carry = (1 << b) - (1 << k)  # controls on bits k .. b-1
        matrix = (carry, carry if direction == "L" else 0)
        target = layout.matrix_qubits[n - 1 - b]
        gates.append(mcx(layout.controls(data, matrix), target))
    return gates


def delete_flip(layout: RegisterLayout, data: Cube, matrix: Cube = (0, 0)) -> Gate:
    """Flip the delete qubit under data (and optionally matrix) cube controls."""
    return mcx(layout.controls(data, matrix), layout.del_qubit)


def _cubes_in(labels: set[int], bit: int, dim: int):
    """Every dim-cube inside a set of labels below 2**bit, in pattern order.

    Pattern order compares from q0, the top bit, with '0' < '1' < 'X': the
    labels split on that bit into ``low``, ``high`` and ``low & high``, searched
    in that order, and a branch with fewer than 2**dim labels is pruned.
    """
    if len(labels) < 1 << dim:
        return
    if not dim:  # the labels themselves, in ascending order
        yield from (((1 << bit) - 1, v) for v in sorted(labels))
        return
    top = 1 << bit - 1
    low = {v for v in labels if not v & top}
    high = {v ^ top for v in labels if v & top}
    yield from ((mask | top, value) for mask, value in _cubes_in(low, bit - 1, dim))
    yield from ((mask | top, value | top) for mask, value in _cubes_in(high, bit - 1, dim))
    yield from _cubes_in(low & high, bit - 1, dim - 1)


def _greedy_cubes(labels, width: int) -> list[Cube]:
    """Disjoint cover of the labels by (mask, value) cubes, largest cube first.

    Each pick is the largest cube inside the uncovered labels, with the
    smallest pattern on ties: from the top dimension down, every cube still
    wholly uncovered is taken in pattern order.  The cost follows the labels
    and their cubes, not a table of every sub-cube inside the set.
    """
    uncovered = set(labels)
    cover: list[Cube] = []
    for dim in range(len(uncovered).bit_length() - 1, -1, -1):
        for mask, value in _cubes_in(set(uncovered), width, dim):  # the set as dim starts
            members = build_target_set(mask, value, width)
            if uncovered.issuperset(members):
                uncovered.difference_update(members)
                cover.append((mask, value))
    return cover


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


def _permute_subgroup(labels: list[int], P: int,
                      policy: FixedIndexPolicy) -> SubFusion:
    """Route the labels onto the cube sharing their most frequent fixed value."""
    mask = policy.resolve(P, len(labels))
    value = mode_pattern(labels, mask)
    pairs = solve_assignment(labels, build_target_set(mask, value, P), P)
    return SubFusion((mask, value), tuple(route_permutation(pairs, P)))


def plan_fusion(labels: list[int], P: int, *, zero_slots: tuple[int, ...] = (),
                policy: FixedIndexPolicy = FixedIndexPolicy.RIGHT_ENDED,
                core_cost: int = 1) -> FusionPlan:
    """Decide how to realize one gate over several P-bit control labels.

    Reducible sets fuse directly.  Irreducible power-of-two sets get a
    permutation wrap.  Other sizes either borrow zero-amplitude slots up to
    the next power of two or fall back to a disjoint cube cover, whichever
    costs fewer gates (ties prefer padding); no ``zero_slots`` means no
    padding.  The cover's cost follows the labels and their cubes.
    """
    labels = sorted(labels)
    size = len(labels)

    def direct_or_permute(members: list[int], mode_direct: str, mode_perm: str,
                          pads: tuple[int, ...] = ()) -> FusionPlan:
        cube = is_reducible(members, P)
        if cube is not None:
            return FusionPlan(mode_direct, [SubFusion(cube)], pads)
        return FusionPlan(mode_perm, [_permute_subgroup(members, P, policy)], pads)

    if size & (size - 1) == 0:
        return direct_or_permute(labels, "direct", "permute")

    partition = FusionPlan("partition", [SubFusion(c) for c in _greedy_cubes(labels, P)])
    need = (1 << size.bit_length()) - size
    if len(zero_slots) < need:
        return partition
    pads = tuple(sorted(zero_slots)[:need])
    padded = direct_or_permute(sorted(labels + list(pads)), "padded", "padded-permute", pads)
    cheaper = padded.total_count(core_cost) <= partition.total_count(core_cost)
    return padded if cheaper else partition


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
    plan = plan_fusion(labels, layout.m, zero_slots=zero_slots, policy=policy,
                       core_cost=layout.n - (amount.bit_length() - 1))
    core = lambda cube: shift_cascade(cube, direction, amount, layout)
    return plan, _emit_plan(plan, core, layout.total, layout.data_qubits, defer_restore)


def delete_rows_plan(rows, layout: RegisterLayout,
                     policy: FixedIndexPolicy = FixedIndexPolicy.LEFT_ENDED) -> FusionPlan:
    """Fusion plan over row indices on the matrix register."""
    rows = sorted(set(rows))
    if any(not 0 <= r < 1 << layout.n for r in rows):
        raise BadInput("row index outside the matrix register")
    return plan_fusion(rows, layout.n, policy=policy)


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
    for cube in _greedy_cubes(labels, layout.m):
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
    labels = [v for _, members in row_groups for v in members]
    gates = [delete_flip(layout, cube) for cube in _greedy_cubes(labels, layout.m)]
    for rows, members in row_groups:
        gates += delete_group(members, rows, layout, policy)[1]
    return gates
