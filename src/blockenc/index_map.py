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

A fusion plan collapses several labels into one gate when they reduce, and
otherwise wraps the gate in a coherent permutation that relocates them onto a
reducible set first (``_emit_plan``).  ``shift_cascade`` and ``delete_flip``
are the per-item gates, which the unfused baseline uses directly.

Item labels and row indices are ints, and every control set in a plan is a
``(mask, value)`` cube (see ``ir``).  Strings appear only in the gates, made
by ``RegisterLayout.full_pattern`` and ``permute.basis_swap``.  The disjoint
cube cover (``_greedy_cubes``) works on the labels directly, and
``plan_fusion`` builds it only when zero padding could lose to it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .assignment import FixedIndexPolicy, build_target_set, mode_pattern, solve_assignment
from .errors import BadInput, BadShift
from .ir import Gate, RegisterLayout, embed_gates, mcx
from .mcx import ControlSet, is_reducible
from .permute import basis_swap, route_permutation

Cube = tuple[int, int]  # (mask, value): labels i with i & mask == value


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
        gates.append(mcx(layout.full_pattern(data, matrix), target))
    return gates


def delete_flip(layout: RegisterLayout, data: Cube, matrix: Cube | None = None) -> Gate:
    """Flip the delete qubit under data (and optionally matrix) cube controls."""
    return mcx(layout.full_pattern(data, matrix), layout.del_qubit)


def _greedy_cubes(labels, width: int) -> list[Cube]:
    """Disjoint cover of the labels by (mask, value) cubes, largest cube first.

    Every cube inside the set is listed once as a (free mask, value) pair,
    packed into one int: a level-f cube extends only along bits above its
    highest free bit.  Then, from the top level down, the cube whose pattern
    is smallest as a string ('0' < '1' < 'X') is taken and every cube meeting
    it is dropped.  The cost grows with the number of cubes inside the set.
    """
    full = (1 << width) - 1
    digit = [3 ** b for b in range(width)]  # order key: one base-3 digit per position
    level = {v: sum(digit[b] for b in range(width) if v >> b & 1) for v in set(labels)}
    levels = []
    while level:
        levels.append(level)
        grown = {}
        for cube, key in level.items():
            for b in range((cube >> width).bit_length(), width):
                bit = 1 << b
                if not cube & bit and cube | bit in level:
                    grown[cube | bit << width] = key + 2 * digit[b]
        level = grown
    chosen: list[tuple[int, int]] = []
    for level in reversed(levels):
        alive = [(key, cube >> width, cube & full) for cube, key in level.items()]
        alive = sorted(c for c in alive if all((c[2] ^ v) & ~(c[1] | f) for f, v in chosen))
        while alive:
            _, free, value = alive[0]
            chosen.append((free, value))
            alive = [c for c in alive[1:] if (value ^ c[2]) & ~(free | c[1])]
    return [(full ^ free, value) for free, value in chosen]


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
    register: str = "data"

    def total_count(self, core_cost: int) -> int:
        """Gates when every subgroup's core is restored after its permutation."""
        return core_cost * len(self.subgroups) + 2 * sum(len(g.swaps) for g in self.subgroups)


def _permute_subgroup(labels: list[int], P: int,
                      policy: FixedIndexPolicy) -> SubFusion:
    """Route the labels onto the cube sharing their most frequent fixed value."""
    s2 = ControlSet(P, frozenset(labels))
    mask = policy.resolve(P, len(labels))
    value = mode_pattern(s2, mask)
    phi = solve_assignment(s2, build_target_set(mask, value, P))
    return SubFusion((mask, value), tuple(route_permutation(phi).swaps))


def plan_fusion(labels: list[int], P: int, *, zero_slots: tuple[int, ...] = (),
                policy: FixedIndexPolicy | None = None, allow_pad: bool = True,
                core_cost: int = 1, register: str = "data") -> FusionPlan:
    """Decide how to realize one gate over several P-bit control labels.

    Reducible sets fuse directly.  Irreducible power-of-two sets get a
    permutation wrap.  Other sizes either borrow zero-amplitude slots up to
    the next power of two or fall back to a disjoint cube cover, whichever
    costs fewer gates (ties prefer padding).  The cover is not built when
    padding already costs no more than the cover's lower bound.
    """
    policy = policy or FixedIndexPolicy.right_ended()
    labels = sorted(labels)
    size = len(labels)

    def direct_or_permute(members: list[int], mode_direct: str, mode_perm: str) -> FusionPlan:
        cube = is_reducible(ControlSet(P, frozenset(members)))
        if cube is not None:
            return FusionPlan(mode_direct, [SubFusion(cube)], register=register)
        return FusionPlan(mode_perm, [_permute_subgroup(members, P, policy)], register=register)

    if size & (size - 1) == 0:
        return direct_or_permute(labels, "direct", "permute")

    padded = None
    need = (1 << size.bit_length()) - size
    if allow_pad and len(zero_slots) >= need:
        pads = tuple(sorted(zero_slots)[:need])
        padded = direct_or_permute(sorted(labels + list(pads)), "padded", "padded-permute")
        padded.pads = pads
        # a disjoint cube cover of `size` labels has at least popcount(size) cubes
        if padded.total_count(core_cost) <= core_cost * size.bit_count():
            return padded
    partition = FusionPlan("partition",
                           [SubFusion(c) for c in _greedy_cubes(labels, P)],
                           register=register)
    if padded is not None and padded.total_count(core_cost) <= partition.total_count(core_cost):
        return padded
    return partition


def _emit_plan(plan: FusionPlan, core, layout: RegisterLayout, *,
              defer_restore: bool = False) -> list[Gate]:
    """Gates of a fusion plan: per subgroup, permutation, core, inverse.

    ``core(cube)`` builds a subgroup's fused gates.  The inverse permutation
    is the forward swaps in reverse order; with ``defer_restore`` it is left
    out and the caller tracks where the swaps moved the data labels.
    """
    qmap = list(layout.data_qubits if plan.register == "data" else layout.matrix_qubits)
    gates: list[Gate] = []
    for sub in plan.subgroups:
        fwd = [] if not sub.swaps else embed_gates(
            [basis_swap(a, b, len(qmap)) for a, b in sub.swaps], layout.total, qmap)
        gates += fwd
        gates += core(sub.cube)
        if not defer_restore:
            gates += fwd[::-1]
    return gates


def shift_group(labels: list[int], direction: str, amount: int, layout: RegisterLayout,
                *, zero_slots: tuple[int, ...] = (), policy: FixedIndexPolicy | None = None,
                allow_pad: bool = True,
                defer_restore: bool = False) -> tuple[FusionPlan, list[Gate]]:
    """Shift several items at once with as few fused cascades as possible.

    The unitary equals the ordered product of the per-item cascades over every
    member, including the borrowed zero slots in ``plan.pads`` (unless the
    restore is deferred, which leaves the data register permuted).
    """
    plan = plan_fusion(labels, layout.m, zero_slots=zero_slots, policy=policy,
                       allow_pad=allow_pad,
                       core_cost=layout.n - (amount.bit_length() - 1))
    core = lambda cube: shift_cascade(cube, direction, amount, layout)
    return plan, _emit_plan(plan, core, layout, defer_restore=defer_restore)


def delete_rows_plan(rows, layout: RegisterLayout,
                     policy: FixedIndexPolicy | None = None) -> FusionPlan:
    """Fusion plan over row indices on the matrix register."""
    policy = policy or FixedIndexPolicy.left_ended()
    dim = 1 << layout.n
    rows = sorted(set(rows))
    if any(not 0 <= r < dim for r in rows):
        raise BadInput("row index outside the matrix register")
    if len(rows) == dim:
        return FusionPlan("direct", [SubFusion((0, 0))], register="matrix")
    return plan_fusion(rows, layout.n, policy=policy, allow_pad=False,
                       core_cost=1, register="matrix")


def delete_group(labels: list[int], rows, layout: RegisterLayout,
                 policy: FixedIndexPolicy | None = None) -> tuple[FusionPlan, list[Gate]]:
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
                            layout)
    return plan, gates


def insert_stage(row_groups: list[tuple[tuple[int, ...], list[int]]],
                 layout: RegisterLayout,
                 policy: FixedIndexPolicy | None = None) -> list[Gate]:
    """Insert items into their rows: delete everywhere, then un-delete.

    ``row_groups`` pairs each row set with the data labels inserted there.
    The leading gates flip the delete qubit with no matrix controls, one per
    cube of all the labels; each row group's delete flips it back on its
    rows.
    """
    if not row_groups:
        return []
    labels = [v for _, members in row_groups for v in members]
    gates = [delete_flip(layout, cube) for cube in _greedy_cubes(labels, layout.m)]
    for rows, members in row_groups:
        gates += delete_group(members, rows, layout, policy)[1]
    return gates
