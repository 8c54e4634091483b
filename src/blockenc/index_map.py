"""Index-map gates: shift cascades and delete/insert flips, fused per group.

A left shift by 2**k increments the matrix register (adding 2**k), realized
as a carry cascade of MCX gates over the top n-k matrix qubits; a right shift
decrements (controls at 0 instead of 1).  Deleting an item in a row flips the
delete qubit under controls on the item slot and the row.  Inserting is a
delete from every row followed by a delete on the wanted rows, which cancels
there.

This module is the one place that turns a group of item patterns into gates,
for the compiler and the tests alike:

- ``shift_group``: ``plan_fusion`` over the items sharing one shift, then one
  cascade per fused subgroup;
- ``delete_group``: a cube cover of the items' data patterns, times the
  ``delete_rows_plan`` of their shared row set;
- ``insert_stage``: one delete-qubit flip per cube of every insert pattern,
  then one delete group per row set.

A fusion plan collapses several patterns into one gate when they reduce, and
otherwise wraps the gate in a coherent permutation that relocates them onto a
reducible set first (``_emit_plan``).  ``shift_cascade`` and ``delete_flip``
are the per-item gates, which the unfused baseline uses directly.

Patterns are strings in every plan, gate and statistic.  The disjoint cube
cover (``_greedy_cubes``) works on integer ``(free mask, value)`` cubes,
converted by ``ir.pattern_select`` and ``ir.select_pattern``.  It builds
strings only for the cubes it picks.  ``plan_fusion`` builds the cover only
when zero padding could lose to it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .assignment import FixedIndexPolicy, build_target_set, mode_pattern, solve_assignment
from .errors import BadInput, BadShift
from .ir import Circuit, Gate, RegisterLayout, embed_gates, mcx, pattern_select, select_pattern
from .mcx import ControlSet, is_reducible
from .permute import permute_circuit


def shift_cascade(pattern: str, direction: str, amount: int,
                  layout: RegisterLayout) -> list[Gate]:
    """MCX cascade cyclically shifting the matrix register for matching items."""
    n = layout.n
    if amount <= 0 or amount & (amount - 1) or amount >= (1 << n):
        raise BadShift(f"shift amount {amount} invalid for n={n}")
    if direction not in ("L", "R"):
        raise BadInput(f"direction must be L or R, got {direction!r}")
    k = amount.bit_length() - 1
    t = "1" if direction == "L" else "0"
    gates = []
    for b in range(n - 1, k - 1, -1):  # matrix bit b, highest first
        matrix = ["X"] * n
        for lower in range(k, b):
            matrix[n - 1 - lower] = t
        target = layout.matrix_qubits[n - 1 - b]
        gates.append(mcx(layout.full_pattern(data=pattern, matrix="".join(matrix)), target))
    return gates


def delete_flip(layout: RegisterLayout, data: str, matrix: str | None = None) -> Gate:
    """Flip the delete qubit under data (and optionally matrix) controls."""
    return mcx(layout.full_pattern(data=data, matrix=matrix), layout.del_qubit)


def _greedy_cubes(strings: list[str]) -> list[str]:
    """Disjoint cover of the strings by sub-cube patterns, largest cube first.

    Every cube inside the set is listed once as a (free mask, value) pair,
    packed into one int: a level-f cube extends only along bits above its
    highest free bit.  Then, from the top level down, the cube whose pattern
    is smallest as a string ('0' < '1' < 'X') is taken and every cube meeting
    it is dropped.  The cost grows with the number of cubes inside the set.
    """
    width = len(strings[0])
    full = (1 << width) - 1
    digit = [3 ** b for b in range(width)]  # order key: one base-3 digit per position
    level = {}  # cube (free << width | value) -> order key
    for s in set(strings):
        value = pattern_select(s, width)[1]
        level[value] = sum(digit[b] for b in range(width) if value >> b & 1)
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
    return [select_pattern(full ^ free, value, width) for free, value in chosen]


@dataclass
class SubFusion:
    """One fused gate group: a control pattern, optionally permute-wrapped."""

    control_pattern: str                 # register-local, X on free positions
    permute: Circuit | None = None       # register-local forward permutation


@dataclass
class FusionPlan:
    """How a set of register patterns is realized as fused gates."""

    mode: str                            # direct | permute | partition | padded | padded-permute
    subgroups: list[SubFusion]
    pads: tuple[str, ...] = ()
    register: str = "data"

    def total_count(self, core_cost: int) -> int:
        """Gates when every subgroup's core is restored after its permutation."""
        permute = sum(len(g.permute) for g in self.subgroups if g.permute is not None)
        return core_cost * len(self.subgroups) + 2 * permute


def _permute_subgroup(patterns: list[str], P: int,
                      policy: FixedIndexPolicy) -> SubFusion:
    s2 = ControlSet(P, frozenset(patterns))
    fixed = policy.resolve(P, len(patterns))
    tilde = mode_pattern(s2, fixed)
    s3 = build_target_set(tilde, fixed, P)
    phi = solve_assignment(s2, s3)
    return SubFusion(is_reducible(s3).to_pattern(), permute_circuit(phi))


def plan_fusion(patterns: list[str], P: int, *, zero_slots: tuple[str, ...] = (),
                policy: FixedIndexPolicy | None = None, allow_pad: bool = True,
                core_cost: int = 1, register: str = "data") -> FusionPlan:
    """Decide how to realize one gate over several control patterns.

    Reducible sets fuse directly.  Irreducible power-of-two sets get a
    permutation wrap.  Other sizes either borrow zero-amplitude slots up to
    the next power of two or fall back to a disjoint cube cover, whichever
    costs fewer gates (ties prefer padding).  The cover is not built when
    padding already costs no more than the cover's lower bound.
    """
    policy = policy or FixedIndexPolicy.right_ended()
    patterns = sorted(patterns)
    size = len(patterns)

    def direct_or_permute(pats: list[str], mode_direct: str, mode_perm: str) -> FusionPlan:
        red = is_reducible(ControlSet(P, frozenset(pats)))
        if red is not None:
            return FusionPlan(mode_direct, [SubFusion(red.to_pattern())], register=register)
        return FusionPlan(mode_perm, [_permute_subgroup(pats, P, policy)], register=register)

    if size & (size - 1) == 0:
        return direct_or_permute(patterns, "direct", "permute")

    padded = None
    need = (1 << size.bit_length()) - size
    if allow_pad and len(zero_slots) >= need:
        pads = tuple(sorted(zero_slots)[:need])
        padded = direct_or_permute(sorted(patterns + list(pads)), "padded", "padded-permute")
        padded.pads = pads
        # a disjoint cube cover of `size` patterns has at least popcount(size) cubes
        if padded.total_count(core_cost) <= core_cost * size.bit_count():
            return padded
    partition = FusionPlan("partition",
                           [SubFusion(c) for c in _greedy_cubes(patterns)],
                           register=register)
    if padded is not None and padded.total_count(core_cost) <= partition.total_count(core_cost):
        return padded
    return partition


def _emit_plan(plan: FusionPlan, core, layout: RegisterLayout, *,
              defer_restore: bool = False) -> list[Gate]:
    """Gates of a fusion plan: per subgroup, permutation, core, inverse.

    ``core(control_pattern)`` builds a subgroup's fused gates.  The inverse
    permutation is the forward swaps in reverse order; with ``defer_restore``
    it is left out and the caller tracks where the permutation moved the data
    states.
    """
    qmap = list(layout.data_qubits if plan.register == "data" else layout.matrix_qubits)
    gates: list[Gate] = []
    for sub in plan.subgroups:
        fwd = [] if sub.permute is None else embed_gates(sub.permute.gates, layout.total, qmap)
        gates += fwd
        gates += core(sub.control_pattern)
        if not defer_restore:
            gates += fwd[::-1]
    return gates


def shift_group(patterns: list[str], direction: str, amount: int, layout: RegisterLayout,
                *, zero_slots: tuple[str, ...] = (), policy: FixedIndexPolicy | None = None,
                allow_pad: bool = True,
                defer_restore: bool = False) -> tuple[FusionPlan, list[Gate]]:
    """Shift several items at once with as few fused cascades as possible.

    The unitary equals the ordered product of the per-item cascades over every
    member, including the borrowed zero slots in ``plan.pads`` (unless the
    restore is deferred, which leaves the data register permuted).
    """
    plan = plan_fusion(patterns, layout.m, zero_slots=zero_slots, policy=policy,
                       allow_pad=allow_pad,
                       core_cost=layout.n - (amount.bit_length() - 1))
    core = lambda pat: shift_cascade(pat, direction, amount, layout)
    return plan, _emit_plan(plan, core, layout, defer_restore=defer_restore)


def delete_rows_plan(rows, layout: RegisterLayout,
                     policy: FixedIndexPolicy | None = None) -> FusionPlan:
    """Fusion plan over row index patterns on the matrix register."""
    policy = policy or FixedIndexPolicy.left_ended()
    dim = 1 << layout.n
    rows = sorted(set(rows))
    if any(not 0 <= r < dim for r in rows):
        raise BadInput("row index outside the matrix register")
    if len(rows) == dim:
        return FusionPlan("direct", [SubFusion("X" * layout.n)], register="matrix")
    patterns = [format(r, f"0{layout.n}b") for r in rows]
    return plan_fusion(patterns, layout.n, policy=policy, allow_pad=False,
                       core_cost=1, register="matrix")


def delete_group(patterns: list[str], rows, layout: RegisterLayout,
                 policy: FixedIndexPolicy | None = None) -> tuple[FusionPlan, list[Gate]]:
    """Flip the delete qubit for every data pattern on each listed row.

    The data patterns are covered by disjoint cubes; each cube gets one copy
    of the row set's plan, which collapses reducible row sets to one gate,
    wraps irreducible power-of-two sets in a row permutation and covers other
    sizes by cubes.
    """
    plan = delete_rows_plan(rows, layout, policy)
    gates: list[Gate] = []
    for cube in _greedy_cubes(sorted(patterns)):
        gates += _emit_plan(plan, lambda pat, c=cube: [delete_flip(layout, c, pat)], layout)
    return plan, gates


def insert_stage(row_groups: list[tuple[tuple[int, ...], list[str]]],
                 layout: RegisterLayout,
                 policy: FixedIndexPolicy | None = None) -> list[Gate]:
    """Insert items into their rows: delete everywhere, then un-delete.

    ``row_groups`` pairs each row set with the data patterns inserted there.
    The leading gates flip the delete qubit with no matrix controls, one per
    cube of all the patterns; each row group's delete flips it back on its
    rows.
    """
    if not row_groups:
        return []
    patterns = sorted(p for _, pats in row_groups for p in pats)
    gates = [delete_flip(layout, cube) for cube in _greedy_cubes(patterns)]
    for rows, pats in row_groups:
        gates += delete_group(pats, rows, layout, policy)[1]
    return gates
