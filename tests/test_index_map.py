import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockenc.assignment import build_target_set
from blockenc.errors import BadInput, BadShift
from blockenc.index_map import (_greedy_cubes, delete_group, delete_rows_plan, insert_stage,
                                shift_cascade, shift_group)
from blockenc.ir import Circuit, RegisterLayout, circuit_unitary, select_pattern

from conftest import assert_permutation_matrix, reference_greedy_cubes


def _unitary(gates, layout):
    return circuit_unitary(Circuit(layout.total, tuple(gates)))


def _control(gate, q, layout):
    """The gate's control value on qubit q, or None if q is not a control."""
    b = layout.total - 1 - q
    mask, value = gate.controls
    return value >> b & 1 if mask >> b & 1 else None


def _separate(labels, direction, amount, layout):
    """Per-item cascades, one after another."""
    full = (1 << layout.m) - 1
    return [g for v in labels for g in shift_cascade((full, v), direction, amount, layout)]


def _matrix_action(gates, layout, data_value):
    """Permutation the gates apply to the matrix register for one item."""
    u = _unitary(gates, layout)
    dim = layout.block_dim
    base = data_value << (layout.n + 1)
    out = {}
    for j in range(dim):
        col = u[:, base + j]
        row = int(np.argmax(np.abs(col)))
        assert np.isclose(abs(col[row]), 1)
        assert row >> (layout.n + 1) == data_value
        out[j] = row & (dim - 1)
    return out


def test_left_shift_by_one_increments_rows():
    lay = RegisterLayout(1, 3)
    circ = shift_cascade((1, 0), "L", 1, lay)
    act = _matrix_action(circ, lay, 0)
    assert act == {j: (j + 1) % 8 for j in range(8)}
    # unselected item untouched
    assert _matrix_action(circ, lay, 1) == {j: j for j in range(8)}


def test_right_shift_by_one_decrements_rows():
    lay = RegisterLayout(1, 3)
    act = _matrix_action(shift_cascade((1, 1), "R", 1, lay), lay, 1)
    assert act == {j: (j - 1) % 8 for j in range(8)}


def test_shift_amounts_compose_cyclically():
    lay = RegisterLayout(0, 3)
    both = shift_cascade((0, 0), "L", 1, lay) + shift_cascade((0, 0), "L", 2, lay)
    act = _matrix_action(both, lay, 0)
    assert act == {j: (j + 3) % 8 for j in range(8)}


def test_left_then_right_is_identity():
    lay = RegisterLayout(2, 3)
    u = _unitary(shift_cascade((0b11, 0b01), "L", 2, lay)
                 + shift_cascade((0b11, 0b01), "R", 2, lay), lay)
    assert np.array_equal(u, np.eye(1 << lay.total))


def test_half_dimension_shift_single_gate():
    lay = RegisterLayout(1, 3)
    circ = shift_cascade((1, 1), "L", 4, lay)
    assert len(circ) == 1
    gate = circ[0]
    assert gate.target == lay.matrix_qubits[0]
    assert _control(gate, lay.matrix_qubits[1], lay) is None
    act = _matrix_action(circ, lay, 1)
    assert act == {j: (j + 4) % 8 for j in range(8)}


def test_shift_amount_out_of_range():
    lay = RegisterLayout(1, 2)
    with pytest.raises(BadShift):
        shift_cascade((1, 0), "L", 4, lay)
    with pytest.raises(BadShift):
        shift_cascade((1, 0), "L", 3, lay)  # not a power of two


def test_shift_direction_and_delete_rows_checked():
    lay = RegisterLayout(1, 2)
    with pytest.raises(BadInput):
        shift_cascade((1, 0), "U", 1, lay)
    with pytest.raises(BadInput):
        delete_rows_plan([4], lay)  # row 2^n is outside the matrix register


def _del_flips(gates, layout):
    """(data, row) pairs whose delete flag ends up set."""
    u = _unitary(gates, layout)
    flips = set()
    for d in range(1 << layout.m):
        for j in range(layout.block_dim):
            col = (d << (layout.n + 1)) | j
            row = int(np.argmax(np.abs(u[:, col])))
            if row != col:
                assert row == col | (1 << layout.n)  # only the del bit moves
                flips.add((d, j))
    return flips


def test_delete_single_row():
    lay = RegisterLayout(2, 3)
    _, circ = delete_group([0b01], {0}, lay)
    assert len(circ) == 1
    assert _del_flips(circ, lay) == {(1, 0)}


def test_delete_reducible_rows_single_gate():
    lay = RegisterLayout(2, 3)
    _, circ = delete_group([0b01], {0, 1}, lay)
    assert len(circ) == 1
    assert _del_flips(circ, lay) == {(1, 0), (1, 1)}


def test_delete_all_rows_data_controls_only():
    lay = RegisterLayout(2, 2)
    _, circ = delete_group([0b10], range(4), lay)
    assert len(circ) == 1
    gate = circ[0]
    assert all(_control(gate, q, lay) is None for q in lay.matrix_qubits)
    assert _del_flips(circ, lay) == {(2, j) for j in range(4)}


def test_delete_irreducible_rows_permute_wrapped():
    lay = RegisterLayout(1, 3)
    plan, circ = delete_group([1], {0, 1, 4, 7}, lay)
    assert plan.mode == "permute"
    flips = _del_flips(circ, lay)
    assert flips == {(1, 0), (1, 1), (1, 4), (1, 7)}
    # one fused delete plus permutation and restore
    kinds = [g.target for g in circ]
    assert kinds.count(lay.del_qubit) == 1
    assert len(circ) > 1


def test_delete_involution():
    lay = RegisterLayout(1, 3)
    _, circ = delete_group([1], {0, 2, 3, 6, 7}, lay)
    u = _unitary(circ + circ, lay)
    assert np.array_equal(u, np.eye(1 << lay.total))


def test_delete_cube_cover_for_ragged_rows():
    lay = RegisterLayout(1, 5)
    _, circ = delete_group([0], range(10), lay)
    assert len(circ) == 2  # one 8-row cube plus one 2-row cube
    assert _del_flips(circ, lay) == {(0, j) for j in range(10)}


def test_insert_is_complement_of_delete():
    lay = RegisterLayout(2, 3)
    circ = insert_stage([((5,), [0b11])], lay)
    assert _del_flips(circ, lay) == {(3, j) for j in range(8) if j != 5}


def test_insert_all_rows_two_cancelling_gates():
    lay = RegisterLayout(1, 2)
    circ = insert_stage([(tuple(range(4)), [0])], lay)
    assert len(circ) == 2
    assert np.array_equal(_unitary(circ, lay), np.eye(1 << lay.total))


def test_combined_shift_adjacent_pair_fuses_directly():
    lay = RegisterLayout(2, 3)
    plan, circ = shift_group([0b00, 0b01], "L", 1, lay)
    assert plan.mode == "direct"
    assert len(circ) == 3  # one cascade, no permutation
    assert _control(circ[0], 0, lay) == 0 and _control(circ[0], 1, lay) is None
    assert np.array_equal(_unitary(circ, lay),
                          _unitary(_separate([0b00, 0b01], "L", 1, lay), lay))


def test_combined_shift_antipodal_pair_needs_permute():
    lay = RegisterLayout(2, 3)
    plan, circ = shift_group([0b01, 0b10], "L", 1, lay)
    assert plan.mode == "permute"
    # swap, fused cascade on the even slots, swap back
    assert len(circ) == 5
    first, last = circ[0], circ[-1]
    assert first == last and first.target == 1 and first.controls == (0b100000, 0)
    assert _control(circ[1], 0, lay) is None and _control(circ[1], 1, lay) == 0
    assert np.array_equal(_unitary(circ, lay),
                          _unitary(_separate([0b01, 0b10], "L", 1, lay), lay))
    # a deferred restore leaves out the trailing swap
    _, deferred = shift_group([0b01, 0b10], "L", 1, lay, defer_restore=True)
    assert deferred == circ[:-1]


def test_combined_shift_pads_with_zero_slot():
    lay = RegisterLayout(3, 3)
    plan, circ = shift_group([0b000, 0b101, 0b110], "L", 1, lay, zero_slots=(0b111,))
    assert plan.pads == (0b111,)
    # padded to four members: permute + one fused cascade + restore
    cascades = [g for g in circ
                if any(_control(g, q, lay) is not None for q in lay.matrix_qubits)
                or g.target in lay.matrix_qubits]
    data_widths = {sum(_control(g, q, lay) is not None for q in lay.data_qubits)
                   for g in cascades}
    assert data_widths == {1}
    separate = _separate([0b000, 0b101, 0b110, 0b111], "L", 1, lay)
    assert np.array_equal(_unitary(circ, lay), _unitary(separate, lay))


def test_combined_shift_partition_without_slots():
    lay = RegisterLayout(3, 3)
    plan, circ = shift_group([0b000, 0b101, 0b110], "L", 1, lay, zero_slots=())
    assert plan.mode == "partition" and plan.pads == ()
    separate = _separate([0b000, 0b101, 0b110], "L", 1, lay)
    assert np.array_equal(_unitary(circ, lay), _unitary(separate, lay))


def test_combined_shift_equals_product_random(rng):
    for _ in range(40):
        m_q = int(rng.integers(1, 4))
        n_q = int(rng.integers(1, 4))
        lay = RegisterLayout(m_q, n_q)
        size = int(rng.integers(1, (1 << m_q) + 1))
        picks = rng.choice(1 << m_q, size=size, replace=False)
        items = sorted(int(v) for v in picks)
        direction = str(rng.choice(["L", "R"]))
        amount = 1 << int(rng.integers(0, n_q))
        spare = sorted(set(range(1 << m_q)) - set(items))
        plan, circ = shift_group(items, direction, amount, lay, zero_slots=tuple(spare))
        u = _unitary(circ, lay)
        assert_permutation_matrix(np.abs(u))
        # fused action on the member slots matches the unfused product
        separate = _separate(items + sorted(plan.pads), direction, amount, lay)
        assert np.array_equal(u, _unitary(separate, lay))


@st.composite
def _string_sets(draw, max_width=6):
    width = draw(st.integers(1, max_width))
    if draw(st.booleans()):
        # a contiguous range [a, b), the row sets analyze emits
        a = draw(st.integers(0, (1 << width) - 1))
        values = range(a, draw(st.integers(a + 1, 1 << width)))
    else:
        values = sorted(draw(st.sets(st.integers(0, (1 << width) - 1), min_size=1)))
    return [format(v, f"0{width}b") for v in values]


def _cube_points(pattern):
    return {"".join(bits) for bits in product(*("01" if c == "X" else c for c in pattern))}


@settings(max_examples=60, deadline=None)
@given(_string_sets())
@example([""])  # width 0: the single label of the m = 0 layout
def test_cube_cover_matches_string_reference(strings):
    width = len(strings[0])
    cover = [select_pattern(mask, value, width)
             for mask, value in _greedy_cubes([int("0" + s, 2) for s in strings], width)]
    assert cover == reference_greedy_cubes(strings)
    # a disjoint exact cover: every string in exactly one cube
    points = [p for cube in cover for p in _cube_points(cube)]
    assert len(points) == len(set(points)) == len(strings)
    assert set(points) == set(strings)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.data())
def test_cube_cover_dense_sets_match_reference(width, data):
    # nearly full sets hold the most cubes and the largest ones
    full = 1 << width
    missing = data.draw(st.sets(st.integers(0, full - 1), max_size=min(3, full - 1)))
    strings = [format(v, f"0{width}b") for v in range(full) if v not in missing]
    cover = _greedy_cubes([int(s, 2) for s in strings], width)
    assert [select_pattern(*cube, width) for cube in cover] == reference_greedy_cubes(strings)


def test_cube_cover_cost_follows_the_set():
    # a half-register row range: one 12-cube and a few smaller ones, inside a
    # set that holds about 3**13 sub-cubes
    width = 14
    labels = range(2 ** 13 + 3, 2 ** 14)
    tracemalloc.start()
    try:
        cover = _greedy_cubes(labels, width)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    sizes = [1 << (width - mask.bit_count()) for mask, _ in cover]
    assert sizes == sorted(sizes, reverse=True)
    members = [v for cube in cover for v in build_target_set(*cube, width)]
    assert sorted(members) == list(labels)  # exact and disjoint
    assert peak < 32 * 2 ** 20
