import time
import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockenc.assignment import FixedIndexPolicy, build_target_set
from blockenc import index_map
from blockenc.errors import BadInput
from blockenc.index_map import (_greedy_cubes, delete_group, delete_rows_plan, insert_stage,
                                plan_fusion, shift_cascade, shift_group)
from blockenc.ingest import SparseMatrix
from blockenc.ir import Circuit, RegisterLayout, circuit_unitary, select_pattern
from blockenc.permute import basis_swap
from blockenc.pipeline import compile_matrix

from conftest import (as_strings, assert_permutation_matrix, reference_cube_search,
                      reference_greedy_cubes, reference_plan_fusion)


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
    with pytest.raises(BadInput, match="shift amount 4 invalid for n=2"):
        shift_cascade((1, 0), "L", 4, lay)
    with pytest.raises(BadInput, match="shift amount 3 invalid for n=2"):
        shift_cascade((1, 0), "L", 3, lay)  # not a power of two


def test_shift_direction_and_delete_rows_checked():
    lay = RegisterLayout(1, 2)
    with pytest.raises(BadInput):
        shift_cascade((1, 0), "U", 1, lay)
    with pytest.raises(BadInput):
        delete_rows_plan([4], lay)  # row 2^n is outside the matrix register


def test_numpy_integers_become_ints_in_gates_and_pads():
    lay = RegisterLayout(np.int64(2), np.int64(2))
    plan, gates = shift_group(np.array([1, 2, 3]), "L", np.int64(1), lay,
                              zero_slots=(np.int64(0),))
    assert plan.pads == (0,) and all(type(p) is int for p in plan.pads)
    gates += delete_group(np.array([1, 2]), np.array([0, 3]), lay)[1]
    gates += insert_stage([(np.array([1, 2]), np.array([3]))], lay)
    gates.append(basis_swap(np.int64(1), np.int64(3), np.int64(2)))
    for g in gates:
        assert type(g.target) is int and [type(v) for v in g.controls] == [int, int]


@pytest.mark.parametrize("call", [
    lambda: plan_fusion([1, 1, 2], 2),
    lambda: plan_fusion([1, 2, 3], 2, zero_slots=(0, 0)),
    lambda: plan_fusion([1, 2, 3], 2, zero_slots=(3,)),
    lambda: shift_group([1, 1, 2], "L", 1, RegisterLayout(2, 2)),
    lambda: shift_group([1, 2, 3], "L", 1, RegisterLayout(2, 2), zero_slots=(0, 0)),
    lambda: delete_group([1, 1], [0], RegisterLayout(2, 2)),
    lambda: delete_group([1], [0, 2, 2], RegisterLayout(2, 2)),
    lambda: insert_stage([((0,), [1]), ((2,), [1, 3])], RegisterLayout(2, 2)),
], ids=["plan_fusion-labels", "plan_fusion-zero_slots", "plan_fusion-slot-is-label",
        "shift_group-labels", "shift_group-zero_slots", "delete_group-labels",
        "delete_group-rows", "insert_stage-labels"])
def test_repeated_labels_are_bad_input(call):
    # a repeat once vanished into a set, so a group lost a member's gates
    with pytest.raises(BadInput, match="must be distinct|must not hold a label"):
        call()


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


@pytest.mark.parametrize("seed", range(8))
def test_cube_cover_matches_reference_at_compiler_sizes(seed):
    # 30 to 64 labels of 7 or 8 bits, the sizes of the largest covers the
    # bench compiles: a few random cubes of 2 to 16 labels, then single labels
    rng = np.random.default_rng(seed)
    width = 7 + seed % 2
    size = int(rng.integers(30, 65))
    labels: set[int] = set()
    while len(labels) < size:
        dim = int(rng.integers(1, 5)) if len(labels) < size // 2 else 0
        free = sum(1 << int(b) for b in rng.choice(width, size=dim, replace=False))
        value = int(rng.integers(0, 1 << width)) & ~free
        cube = build_target_set(((1 << width) - 1) ^ free, value, width)
        labels.update(cube[:size - len(labels)])
    strings = [format(v, f"0{width}b") for v in sorted(labels)]
    cover = _greedy_cubes(sorted(labels), width)
    assert [select_pattern(*cube, width) for cube in cover] == reference_greedy_cubes(strings)


def test_cube_cover_cost_follows_the_set():
    # a half-register row range: one 12-cube and a few smaller ones, inside a
    # set that holds about 3**13 sub-cubes
    width = 14
    labels = list(range(2 ** 13 + 3, 2 ** 14))
    tracemalloc.start()
    try:
        cover = _greedy_cubes(labels, width)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    sizes = [1 << (width - mask.bit_count()) for mask, _ in cover]
    assert sizes == sorted(sizes, reverse=True)
    members = [v for cube in cover for v in build_target_set(*cube, width)]
    assert sorted(members) == labels  # exact and disjoint
    assert peak < 32 * 2 ** 20


@st.composite
def _wide_sets(draw):
    # 1 to 8 labels at any width the compiler takes: labels near a base
    # label, off it on a few bits, so that the set holds cubes, and labels
    # anywhere
    width = draw(st.integers(1, 62))
    full = (1 << width) - 1
    base = draw(st.integers(0, full))
    bits = draw(st.lists(st.integers(0, width - 1), max_size=3, unique=True))
    near = sorted({base ^ sum(1 << b for b in chosen)
                   for k in range(len(bits) + 1) for chosen in combinations(bits, k)})
    label = st.one_of(st.sampled_from(near), st.integers(0, full))
    return draw(st.sets(label, min_size=1, max_size=8)), width


@settings(max_examples=150, deadline=None)
@given(_wide_sets())
def test_cube_cover_at_every_width_matches_the_references(drawn):
    labels, width = drawn
    cover = _greedy_cubes(sorted(labels), width)
    strings = sorted(as_strings(labels, width))
    assert [select_pattern(*cube, width) for cube in cover] == reference_greedy_cubes(strings)
    assert cover == reference_cube_search(labels, width)


def test_cover_memory_follows_the_labels_at_wide_widths(monkeypatch):
    # one bitmap over the whole register would take 2**40 bits (128 GiB) for
    # this matrix's cover of its three rows, at width n = 40
    matrix = SparseMatrix.from_entries(40, [(5, 9, .5), (2 ** 30, 2 ** 30 + 4, .5),
                                            (123456789, 123456793, .5)])
    sets = {width: {0, 1, 2, 3, 12345, 5 << width - 5, 1 << width - 1, (1 << width) - 1}
            for width in (40, 62)}
    covers = {}
    calls = []

    def spy(labels, width):
        calls.append((sorted(labels), width))
        return _greedy_cubes(labels, width)

    monkeypatch.setattr(index_map, "_greedy_cubes", spy)
    tracemalloc.start()
    try:
        compile_matrix(matrix)
        peaks = [tracemalloc.get_traced_memory()[1]]
        for width, labels in sets.items():
            tracemalloc.reset_peak()
            covers[width] = _greedy_cubes(sorted(labels), width)
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert max(peaks) < 1 << 20
    assert ([5, 123456789, 2 ** 30], 40) in calls
    for width, labels in sets.items():
        assert covers[width] == reference_cube_search(labels, width)
        assert covers[width][0] == (((1 << width) - 1) ^ 0b11, 0)  # the 2-cube 0..3


@pytest.mark.parametrize("seed", range(3))
def test_cube_cover_of_two_thousand_labels_matches_the_set_search(seed):
    # the size of a random n13 matrix's shift groups (about 3,760 labels at
    # width 14): random cubes of 2 to 64 labels, then single labels
    rng = np.random.default_rng(seed)
    width = 14
    labels: set[int] = set()
    while len(labels) < 2000:
        dim = int(rng.integers(1, 7)) if len(labels) < 1000 else 0
        free = sum(1 << int(b) for b in rng.choice(width, size=dim, replace=False))
        labels.update(build_target_set(((1 << width) - 1) ^ free,
                                       int(rng.integers(0, 1 << width)) & ~free, width))
    start = time.perf_counter()
    cover = _greedy_cubes(sorted(labels), width)
    elapsed = time.perf_counter() - start
    assert cover == reference_cube_search(labels, width)
    assert elapsed < 1.0


@st.composite
def _power_of_two_sets(draw):
    width = draw(st.integers(1, 7))
    size = 1 << draw(st.integers(0, width))
    labels = draw(st.sets(st.integers(0, (1 << width) - 1), min_size=size, max_size=size))
    return sorted(labels), width


def _cube_distance(labels, cube):
    """Mask bits summed over the labels on which each differs from the cube."""
    mask, value = cube
    return sum(bin((v ^ value) & mask).count("1") for v in labels)


@settings(max_examples=150, deadline=None)
@given(_power_of_two_sets(), st.sampled_from(FixedIndexPolicy))
def test_routed_swaps_are_at_least_the_cube_distance(drawn, policy):
    # each swap is one bit wide, so it brings at most one member one mask
    # bit nearer the cube: the bound plan_fusion prices padded sets by,
    # checked against the cube the plan actually routes onto
    labels, width = drawn
    plan = plan_fusion(labels, width, policy=policy)
    assert plan.mode in ("direct", "permute")
    (cube,) = plan.cubes
    assert _cube_distance(labels, cube) <= len(plan.swaps)


@st.composite
def _fusion_inputs(draw, width=None):
    width = draw(st.integers(1, 7)) if width is None else width
    full = 1 << width
    labels = draw(st.sets(st.integers(0, full - 1), min_size=1, max_size=full))
    rest = sorted(set(range(full)) - labels)
    zero_slots = draw(st.sets(st.sampled_from(rest))) if rest else set()
    return sorted(labels), width, tuple(sorted(zero_slots))


@settings(max_examples=200, deadline=None)
@given(_fusion_inputs(), st.sampled_from(FixedIndexPolicy), st.integers(1, 8))
def test_plan_fusion_matches_the_unpruned_reference(drawn, policy, core_cost):
    labels, width, zero_slots = drawn
    plan = plan_fusion(labels, width, zero_slots=zero_slots, policy=policy, core_cost=core_cost)
    assert (plan, plan.mode) == reference_plan_fusion(labels, width, zero_slots, policy,
                                                      core_cost)
    assert not plan.swaps or len(plan.cubes) == 1


@st.composite
def _shift_inputs(draw):
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    labels, _, zero_slots = draw(_fusion_inputs(width=m))
    return labels, zero_slots, RegisterLayout(m, n), draw(st.integers(0, n - 1))


@settings(max_examples=200, deadline=None)
@given(_shift_inputs(), st.sampled_from(FixedIndexPolicy), st.sampled_from("LR"),
       st.booleans())
def test_a_shift_group_emits_its_plans_total_count(drawn, policy, direction, defer_restore):
    # total_count is the cost model plan_fusion compares plans and prices its
    # swap-count bound by, so it must be the number of gates the plan emits:
    # n - k per cascade, and each swap twice, or once when the restore is deferred
    labels, zero_slots, layout, k = drawn
    plan, gates = shift_group(labels, direction, 1 << k, layout, zero_slots=zero_slots,
                              policy=policy, defer_restore=defer_restore)
    restore = 0 if defer_restore else len(plan.swaps)
    assert len(gates) == plan.total_count(layout.n - k) - len(plan.swaps) + restore
    assert not plan.swaps or len(plan.cubes) == 1  # a route only onto one cube


def test_a_policy_word_plans_as_its_member():
    lay = RegisterLayout(2, 3)
    for word in ("left", "right"):
        member = FixedIndexPolicy(word)
        assert plan_fusion([0, 3], 2, policy=word) == plan_fusion([0, 3], 2, policy=member)
        assert delete_group([1], [0, 3], lay, word) == delete_group([1], [0, 3], lay, member)
        assert (insert_stage([((0, 3), [1])], lay, word)
                == insert_stage([((0, 3), [1])], lay, member))


def test_pruned_padded_plans_match_the_reference_and_skip_their_solves(solves):
    # non-power-of-two sets of 3 to 7 bits beside any number of zero slots:
    # the skip must fire, a padded permute must still win sometimes, and
    # every plan must be the one the unpruned reference picks
    rng = np.random.default_rng(2024)
    modes, skipped = set(), 0
    for _ in range(400):
        width = int(rng.integers(3, 8))
        size = int(rng.integers(3, (1 << width) - 1))
        if size & (size - 1) == 0:
            continue
        cells = [int(v) for v in rng.permutation(1 << width)]
        labels, spare = sorted(cells[:size]), cells[size:]
        zero_slots = tuple(sorted(spare[:int(rng.integers(0, len(spare) + 1))]))
        policy = FixedIndexPolicy(str(rng.choice(["left", "right"])))
        core_cost = int(rng.integers(1, 9))
        solves.clear()
        plan = plan_fusion(labels, width, zero_slots=zero_slots, policy=policy,
                           core_cost=core_cost)
        pruned = len(solves)
        solves.clear()
        assert (plan, plan.mode) == reference_plan_fusion(labels, width, zero_slots, policy,
                                                          core_cost)
        assert pruned <= len(solves)
        skipped += len(solves) - pruned
        modes.add(plan.mode)
    assert skipped > 0
    assert {"partition", "padded", "padded-permute"} <= modes


@st.composite
def _near_cubes(draw):
    # a cube of up to 32 labels at widths 1 to 14, as it is, with one label
    # removed or with one label outside it added; dimension 0 is one label
    width = draw(st.integers(1, 14))
    full = (1 << width) - 1
    bits = draw(st.lists(st.integers(0, width - 1), max_size=min(width, 5), unique=True))
    free = sum(1 << b for b in bits)
    mask = full ^ free
    labels = set(build_target_set(mask, draw(st.integers(0, full)) & mask, width))
    change = draw(st.sampled_from(["cube", "less", "more"]))
    if change == "less" and len(labels) > 1:
        labels.discard(draw(st.sampled_from(sorted(labels))))
    elif change == "more" and mask:
        v = draw(st.integers(0, full))
        labels.add(v ^ (mask & -mask) if v in labels else v)  # off a fixed bit: outside
    return labels, width


@settings(max_examples=300, deadline=None)
@given(_near_cubes())
@example(({0}, 1))
@example(({0, 1}, 1))
@example(({5, 7}, 3))
def test_cube_short_path_matches_the_references(drawn):
    labels, width = drawn
    cover = _greedy_cubes(sorted(labels), width)
    assert cover == reference_cube_search(labels, width)
    strings = sorted(as_strings(labels, width))
    assert [select_pattern(*cube, width) for cube in cover] == reference_greedy_cubes(strings)
    size = len(labels)
    if not size & (size - 1) and index_map.is_reducible(labels, width):
        assert len(cover) == 1
