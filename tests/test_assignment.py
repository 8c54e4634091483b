from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from blockenc.assignment import (FixedIndexPolicy, build_target_set, hamming,
                                 linear_sum_assignment as solve_lsap, mode_pattern,
                                 solve_assignment)
from blockenc.errors import BadInput
from blockenc.index_map import (delete_group, delete_rows_plan, insert_stage, is_reducible,
                                plan_fusion)
from blockenc.ir import RegisterLayout
from blockenc.permute import route_permutation

from conftest import (as_strings, brute_force_assignment, brute_force_unrestricted,
                      random_labels, reference_assignment, reference_tie_break)


def _string_pairs(pairs, width):
    """The matching's pairs as binary strings, the oracles' form."""
    return tuple((format(a, f"0{width}b"), format(b, f"0{width}b")) for a, b in pairs)


def _cost(pairs) -> int:
    """Hamming cost of the pairs the solver returned."""
    return sum(hamming(s, t) for s, t in pairs)


def test_hamming_examples():
    assert hamming(0b010, 0b001) == 2
    assert hamming(0b0110, 0b0110) == 0
    assert hamming(0b0000, 0b1111) == 4


def test_fixed_index_policies():
    assert FixedIndexPolicy.RIGHT_ENDED.resolve(4, 8) == 0b1
    assert FixedIndexPolicy.LEFT_ENDED.resolve(5, 8) == 0b11000
    with pytest.raises(BadInput):
        FixedIndexPolicy.RIGHT_ENDED.resolve(3, 3)  # size not a power of two
    with pytest.raises(BadInput):
        FixedIndexPolicy.RIGHT_ENDED.resolve(2, 8)  # set larger than the space


def test_mode_pattern_tie_breaks_low():
    assert mode_pattern({0b000, 0b001, 0b100, 0b111}, 0b100) == 0


def test_mode_pattern_unanimous():
    assert mode_pattern({0b00, 0b01}, 0b10) == 0


def test_mode_pattern_structured_unit_shift_group():
    members = {0b0000, 0b0001, 0b0111, 0b1000, 0b1011, 0b1100, 0b1110, 0b1111}
    assert mode_pattern(members, 0b0001) == 0


def test_build_target_set_top_bit():
    out = build_target_set(0b100, 0, 3)
    assert out == [0b000, 0b001, 0b010, 0b011]
    assert is_reducible(out, 3) is not None


def test_build_target_set_empty_fixed():
    out = build_target_set(0, 0, 2)
    assert out == [0b00, 0b01, 0b10, 0b11]


def test_build_target_set_value_outside_mask():
    with pytest.raises(BadInput):
        build_target_set(0b01, 0b10, 2)


def test_build_target_set_low_bit_even_states():
    out = build_target_set(0b0001, 0, 4)
    assert out == list(range(0, 16, 2))


def test_mode_pattern_maximizes_overlap(rng):
    for _ in range(50):
        P = int(rng.integers(2, 6))
        n = int(rng.integers(1, P))
        s2 = random_labels(rng, P, 1 << n)
        fixed = sum(1 << int(b) for b in rng.choice(P, size=P - n, replace=False))
        chosen = mode_pattern(s2, fixed)
        chosen_overlap = len(s2 & set(build_target_set(fixed, chosen, P)))
        for other in range(1 << P):
            if other & ~fixed:
                continue
            overlap = len(s2 & set(build_target_set(fixed, other, P)))
            assert overlap <= chosen_overlap


def test_reference_mapping_and_cost():
    s2 = {0b000, 0b001, 0b100, 0b111}
    s3 = build_target_set(0b100, mode_pattern(s2, 0b100), 3)
    assert s3 == [0b000, 0b001, 0b010, 0b011]
    pairs = solve_assignment(s2, s3, 3)
    assert dict(pairs) == {0b000: 0b000, 0b001: 0b001, 0b100: 0b010, 0b111: 0b011}
    assert _cost(pairs) == brute_force_assignment(as_strings(s2, 3), as_strings(s3, 3)) == 3


def test_identity_assignment():
    s = {0b01, 0b10}
    pairs = solve_assignment(s, s, 2)
    assert _cost(pairs) == 0
    assert all(a == b for a, b in pairs)
    assert solve_assignment(set(), set(), 2) == ()  # the solver's 0 x 0 case


def test_random_assignment_matches_brute_force(rng):
    for _ in range(300):
        P = int(rng.integers(2, 7))
        size = int(rng.integers(1, min(6, 1 << P) + 1))
        src = random_labels(rng, P, size)
        dst = random_labels(rng, P, size)
        pairs = solve_assignment(src, dst, P)
        assert _cost(pairs) == brute_force_assignment(as_strings(src, P), as_strings(dst, P))
        # result is a bijection onto the target set, identity on the overlap
        mapping = dict(pairs)
        assert set(mapping) == src and sorted(mapping.values()) == sorted(dst)
        for s in src & dst:
            assert mapping[s] == s


def test_lexicographic_tie_break(rng):
    for _ in range(100):
        P = int(rng.integers(2, 5))
        size = int(rng.integers(1, min(5, 1 << P) + 1))
        src = random_labels(rng, P, size)
        dst = random_labels(rng, P, size)
        mapping = dict(solve_assignment(src, dst, P))
        common = src & dst
        rs = sorted(src - common)
        rt = sorted(dst - common)
        best = None
        for perm in permutations(rt):
            cost = sum(hamming(s, t) for s, t in zip(rs, perm))
            if best is None or cost < best[0] or (cost == best[0] and perm < best[1]):
                best = (cost, perm)
        if rs:
            expect = dict(zip(rs, best[1]))
            for s in rs:
                assert mapping[s] == expect[s]


def test_optimal_not_above_any_random_bijection(rng):
    for _ in range(100):
        P = 4
        size = int(rng.integers(2, 8))
        src = random_labels(rng, P, size)
        dst = random_labels(rng, P, size)
        pairs = solve_assignment(src, dst, P)
        targets = list(dst)
        rng.shuffle(targets)
        random_cost = sum(hamming(s, t) for s, t in zip(sorted(src), targets))
        assert _cost(pairs) <= random_cost


def test_identity_restriction_never_costs_more(rng):
    # forcing overlap strings to map to themselves does not raise the optimum
    for _ in range(200):
        P = int(rng.integers(2, 6))
        size = int(rng.integers(1, min(6, 1 << P) + 1))
        src = random_labels(rng, P, size)
        dst = random_labels(rng, P, size)
        pairs = solve_assignment(src, dst, P)
        assert _cost(pairs) == brute_force_unrestricted(as_strings(src, P), as_strings(dst, P))


def test_size_mismatch_rejected():
    with pytest.raises(BadInput):
        solve_assignment({0b00}, {0b01, 0b10}, 2)


def test_labels_wider_than_64_bits_rejected():
    # the Hamming costs are taken on uint64 labels
    assert solve_assignment({1 << 63}, {0}, 64) == ((1 << 63, 0),)
    with pytest.raises(BadInput):
        solve_assignment({1 << 64}, {0}, 65)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.data())
def test_bijection_matches_reference_on_random_sets(P, data):
    size = data.draw(st.integers(1, min(8, 1 << P)))
    space = st.integers(0, (1 << P) - 1)
    src = data.draw(st.sets(space, min_size=size, max_size=size))
    dst = data.draw(st.sets(space, min_size=size, max_size=size))
    assert _string_pairs(solve_assignment(src, dst, P), P) == reference_assignment(
        as_strings(src, P), as_strings(dst, P))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 8), st.integers(1, 3), st.data())
def test_tie_break_matches_reference_on_tied_costs(n, spread, data):
    # costs drawn from {0, .., spread - 1}: many optimal assignments tie
    cells = data.draw(st.lists(st.integers(0, spread - 1), min_size=n * n, max_size=n * n))
    cost = np.array(cells, dtype=np.int64).reshape(n, n)
    cols = solve_lsap(cost.tolist())[0]
    assert cols == reference_tie_break(cost)
    rows, best = linear_sum_assignment(cost)
    assert int(cost[np.arange(n), cols].sum()) == int(cost[rows, best].sum())


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.data())
def test_bijection_matches_reference_onto_reducible_targets(P, data):
    # the compiler's case: an irreducible set onto a reducible target set
    n = data.draw(st.integers(1, P - 1))
    src = data.draw(st.sets(st.integers(0, (1 << P) - 1), min_size=1 << n, max_size=1 << n))
    fixed = FixedIndexPolicy.RIGHT_ENDED.resolve(P, 1 << n)
    dst = build_target_set(fixed, mode_pattern(src, fixed), P)
    assert _string_pairs(solve_assignment(src, dst, P), P) == reference_assignment(
        as_strings(src, P), as_strings(dst, P))


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 12), st.integers(1, 4), st.data())
def test_solver_is_optimal_with_integer_duals(n, spread, data):
    # tied integer costs: the matching is the lexicographic optimum, the duals prove it
    cells = data.draw(st.lists(st.integers(0, spread - 1), min_size=n * n, max_size=n * n))
    cost = [cells[j * n:(j + 1) * n] for j in range(n)]
    cols, u, v = solve_lsap(cost)
    assert sorted(cols) == list(range(n))
    assert cols == reference_tie_break(np.array(cost))
    rows, best = linear_sum_assignment(np.array(cost))
    assert sum(cost[j][cols[j]] for j in range(n)) == int(np.array(cost)[rows, best].sum())
    assert all(type(p) is int for p in u + v)
    assert all(u[j] + v[k] <= cost[j][k] for j in range(n) for k in range(n))
    assert all(u[j] + v[cols[j]] == cost[j][cols[j]] for j in range(n))


@pytest.mark.parametrize("seed", range(8))
def test_tie_break_matches_reference_at_compiler_sizes(seed):
    # 24 to 48 sources of 6 or 7 bits onto as many labels of a 64-label cube,
    # the sizes of the largest assignments the bench compiles
    rng = np.random.default_rng(seed)
    P = 6 + seed % 2
    size = int(rng.integers(24, 49))
    src = sorted(random_labels(rng, P, size))
    fixed = FixedIndexPolicy.LEFT_ENDED.resolve(P, 64)
    cube = build_target_set(fixed, mode_pattern(src, fixed), P)
    dst = sorted(int(t) for t in rng.choice(cube, size=size, replace=False))
    cost = [[hamming(s, t) for t in dst] for s in src]
    assert solve_lsap(cost)[0] == reference_tie_break(np.array(cost))


@pytest.mark.parametrize("n", [63, 100, 130])
def test_tie_break_and_duals_past_one_bitmask_word(n):
    # tied costs on more than 62 columns: the tight graph's bitmasks take a
    # second (and at 130 a third) 62-column word
    cost = np.random.default_rng(n).integers(0, 3, size=(n, n))
    assert solve_lsap(cost.tolist())[0] == reference_tie_break(cost)
    cols, u, v = solve_lsap(cost.tolist())
    assert sorted(cols) == list(range(n))
    assert all(type(p) is int for p in u + v)
    duals = np.array(u)[:, None] + np.array(v)
    assert np.all(duals <= cost)
    assert np.all(duals[np.arange(n), cols] == cost[np.arange(n), cols])
    rows, best = linear_sum_assignment(cost)
    assert int(cost[np.arange(n), cols].sum()) == int(cost[rows, best].sum())


def test_solver_refuses_float_costs():
    # truncated to int64, [[0.5, 0.4], [0.4, 0.5]] would take the diagonal at cost 1.0
    with pytest.raises(BadInput, match="integer"):
        solve_lsap([[0.5, 0.4], [0.4, 0.5]])
    with pytest.raises(BadInput, match="integer"):
        solve_lsap(np.array([[1.0, 2.0], [3.0, 4.0]]))


@pytest.mark.parametrize("cost", [[[1, 2, 3], [4, 5, 6]], [[1, 2], [3]], [[]], [1, 2], [[[1]]]],
                         ids=["2x3", "ragged", "1x0", "vector", "3d"])
def test_solver_refuses_a_cost_that_is_not_square(cost):
    with pytest.raises(BadInput):
        solve_lsap(cost)


def test_solver_on_an_empty_matrix():
    assert solve_lsap([]) == ([], [], [])
    assert solve_lsap(np.zeros((0, 0), dtype=np.int64)) == ([], [], [])


@pytest.mark.parametrize("cost", [
    [[2**62, -2**62], [-2**62, 2**62]],  # range 2^63: the duals wrap
    np.array([[2**63, 0], [0, 1]], dtype=np.uint64),  # past int64 before the cast
    [[0, 2**62], [2**62, 0]],  # range 2^62: a slack could reach 2^63
    [[-2**62 - 2, -3], [-3, -3]],  # range 2^62 - 1, but a v could fall below -2^63
], ids=["range-2^63", "uint64-2^63", "range-2^62", "low-v"])
def test_solver_refuses_costs_that_could_wrap_int64(cost):
    with pytest.raises(BadInput, match="int64"):
        solve_lsap(cost)


@pytest.mark.parametrize("seed", range(8))
def test_solver_at_the_int64_bound_matches_brute_force(seed):
    # entries span R = 2^62 - 1, the widest range accepted, from lo = -2^62
    # or up to hi = 2^63 - 1: the lexicographic optimum over all permutations
    rng = np.random.default_rng(seed)
    n = 2 + seed % 4
    spread = (1 << 62) - 1
    lo = -(1 << 62) if seed % 2 else (1 << 63) - 1 - spread
    cells = [int(c) for c in rng.integers(0, spread, size=n * n, endpoint=True)]
    cells[:2] = [0, spread]  # both ends of the range
    cost = [[lo + cells[j * n + k] for k in range(n)] for j in range(n)]
    cols, u, v = solve_lsap(cost)
    best = min(permutations(range(n)),
               key=lambda p: (sum(cost[j][p[j]] for j in range(n)), p))
    assert tuple(cols) == best
    assert all(u[j] + v[k] <= cost[j][k] for j in range(n) for k in range(n))
    assert all(u[j] + v[cols[j]] == cost[j][cols[j]] for j in range(n))


# labels that break the label rule as often as they keep it: negatives, bools,
# numpy integers, repeats from a small range, and labels at or past the width
_LABELS = st.lists(st.one_of(st.integers(-2, 9), st.booleans(),
                             st.integers(0, 9).map(np.int64), st.integers(0, 300)),
                   max_size=8)


def _obeys_label_rule(labels, width) -> bool:
    """The label rule, spelled out: an integer width >= 0, and distinct
    integer labels, bools excluded, in 0 .. 2**width - 1."""
    return (width >= 0 and not any(isinstance(v, bool) for v in labels)
            and all(0 <= v < 1 << width for v in labels)
            and len({int(v) for v in labels}) == len(labels))


def _returns_only_under_the_rule(call, obeyed: bool) -> None:
    try:
        call()
    except BadInput:
        return
    assert obeyed


@settings(max_examples=300, deadline=None)
@given(_LABELS, _LABELS, st.integers(-3, 8), st.integers(0, 4), st.integers(0, 4),
       st.integers(0, 255), st.integers(0, 255))
def test_every_label_entry_returns_only_under_the_label_rule(labels, others, width, m, n,
                                                             mask, value):
    # each entry either returns, on labels and widths the rule allows, or
    # raises BadInput; any other exception fails the test
    ok = _obeys_label_rule(labels, width)
    both = ok and _obeys_label_rule(others, width)
    _returns_only_under_the_rule(lambda: is_reducible(labels, width), ok)
    _returns_only_under_the_rule(lambda: plan_fusion(labels, width), ok)
    _returns_only_under_the_rule(lambda: plan_fusion(labels, width, zero_slots=others), both)
    _returns_only_under_the_rule(lambda: solve_assignment(labels, others, width), both)
    k = min(len(labels), len(others))
    _returns_only_under_the_rule(
        lambda: route_permutation(list(zip(labels, others)), width),
        _obeys_label_rule(labels[:k], width) and _obeys_label_rule(others[:k], width))
    _returns_only_under_the_rule(lambda: build_target_set(mask, value, width), width >= 0)
    layout = RegisterLayout(m, n)
    rows_ok = _obeys_label_rule(others, n)
    _returns_only_under_the_rule(lambda: delete_rows_plan(others, layout), rows_ok)
    _returns_only_under_the_rule(lambda: delete_group(labels, others, layout),
                                 _obeys_label_rule(labels, m) and rows_ok)
    _returns_only_under_the_rule(lambda: insert_stage([(others, labels)], layout),
                                 _obeys_label_rule(labels, m) and rows_ok)
