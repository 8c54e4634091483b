from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockenc.assignment import (FixedIndexPolicy, _tie_break, build_target_set,
                                 hamming, mode_pattern, solve_assignment)
from blockenc.errors import BadInput
from blockenc.mcx import ControlSet, is_reducible

from conftest import (as_strings, brute_force_assignment, brute_force_unrestricted,
                      random_control_set, reference_assignment, reference_tie_break)


def _string_pairs(phi):
    """The bijection's pairs as binary strings, the oracles' form."""
    return tuple((format(a, f"0{phi.width}b"), format(b, f"0{phi.width}b")) for a, b in phi.pairs)


def test_hamming_examples():
    assert hamming(0b010, 0b001) == 2
    assert hamming(0b0110, 0b0110) == 0
    assert hamming(0b0000, 0b1111) == 4


def test_fixed_index_policies():
    assert FixedIndexPolicy.right_ended().resolve(4, 8) == 0b1
    assert FixedIndexPolicy.left_ended().resolve(5, 8) == 0b11000
    assert FixedIndexPolicy.explicit([1, 3]).resolve(4, 4) == 0b1010
    with pytest.raises(BadInput):
        FixedIndexPolicy.explicit([1]).resolve(4, 4)  # needs two bits


def test_mode_pattern_tie_breaks_low():
    s2 = ControlSet(3, {0b000, 0b001, 0b100, 0b111})
    assert mode_pattern(s2, 0b100) == 0


def test_mode_pattern_unanimous():
    assert mode_pattern(ControlSet(2, {0b00, 0b01}), 0b10) == 0


def test_mode_pattern_structured_unit_shift_group():
    members = {0b0000, 0b0001, 0b0111, 0b1000, 0b1011, 0b1100, 0b1110, 0b1111}
    assert mode_pattern(ControlSet(4, members), 0b0001) == 0


def test_build_target_set_top_bit():
    out = build_target_set(0b100, 0, 3)
    assert out.labels == frozenset({0b000, 0b001, 0b010, 0b011})
    assert is_reducible(out) is not None


def test_build_target_set_empty_fixed():
    out = build_target_set(0, 0, 2)
    assert out.labels == frozenset({0b00, 0b01, 0b10, 0b11})


def test_build_target_set_low_bit_even_states():
    out = build_target_set(0b0001, 0, 4)
    assert out.labels == frozenset(range(0, 16, 2))


def test_mode_pattern_maximizes_overlap(rng):
    for _ in range(50):
        P = int(rng.integers(2, 6))
        n = int(rng.integers(1, P))
        s2 = random_control_set(rng, P, 1 << n)
        fixed = sum(1 << int(b) for b in rng.choice(P, size=P - n, replace=False))
        chosen = mode_pattern(s2, fixed)
        chosen_overlap = len(s2.labels & build_target_set(fixed, chosen, P).labels)
        for other in range(1 << P):
            if other & ~fixed:
                continue
            overlap = len(s2.labels & build_target_set(fixed, other, P).labels)
            assert overlap <= chosen_overlap


def test_reference_mapping_and_cost():
    s2 = ControlSet(3, {0b000, 0b001, 0b100, 0b111})
    s3 = build_target_set(0b100, mode_pattern(s2, 0b100), 3)
    assert s3.labels == frozenset({0b000, 0b001, 0b010, 0b011})
    phi = solve_assignment(s2, s3)
    assert phi.mapping == {0b000: 0b000, 0b001: 0b001, 0b100: 0b010, 0b111: 0b011}
    assert phi.cost == brute_force_assignment(as_strings(s2.labels, 3),
                                              as_strings(s3.labels, 3)) == 3


def test_identity_assignment():
    s = ControlSet(2, {0b01, 0b10})
    phi = solve_assignment(s, s)
    assert phi.cost == 0
    assert all(a == b for a, b in phi.pairs)


def test_random_assignment_matches_brute_force(rng):
    for _ in range(300):
        P = int(rng.integers(2, 7))
        size = int(rng.integers(1, min(6, 1 << P) + 1))
        src = random_control_set(rng, P, size)
        dst = random_control_set(rng, P, size)
        phi = solve_assignment(src, dst)
        assert phi.cost == brute_force_assignment(as_strings(src.labels, P),
                                                  as_strings(dst.labels, P))
        # result is a bijection onto the target set, identity on the overlap
        assert set(phi.mapping.values()) == set(dst.labels)
        for s in src.labels & dst.labels:
            assert phi.mapping[s] == s


def test_lexicographic_tie_break(rng):
    for _ in range(100):
        P = int(rng.integers(2, 5))
        size = int(rng.integers(1, min(5, 1 << P) + 1))
        src = random_control_set(rng, P, size)
        dst = random_control_set(rng, P, size)
        phi = solve_assignment(src, dst)
        common = src.labels & dst.labels
        rs = sorted(src.labels - common)
        rt = sorted(dst.labels - common)
        best = None
        for perm in permutations(rt):
            cost = sum(hamming(s, t) for s, t in zip(rs, perm))
            if best is None or cost < best[0] or (cost == best[0] and perm < best[1]):
                best = (cost, perm)
        if rs:
            expect = dict(zip(rs, best[1]))
            for s in rs:
                assert phi.mapping[s] == expect[s]


def test_optimal_not_above_any_random_bijection(rng):
    for _ in range(100):
        P = 4
        size = int(rng.integers(2, 8))
        src = random_control_set(rng, P, size)
        dst = random_control_set(rng, P, size)
        phi = solve_assignment(src, dst)
        targets = list(dst.labels)
        rng.shuffle(targets)
        random_cost = sum(hamming(s, t) for s, t in zip(sorted(src.labels), targets))
        assert phi.cost <= random_cost


def test_identity_restriction_never_costs_more(rng):
    # forcing overlap strings to map to themselves does not raise the optimum
    for _ in range(200):
        P = int(rng.integers(2, 6))
        size = int(rng.integers(1, min(6, 1 << P) + 1))
        src = random_control_set(rng, P, size)
        dst = random_control_set(rng, P, size)
        phi = solve_assignment(src, dst)
        assert phi.cost == brute_force_unrestricted(as_strings(src.labels, P),
                                                    as_strings(dst.labels, P))


def test_size_mismatch_rejected():
    with pytest.raises(BadInput):
        solve_assignment(ControlSet(2, {0b00}), ControlSet(2, {0b01, 0b10}))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.data())
def test_bijection_matches_reference_on_random_sets(P, data):
    size = data.draw(st.integers(1, min(8, 1 << P)))
    space = st.integers(0, (1 << P) - 1)
    src = data.draw(st.sets(space, min_size=size, max_size=size))
    dst = data.draw(st.sets(space, min_size=size, max_size=size))
    s2 = ControlSet(P, src)
    s3 = ControlSet(P, dst)
    assert _string_pairs(solve_assignment(s2, s3)) == reference_assignment(
        as_strings(src, P), as_strings(dst, P))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 8), st.integers(1, 3), st.data())
def test_tie_break_matches_reference_on_tied_costs(n, spread, data):
    # costs drawn from {0, .., spread - 1}: many optimal assignments tie
    cells = data.draw(st.lists(st.integers(0, spread - 1), min_size=n * n, max_size=n * n))
    cost = np.array(cells, dtype=np.int64).reshape(n, n)
    cols, total = _tie_break(cost.copy())
    assert cols == reference_tie_break(cost)
    assert total == int(cost[np.arange(n), cols].sum())


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.data())
def test_bijection_matches_reference_onto_reducible_targets(P, data):
    # the compiler's case: an irreducible set onto a reducible target set
    n = data.draw(st.integers(1, P - 1))
    src = data.draw(st.sets(st.integers(0, (1 << P) - 1), min_size=1 << n, max_size=1 << n))
    s2 = ControlSet(P, src)
    fixed = FixedIndexPolicy.right_ended().resolve(P, 1 << n)
    s3 = build_target_set(fixed, mode_pattern(s2, fixed), P)
    assert _string_pairs(solve_assignment(s2, s3)) == reference_assignment(
        as_strings(s2.labels, P), as_strings(s3.labels, P))
