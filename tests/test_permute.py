import numpy as np
import pytest

from blockenc import permute
from blockenc.assignment import solve_assignment, build_target_set, hamming, mode_pattern
from blockenc.errors import BadInput
from blockenc.ir import Circuit, circuit_unitary
from blockenc.permute import basis_swap, permute_circuit, route_permutation

from conftest import assert_permutation_matrix, permute_inverse, reference_route_permutation


def _random_bijection(rng, P, size):
    """Sorted (source, target) pairs of a random matching, identity on the overlap."""
    src = rng.choice(1 << P, size=size, replace=False)
    dst = rng.choice(1 << P, size=size, replace=False)
    s = {int(v) for v in src}
    t = {int(v) for v in dst}
    common = s & t
    rs, rt = sorted(s - common), sorted(t - common)
    rt = [rt[i] for i in rng.permutation(len(rt))]
    return tuple(sorted([(c, c) for c in common] + list(zip(rs, rt))))


def _random_permutation(rng, P):
    """Sorted pairs of a permutation of all 2^P labels, most of them fixed."""
    labels = rng.permutation(1 << P)
    moved = sorted(int(v) for v in labels[: int(rng.integers(1, (1 << P) // 3 + 2))])
    targets = [moved[i] for i in rng.permutation(len(moved))]
    fixed = [(v, v) for v in range(1 << P) if v not in moved]
    return tuple(sorted(fixed + list(zip(moved, targets))))


def test_basis_swap_high_pair():
    g = basis_swap(0b110, 0b111, 3)
    assert g.controls == (0b110, 0b110) and g.target == 2
    u = circuit_unitary(Circuit(3, (g,)))
    expected = np.eye(8)
    expected[[6, 7]] = expected[[7, 6]]
    assert np.array_equal(u, expected)


def test_basis_swap_low_pair():
    g = basis_swap(0b000, 0b001, 3)
    assert g.controls == (0b110, 0) and g.target == 2


def test_basis_swap_involution():
    g = basis_swap(0b010, 0b110, 3)
    u = circuit_unitary(Circuit(3, (g,)))
    assert np.array_equal(u @ u, np.eye(8))


def test_basis_swap_rejects_distant_states():
    with pytest.raises(BadInput, match="0 and 3 do not differ in exactly one of 2 bits"):
        basis_swap(0b00, 0b11, 2)


def test_identity_bijection_empty_circuit():
    assert len(permute_circuit(((0b01, 0b01), (0b10, 0b10)), 2)) == 0


def test_reference_permutation_mapping():
    s2 = {0b000, 0b001, 0b100, 0b111}
    s3 = build_target_set(0b100, mode_pattern(s2, 0b100), 3)
    pairs = solve_assignment(s2, s3, 3)
    u = circuit_unitary(permute_circuit(pairs, 3))
    assert_permutation_matrix(u.real)
    for src, dst in pairs:
        assert u[dst, src] == 1


def test_structured_unit_shift_routing_steps():
    # reference optimal mapping for the unit-shift group of the structured
    # example; the distance-3 source routes stepwise, most significant bit first
    pairs = ((0b0000, 0b0000), (0b0001, 0b0010), (0b0111, 0b0110),
             (0b1000, 0b1000), (0b1011, 0b1010), (0b1100, 0b1100),
             (0b1110, 0b1110), (0b1111, 0b0100))
    swaps = route_permutation(pairs, 4)
    expected_tail = [(0b1111, 0b0111), (0b0111, 0b0101), (0b0101, 0b0100)]
    assert swaps[-3:] == expected_tail
    assert (0b0001, 0b0011) in swaps and (0b0011, 0b0010) in swaps
    u = circuit_unitary(permute_circuit(pairs, 4))
    for src, dst in pairs:
        assert u[dst, src] == 1


def test_swap_count_within_bounds_from_pairs(rng):
    # each swap moves two labels by one bit; each source takes at most P
    # greedy steps, then one simple hypercube path or one conjugated direct path
    for _ in range(200):
        P = int(rng.integers(2, 6))
        size = int(rng.integers(1, (1 << P) + 1))
        pairs = _random_bijection(rng, P, size)
        moving = [(s, t) for s, t in pairs if s != t]
        swaps = route_permutation(pairs, P)
        assert sum(hamming(s, t) for s, t in moving) <= 2 * len(swaps)
        assert len(swaps) <= len(moving) * (P + (1 << P) - 1)


def test_router_matches_reference(rng, monkeypatch):
    found = []  # every fallback path: None where the conjugated direct path follows
    real_bfs_path = permute._bfs_path

    def bfs_path(*args):
        found.append(real_bfs_path(*args))
        return found[-1]

    monkeypatch.setattr(permute, "_bfs_path", bfs_path)
    for i in range(300):
        P = int(rng.integers(1, 7))
        if i % 2:
            pairs = _random_bijection(rng, P, int(rng.integers(1, (1 << P) + 1)))
        else:
            pairs = _random_permutation(rng, P)
        assert route_permutation(pairs, P) == reference_route_permutation(pairs, P).swaps
    assert any(p is not None for p in found), "no route took the path around settled states"
    assert any(p is None for p in found), "no route took the conjugated direct path"


@pytest.mark.parametrize("P", [7, 8])
def test_router_matches_reference_at_compiler_sizes(rng, P):
    # matchings of 7 and 8 bits, the widths of the largest routes the bench compiles
    for i in range(10):
        if i % 2:
            pairs = _random_bijection(rng, P, int(rng.integers(8, 65)))
        else:
            pairs = _random_permutation(rng, P)
        assert route_permutation(pairs, P) == reference_route_permutation(pairs, P).swaps


def test_random_bijections_realized_exactly(rng):
    for _ in range(200):
        P = int(rng.integers(1, 6))
        size = int(rng.integers(1, (1 << P) + 1))
        pairs = _random_bijection(rng, P, size)
        circ = permute_circuit(pairs, P)
        u = circuit_unitary(circ)
        assert_permutation_matrix(u.real)
        for src, dst in pairs:
            assert u[dst, src] == 1


def test_inverse_of_empty_is_empty():
    assert len(permute_inverse(Circuit(3))) == 0


def test_inverse_of_single_swap_is_same_gate():
    c = Circuit(3, (basis_swap(0b010, 0b011, 3),))
    assert permute_inverse(c).gates == c.gates


def test_inverse_composes_to_identity(rng):
    for _ in range(50):
        P = int(rng.integers(2, 6))
        size = int(rng.integers(1, (1 << P) + 1))
        circ = permute_circuit(_random_bijection(rng, P, size), P)
        inv = permute_inverse(circ)
        u = circuit_unitary(Circuit(P, circ.gates + inv.gates))
        assert np.array_equal(u, np.eye(1 << P))


@pytest.mark.parametrize("pairs", [((0, 5),), ((5, 0),), ((0, -1),), ((-1, 0),),
                                   ((0, 1), (2, 1)), ((0, 1), (0, 2))],
                         ids=["target-above", "source-above", "target-negative",
                              "source-negative", "repeated-target", "repeated-source"])
def test_router_refuses_malformed_pairs(pairs):
    # unchecked, a target the 2-bit space cannot reach would keep the router stepping forever
    with pytest.raises(BadInput):
        route_permutation(pairs, 2)
    with pytest.raises(BadInput):
        permute_circuit(pairs, 2)


def test_router_swaps_are_ints_for_numpy_labels():
    swaps = route_permutation([(np.int64(0), np.int64(3))], np.int64(2))
    assert swaps == [(0, 2), (2, 3)]  # the higher bit first
    assert all(type(v) is int for swap in swaps for v in swap)
