import numpy as np
import pytest

from blockenc.assignment import Bijection, hamming, solve_assignment, build_target_set, mode_pattern
from blockenc.errors import NotAdjacent
from blockenc.ir import Circuit, circuit_unitary, gate_unitary
from blockenc.mcx import ControlSet
from blockenc.permute import (basis_swap, permute_circuit, permute_inverse,
                              route_permutation)

from conftest import assert_permutation_matrix


def _bijection(pairs, width) -> Bijection:
    pairs = tuple(sorted(pairs))
    return Bijection(pairs, sum(hamming(a, b) for a, b in pairs), width)


def _random_bijection(rng, P, size) -> Bijection:
    src = rng.choice(1 << P, size=size, replace=False)
    dst = rng.choice(1 << P, size=size, replace=False)
    s = {int(v) for v in src}
    t = {int(v) for v in dst}
    common = s & t
    rs, rt = sorted(s - common), sorted(t - common)
    rt = [rt[i] for i in rng.permutation(len(rt))]
    return _bijection([(c, c) for c in common] + list(zip(rs, rt)), P)


def test_basis_swap_high_pair():
    g = basis_swap(0b110, 0b111, 3)
    assert g.pattern == "11X" and g.target == 2
    u = gate_unitary(g, 3)
    expected = np.eye(8)
    expected[[6, 7]] = expected[[7, 6]]
    assert np.array_equal(u, expected)


def test_basis_swap_low_pair():
    g = basis_swap(0b000, 0b001, 3)
    assert g.pattern == "00X" and g.target == 2


def test_basis_swap_involution():
    g = basis_swap(0b010, 0b110, 3)
    u = gate_unitary(g, 3)
    assert np.array_equal(u @ u, np.eye(8))


def test_basis_swap_rejects_distant_states():
    with pytest.raises(NotAdjacent):
        basis_swap(0b00, 0b11, 2)


def test_identity_bijection_empty_circuit():
    phi = _bijection([(0b01, 0b01), (0b10, 0b10)], 2)
    assert len(permute_circuit(phi)) == 0


def test_reference_permutation_mapping():
    s2 = ControlSet(3, {0b000, 0b001, 0b100, 0b111})
    s3 = build_target_set(0b100, mode_pattern(s2, 0b100), 3)
    phi = solve_assignment(s2, s3)
    u = circuit_unitary(permute_circuit(phi))
    assert_permutation_matrix(u.real)
    for src, dst in phi.pairs:
        assert u[dst, src] == 1


def test_structured_unit_shift_routing_steps():
    # reference optimal mapping for the unit-shift group of the structured
    # example; the distance-3 source routes stepwise, most significant bit first
    phi = _bijection([(0b0000, 0b0000), (0b0001, 0b0010), (0b0111, 0b0110),
                      (0b1000, 0b1000), (0b1011, 0b1010), (0b1100, 0b1100),
                      (0b1110, 0b1110), (0b1111, 0b0100)], 4)
    plan = route_permutation(phi)
    expected_tail = [(0b1111, 0b0111), (0b0111, 0b0101), (0b0101, 0b0100)]
    assert plan.swaps[-3:] == expected_tail
    assert (0b0001, 0b0011) in plan.swaps and (0b0011, 0b0010) in plan.swaps
    u = circuit_unitary(permute_circuit(phi))
    for src, dst in phi.pairs:
        assert u[dst, src] == 1


def test_gate_count_meets_hamming_bound(rng):
    for _ in range(200):
        P = int(rng.integers(2, 6))
        size = int(rng.integers(1, (1 << P) + 1))
        phi = _random_bijection(rng, P, size)
        plan = route_permutation(phi)
        assert plan.gate_count <= plan.hamming_bound + 2 * plan.detour_steps


def test_random_bijections_realized_exactly(rng):
    for _ in range(200):
        P = int(rng.integers(1, 6))
        size = int(rng.integers(1, (1 << P) + 1))
        phi = _random_bijection(rng, P, size)
        circ = permute_circuit(phi)
        u = circuit_unitary(circ)
        assert_permutation_matrix(u.real)
        for src, dst in phi.pairs:
            assert u[dst, src] == 1


def test_inverse_of_empty_is_empty():
    assert len(permute_inverse(Circuit(3))) == 0


def test_inverse_of_single_swap_is_same_gate():
    c = Circuit(3, (basis_swap(0b010, 0b011, 3),))
    assert permute_inverse(c).gates == c.gates


def test_controlled_swap_lowers_to_three_mcx():
    from blockenc.permute import controlled_swap

    gates = controlled_swap(0b100, 0b010, 3)
    assert len(gates) == 3 and all(g.kind == "mcx" for g in gates)
    u = circuit_unitary(Circuit(3, tuple(gates)))
    # a swap of the two top qubits controlled on the last being 0: |100> <-> |010>
    ref = np.eye(8)
    ref[[2, 4]] = ref[[4, 2]]
    assert np.array_equal(u, ref)
    with pytest.raises(NotAdjacent):
        controlled_swap(0b000, 0b001, 3)


def test_inverse_composes_to_identity(rng):
    for _ in range(50):
        P = int(rng.integers(2, 6))
        size = int(rng.integers(1, (1 << P) + 1))
        phi = _random_bijection(rng, P, size)
        circ = permute_circuit(phi)
        inv = permute_inverse(circ)
        u = circuit_unitary(Circuit(P, circ.gates + inv.gates))
        assert np.array_equal(u, np.eye(1 << P))
