import numpy as np
import pytest

from blockenc.assignment import Bijection, hamming, solve_assignment, build_target_set, mode_pattern
from blockenc.errors import NotAdjacent
from blockenc.ir import Circuit, circuit_unitary, gate_unitary
from blockenc.mcx import ControlSet
from blockenc.permute import (basis_swap, permute_circuit, permute_inverse,
                              route_permutation)

from conftest import assert_permutation_matrix


def _bijection(pairs) -> Bijection:
    pairs = tuple(sorted(pairs))
    return Bijection(pairs, sum(hamming(a, b) for a, b in pairs))


def _random_bijection(rng, P, size) -> Bijection:
    src = rng.choice(1 << P, size=size, replace=False)
    dst = rng.choice(1 << P, size=size, replace=False)
    s = {format(int(v), f"0{P}b") for v in src}
    t = {format(int(v), f"0{P}b") for v in dst}
    common = s & t
    rs, rt = sorted(s - common), sorted(t - common)
    rt = [rt[i] for i in rng.permutation(len(rt))]
    return _bijection([(c, c) for c in common] + list(zip(rs, rt)))


def test_basis_swap_high_pair():
    g = basis_swap("110", "111")
    assert g.pattern == "11X" and g.target == 2
    u = gate_unitary(g, 3)
    expected = np.eye(8)
    expected[[6, 7]] = expected[[7, 6]]
    assert np.array_equal(u, expected)


def test_basis_swap_low_pair():
    g = basis_swap("000", "001")
    assert g.pattern == "00X" and g.target == 2


def test_basis_swap_involution():
    g = basis_swap("010", "110")
    u = gate_unitary(g, 3)
    assert np.array_equal(u @ u, np.eye(8))


def test_basis_swap_rejects_distant_states():
    with pytest.raises(NotAdjacent):
        basis_swap("00", "11")


def test_identity_bijection_empty_circuit():
    phi = _bijection([("01", "01"), ("10", "10")])
    assert len(permute_circuit(phi)) == 0


def test_reference_permutation_mapping():
    s2 = ControlSet(3, {"000", "001", "100", "111"})
    s3 = build_target_set(mode_pattern(s2, {2}), {2}, 3)
    phi = solve_assignment(s2, s3)
    u = circuit_unitary(permute_circuit(phi))
    assert_permutation_matrix(u.real)
    for src, dst in phi.pairs:
        assert u[int(dst, 2), int(src, 2)] == 1


def test_structured_unit_shift_routing_steps():
    # reference optimal mapping for the unit-shift group of the structured
    # example; the distance-3 source routes stepwise, most significant bit first
    phi = _bijection([("0000", "0000"), ("0001", "0010"), ("0111", "0110"),
                      ("1000", "1000"), ("1011", "1010"), ("1100", "1100"),
                      ("1110", "1110"), ("1111", "0100")])
    plan = route_permutation(phi)
    expected_tail = [("1111", "0111"), ("0111", "0101"), ("0101", "0100")]
    assert plan.swaps[-3:] == expected_tail
    assert ("0001", "0011") in plan.swaps and ("0011", "0010") in plan.swaps
    u = circuit_unitary(permute_circuit(phi))
    for src, dst in phi.pairs:
        assert u[int(dst, 2), int(src, 2)] == 1


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
            assert u[int(dst, 2), int(src, 2)] == 1


def test_inverse_of_empty_is_empty():
    assert len(permute_inverse(Circuit(3))) == 0


def test_inverse_of_single_swap_is_same_gate():
    c = Circuit(3, (basis_swap("010", "011"),))
    assert permute_inverse(c).gates == c.gates


def test_controlled_swap_lowers_to_three_mcx():
    from blockenc.permute import controlled_swap

    gates = controlled_swap("100", "010")
    assert len(gates) == 3 and all(g.kind == "mcx" for g in gates)
    u = circuit_unitary(Circuit(3, tuple(gates)))
    # a swap of the two top qubits controlled on the last being 0: |100> <-> |010>
    ref = np.eye(8)
    ref[[2, 4]] = ref[[4, 2]]
    assert np.array_equal(u, ref)
    with pytest.raises(NotAdjacent):
        controlled_swap("000", "001")


def test_inverse_composes_to_identity(rng):
    for _ in range(50):
        P = int(rng.integers(2, 6))
        size = int(rng.integers(1, (1 << P) + 1))
        phi = _random_bijection(rng, P, size)
        circ = permute_circuit(phi)
        inv = permute_inverse(circ)
        u = circuit_unitary(Circuit(P, circ.gates + inv.gates))
        assert np.array_equal(u, np.eye(1 << P))
