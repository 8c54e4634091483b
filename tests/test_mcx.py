from itertools import product

import numpy as np
import pytest

from blockenc.errors import BadInput
from blockenc.index_map import is_reducible
from blockenc.ir import Circuit, circuit_unitary, mcx, select_pattern

from conftest import (BadExpansion, NotReducible, as_strings, brute_force_reducible,
                      composition_unitary, control_gate, expand_mcx, random_labels,
                      reduce_composition)


def test_adjacent_pair_reduces():
    red = is_reducible({0b00, 0b01}, 2)
    assert red is not None
    assert red[0] == 0b10  # fixed bit 1
    assert red[1] == 0b00
    assert select_pattern(*red, 2) == "0X"


def test_antipodal_pair_does_not_reduce():
    assert is_reducible({0b01, 0b10}, 2) is None


def test_full_set_reduces_to_plain_x():
    full = {0b00, 0b01, 0b10, 0b11}
    red = is_reducible(full, 2)
    assert red is not None and red[0] == 0
    gate = reduce_composition(full, 2, 2)
    assert gate.kind == "x" and gate.target == 2


def test_singleton_always_reduces():
    red = is_reducible({0b101}, 3)
    assert select_pattern(*red, 3) == "101"


def test_size_not_power_of_two_rejected():
    with pytest.raises(BadInput, match="control set size 3 is not a power of two"):
        is_reducible({0b00, 0b01, 0b10}, 2)


def test_reduce_composition_matches_product():
    s2 = {0b00, 0b01}
    gate = reduce_composition(s2, 2, 2)
    assert gate.controls == (0b100, 0) and gate.target == 2
    assert np.array_equal(circuit_unitary(Circuit(3, (gate,))), composition_unitary(s2, 2, 2))


def test_reduce_rejects_irreducible():
    with pytest.raises(NotReducible):
        reduce_composition({0b01, 0b10}, 2, 2)


def test_one_bit_full_enumeration_is_plain_x():
    gate = reduce_composition({0, 1}, 1, 1)
    assert gate.kind == "x"


def test_random_reducible_fusion_exact(rng):
    for _ in range(200):
        P = int(rng.integers(2, 6))
        n_fixed = int(rng.integers(0, P))
        fixed = sorted(rng.choice(P, size=n_fixed, replace=False))
        bits = "".join(rng.choice(["0", "1"]) for _ in range(n_fixed))
        free = [i for i in range(P) if i not in fixed]
        strings = set()
        for fb in product("01", repeat=len(free)):
            chars = [""] * P
            for i, c in zip(fixed, bits):
                chars[i] = c
            for i, c in zip(free, fb):
                chars[i] = c
            strings.add("".join(chars))
        s2 = {int(s, 2) for s in strings}
        target = int(rng.integers(0, P + 1))
        fused = circuit_unitary(Circuit(P + 1, (reduce_composition(s2, P, target),)))
        assert np.array_equal(fused, composition_unitary(s2, P, target))


def test_detection_agrees_with_brute_force(rng):
    for _ in range(300):
        P = int(rng.integers(2, 5))
        n = int(rng.integers(0, P + 1))
        s2 = random_labels(rng, P, 1 << n)
        assert (is_reducible(s2, P) is not None) == brute_force_reducible(as_strings(s2, P))


def test_product_order_independent(rng):
    # gates in a composition share a target, so any order gives the same unitary
    s2 = random_labels(rng, 4, 8)
    target = 2
    gates = [control_gate(v, 4, target) for v in sorted(s2)]
    fwd = circuit_unitary(Circuit(5, tuple(gates)))
    rev = circuit_unitary(Circuit(5, tuple(reversed(gates))))
    assert np.array_equal(fwd, rev)


def test_expand_cnot_over_top_qubit():
    out = expand_mcx(mcx((0b010, 0b010), 2), 3, {2})
    assert out == frozenset({0b01, 0b11})


def test_expand_then_reduce_round_trip(rng):
    for _ in range(100):
        width = int(rng.integers(2, 6))
        target = int(rng.integers(0, width))
        target_bit = 1 << (width - 1 - target)
        mask = int(rng.integers(0, 1 << width)) & ~target_bit
        controls = (mask, int(rng.integers(0, 1 << width)) & mask)
        grow = frozenset(b for b in range(width) if not (mask | target_bit) >> b & 1)
        s2 = expand_mcx(mcx(controls, target), width, grow)
        gate = reduce_composition(s2, width - 1, target)
        if not mask:
            assert gate.kind == "x"
        else:
            assert gate.controls == controls
        assert np.array_equal(circuit_unitary(Circuit(width, (gate,))),
                              composition_unitary(s2, width - 1, target))


def test_expand_full_pattern_gives_singletons():
    out = expand_mcx(mcx((0, 0), 1), 3, {0, 2})
    assert len(out) == 4
    # product over all four gates equals a plain X on the target
    from blockenc.ir import x
    assert np.array_equal(composition_unitary(out, 2, 1), circuit_unitary(Circuit(3, (x(1),))))


def test_expand_rejects_target_overlap():
    with pytest.raises(BadExpansion):
        expand_mcx(mcx((0b010, 0b010), 2), 3, {0})  # bit 0 is the target position
    with pytest.raises(BadExpansion):
        expand_mcx(mcx((0b110, 0b110), 2), 3, {1})  # bit 1 already constrained
