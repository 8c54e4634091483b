import math

import numpy as np
import pytest

from blockenc.errors import EmptyData
from blockenc.ingest import DataVector, SignVector
from blockenc.ir import circuit_unitary, unitarity_residual
from blockenc.state_prep import synthesize_prep, synthesize_unprep

from conftest import prep_target


def _state(circuit):
    u = circuit_unitary(circuit)
    return u[:, 0]


def test_single_item_gives_empty_circuit():
    c = synthesize_prep(DataVector((1.0,)), SignVector((1 + 0j,)))
    assert c.n_qubits == 0 and len(c) == 0 and c.global_phase == 0.0


def test_single_imaginary_item_carries_global_phase():
    c = synthesize_prep(DataVector((2.0,)), SignVector((1j,)))
    assert len(c) == 0
    assert np.isclose(np.exp(1j * c.global_phase), 1j)


def test_two_equal_items_opposite_signs():
    data = DataVector((1.0, 1.0))
    c = synthesize_prep(data, SignVector((1 + 0j, -1 + 0j)))
    kinds = [g.kind for g in c.gates]
    assert kinds == ["ry", "phase"]
    assert np.isclose(c.gates[0].angle, math.pi / 2)
    assert np.isclose(c.gates[1].angle, math.pi)
    assert np.allclose(_state(c), [1 / math.sqrt(2), -1 / math.sqrt(2)])


def test_phase_on_zero_slot():
    data = DataVector((1.0, 1.0))
    c = synthesize_prep(data, SignVector((-1 + 0j, 1 + 0j)))
    assert np.allclose(_state(c), [-1 / math.sqrt(2), 1 / math.sqrt(2)])


def test_random_six_item_amplitudes_componentwise(rng):
    for _ in range(25):
        items = tuple(float(v) for v in rng.uniform(0.05, 1.0, size=6))
        phases = tuple(complex(rng.choice([1, -1, 1j, -1j])) for _ in range(6))
        data, signs = DataVector(items), SignVector(phases)
        state = _state(synthesize_prep(data, signs))
        assert np.abs(state - prep_target(data, signs)).max() <= 1e-10


def test_zero_padded_slots_stay_zero(rng):
    items = tuple(float(v) for v in rng.uniform(0.1, 1.0, size=5))
    signs = SignVector(tuple(1 + 0j for _ in items))
    state = _state(synthesize_prep(DataVector(items), signs))
    assert np.all(state[5:] == 0)


def test_unprep_single_item_empty():
    assert len(synthesize_unprep(DataVector((1.0,)))) == 0


def test_unprep_two_items_is_adjoint_rotation():
    c = synthesize_unprep(DataVector((1.0, 1.0)))
    assert [g.kind for g in c.gates] == ["ry"]
    assert np.isclose(c.gates[0].angle, -math.pi / 2)


def test_unprep_adjoint_prepares_unsigned_state(rng):
    items = tuple(float(v) for v in rng.uniform(0.05, 1.0, size=6))
    data = DataVector(items)
    unprep = synthesize_unprep(data)
    u = circuit_unitary(unprep)
    target = prep_target(data, SignVector(tuple(1 + 0j for _ in items)))
    assert np.abs(u.conj().T[:, 0] - target).max() <= 1e-10


def test_unprep_is_unitary(rng):
    items = tuple(float(v) for v in rng.uniform(0.05, 1.0, size=7))
    u = circuit_unitary(synthesize_unprep(DataVector(items)))
    assert unitarity_residual(u) <= 1e-12


def test_real_positive_data_unprep_equals_reversed_prep(rng):
    items = tuple(float(v) for v in rng.uniform(0.05, 1.0, size=6))
    data = DataVector(items)
    signs = SignVector(tuple(1 + 0j for _ in items))
    prep = synthesize_prep(data, signs)
    unprep = synthesize_unprep(data)
    reversed_prep = tuple(g.__class__(g.kind, g.target, g.pattern, -g.angle)
                          for g in reversed(prep.gates))
    assert unprep.gates == reversed_prep


def test_empty_data_rejected():
    with pytest.raises(EmptyData):
        synthesize_prep(DataVector(()), SignVector(()))
    with pytest.raises(EmptyData):
        synthesize_unprep(DataVector(()))
