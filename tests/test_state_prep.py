import math

import numpy as np
import pytest

from blockenc import SparseMatrix, compile_matrix, state_prep
from blockenc.errors import BadInput, EmptyData
from blockenc.ir import Circuit, circuit_unitary, inverse_circuit, unitarity_residual
from blockenc.state_prep import _magnitude_tree, synthesize_prep, synthesize_unprep

from conftest import prep_target


def _state(circuit):
    u = circuit_unitary(circuit)
    return u[:, 0]


def test_single_item_gives_empty_circuit():
    c = synthesize_prep((1.0,), (1 + 0j,))
    assert c.n_qubits == 0 and len(c) == 0 and c.global_phase == 0.0


def test_single_imaginary_item_carries_global_phase():
    c = synthesize_prep((2.0,), (1j,))
    assert len(c) == 0
    assert np.isclose(np.exp(1j * c.global_phase), 1j)


def test_two_equal_items_opposite_signs():
    c = synthesize_prep((1.0, 1.0), (1 + 0j, -1 + 0j))
    kinds = [g.kind for g in c.gates]
    assert kinds == ["ry", "phase"]
    assert np.isclose(c.gates[0].angle, math.pi / 2)
    assert np.isclose(c.gates[1].angle, math.pi)
    assert np.allclose(_state(c), [1 / math.sqrt(2), -1 / math.sqrt(2)])


def test_phase_on_zero_slot():
    c = synthesize_prep((1.0, 1.0), (-1 + 0j, 1 + 0j))
    assert np.allclose(_state(c), [-1 / math.sqrt(2), 1 / math.sqrt(2)])


def test_random_six_item_amplitudes_componentwise(rng):
    for _ in range(25):
        items = tuple(float(v) for v in rng.uniform(0.05, 1.0, size=6))
        phases = tuple(complex(rng.choice([1, -1, 1j, -1j])) for _ in range(6))
        state = _state(synthesize_prep(items, phases))
        assert np.abs(state - prep_target(items, phases)).max() <= 1e-10


def test_zero_padded_slots_stay_zero(rng):
    items = tuple(float(v) for v in rng.uniform(0.1, 1.0, size=5))
    state = _state(synthesize_prep(items, [1 + 0j] * len(items)))
    assert np.all(state[5:] == 0)


def _unsigned_target(items):
    return prep_target(items, [1 + 0j] * len(items))


def test_unprep_single_item_empty():
    unprep = synthesize_unprep(synthesize_prep((1.0,), (1j,)))
    assert unprep.n_qubits == 0 and len(unprep) == 0 and unprep.global_phase == 0.0


def test_unprep_two_items_is_adjoint_rotation():
    c = synthesize_unprep(synthesize_prep((1.0, 1.0), (1 + 0j, -1 + 0j)))
    assert [g.kind for g in c.gates] == ["ry"]
    assert np.isclose(c.gates[0].angle, -math.pi / 2)


def test_unprep_adjoint_prepares_unsigned_state(rng):
    items = tuple(float(v) for v in rng.uniform(0.05, 1.0, size=6))
    phases = (1j, -1 + 0j, -1j, 1 + 0j, 1j, -1 + 0j)
    prep = synthesize_prep(items, phases)
    assert {g.kind for g in prep.gates} >= {"ry", "phase"}
    u = circuit_unitary(synthesize_unprep(prep))
    assert np.abs(u.conj().T[:, 0] - _unsigned_target(items)).max() <= 1e-10


@pytest.mark.parametrize("size", [1, 2, 5, 8, 13])
def test_unprep_is_inverse_of_prep_rotation_tree(rng, size):
    for _ in range(5):
        items = tuple(float(v) for v in rng.uniform(0.05, 1.0, size=size))
        phases = tuple(complex(rng.choice([1, -1, 1j, -1j])) for _ in range(size))
        prep = synthesize_prep(items, phases)
        unprep = synthesize_unprep(prep)
        tree = Circuit(prep.n_qubits, tuple(g for g in prep.gates if g.kind == "ry"))
        assert unprep == inverse_circuit(tree)
        u = circuit_unitary(unprep)
        assert np.abs(u.conj().T[:, 0] - _unsigned_target(items)).max() <= 1e-10


def test_unprep_is_unitary(rng):
    items = tuple(float(v) for v in rng.uniform(0.05, 1.0, size=7))
    u = circuit_unitary(synthesize_unprep(synthesize_prep(items, [1j] * len(items))))
    assert unitarity_residual(u) <= 1e-12


def test_real_positive_data_unprep_equals_reversed_prep(rng):
    items = tuple(float(v) for v in rng.uniform(0.05, 1.0, size=6))
    prep = synthesize_prep(items, [1 + 0j] * len(items))
    unprep = synthesize_unprep(prep)
    reversed_prep = tuple(g.__class__(g.kind, g.target, g.controls, -g.angle)
                          for g in reversed(prep.gates))
    assert unprep.gates == reversed_prep


def test_compile_builds_the_rotation_tree_once(monkeypatch):
    calls = []

    def counting_tree(mags, m):
        calls.append(m)
        return _magnitude_tree(mags, m)

    monkeypatch.setattr(state_prep, "_magnitude_tree", counting_tree)
    m = SparseMatrix.from_entries(3, ((0, 0, 0.5 + 0.25j), (1, 0, -0.75 + 0j), (2, 3, 0.125j)))
    enc = compile_matrix(m)
    assert calls == [enc.layout.m] and enc.layout.m > 0


def test_empty_data_rejected():
    with pytest.raises(EmptyData):
        synthesize_prep((), ())


@pytest.mark.parametrize("items, phases", [
    ([1.0], []), ([1.0, 0.5], [1]), ([1.0, 0.5], [1, 1, -1]),
    ([1.0, -0.5], [1, 1]), ([1.0, math.nan], [1, 1]), ([1.0, math.inf], [1, 1]),
    ([True], [1]), ([1.0], [2.0]), ([1.0], ["a"]), ([1.0, 0.5], [1, 1 + 1e-9]),
    ([1.0], [complex(math.nan, 0)])],
    ids=["no-phase", "phase-missing", "phase-extra", "negative", "nan", "inf", "bool",
         "phase-2", "phase-str", "phase-off-circle", "phase-nan"])
def test_malformed_loader_input_is_refused(items, phases):
    with pytest.raises(BadInput):
        synthesize_prep(items, phases)
