import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockenc import ir
from blockenc.errors import BadGate, BadInput, TooLarge
from blockenc.ir import (Circuit, Gate, RegisterLayout, circuit_unitary, export_json,
                         export_text, gate_unitary, import_json, import_text,
                         inverse_circuit, mcx, pattern_select, phase, ry, select_pattern,
                         unitarity_residual, x)
from conftest import reference_circuit_unitary, reference_unitarity_residual


def test_x_single_qubit():
    u = gate_unitary(x(0), 1)
    assert np.array_equal(u, np.array([[0, 1], [1, 0]]))


def test_toffoli_exchanges_6_7():
    u = gate_unitary(mcx("11X", 2), 3)
    expected = np.eye(8)
    expected[[6, 7]] = expected[[7, 6]]
    assert np.array_equal(u, expected)


def test_cnot_on_middle_qubit_swaps_pairs():
    # control on q1 only: amplitudes 2<->3 and 6<->7 exchange
    u = gate_unitary(mcx("X1X", 2), 3)
    psi = np.arange(8, dtype=complex)
    out = u @ psi
    assert np.array_equal(out, np.array([0, 1, 3, 2, 4, 5, 7, 6], dtype=complex))


def test_unconstrained_mcx_equals_plain_x():
    assert np.array_equal(gate_unitary(mcx("XXX", 1), 3), gate_unitary(x(1), 3))


def test_empty_circuit_is_identity():
    u = circuit_unitary(Circuit(2))
    assert np.array_equal(u, np.eye(4))


def test_double_x_is_identity():
    c = Circuit(1, (x(0), x(0)))
    assert np.array_equal(circuit_unitary(c), np.eye(2))


def test_gate_order_first_gate_applied_first():
    # X then H-like RY: |0> -> |1> -> (sin, cos) column ordering check
    c = Circuit(1, (x(0), ry(math.pi / 2, 0)))
    state = circuit_unitary(c)[:, 0]
    assert np.allclose(state, [-math.sin(math.pi / 4), math.cos(math.pi / 4)])


def test_ry_phase_unitaries():
    theta = 0.7
    u = gate_unitary(ry(theta, 0), 1)
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    assert np.allclose(u, [[c, -s], [s, c]])
    u = gate_unitary(phase(theta, 0), 1)
    assert np.allclose(u, [[1, 0], [0, np.exp(1j * theta)]])


def test_every_gate_kind_unitary(rng):
    gates = [mcx("1X0X", 1), ry(1.1, 2, "0XXX"), phase(-2.2, 3, "X1XX"),
             mcx("X10X", 0), x(2)]
    c = Circuit(4, tuple(gates))
    assert unitarity_residual(circuit_unitary(c)) <= 1e-12


def test_inverse_circuit_composes_to_identity():
    c = Circuit(2, (ry(0.4, 0), mcx("1X", 1), phase(0.9, 1, "0X")), global_phase=0.3)
    u = circuit_unitary(c) @ circuit_unitary(inverse_circuit(c))
    assert np.allclose(u, np.eye(4), atol=1e-14)


def test_bad_gates_rejected():
    with pytest.raises(BadGate):
        Circuit(2, (mcx("11", 1),))  # target constrained in pattern
    with pytest.raises(BadGate):
        Circuit(2, (x(5),))
    with pytest.raises(BadGate):
        gate_unitary(mcx("1XX", 0), 2)  # pattern width mismatch


def test_too_many_qubits_guard():
    with pytest.raises(TooLarge):
        circuit_unitary(Circuit(13))


def test_layout_basis_convention():
    lay = RegisterLayout(2, 3)
    assert lay.total == 6
    assert lay.data_qubits == (0, 1)
    assert lay.del_qubit == 2
    assert lay.matrix_qubits == (3, 4, 5)
    assert lay.full_pattern(data=(0b11, 0b01), matrix=(0b001, 0b001)) == "01XXX1"


def test_export_text_exact_lines():
    c = Circuit(4, (x(0), mcx("01XX", 3), ry(math.pi / 2, 1)))
    text = export_text(c)
    lines = text.splitlines()
    assert lines[0] == "blockenc-ir v1"
    assert lines[1] == "qubits 4"
    assert lines[2] == "x q0"
    assert lines[3] == "mcx ctrl=q0:0,q1:1 target=q3"
    assert lines[4] == "ry(1.5707963267948966) q1"


def test_text_round_trip_identity():
    lay = RegisterLayout(1, 2)
    c = Circuit(4, (mcx("0X1X", 1), ry(0.25, 0, "X0XX"), phase(-1.5, 2),
                    mcx("1XX0", 2), x(3), mcx("XXXX", 0)), lay, 0.75)
    text = export_text(c, {"alpha": 2.5})
    back, meta = import_text(text)
    assert back == c
    assert meta == {"alpha": 2.5}
    assert export_text(back, meta) == text


def test_json_round_trip_identity():
    lay = RegisterLayout(2, 1)
    c = Circuit(4, (mcx("01XX", 2), ry(0.5, 3)), lay, 0.0)
    doc = export_json(c, {"alpha": 1.0})
    back, meta = import_json(doc)
    assert back == c and meta == {"alpha": 1.0}


def test_import_rejects_garbage():
    with pytest.raises(BadInput):
        import_text("not a circuit\n")


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet="01X", max_size=12))
def test_pattern_select_round_trip(pattern):
    width = len(pattern)
    assert select_pattern(*pattern_select(pattern, width), width) == pattern


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 12).flatmap(lambda w: st.tuples(
    st.just(w), st.integers(0, (1 << w) - 1), st.integers(0, (1 << w) - 1))))
def test_select_pattern_round_trip(cube):
    width, mask, value = cube
    assert pattern_select(select_pattern(mask, value, width), width) == (mask, value & mask)


@st.composite
def _random_circuits(draw):
    width = draw(st.integers(1, 7))
    gates = []
    for _ in range(draw(st.integers(0, 24))):
        kind = draw(st.sampled_from(["x", "mcx", "ry", "phase"]))
        target = draw(st.integers(0, width - 1))
        pattern = None
        if kind == "mcx" or (kind != "x" and draw(st.booleans())):
            chars = draw(st.lists(st.sampled_from("01X"), min_size=width, max_size=width))
            chars[target] = "X"
            pattern = "".join(chars)
        angle = draw(st.floats(-7.0, 7.0)) if kind in ("ry", "phase") else 0.0
        gates.append(Gate(kind, target=target, pattern=pattern, angle=angle))
    gphase = draw(st.floats(0.01, 6.0))
    return Circuit(width, tuple(gates), global_phase=gphase)


@settings(max_examples=200, deadline=None)
@given(_random_circuits())
def test_simulation_matches_reference(circ):
    u = circuit_unitary(circ)
    assert np.array_equal(u, reference_circuit_unitary(circ))
    assert abs(unitarity_residual(u) - reference_unitarity_residual(u)) <= 1e-15
    for g in circ.gates:
        one = Circuit(circ.n_qubits, (g,))
        assert np.array_equal(gate_unitary(g, circ.n_qubits), reference_circuit_unitary(one))


def _perturbed_unitary(dim: int, where: str, rng) -> np.ndarray:
    """Random unitary with one column changed so that u^H u - I peaks at one cell:
    on the diagonal, in the last row, or below the diagonal in the middle."""
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    if where == "diagonal":
        q[:, dim // 2] *= 1 + 1e-6
    elif where == "last":
        q[:, 0] += 1e-6 * q[:, dim - 1]
    else:
        q[:, dim // 3] += 1e-6j * q[:, (2 * dim) // 3]
    return q


@pytest.mark.parametrize("rows", [None, 3, 5])
@pytest.mark.parametrize("where", ["diagonal", "last", "below"])
@pytest.mark.parametrize("dim", [2, 8, 128, 300])
def test_residual_finds_the_worst_cell(monkeypatch, rng, rows, where, dim):
    # row blocks larger than, smaller than and not dividing the dimension
    if rows is not None:
        monkeypatch.setattr(ir, "_RESIDUAL_ROWS", rows)
    u = _perturbed_unitary(dim, where, rng)
    expected = reference_unitarity_residual(u)
    assert expected > 1e-7
    assert abs(unitarity_residual(u) - expected) <= 1e-15
