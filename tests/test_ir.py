import json
import math
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockenc.assignment import build_target_set, hamming, mode_pattern, solve_assignment
from blockenc.cli import main
from blockenc.demo import tridiagonal
from blockenc.errors import BadGate, BadInput, TooLarge
from blockenc.index_map import (delete_flip, delete_group, insert_stage, is_reducible,
                                shift_cascade, shift_group)
from blockenc.ingest import SparseMatrix, analyze, save_matrix
from blockenc.permute import basis_swap, route_permutation
from blockenc.pipeline import compile_matrix
from blockenc.state_prep import synthesize_prep, synthesize_unprep
from blockenc.verify import UNITARITY_TOL, encoded_block, verify_circuit
from blockenc.ir import (_GATE_LINE, MAX_CIRCUIT_QUBITS, Circuit, Gate, RegisterLayout,
                         _read_circuit, _text_gate, apply_gates, circuit_unitary, export_json,
                         export_text, import_json, import_text, inverse_circuit, mcx,
                         pattern_select, phase, ry, select_pattern, unitarity_residual, x)
from conftest import (reference_apply_gate, reference_circuit_unitary, reference_gate_line,
                      reference_unitarity_residual)


def test_x_single_qubit():
    u = circuit_unitary(Circuit(1, (x(0),)))
    assert np.array_equal(u, np.array([[0, 1], [1, 0]]))


def test_toffoli_exchanges_6_7():
    u = circuit_unitary(Circuit(3, (mcx((0b110, 0b110), 2),)))
    expected = np.eye(8)
    expected[[6, 7]] = expected[[7, 6]]
    assert np.array_equal(u, expected)


def test_cnot_on_middle_qubit_swaps_pairs():
    # control on q1 only: amplitudes 2<->3 and 6<->7 exchange
    u = circuit_unitary(Circuit(3, (mcx((0b010, 0b010), 2),)))
    psi = np.arange(8, dtype=complex)
    out = u @ psi
    assert np.array_equal(out, np.array([0, 1, 3, 2, 4, 5, 7, 6], dtype=complex))


def test_unconstrained_mcx_equals_plain_x():
    assert np.array_equal(circuit_unitary(Circuit(3, (mcx((0, 0), 1),))),
                          circuit_unitary(Circuit(3, (x(1),))))


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
    u = circuit_unitary(Circuit(1, (ry(theta, 0),)))
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    assert np.allclose(u, [[c, -s], [s, c]])
    u = circuit_unitary(Circuit(1, (phase(theta, 0),)))
    assert np.allclose(u, [[1, 0], [0, np.exp(1j * theta)]])


def test_every_gate_kind_unitary(rng):
    gates = [mcx((0b1010, 0b1000), 1), ry(1.1, 2, (0b1000, 0)), phase(-2.2, 3, (0b0100, 0b0100)),
             mcx((0b0110, 0b0100), 0), x(2)]
    c = Circuit(4, tuple(gates))
    assert unitarity_residual(circuit_unitary(c)) <= 1e-12


def test_inverse_circuit_composes_to_identity():
    c = Circuit(2, (ry(0.4, 0), mcx((0b10, 0b10), 1), phase(0.9, 1, (0b10, 0))),
                global_phase=0.3)
    u = circuit_unitary(c) @ circuit_unitary(inverse_circuit(c))
    assert np.allclose(u, np.eye(4), atol=1e-14)


def test_bad_gates_rejected():
    with pytest.raises(BadGate):
        Circuit(2, (mcx((0b11, 0b11), 1),))  # target constrained by the controls
    with pytest.raises(BadGate):
        Circuit(2, (x(5),))
    with pytest.raises(BadGate):
        circuit_unitary(Circuit(2, (mcx((0b100, 0b100), 0),)))  # controls wider than the circuit
    with pytest.raises(BadGate):
        circuit_unitary(Circuit(2, (mcx((0b01, 0b10), 1),)))  # value outside the mask
    with pytest.raises(BadGate):
        Circuit(2, (Gate("x", target=1, controls=(0b10, 0b10)),))  # controlled x
    with pytest.raises(BadGate):
        Circuit(2, (Gate("swap", 0),))  # unknown kind
    with pytest.raises(BadGate):
        Circuit(2, (ry(float("inf"), 0),))  # non-finite angle


def test_negative_qubit_count_rejected():
    # no gate is refused here, so the error is BadInput, not BadGate
    with pytest.raises(BadInput, match="negative qubit count -1") as info:
        Circuit(-1)
    assert not isinstance(info.value, BadGate)


@pytest.mark.parametrize("n_qubits", ["a", 1.5, 2.0, True, None])
def test_qubit_count_must_be_an_int(n_qubits):
    with pytest.raises(BadInput, match="qubit count must be an integer") as info:
        Circuit(n_qubits)
    assert not isinstance(info.value, BadGate)


@pytest.mark.parametrize("gate", [5, "x", None, ("x", 0), ("x", 0, (0, 0), 0.0)])
def test_gate_that_is_not_a_gate_refused(gate):
    # the last is a plain tuple of a gate's fields, which equals Gate("x", 0)
    with pytest.raises(BadGate, match="is not a Gate") as info:
        Circuit(2, (x(0), gate))
    assert info.value.index == 1


_LAYOUT = RegisterLayout(2, 2)


def _one_entry():
    return SparseMatrix.from_entries(1, ((0, 0, 1.0),))


@pytest.mark.parametrize("call, named", [
    (lambda: Circuit(2, 5), "gates"), (lambda: Circuit(2, None), "gates"),
    (lambda: Circuit(2, Gate("x", 1)), r"iterable of gates, got Gate\(kind='x'"),
    (lambda: is_reducible([], 3), "control set size"),
    (lambda: is_reducible([0, 1], -1), "label width P"),
    (lambda: mode_pattern([], 1), "labels"),
    (lambda: compile_matrix("x"), "matrix"),
    (lambda: compile_matrix(_one_entry(), "x"), "config"),
    (lambda: analyze("x"), "matrix"),
    (lambda: verify_circuit("x", compile_matrix(_one_entry()).circuit, 1.0), "matrix"),
    (lambda: verify_circuit(_one_entry(), "x", 1.0), "circuit"),
    (lambda: encoded_block("x"), "circuit"),
    (lambda: circuit_unitary("x"), "circuit"), (lambda: export_text("x"), "circuit"),
    (lambda: export_json("x"), "circuit"), (lambda: import_text(5), "IR text"),
    (lambda: import_json(5), "circuit JSON"),
    (lambda: shift_group([1], "L", 1, "x"), "layout"),
    (lambda: delete_group([0], [1], "x"), "layout"),
    (lambda: shift_cascade((0, 0), "L", 1, "x"), "layout"),
    (lambda: save_matrix("x", "never-written.json"), "matrix"),
    (lambda: hamming("a", 1), "label"), (lambda: mode_pattern(["a"], 1), "label"),
    (lambda: build_target_set("x", 0, 3), "mask"),
    (lambda: solve_assignment([1], [2], "x"), "label width P"),
    (lambda: route_permutation(5, 2), "pairs"),
    (lambda: route_permutation((5,), 2), "pairs"),
    (lambda: route_permutation(((1,),), 2), "pairs"),
    (lambda: shift_cascade((0, 0), "L", "x", _LAYOUT), "shift amount"),
    (lambda: shift_cascade("x", "L", 1, _LAYOUT), "data 'x'"),
    (lambda: shift_group([1], "L", "x", _LAYOUT), "shift amount"),
    (lambda: shift_group(5, "L", 1, _LAYOUT), "labels"),
    (lambda: delete_group([0], 5, _LAYOUT), "rows"),
    (lambda: delete_group(["a"], [0], _LAYOUT), "labels"),
    (lambda: solve_assignment(5, [1], 2), "sources"),
    (lambda: delete_flip(_LAYOUT, "x"), "data 'x'"),
    (lambda: insert_stage(5, _LAYOUT), "row_groups"),
    (lambda: is_reducible(5, 2), "labels"),
    (lambda: basis_swap("a", 1, 2), "label a"),
    (lambda: basis_swap(0, 1, -1), "exactly one of -1 bits"),
    (lambda: synthesize_prep(5, [1]), "items"),
    (lambda: synthesize_unprep(5), "prep"),
], ids=["Circuit-gates-5", "Circuit-gates-None", "Circuit-gates-Gate", "is_reducible-empty",
        "is_reducible-negative-width", "mode_pattern-empty", "compile_matrix-matrix",
        "compile_matrix-config", "analyze-matrix", "verify_circuit-matrix",
        "verify_circuit-circuit", "encoded_block-circuit", "circuit_unitary-circuit",
        "export_text-circuit", "export_json-circuit", "import_text-text",
        "import_json-text", "shift_group-layout", "delete_group-layout",
        "shift_cascade-layout", "save_matrix-matrix", "hamming-label",
        "mode_pattern-label", "build_target_set-mask", "solve_assignment-width",
        "route_permutation-pairs", "route_permutation-pair-int",
        "route_permutation-pair-short", "shift_cascade-amount", "shift_cascade-data",
        "shift_group-amount", "shift_group-labels", "delete_group-rows",
        "delete_group-labels", "solve_assignment-sources", "delete_flip-data",
        "insert_stage-row_groups", "is_reducible-labels", "basis_swap-label",
        "basis_swap-negative-width", "synthesize_prep-items", "synthesize_unprep-prep"])
def test_malformed_library_arguments_are_bad_input(call, named, tmp_path, monkeypatch):
    # a gates argument that is not iterable, an empty control set, which has
    # no power-of-two size, and arguments of the wrong type, each refused
    # under the argument's name
    monkeypatch.chdir(tmp_path)
    with pytest.raises(BadInput, match=named) as info:
        call()
    assert not isinstance(info.value, BadGate)
    assert not list(tmp_path.iterdir())  # nothing written for a refused matrix


@pytest.mark.parametrize("gate", [Gate("x", target="a"), Gate("x", target=1.5),
                                  Gate("mcx", target=0, controls=(1.0, 0)),
                                  Gate("mcx", target=0, controls=(1, 1, 1)),
                                  Gate("ry", target=0, angle="a"),
                                  Gate("phase", target=0, angle=10 ** 400)])
def test_gate_with_mistyped_field_refused(gate):
    with pytest.raises(BadGate, match="malformed gate") as info:
        Circuit(2, (gate,))
    assert info.value.index == 0


@pytest.mark.parametrize("layout", ["x", (1, 0), 2])
def test_layout_that_is_not_a_layout_refused(layout):
    with pytest.raises(BadInput, match="layout must be a RegisterLayout"):
        Circuit(2, layout=layout)


@pytest.mark.parametrize("gphase", [float("nan"), float("inf"), -float("inf"), "x", 1j,
                                    None, True, 10 ** 400])
def test_global_phase_must_be_a_finite_real(gphase):
    # a NaN phase once built a circuit whose unitary was all NaN, and whose
    # text form carried a gphase line the reader refuses
    with pytest.raises(BadInput, match="global_phase must be a finite number"):
        Circuit(1, global_phase=gphase)


def test_numpy_scalars_are_accepted_as_count_and_phase():
    circ = Circuit(np.int64(1), (x(0),), global_phase=np.float64(0.5))
    assert np.allclose(circuit_unitary(circ), np.exp(0.5j) * np.array([[0, 1], [1, 0]]))
    # stored as Python numbers, so the text form is one its reader takes back
    assert type(circ.n_qubits) is int and type(circ.global_phase) is float
    assert import_text(export_text(circ))[0] == circ


def test_numpy_cube_values_become_ints_in_a_delete_flip():
    # the layout's controls once passed numpy values through, so the circuit
    # built and its writer then failed on numpy.int64.bit_length
    gate = delete_flip(RegisterLayout(2, 2), (np.int64(3), np.int64(1)))
    assert type(gate.target) is int and [type(v) for v in gate.controls] == [int, int]
    circ = Circuit(5, (gate,))
    assert import_text(export_text(circ))[0] == circ


@pytest.mark.parametrize("gate", [Gate("x", np.int64(1)),
                                  Gate("mcx", 0, (np.int64(1), 0)),
                                  Gate("mcx", 0, (1, np.int64(1))),
                                  Gate("x", True)],
                         ids=["target", "mask", "value", "bool-target"])
def test_gate_fields_must_be_ints(gate):
    with pytest.raises(BadGate, match="target and controls must be ints") as info:
        Circuit(2, (gate,))
    assert info.value.index == 0


def test_too_many_qubits_guard():
    # the full 13-qubit unitary and 32 columns of a 20-qubit one are over the
    # 2^24-entry budget, and both are refused before any buffer is allocated
    tracemalloc.start()
    try:
        for circuit, columns in ((Circuit(13), None), (Circuit(20), 32)):
            with pytest.raises(TooLarge):
                circuit_unitary(circuit, columns)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()
    for columns in (0, -1, 9):
        with pytest.raises(BadInput):
            circuit_unitary(Circuit(3), columns)


def test_gates_act_in_place_on_complex_and_integer_rows(rng):
    circ = Circuit(3, (ry(0.4, 0), mcx((0b011, 0b001), 0), phase(0.9, 2, (0b100, 0b100)),
                       x(1)), global_phase=0.25)
    rows = rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5))
    want = circuit_unitary(circ) @ rows * np.exp(-0.25j)  # apply_gates leaves the phase
    apply_gates(circ.gates, rows.reshape((2,) * 3 + (5,)))
    assert np.abs(rows - want).max() <= 1e-14
    # the identity's first columns are circuit_unitary's columns, but for the phase
    rows = np.eye(8, 3, dtype=complex)
    apply_gates(circ.gates, rows.reshape((2,) * 3 + (3,)))
    assert np.array_equal(rows * np.exp(0.25j), circuit_unitary(circ, 3))
    # x/mcx move integer entries exactly as the reference's row swaps do
    perm = (x(2), mcx((0b011, 0b001), 0), mcx((0b100, 0b000), 1), x(0))
    rows = np.arange(16, dtype=np.int32).reshape(8, 2)
    want = rows.copy()
    for g in perm:
        reference_apply_gate(want, g, 3)
    apply_gates(perm, rows.reshape((2,) * 3 + (2,)))
    assert rows.dtype == np.int32 and np.array_equal(rows, want)


# around and past the 2^14-entry chunk: a view updated whole or chunk by
# chunk; the x and ry views span two rows, so 2^13 - 1 .. 2^13 + 1 columns
# put them on either side of the chunk, and the mcx views one row
@pytest.mark.parametrize("columns", [(1 << 13) - 1, 1 << 13, (1 << 13) + 1, (1 << 14) - 1,
                                     1 << 14, (1 << 14) + 1, 40_000])
@pytest.mark.parametrize("gate, dtype", [(ry(1.0, 0), complex), (x(1), complex),
                                         (mcx((0b10, 0b10), 1), complex), (x(1), np.int32),
                                         (mcx((0b10, 0b10), 1), np.int32)],
                         ids=["ry", "x", "mcx", "x-int32", "mcx-int32"])
def test_gates_on_wide_rows(rng, gate, dtype, columns):
    if dtype is complex:
        rows = rng.standard_normal((4, columns)) + 1j * rng.standard_normal((4, columns))
    else:
        rows = rng.integers(-1 << 31, 1 << 31, (4, columns), dtype=dtype)
    want = rows.copy()
    reference_apply_gate(want, gate, 2)
    apply_gates((gate,), rows.reshape(2, 2, columns))
    assert np.array_equal(rows, want)


def test_simulation_keeps_one_buffer():
    m = tridiagonal(8, 0.5 - 0.25j, 0.75 + 0.125j, -0.5j)
    circuit = compile_matrix(m).circuit
    assert circuit.n_qubits == 12
    tracemalloc.start()
    try:
        circuit_unitary(circuit, 256)  # one 16 MiB buffer of 2^12 x 256 entries
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 << 20


def test_layout_basis_convention():
    lay = RegisterLayout(2, 3)
    assert lay.total == 6
    assert lay.data_qubits == (0, 1)
    assert lay.del_qubit == 2
    assert lay.matrix_qubits == (3, 4, 5)
    assert lay.controls(data=(0b11, 0b01), matrix=(0b001, 0b001)) == (0b110001, 0b010001)
    assert select_pattern(*lay.controls(data=(0b11, 0b01), matrix=(0b001, 0b001)),
                          lay.total) == "01XXX1"
    with pytest.raises(BadInput):
        lay.controls(data=(0b100, 0))
    with pytest.raises(BadInput):
        RegisterLayout(-1, 2)


def test_export_text_exact_lines():
    c = Circuit(4, (x(0), mcx((0b1100, 0b0100), 3), ry(math.pi / 2, 1)))
    text = export_text(c)
    lines = text.splitlines()
    assert lines[0] == "blockenc-ir v1"
    assert lines[1] == "qubits 4"
    assert lines[2] == "x q0"
    assert lines[3] == "mcx ctrl=q0:0,q1:1 target=q3"
    assert lines[4] == "ry(1.5707963267948966) q1"


def test_text_round_trip_identity():
    lay = RegisterLayout(1, 2)
    c = Circuit(4, (mcx((0b1010, 0b0010), 1), ry(0.25, 0, (0b0100, 0)), phase(-1.5, 2),
                    mcx((0b1001, 0b1000), 2), x(3), mcx((0, 0), 0)), lay, 0.75)
    text = export_text(c, {"alpha": 2.5})
    back, meta = import_text(text)
    assert back == c
    assert meta == {"alpha": 2.5}
    assert export_text(back, meta) == text


def test_json_round_trip_identity():
    lay = RegisterLayout(2, 1)
    c = Circuit(4, (mcx((0b1100, 0b0100), 2), ry(0.5, 3)), lay, 0.0)
    doc = export_json(c, {"alpha": 1.0})
    back, meta = import_json(doc)
    assert back == c and meta == {"alpha": 1.0}


def test_import_rejects_garbage():
    with pytest.raises(BadInput):
        import_text("not a circuit\n")
    with pytest.raises(BadInput, match="bad pattern 'x1' for width 2"):
        import_json(_json_ir(2, gates=[{"kind": "mcx", "target": 1, "pattern": "x1"}]))
    with pytest.raises(BadInput, match="control qubit q99 outside 2 qubits"):
        import_text("blockenc-ir v1\nqubits 2\nmcx ctrl=q99:0 target=q1\n")


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
def _random_circuits(draw, max_width=7):
    width = draw(st.integers(1, max_width))
    gates = []
    for _ in range(draw(st.integers(0, 24))):
        kind = draw(st.sampled_from(["x", "mcx", "ry", "phase"]))
        target = draw(st.integers(0, width - 1))
        controls = (0, 0)
        if kind != "x":
            mask = draw(st.integers(0, (1 << width) - 1)) & ~(1 << (width - 1 - target))
            controls = (mask, draw(st.integers(0, (1 << width) - 1)) & mask)
        angle = draw(st.floats(-7.0, 7.0)) if kind in ("ry", "phase") else 0.0
        gates.append(Gate(kind, target=target, controls=controls, angle=angle))
    gphase = draw(st.floats(0.01, 6.0))
    return Circuit(width, tuple(gates), global_phase=gphase)


@settings(max_examples=200, deadline=None)
@given(_random_circuits(), st.data())
def test_simulation_matches_reference(circ, data):
    u = circuit_unitary(circ)
    assert np.array_equal(u, reference_circuit_unitary(circ))
    assert abs(unitarity_residual(u) - reference_unitarity_residual(u)) <= 1e-15
    columns = data.draw(st.integers(1, 1 << circ.n_qubits))
    v = circuit_unitary(circ, columns)
    if columns > 1:
        assert np.array_equal(v, u[:, :columns])
    else:
        # numpy rounds a complex product on a one-element array apart from
        # its vector loop, so a phase on a single entry may move the last bit
        assert np.abs(v - u[:, :1]).max() <= 1e-15
    assert abs(unitarity_residual(v) - reference_unitarity_residual(v)) <= 1e-15
    for g in circ.gates:
        one = Circuit(circ.n_qubits, (g,))
        assert np.array_equal(circuit_unitary(one), reference_circuit_unitary(one))


def test_gates_and_plan_items_are_immutable_records():
    gate = Gate("mcx", 2, (3, 1))
    item = analyze(SparseMatrix.from_entries(2, [(0, 1, 0.5), (1, 2, 0.5)])).items[0]
    for record, field in ((gate, "target"), (item, "index")):
        with pytest.raises(AttributeError):
            setattr(record, field, 5)
    assert repr(gate) == "Gate(kind='mcx', target=2, controls=(3, 1), angle=0.0)"
    assert repr(item) == ("PlanItem(index=0, magnitude=0.5, phase=(1+0j), offset=1, "
                          "direction='R', amount=1, powers=(1,), mode='insert', "
                          "delete_rows=(), insert_rows=(0, 1))")
    # a gate equals the plain tuple of its fields, so only its type tells them apart
    assert gate == ("mcx", 2, (3, 1), 0.0)
    with pytest.raises(BadGate, match="is not a Gate"):
        Circuit(3, (("mcx", 0, (3, 1), 0.0),))


def _exact(circ: Circuit):
    """A circuit's fields with every float by its repr, so -0.0 differs from 0.0."""
    return (circ.n_qubits, circ.layout, repr(circ.global_phase),
            [(type(g), g.kind, g.target, g.controls, repr(g.angle)) for g in circ.gates])


@settings(max_examples=150, deadline=None)
@given(_random_circuits(), st.one_of(st.just(0.0), st.just(-0.0), st.floats(-6.0, 6.0)))
def test_inverse_of_the_inverse_is_the_circuit_exactly(circ, gphase):
    circ = replace(circ, global_phase=gphase)
    assert inverse_circuit(inverse_circuit(circ)) == circ
    assert _exact(inverse_circuit(inverse_circuit(circ))) == _exact(circ)


@st.composite
def _random_documents(draw):
    """A random circuit with an optional register layout, and its metadata."""
    circ = draw(_random_circuits())
    layout = None
    if draw(st.booleans()):
        m = draw(st.integers(0, circ.n_qubits - 1))
        layout = RegisterLayout(m, circ.n_qubits - 1 - m)
    meta = {}
    if draw(st.booleans()):
        meta["alpha"] = draw(st.floats(allow_nan=False, allow_infinity=False))
    return replace(circ, layout=layout), meta


@settings(max_examples=150, deadline=None)
@given(_random_documents())
def test_ir_round_trips(doc):
    circ, meta = doc
    assert import_text(export_text(circ, meta)) == (circ, meta)
    assert import_json(export_json(circ, meta)) == (circ, meta)


@settings(max_examples=150, deadline=None)
@given(_random_documents())
def test_export_both_ways_is_byte_identical(doc):
    # what ``blockenc export`` does: text -> JSON -> text and JSON -> text -> JSON
    text, js = export_text(*doc), export_json(*doc)
    assert export_text(*import_json(export_json(*import_text(text)))) == text
    assert export_json(*import_text(export_text(*import_json(js)))) == js


@settings(max_examples=150, deadline=None)
@given(_random_circuits(MAX_CIRCUIT_QUBITS))
def test_export_text_spells_gates_as_the_reference_writer(circ):
    # the writer spells controls from the width's token table; the reference
    # spells each control with an f-string
    lines = [reference_gate_line(g, circ.n_qubits) + "\n" for g in circ.gates]
    assert export_text(circ) == export_text(replace(circ, gates=())) + "".join(lines)
    assert import_text(export_text(circ)) == (circ, {})


@st.composite
def _gate_lines(draw):
    """(width, one gate line) whose control tokens may carry leading zeros,
    repeat a qubit, name one at or past the width or have 5,000 digits."""
    width = draw(st.one_of(st.integers(0, 8), st.integers(0, MAX_CIRCUIT_QUBITS)))

    def index() -> str:
        q = draw(st.integers(0, width + 2))
        return draw(st.sampled_from([str(q)] * 4 + [f"00{q}", "9" * 5000]))

    qubits: list[str] = []
    for _ in range(draw(st.integers(0, 6))):
        repeat = qubits and draw(st.integers(0, 3)) == 0
        qubits.append(draw(st.sampled_from(qubits)) if repeat else index())
    ctrl = ",".join(f"q{q}:{draw(st.sampled_from('01'))}" for q in qubits)
    kind = draw(st.sampled_from(["x", "mcx", "ry", "phase"]))
    head = f"{kind}({draw(st.floats(-7.0, 7.0))!r})" if kind in ("ry", "phase") else kind
    target = f"target=q{index()}" if kind == "mcx" else f"q{index()}"
    return width, f"{head} ctrl={ctrl} {target}" if ctrl else f"{head} {target}"


@settings(max_examples=300, deadline=None)
@given(_gate_lines())
def test_text_gate_is_read_as_the_per_control_reader_reads_it(case):
    # a line with any token off the width's table, or a repeat, goes to the
    # per-control reader; either way the gate or the error is the same
    width, line = case
    text = f"blockenc-ir v1\nqubits {width}\n{line}\n"
    try:
        gate = _text_gate(_GATE_LINE.fullmatch(line), width, line)
        want = _read_circuit(width, [gate], None, 0.0, lambda i: f"IR line {line!r}")
    except BadInput as exc:
        with pytest.raises(BadInput) as info:
            import_text(text)
        assert type(info.value) is type(exc) and str(info.value) == str(exc)
    else:
        assert import_text(text) == (want, {})


def _json_ir(qubits: int, layout=None, gates=()) -> str:
    return json.dumps({"format": "blockenc-ir", "version": 1, "qubits": qubits,
                       "layout": layout, "gates": list(gates)})


@pytest.mark.parametrize("read, text", [
    (import_text, "blockenc-ir v1\nqubits 10000000\nmcx target=q0\n"),
    (import_text, "blockenc-ir v1\nqubits 10000000\nmcx ctrl=q9999999:1 target=q0\n"),
    (import_text, "blockenc-ir v1\nqubits 1000000000\nmcx ctrl=q0:1 target=q1\n"),
    (import_text, "blockenc-ir v1\nlayout m=1000000000 n=1\nmcx ctrl=q0:1 target=q1\n"),
    (import_json, _json_ir(1_000_000_000)),
    (import_json, _json_ir(1_000_000_002, {"m": 1_000_000_000, "n": 1})),
], ids=["mcx target=q0", "mcx ctrl=q9999999:1 target=q0", "text-1e9", "text-layout-1e9",
        "json-1e9", "json-layout-1e9"])
def test_parse_cost_does_not_scale_with_width(read, text):
    # a declared width above MAX_CIRCUIT_QUBITS is refused before any gate
    t0 = time.perf_counter()
    with pytest.raises(BadInput):
        read(text)
    assert time.perf_counter() - t0 < 0.05


@pytest.mark.parametrize("width", [-1, -10 ** 400])
def test_negative_json_width_refused(width):
    # refused before the default pattern "X" * width is built from it
    with pytest.raises(BadInput, match="negative qubit count"):
        import_json(_json_ir(width, gates=[{"kind": "x", "target": 0}]))


def test_width_at_the_cap_parses():
    width = MAX_CIRCUIT_QUBITS
    circ, _ = import_text(f"blockenc-ir v1\nqubits {width}\nmcx ctrl=q0:1 target=q1\n")
    assert circ.n_qubits == width and circ.gates[0].controls == (1 << width - 1,) * 2
    gate = {"kind": "mcx", "target": 1, "pattern": "1" + "X" * (width - 1)}
    circ, _ = import_json(_json_ir(width, gates=[gate]))
    assert circ.n_qubits == width and circ.gates[0].controls == (1 << width - 1,) * 2


def test_exporters_write_only_widths_the_readers_accept():
    wide = Circuit(MAX_CIRCUIT_QUBITS + 1, (x(MAX_CIRCUIT_QUBITS),))
    for export in (export_text, export_json):
        with pytest.raises(BadInput, match=f"wider than {MAX_CIRCUIT_QUBITS}"):
            export(wide)
    top = 1 << MAX_CIRCUIT_QUBITS - 1  # a control on q0
    at_cap = Circuit(MAX_CIRCUIT_QUBITS, (x(MAX_CIRCUIT_QUBITS - 1), mcx((top, top), 1)))
    for export, read in ((export_text, import_text), (export_json, import_json)):
        assert read(export(at_cap)) == (at_cap, {})


def test_metadata_outside_the_text_form_rejected():
    c = Circuit(1, (x(0),))
    for export in (export_text, export_json):
        with pytest.raises(BadInput):
            export(c, {"alpha": 1.5, "note": "hi"})
    doc = json.loads(export_json(c, {"alpha": 1.5}))
    doc["metadata"]["qubits"] = 3
    with pytest.raises(BadInput):
        import_json(json.dumps(doc))


_FUZZ_MATRIX = tridiagonal(2, 0.3 - 0.2j, -0.5 + 0.4j, 0.7 + 0.6j)
_FUZZ_ENCODED = compile_matrix(_FUZZ_MATRIX)
_FUZZ_TEXT = export_text(_FUZZ_ENCODED.circuit, {"alpha": _FUZZ_ENCODED.alpha}).splitlines()
_FUZZ_JSON = json.loads(export_json(_FUZZ_ENCODED.circuit, {"alpha": _FUZZ_ENCODED.alpha}))
_TEXT_TOKENS = [(i, j) for i, line in enumerate(_FUZZ_TEXT) for j in range(len(line.split()))]
_ALPHA_LINE = next(i for i, line in enumerate(_FUZZ_TEXT) if line.startswith("alpha "))
_TEXT_WORDS = [None, "foo", "x", "alpha", "nan", "inf", "-1", "99", "q-1", "q99",
               "target=q-1", "target=q99", "ctrl=q-1:1", "ctrl=q99:0", "ctrl=q0:2"]
_JSON_FIELDS = ([(key,) for key in _FUZZ_JSON] + [("layout", "m"), ("layout", "n"),
                ("metadata", "alpha")]
                + [("gates", i, key) for i, g in enumerate(_FUZZ_JSON["gates"]) for key in g])
_JSON_VALUES = [None, "x", [1], {}, True, -1, 99, 1.5, float("nan"), float("inf")]
_DROP = object()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    save_matrix(_FUZZ_MATRIX, path / "m.json")
    return path


def _imports_or_fails_cleanly(fuzz_dir, importer, body: str, suffix: str) -> None:
    """Only a BadInput may escape the importer; ``blockenc verify`` exits 0, 1 or 2."""
    try:
        importer(body)
    except BadInput:
        pass
    src = fuzz_dir / f"ir{suffix}"
    src.write_text(body)
    code = main(["verify", "--matrix", str(fuzz_dir / "m.json"), "--circuit", str(src)])
    assert code in (0, 1, 2)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_TEXT_TOKENS), st.sampled_from(_TEXT_WORDS))
@example((_ALPHA_LINE, 1), "nan")
def test_text_ir_fuzz_raises_only_blockenc_errors(fuzz_dir, token, word):
    i, j = token
    toks = _FUZZ_TEXT[i].split()
    toks[j:j + 1] = [] if word is None else [word]
    body = "\n".join(_FUZZ_TEXT[:i] + [" ".join(toks)] + _FUZZ_TEXT[i + 1:]) + "\n"
    _imports_or_fails_cleanly(fuzz_dir, import_text, body, ".ir")


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_JSON_FIELDS), st.sampled_from(_JSON_VALUES + [_DROP]))
@example(("metadata", "alpha"), "x")
@example(("metadata", "alpha"), [1])
def test_json_ir_fuzz_raises_only_blockenc_errors(fuzz_dir, field, value):
    doc = json.loads(json.dumps(_FUZZ_JSON))
    *parents, key = field
    node = doc
    for k in parents:
        node = node[k]
    if value is _DROP:
        del node[key]
    else:
        node[key] = value
    _imports_or_fails_cleanly(fuzz_dir, import_json, json.dumps(doc), ".json")


def _perturbed_unitary(dim: int, columns: int, where: str, rng) -> np.ndarray:
    """First columns of a random unitary, one of them changed so that
    v^H v - I peaks at one cell: on the diagonal, in the last row, or below
    the diagonal in the middle."""
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    q = q[:, :columns]
    if where == "diagonal":
        q[:, columns // 2] *= 1 + 1e-6
    elif where == "last":
        q[:, 0] += 1e-6 * q[:, columns - 1]
    else:
        q[:, columns // 3] += 1e-6j * q[:, (2 * columns) // 3]
    return q


# dim x dim unitaries, tall dim x dim/4 runs of their first columns, and
# short runs down to two columns (the tridiagonal block has dim/16 columns)
@pytest.mark.parametrize("where", ["diagonal", "last", "below"])
@pytest.mark.parametrize("dim, columns", [(2, 2), (8, 8), (128, 128), (300, 300),
                                          (128, 32), (300, 75), (128, 8), (8, 2), (300, 3)])
def test_residual_finds_the_worst_cell(rng, where, dim, columns):
    u = _perturbed_unitary(dim, columns, where, rng)
    expected = reference_unitarity_residual(u)
    assert expected > 1e-7
    assert abs(unitarity_residual(u) - expected) <= 1e-15


def _perturbed_permutation(dim: int, columns: int, where: str, rng) -> np.ndarray:
    """First columns of a permutation matrix with unit phases, changed in one
    place: one entry scaled by 1 + 1e-6, one small entry off its support (that
    of the next column), or one column zeroed."""
    perm = rng.permutation(dim)
    u = np.zeros((dim, columns), dtype=complex)
    u[perm[:columns], np.arange(columns)] = np.exp(1j * rng.uniform(0, 2 * np.pi, columns))
    j = columns // 3
    if where == "scaled":
        u[perm[j], j] *= 1 + 1e-6
    elif where == "off_support":
        u[perm[j + 1], j] = 1e-6j
    else:
        u[:, j] = 0
    return u


# dim x dim permutations, tall dim x dim/4 runs of their first columns, and
# short runs down to two columns (the tridiagonal block has dim/16 columns)
@pytest.mark.parametrize("where", ["scaled", "off_support", "zero_column"])
@pytest.mark.parametrize("dim, columns", [(2, 2), (64, 64), (300, 300), (64, 16), (300, 75),
                                          (64, 4), (8, 2), (300, 3)])
def test_residual_of_a_perturbed_permutation(rng, where, dim, columns):
    u = _perturbed_permutation(dim, columns, where, rng)
    expected = reference_unitarity_residual(u)
    assert expected > UNITARITY_TOL
    if where == "zero_column":
        assert expected == 1.0
    assert abs(unitarity_residual(u) - expected) <= 1e-15


# unitarity_residual forms v^H v in complex128, so every memory layout and
# dtype of v must reach the same Gram matrix; the stacked real and imaginary
# parts of v have Gram matrix Re(v^H v)
_LAYOUTS = {
    "c_order": lambda v: v,
    "fortran_order": np.asfortranarray,
    "strided_rows": lambda v: np.repeat(v, 2, axis=0)[::2],
    "strided_columns": lambda v: np.repeat(v, 2, axis=1)[:, ::2],
    "reversed_rows": lambda v: v[::-1],
    "complex64": lambda v: v.astype(np.complex64),
    "float64": lambda v: np.vstack([v.real, v.imag]),
}


@pytest.mark.parametrize("layout", list(_LAYOUTS))
@pytest.mark.parametrize("dim, columns", [(8, 8), (300, 75)])
def test_residual_reads_any_input_layout(rng, layout, dim, columns):
    v = _LAYOUTS[layout](_perturbed_unitary(dim, columns, "last", rng))
    expected = reference_unitarity_residual(np.asarray(v, dtype=complex))
    assert expected > 1e-7
    assert abs(unitarity_residual(v) - expected) <= 1e-15


@pytest.mark.parametrize("call", [
    lambda: RegisterLayout(1.5, 2), lambda: RegisterLayout(True, 2),
    lambda: RegisterLayout(2, "3"), lambda: circuit_unitary(Circuit(2), True),
    lambda: circuit_unitary(Circuit(2), 1.5), lambda: circuit_unitary(Circuit(2), "a"),
    lambda: route_permutation(((0, 1),), -1), lambda: route_permutation(((0, 1),), 1.5)],
    ids=["layout-float", "layout-bool", "layout-str", "columns-bool", "columns-float",
         "columns-str", "width-negative", "width-float"])
def test_widths_and_counts_must_be_integers(call):
    with pytest.raises(BadInput):
        call()
