import json
import math
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockenc.cli import main
from blockenc.demo import tridiagonal
from blockenc.errors import BadGate, BadInput, BlockencError, TooLarge
from blockenc.ingest import save_matrix
from blockenc.permute import route_permutation
from blockenc.pipeline import compile_matrix
from blockenc.verify import UNITARITY_TOL
from blockenc.ir import (MAX_CIRCUIT_QUBITS, Circuit, Gate, RegisterLayout, circuit_unitary,
                         export_json, export_text, import_json, import_text,
                         inverse_circuit, mcx, pattern_select, phase, ry, select_pattern,
                         unitarity_residual, x)
from conftest import (reference_apply_gate, reference_circuit_unitary,
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
    with pytest.raises(BadGate):
        Circuit(-1)


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


def test_start_array_entry(rng):
    circ = Circuit(3, (ry(0.4, 0), mcx((0b011, 0b001), 0), phase(0.9, 2, (0b100, 0b100)),
                       x(1)), global_phase=0.25)
    start = rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5))
    kept = start.copy()
    out = circuit_unitary(circ, np.asfortranarray(start))
    assert np.array_equal(start, kept)
    assert np.abs(out - circuit_unitary(circ) @ start).max() <= 1e-14
    # the identity's first columns as a start array are the int entry
    assert np.array_equal(circuit_unitary(circ, np.eye(8, 3)), circuit_unitary(circ, 3))
    for shape in ((4, 2), (8, 0), (8,)):
        with pytest.raises(BadInput):
            circuit_unitary(circ, np.zeros(shape))
    with pytest.raises(TooLarge):
        circuit_unitary(Circuit(20), np.broadcast_to(0j, (1 << 20, 32)))


# around and past the 2^14-entry chunk: a row view one chunk wide, and wider
@pytest.mark.parametrize("columns", [(1 << 14) - 1, 1 << 14, (1 << 14) + 1, 40_000])
@pytest.mark.parametrize("gate", [ry(1.0, 0), x(1), mcx((0b10, 0b10), 1)],
                         ids=["ry", "x", "mcx"])
def test_gates_on_wide_start_arrays(rng, gate, columns):
    start = rng.standard_normal((4, columns)) + 1j * rng.standard_normal((4, columns))
    want = start.copy()
    reference_apply_gate(want, gate, 2)
    assert np.array_equal(circuit_unitary(Circuit(2, (gate,)), start), want)


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
    """Only a BlockencError may escape the importer and ``blockenc verify``."""
    try:
        importer(body)
    except BlockencError:
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
