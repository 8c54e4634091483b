"""Gate-level circuit representation with exact unitary semantics.

Conventions (used everywhere in the package, documented only here):

- Qubit ``q0`` is drawn at the top of a circuit and holds the MOST significant
  bit of a basis index.  A k-qubit basis state ``|j>`` therefore reads as the
  string ``format(j, f"0{k}b")`` whose character at position ``i`` is the value
  of qubit ``q_i``.
- Basis labels are ints.  "Bit index" means significance: bit ``b`` of a
  width-``k`` label sits at string position ``k - 1 - b``.
- A control set or cube is a ``(mask, value)`` pair of ints with
  ``value & ~mask == 0``: label ``i`` matches iff ``i & mask == value``.
  ``(0, 0)`` is the empty cube, no controls.  A gate's controls are a cube
  over the circuit width, and its target bit must be outside the mask.
- ``"01X"`` strings (``X`` for no control on that qubit) exist only in the
  JSON form's ``pattern`` field, written by ``select_pattern`` and read by
  ``pattern_select``.
- ``Circuit.gates`` is ordered with the leftmost (first-applied) gate first,
  so the circuit unitary is ``G_last @ ... @ G_first``.

For a register layout of m data qubits, one delete qubit and n matrix qubits,
the basis index of ``|0>_data |0>_del |j>`` equals ``j``, which places the
encoded block in the top-left corner of the unitary.

The simulator, ``circuit_unitary``, acts on the rows of the identity's first
``columns`` columns and so returns those columns of the unitary; given a
start array instead, it returns the unitary times that array.  Every gate
acts in place on two basic-slicing views of the rows, those where its
controls hold and its target reads 0 or 1: phase scales the second, and
x/mcx (a swap) and ry (a rotation) update the pair chunk by chunk.  The
gates work on one dim x columns complex buffer, the identity's columns or
a copy of the start array, and a start array stays alive beside its copy;
the entry budget ``MAX_SIM_ENTRIES``, dim x columns <= 2^24, holds each
such array to 256 MiB, the size of a full 12-qubit unitary.  The verifier
simulates only the data register of a compiled circuit, on m qubits, and
walks its x/mcx gates as integer labels; it holds each array it builds,
labels included, to the same budget through ``check_budget`` (see
``verify``).

``unitarity_residual(v)`` is max |v^H v - I| of a dim x k input, one dense
k x k product in complex128 whatever the input's dtype or layout.  On the
block columns it says those columns are orthonormal; unitarity of the whole
circuit follows from its gate kinds, since every validated gate is unitary.
"""

from __future__ import annotations

import json
import math
import numbers
import re
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import BadGate, BadInput, TooLarge

MAX_SIM_ENTRIES = 1 << 24  # dim x columns of one simulation: one 256 MiB buffer
# Widest circuit the IR readers accept (a compiled one has m + 1 + n <= 127);
# a control cube is an int as wide as the circuit, so wider is refused at once.
MAX_CIRCUIT_QUBITS = 128

Cube = tuple[int, int]  # (mask, value): labels i with i & mask == value

GATE_KINDS = ("x", "mcx", "ry", "phase")


@dataclass(frozen=True)
class RegisterLayout:
    """Register split: m data qubits, one delete qubit, n matrix qubits."""

    m: int
    n: int

    def __post_init__(self):
        if integer(self.m, "layout m") < 0 or integer(self.n, "layout n") < 0:
            raise BadInput(f"invalid layout m={self.m} n={self.n}")

    @property
    def total(self) -> int:
        return self.m + 1 + self.n

    @property
    def data_qubits(self) -> tuple[int, ...]:
        return tuple(range(self.m))

    @property
    def del_qubit(self) -> int:
        return self.m

    @property
    def matrix_qubits(self) -> tuple[int, ...]:
        return tuple(range(self.m + 1, self.total))

    @property
    def block_dim(self) -> int:
        return 1 << self.n

    def controls(self, data: Cube = (0, 0), matrix: Cube = (0, 0)) -> Cube:
        """Full-width gate controls from cubes on the data and matrix registers.

        The delete qubit is never a control.
        """
        (dm, dv), (jm, jv) = data, matrix
        if (dm | dv) >> self.m or (jm | jv) >> self.n:
            raise BadInput("register cube wider than its register")
        shift = self.n + 1
        return dm << shift | jm, dv << shift | jv


@dataclass(frozen=True)
class Gate:
    """One primitive gate; construct via the mcx/x/ry/phase helpers."""

    kind: str
    target: int = -1
    controls: Cube = (0, 0)
    angle: float = 0.0


def mcx(controls: Cube, target: int) -> Gate:
    return Gate("mcx", target=target, controls=controls)


def x(target: int) -> Gate:
    return Gate("x", target=target)


def ry(angle: float, target: int, controls: Cube = (0, 0)) -> Gate:
    return Gate("ry", target=target, controls=controls, angle=float(angle))


def phase(angle: float, target: int, controls: Cube = (0, 0)) -> Gate:
    return Gate("phase", target=target, controls=controls, angle=float(angle))


def validate_gate(gate: Gate, width: int) -> None:
    """Raise BadGate if the gate cannot act on a width-qubit circuit."""
    if gate.kind not in GATE_KINDS:
        raise BadGate(f"unknown gate kind {gate.kind!r}")
    if not 0 <= gate.target < width:
        raise BadGate(f"target {gate.target} out of range for width {width}")
    mask, value = gate.controls
    if mask >> width or value & ~mask:
        raise BadGate(f"bad controls {gate.controls} for width {width}")
    if mask >> (width - 1 - gate.target) & 1:
        raise BadGate("target qubit must be free of controls")
    if gate.kind == "x" and mask:
        raise BadGate("an x gate takes no controls")
    if gate.kind in ("ry", "phase") and not math.isfinite(gate.angle):
        raise BadGate(f"non-finite angle {gate.angle}")


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over n_qubits; immutable after construction."""

    n_qubits: int
    gates: tuple[Gate, ...] = ()
    layout: RegisterLayout | None = None
    global_phase: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        if self.n_qubits < 0:
            raise BadGate(f"negative qubit count {self.n_qubits}")
        if self.layout is not None and self.layout.total != self.n_qubits:
            raise BadGate("layout does not match qubit count")
        for i, g in enumerate(self.gates):
            try:
                validate_gate(g, self.n_qubits)
            except BadGate as exc:
                exc.index = i
                raise

    def __len__(self) -> int:
        return len(self.gates)


def pattern_select(pattern: str, width: int) -> Cube:
    """The cube of a width-character ``"01X"`` pattern."""
    if len(pattern) != width or not set(pattern) <= set("01X"):
        raise BadInput(f"bad pattern {pattern!r} for width {width}")
    mask = int(pattern.replace("0", "1").replace("X", "0") or "0", 2)
    return mask, int(pattern.replace("X", "0") or "0", 2)


def select_pattern(mask: int, value: int, width: int) -> str:
    """Inverse of ``pattern_select``: the width-character pattern of (mask, value)."""
    return "".join("X" if not mask >> b & 1 else "1" if value >> b & 1 else "0"
                   for b in range(width - 1, -1, -1))


def _controlled_qubits(controls: Cube, width: int):
    """(qubit, value) of each control, lowest qubit first; one step per control."""
    mask, value = controls
    while mask:
        b = mask.bit_length() - 1
        yield width - 1 - b, value >> b & 1
        mask ^= 1 << b


def _rows_where(gate: Gate, width: int, bit: int) -> tuple:
    """Basic-slicing index, into a ``(2,) * width + (cols,)`` view of rows, of
    the rows where every control of ``gate`` holds and its target reads ``bit``."""
    idx = [slice(None)] * width
    for q, v in _controlled_qubits(gate.controls, width):
        idx[q] = v
    idx[gate.target] = bit
    return tuple(idx)


_CHUNK = 1 << 14  # complex entries per cache-sized chunk of a gate's row views


def check_budget(width: int, columns: int) -> None:
    """Raise TooLarge if ``columns`` columns of a width-qubit unitary exceed
    the ``MAX_SIM_ENTRIES`` simulation budget."""
    if columns << width > MAX_SIM_ENTRIES:
        raise TooLarge(f"{columns} columns of a {width}-qubit unitary exceed the "
                       f"{MAX_SIM_ENTRIES}-entry simulation budget")


def circuit_unitary(circuit: Circuit, columns: int | np.ndarray | None = None) -> np.ndarray:
    """The first ``columns`` columns of the unitary (all of them by default),
    first gate applied first (rightmost in the matrix product).

    ``columns`` may instead be a 2**width x k start array; the result is then
    the unitary times that array, which is left as it was.  The gates act in
    place on the rows of the identity's first columns or of a copy of the
    start array, and the caller's start array stays alive beside the copy.
    Each gate takes the two row views ``_rows_where`` names; phase scales
    the upper one, and x/mcx swap and ry rotate the pair in 1-D chunks of at
    most ``_CHUNK`` entries, so their temporaries stay cache-sized whatever
    the view's shape.  More than ``MAX_SIM_ENTRIES`` entries is
    ``TooLarge``, raised before any allocation; a ``columns`` that is not
    None, an integer or a 2-D array is ``BadInput``.
    """
    width = circuit.n_qubits
    dim = 1 << width
    if isinstance(columns, np.ndarray):
        if columns.ndim != 2 or columns.shape[0] != dim or not columns.shape[1]:
            raise BadInput(f"start array of shape {columns.shape} does not fit "
                           f"a {width}-qubit circuit")
        check_budget(width, columns.shape[1])
        u = np.array(columns, dtype=complex, order="C")
    else:
        columns = dim if columns is None else integer(columns, "columns")
        if not 1 <= columns <= dim:
            raise BadInput(f"cannot simulate {columns} columns of a {width}-qubit unitary")
        check_budget(width, columns)
        u = np.eye(dim, columns, dtype=complex)
    t = u.reshape((2,) * width + (-1,))
    for g in circuit.gates:
        hi = t[_rows_where(g, width, 1)]
        if g.kind == "phase":
            hi *= np.exp(1j * g.angle)
            continue
        lo = t[_rows_where(g, width, 0)]
        c, s = math.cos(g.angle / 2), math.sin(g.angle / 2)
        # matching 1-D chunks of the two views, whatever their shape; the
        # iterator writes a buffered chunk back before it yields the next
        with np.nditer([lo, hi], ["external_loop", "buffered"], [["readwrite"]] * 2,
                       buffersize=_CHUNK) as pairs:
            for a, b in pairs:
                if g.kind == "ry":
                    sa, sb = a * s, b * s
                    a *= c
                    a -= sb
                    b *= c
                    b += sa
                else:  # x, mcx
                    a_old = a.copy()
                    a[...] = b
                    b[...] = a_old
    if circuit.global_phase:
        u *= np.exp(1j * circuit.global_phase)
    return u


def unitarity_residual(v: np.ndarray) -> float:
    """max |v^H v - I| of a dim x k input, the Gram product taken in complex128."""
    v = np.asarray(v, dtype=complex)
    gram = v.conj().T @ v
    gram.reshape(-1)[::gram.shape[0] + 1] -= 1
    return float(np.abs(gram).max())


def inverse_circuit(circuit: Circuit) -> Circuit:
    # x / mcx are self-inverse; ry / phase invert by negating their angle
    gates = tuple(replace(g, angle=-g.angle) if g.kind in ("ry", "phase") else g
                  for g in reversed(circuit.gates))
    return Circuit(circuit.n_qubits, gates, circuit.layout, -circuit.global_phase)


def embed_gates(gates, width: int, qubits: tuple[int, ...]) -> list[Gate]:
    """Move gates from a contiguous subregister into a wider circuit.

    ``qubits`` are the ascending global indices of the subregister's qubits,
    so local qubit i is global qubit ``qubits[0] + i``.
    """
    out = []
    for g in gates:
        shift = width - qubits[0] - len(qubits)
        mask, value = g.controls
        out.append(Gate(g.kind, g.target + qubits[0], (mask << shift, value << shift), g.angle))
    return out


# --- serialization ---------------------------------------------------------

FORMAT_HEADER = "blockenc-ir v1"


def _gate_line(g: Gate, width: int) -> str:
    head = f"{g.kind}({g.angle!r})" if g.kind in ("ry", "phase") else g.kind
    ctrl = ",".join(f"q{q}:{v}" for q, v in _controlled_qubits(g.controls, width))
    target = f"target=q{g.target}" if g.kind == "mcx" else f"q{g.target}"
    return f"{head} ctrl={ctrl} {target}" if ctrl else f"{head} {target}"


def export_text(circuit: Circuit, metadata: dict | None = None) -> str:
    """Deterministic line-per-gate text form; round-trips through import_text."""
    metadata = _checked_metadata(metadata or {})
    lines = [FORMAT_HEADER]
    if circuit.layout is not None:
        lines.append(f"layout m={circuit.layout.m} n={circuit.layout.n}")
    else:
        lines.append(f"qubits {circuit.n_qubits}")
    for key in sorted(metadata):
        lines.append(f"{key} {metadata[key]!r}")
    if circuit.global_phase:
        lines.append(f"gphase({circuit.global_phase!r})")
    lines.extend(_gate_line(g, circuit.n_qubits) for g in circuit.gates)
    return "\n".join(lines) + "\n"


_META_KEYS = ("alpha",)


def _checked_metadata(metadata) -> dict:
    """The metadata itself, if every key is one the text form carries."""
    if not isinstance(metadata, dict):
        raise BadInput(f"metadata must be an object, got {metadata!r}")
    for key, val in metadata.items():
        if key not in _META_KEYS:
            raise BadInput(f"unknown metadata key {key!r}")
        finite_number(val, f"metadata {key}")
    return metadata


# One pattern per text line kind; \s is any whitespace, as str.split() reads it.
_NUMBER = r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"  # the decimals repr writes
_CONTROL = re.compile(r"q([0-9]+):([01])")  # in the gate pattern and the scan of its ctrl= list
_LINE_KINDS = {kind: re.compile(rf"\s*{pattern}\s*") for kind, pattern in (
    # disjoint patterns, so the order sets only the cost: the most frequent kind first
    ("gate", rf"(?:(?P<kind>x|(?P<mcx>mcx))|(?P<rot>ry|phase)\((?P<angle>{_NUMBER})\))"
             rf"(?:\s+ctrl=(?P<ctrl>{_CONTROL.pattern}(?:,{_CONTROL.pattern})*))?"
             r"\s+(?(mcx)target=)q(?P<target>[0-9]+)"),  # target= on an mcx alone
    ("layout", r"layout\s+m=([0-9]+)\s+n=([0-9]+)"),
    ("qubits", r"qubits\s+([0-9]+)"),
    ("alpha", rf"alpha\s+({_NUMBER})"),
    ("gphase", rf"gphase\(({_NUMBER})\)"),
)}


def _index(digits: str, ln: str) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts
        raise BadInput(f"index of {len(digits)} digits in IR line {ln!r}") from None


def _checked_width(width: int) -> int:
    """The qubit count itself, if it lies in 0..MAX_CIRCUIT_QUBITS."""
    if width < 0:
        raise BadInput(f"negative qubit count {width}")
    if width > MAX_CIRCUIT_QUBITS:
        raise BadInput(f"circuit of {width} qubits is wider than {MAX_CIRCUIT_QUBITS}")
    return width


def import_text(text: str) -> tuple[Circuit, dict]:
    """Parse the text form back into (Circuit, metadata).

    After the exact header line, each non-blank line is of one kind and
    matches its pattern in ``_LINE_KINDS`` whole: ``layout``/``qubits``
    (one of them, before any gate), ``alpha`` and ``gphase(...)`` at most
    once each, and gate lines.  Any other line raises BadInput naming it.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != FORMAT_HEADER:
        raise BadInput("missing format header")
    layout = width = gphase = None
    meta: dict = {}
    gates: list[Gate] = []
    sources: list[str] = []  # the line of each gate
    for ln in lines[1:]:
        for kind, pattern in _LINE_KINDS.items():
            if match := pattern.fullmatch(ln):
                break
        else:
            raise BadInput(f"cannot parse IR line {ln!r}")
        if (kind in ("layout", "qubits") and width is not None or kind in meta
                or kind == "gphase" and gphase is not None):
            raise BadInput(f"repeated header line {ln!r}")
        if kind == "layout":
            layout = RegisterLayout(_index(match[1], ln), _index(match[2], ln))
            width = _checked_width(layout.total)
        elif kind == "qubits":
            width = _checked_width(_index(match[1], ln))
        elif kind == "alpha":
            meta[kind] = finite_number(float(match[1]), kind)
        elif kind == "gphase":
            gphase = finite_number(float(match[1]), kind)
        elif width is None:
            raise BadInput(f"gate line {ln!r} before qubit count")
        else:
            gates.append(_text_gate(match, width, ln))
            sources.append(ln)
    if width is None:
        raise BadInput("missing qubit count")
    return _read_circuit(width, gates, layout, 0.0 if gphase is None else gphase,
                         lambda i: f"IR line {sources[i]!r}"), meta


def _read_circuit(width: int, gates: list[Gate], layout: RegisterLayout | None,
                  gphase: float, where) -> Circuit:
    """The Circuit of parsed gates; a refused gate's BadGate names ``where(index)``."""
    try:
        return Circuit(width, tuple(gates), layout, gphase)
    except BadGate as exc:
        if exc.index is None:
            raise
        raise BadGate(f"{exc} in {where(exc.index)}") from None


def _text_gate(match: re.Match, width: int, ln: str) -> Gate:
    """The gate of a matched gate line; each control is on a distinct qubit."""
    kind = match["kind"] or match["rot"]
    mask = value = 0
    for q, v in _CONTROL.findall(match["ctrl"] or ""):
        qubit = _index(q, ln)
        if qubit >= width:
            raise BadInput(f"control qubit q{q} outside {width} qubits in IR line {ln!r}")
        bit = 1 << (width - 1 - qubit)
        if mask & bit:
            raise BadInput(f"control qubit q{q} repeated in IR line {ln!r}")
        mask |= bit
        value |= bit if v == "1" else 0
    return Gate(kind, _index(match["target"], ln), (mask, value), float(match["angle"] or 0))


def export_json(circuit: Circuit, metadata: dict | None = None) -> str:
    metadata = _checked_metadata(metadata or {})
    doc = {
        "format": "blockenc-ir",
        "version": 1,
        "qubits": circuit.n_qubits,
        "layout": None if circuit.layout is None else
            {"m": circuit.layout.m, "n": circuit.layout.n},
        "global_phase": circuit.global_phase,
        "metadata": metadata,
        "gates": [_gate_dict(g, circuit.n_qubits) for g in circuit.gates],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _gate_dict(g: Gate, width: int) -> dict:
    d: dict = {"kind": g.kind, "target": g.target}
    if g.kind == "mcx" or g.controls[0]:
        d["pattern"] = select_pattern(*g.controls, width)
    if g.kind in ("ry", "phase"):
        d["angle"] = g.angle
    return d


def integer(value, what: str) -> int:
    """``value`` itself, or BadInput naming ``what`` unless it is an integer;
    a bool is not a number here."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise BadInput(f"{what} must be an integer, got {value!r}")
    return value


def finite_number(value, what: str) -> float:
    """``value`` as a float, or BadInput naming ``what`` unless it is a finite
    int or float; a bool is not a number here."""
    # abs() compares an int beyond the float range, on which math.isfinite overflows
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise BadInput(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _json_gate(d, width: int) -> Gate:
    """One gate entry of the JSON form: its typed fields build the gate, which
    is read exactly when ``export`` writes the entry back unchanged."""
    if not isinstance(d, dict):
        raise BadInput(f"gate entry must be an object, got {d!r}")
    kind = d.get("kind")
    if kind not in GATE_KINDS:
        raise BadInput(f"unknown gate kind {kind!r}")
    pattern = d.get("pattern", "X" * width)
    if not isinstance(pattern, str):
        raise BadInput(f"{kind} gate pattern must be a string, got {pattern!r}")
    gate = Gate(kind, integer(d.get("target"), f"{kind} gate target"),
                pattern_select(pattern, width),
                finite_number(d.get("angle", 0.0), f"{kind} gate angle"))
    if _gate_dict(gate, width) != d:
        raise BadInput(f"gate entry {d!r} is not the form export writes for its gate")
    return gate


def import_json(text: str) -> tuple[Circuit, dict]:
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise BadInput(f"invalid circuit JSON: {exc}") from None
    if not isinstance(doc, dict) or (doc.get("format"), doc.get("version")) != ("blockenc-ir", 1):
        raise BadInput("unrecognized circuit JSON")
    layout = None
    if doc.get("layout") is not None:
        lay = doc["layout"]
        if not isinstance(lay, dict):
            raise BadInput(f"layout must be an object, got {lay!r}")
        layout = RegisterLayout(lay.get("m"), lay.get("n"))
        _checked_width(layout.total)
    if not isinstance(doc.get("gates"), list):
        raise BadInput("circuit JSON needs a gates list")
    width = _checked_width(integer(doc.get("qubits"), "qubits"))
    gates = [_json_gate(d, width) for d in doc["gates"]]
    metadata = _checked_metadata(doc.get("metadata", {}))
    return _read_circuit(width, gates, layout,
                         finite_number(doc.get("global_phase", 0.0), "global_phase"),
                         lambda i: f"gate entry {i}"), metadata
