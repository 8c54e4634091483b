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

The dense oracle, ``circuit_unitary``, acts on the rows of the identity's
first ``columns`` columns and so returns those columns of the unitary; the
verifier asks for the d = 2^n block columns only.  A run of x/mcx gates is
folded into one row-index map and applied as one row gather; ry and phase
rotate in place on basic-slicing views of the rows.  Two dim x columns complex
buffers (the columns and the gather target) are alive at peak; the entry
budget ``MAX_SIM_ENTRIES``, dim x columns <= 2^24, holds them to 512 MiB,
the size of a full 12-qubit unitary.

``unitarity_residual(v)`` is max |v^H v - I| of a dim x k input, one dense
k x k product.  On the block columns it says those columns are orthonormal;
unitarity of the whole circuit follows from its gate kinds, since every
validated gate is unitary.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, replace

import numpy as np

from .errors import BadGate, BadInput, TooLarge

MAX_SIM_ENTRIES = 1 << 24  # dim x columns of one simulation: 256 MiB a buffer
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
        if self.m < 0 or self.n < 0:
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
        for g in self.gates:
            validate_gate(g, self.n_qubits)

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


_ROTATION_BLOCK = 1 << 14  # complex entries per cache-sized slice of a rotation


def circuit_unitary(circuit: Circuit, columns: int | None = None) -> np.ndarray:
    """The first ``columns`` columns of the unitary (all of them by default),
    first gate applied first (rightmost in the matrix product).

    The gates act on the rows of the identity's first columns.  A run of
    x/mcx gates is composed into one row-index map, O(2**width) per gate, and
    applied as one row gather before the next rotation and once at the end.
    The gather writes a second buffer of the same size, so two are alive at
    peak.  ry and phase act in place on basic-slicing views of the rows; ry
    goes slice by slice through a fixed scratch block to bound peak memory (a
    copy of the whole lower half, ``a = lo.copy()``, raised the max RSS of the
    verify-dense bench by a fifth or more).  More than ``MAX_SIM_ENTRIES``
    entries is ``TooLarge``, raised before any allocation.
    """
    width = circuit.n_qubits
    dim = 1 << width
    columns = dim if columns is None else columns
    if not 1 <= columns <= dim:
        raise BadInput(f"cannot simulate {columns} columns of a {width}-qubit unitary")
    if dim * columns > MAX_SIM_ENTRIES:
        raise TooLarge(f"{columns} columns of a {width}-qubit unitary exceed the "
                       f"{MAX_SIM_ENTRIES}-entry simulation budget")
    u = np.eye(dim, columns, dtype=complex)
    spare = np.empty_like(u)
    scratch = np.empty((2, _ROTATION_BLOCK), dtype=complex)
    rows = (2,) * width + (-1,)
    perm = None
    for g in circuit.gates:
        if g.kind in ("x", "mcx"):
            if perm is None:
                perm = np.arange(dim)
            p = perm.reshape(rows)
            lo, hi = p[_rows_where(g, width, 0)], p[_rows_where(g, width, 1)]
            lo[...], hi[...] = hi.copy(), lo.copy()
            continue
        if perm is not None:
            np.take(u, perm, axis=0, out=spare, mode="clip")
            u, spare, perm = spare, u, None
        t = u.reshape(rows)
        hi = t[_rows_where(g, width, 1)]
        if g.kind == "phase":
            hi *= np.exp(1j * g.angle)
            continue
        lo = t[_rows_where(g, width, 0)]
        c, s = math.cos(g.angle / 2), math.sin(g.angle / 2)
        k = 0
        while lo[(0,) * k].size > _ROTATION_BLOCK:
            k += 1
        for ix in np.ndindex(lo.shape[:k]):
            a, b = lo[ix], hi[ix]
            sa = np.multiply(a, s, out=scratch[0, :a.size].reshape(a.shape))
            sb = np.multiply(b, s, out=scratch[1, :a.size].reshape(a.shape))
            a *= c
            a -= sb
            b *= c
            b += sa
    if perm is not None:
        np.take(u, perm, axis=0, out=spare, mode="clip")
        u = spare
    if circuit.global_phase:
        u *= np.exp(1j * circuit.global_phase)
    return u


def unitarity_residual(v: np.ndarray) -> float:
    """max |v^H v - I| over the k x k Gram matrix of a dim x k input.

    The product is taken on the real view of v, whose columns are re_0, im_0,
    re_1, im_1, ...: numpy computes ``r.T @ r`` as one symmetric update, half
    the work of the complex product.
    """
    r = np.ascontiguousarray(v, dtype=complex).view(float)
    g = r.T @ r
    gram = g[::2, ::2] + g[1::2, 1::2] + 1j * (g[::2, 1::2] - g[1::2, ::2])
    gram.reshape(-1)[::gram.shape[0] + 1] -= 1
    return float(np.abs(gram).max())


def inverse_gate(gate: Gate) -> Gate:
    if gate.kind in ("ry", "phase"):
        return replace(gate, angle=-gate.angle)
    return gate  # x / mcx are self-inverse


def inverse_circuit(circuit: Circuit) -> Circuit:
    gates = tuple(inverse_gate(g) for g in reversed(circuit.gates))
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


def _ctrl_field(controls: Cube, width: int) -> str:
    parts = [f"q{q}:{v}" for q, v in _controlled_qubits(controls, width)]
    return "ctrl=" + ",".join(parts) if parts else ""


def _gate_line(g: Gate, width: int) -> str:
    ctrl = _ctrl_field(g.controls, width)
    if g.kind == "x":
        return f"x q{g.target}"
    if g.kind == "mcx":
        return f"mcx {ctrl} target=q{g.target}".replace("  ", " ")
    if g.kind in ("ry", "phase"):
        head = f"{g.kind}({g.angle!r})"
        return " ".join(p for p in (head, ctrl, f"q{g.target}") if p)
    raise BadGate(g.kind)  # pragma: no cover


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
        _finite_number(val, f"metadata {key}")
    return metadata


def _ascii_int(tok: str) -> int:
    """``int(tok)`` for the digits 0-9 alone; ``int`` also reads '_', signs and other scripts."""
    if not (tok.isascii() and tok.isdigit()):
        raise BadInput(f"{tok!r} is not an index in the digits 0-9")
    return int(tok)


_DECIMAL = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")


def _ascii_float(tok: str) -> float:
    """``float(tok)`` for ASCII decimals alone; ``float`` also reads '_' and other scripts."""
    if not _DECIMAL.fullmatch(tok):
        raise BadInput(f"{tok!r} is not a decimal number")
    return float(tok)


def _parse_qubit(tok: str) -> int:
    """Index of a ``q<digits>`` token; any other spelling is BadInput."""
    if tok[:1] != "q":
        raise BadInput(f"qubit token {tok!r} is not q followed by an index")
    return _ascii_int(tok[1:])


def _parse_ctrl(tok: str, width: int) -> Cube:
    mask = value = 0
    for part in tok[len("ctrl="):].split(","):
        q, v = part.split(":")
        qubit = _parse_qubit(q)
        if not 0 <= qubit < width:
            raise BadInput(f"control qubit {q} outside {width} qubits")
        if v not in ("0", "1"):
            raise BadInput(f"control value {v!r} on {q} is not 0 or 1")
        bit = 1 << (width - 1 - qubit)
        if mask & bit:
            raise BadInput(f"control qubit {q} repeated")
        mask |= bit
        value |= bit if v == "1" else 0
    return mask, value


def _checked_width(width: int) -> int:
    if width > MAX_CIRCUIT_QUBITS:
        raise BadInput(f"circuit of {width} qubits is wider than {MAX_CIRCUIT_QUBITS}")
    return width


def import_text(text: str) -> tuple[Circuit, dict]:
    """Parse the text form back into (Circuit, metadata).

    A line that does not parse raises BadInput naming it, and so does a
    repeated header line (qubit count or layout, metadata, phase).
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != FORMAT_HEADER:
        raise BadInput("missing format header")
    layout = width = gphase = None
    meta: dict = {}
    gates: list[Gate] = []
    try:
        for ln in lines[1:]:
            toks = ln.split()
            head = toks[0]
            if head in meta or head in ("layout", "qubits") and width is not None:
                raise BadInput(f"repeated header line {ln!r}")
            if head == "layout":
                if [t[:2] for t in toks[1:]] != ["m=", "n="]:
                    raise BadInput(f"layout line {ln!r} is not 'layout m=<m> n=<n>'")
                layout = RegisterLayout(_ascii_int(toks[1][2:]), _ascii_int(toks[2][2:]))
                width = _checked_width(layout.total)
            elif head == "qubits":
                (count,) = toks[1:]
                width = _checked_width(_ascii_int(count))
            elif head in _META_KEYS:
                (val,) = toks[1:]
                meta[head] = _finite_number(_ascii_float(val), head)
            elif head.startswith("gphase("):
                if gphase is not None or len(toks) != 1:
                    raise BadInput(f"repeated or malformed gphase line {ln!r}")
                gphase = _finite_number(_ascii_float(head[len("gphase("):-1]), "gphase")
            else:
                if width is None:
                    raise BadInput("gate line before qubit count")
                gates.append(_parse_gate_line(toks, width))
    except (IndexError, KeyError, ValueError, StopIteration):
        raise BadInput(f"cannot parse IR line {ln!r}") from None
    if width is None:
        raise BadInput("missing qubit count")
    return Circuit(width, tuple(gates), layout, 0.0 if gphase is None else gphase), meta


def _parse_gate_line(toks: list[str], width: int) -> Gate:
    head = toks[0]
    rest = toks[1:]
    controls = (0, 0)
    if rest and rest[0].startswith("ctrl="):
        controls = _parse_ctrl(rest[0], width)
        rest = rest[1:]
    if len(rest) != 1:
        raise BadInput(f"gate line {' '.join(toks)!r} needs exactly one target token")
    (target,) = rest
    if head == "x":
        return Gate("x", target=_parse_qubit(target), controls=controls)
    if head == "mcx":
        if not target.startswith("target="):
            raise BadInput(f"mcx target {target!r} is not target=q<index>")
        return mcx(controls, _parse_qubit(target[len("target="):]))
    if head.startswith(("ry(", "phase(")):
        kind = head[:head.index("(")]
        angle = _ascii_float(head[head.index("(") + 1:-1])
        return Gate(kind, target=_parse_qubit(target), controls=controls, angle=angle)
    raise BadInput(f"cannot parse gate line {' '.join(toks)!r}")


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


def _json_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadInput(f"{what} must be an integer, got {value!r}")
    return value


def _finite_number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise BadInput(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _json_gate(d, width: int) -> Gate:
    """One gate dict of the JSON form, every field checked for presence and type.

    A gate holds exactly the fields ``_gate_dict`` writes for its kind, so
    every accepted document is written back byte for byte.
    """
    if not isinstance(d, dict):
        raise BadInput(f"gate entry must be an object, got {d!r}")
    kind = d.get("kind")
    if kind not in GATE_KINDS:
        raise BadInput(f"unknown gate kind {kind!r}")
    rotation = kind in ("ry", "phase")
    extra = set(d) - {"kind", "target", "pattern"} - ({"angle"} if rotation else set())
    if extra:
        raise BadInput(f"{kind} gate with unexpected fields {sorted(extra)}")
    if "target" not in d:
        raise BadInput(f"{kind} gate without a target")
    target = _json_int(d["target"], f"{kind} gate target")
    pattern = d.get("pattern")
    if kind == "mcx" and pattern is None:
        raise BadInput("mcx gate without a pattern")
    if "pattern" in d and not isinstance(pattern, str):
        raise BadInput(f"{kind} gate pattern must be a string, got {pattern!r}")
    if rotation and "angle" not in d:
        raise BadInput(f"{kind} gate without an angle")
    angle = _finite_number(d.get("angle", 0.0), f"{kind} gate angle")
    controls = (0, 0) if pattern is None else pattern_select(pattern, width)
    if pattern is not None and kind != "mcx" and not controls[0]:
        raise BadInput(f"{kind} gate pattern {pattern!r} holds no control")
    return Gate(kind, target=target, controls=controls, angle=angle)


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
        layout = RegisterLayout(_json_int(lay.get("m"), "layout m"),
                                _json_int(lay.get("n"), "layout n"))
        _checked_width(layout.total)
    if not isinstance(doc.get("gates"), list):
        raise BadInput("circuit JSON needs a gates list")
    width = _checked_width(_json_int(doc.get("qubits"), "qubits"))
    gates = [_json_gate(d, width) for d in doc["gates"]]
    metadata = _checked_metadata(doc.get("metadata", {}))
    circ = Circuit(width, tuple(gates), layout,
                   _finite_number(doc.get("global_phase", 0.0), "global_phase"))
    return circ, metadata
