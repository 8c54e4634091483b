"""Gate-level circuit representation with exact unitary semantics.

Conventions (used everywhere in the package, documented only here):

- Qubit ``q0`` is drawn at the top of a circuit and holds the MOST significant
  bit of a basis index.  A k-qubit basis state ``|j>`` therefore reads as the
  string ``format(j, f"0{k}b")`` whose character at position ``i`` is the value
  of qubit ``q_i``.
- Basis labels are ints.  "Bit index" means significance: bit ``b`` of a
  width-``k`` label sits at string position ``k - 1 - b``.
- A control set or cube is the ``(mask, value)`` pair of ``pattern_select``:
  label ``i`` matches iff ``i & mask == value``.  The compiler works on
  labels and cubes; ``select_pattern`` turns a cube into the string that a
  ``Gate`` carries.
- Gate control patterns are strings over ``{"0", "1", "X"}`` of the circuit
  width; ``X`` means no control on that qubit.  A gate's target position
  must be ``X`` in its own pattern.
- ``Circuit.gates`` is ordered with the leftmost (first-applied) gate first,
  so the circuit unitary is ``G_last @ ... @ G_first``.

For a register layout of m data qubits, one delete qubit and n matrix qubits,
the basis index of ``|0>_data |0>_del |j>`` equals ``j``, which places the
encoded block in the top-left corner of the full unitary.

The dense oracle (``circuit_unitary``, ``gate_unitary``) rebuilds the full
unitary by acting on the rows of the identity.  A run of x/mcx gates is
folded into one row-index map and applied as one row gather; ry and phase
rotate in place on basic-slicing views of the rows.  ``unitarity_residual``
takes u^H u once as a Hermitian product (BLAS ``zherk``, one triangle) and
reduces |u^H u - I| over that triangle in row blocks.  Two dim x dim complex
buffers are alive at peak, 512 MiB at 12 qubits.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg.blas import zherk

from .errors import BadGate, BadInput, TooLarge

MAX_SIM_QUBITS = 12

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

    def full_pattern(self, data: tuple[int, int] | None = None,
                     matrix: tuple[int, int] | None = None) -> str:
        """Full-width gate pattern from register cubes.

        ``data`` and ``matrix`` are (mask, value) cubes on those registers;
        None leaves a register uncontrolled.  The delete qubit is never a
        control.
        """
        dm, dv = data or (0, 0)
        jm, jv = matrix or (0, 0)
        if (dm | dv) >> self.m or (jm | jv) >> self.n:
            raise BadInput("register cube wider than its register")
        shift = self.n + 1
        return select_pattern(dm << shift | jm, dv << shift | jv, self.total)


@dataclass(frozen=True)
class Gate:
    """One primitive gate; construct via the mcx/x/ry/phase helpers."""

    kind: str
    target: int = -1
    pattern: str | None = None
    angle: float = 0.0


def mcx(pattern: str, target: int) -> Gate:
    return Gate("mcx", target=target, pattern=pattern)


def x(target: int) -> Gate:
    return Gate("x", target=target)


def ry(angle: float, target: int, pattern: str | None = None) -> Gate:
    return Gate("ry", target=target, pattern=pattern, angle=float(angle))


def phase(angle: float, target: int, pattern: str | None = None) -> Gate:
    return Gate("phase", target=target, pattern=pattern, angle=float(angle))


def validate_gate(gate: Gate, width: int) -> None:
    """Raise BadGate if the gate cannot act on a width-qubit circuit."""
    if gate.kind not in GATE_KINDS:
        raise BadGate(f"unknown gate kind {gate.kind!r}")
    if gate.pattern is not None:
        if len(gate.pattern) != width or any(c not in "01X" for c in gate.pattern):
            raise BadGate(f"bad pattern {gate.pattern!r} for width {width}")
    if not 0 <= gate.target < width:
        raise BadGate(f"target {gate.target} out of range for width {width}")
    if gate.pattern is not None and gate.pattern[gate.target] != "X":
        raise BadGate("target qubit must be free in the control pattern")
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


def pattern_select(pattern: str | None, width: int) -> tuple[int, int]:
    """Return (mask, value) such that index i matches iff i & mask == value."""
    mask = value = 0
    if pattern:
        for pos, ch in enumerate(pattern):
            if ch == "X":
                continue
            bit = 1 << (width - 1 - pos)
            mask |= bit
            if ch == "1":
                value |= bit
    return mask, value


def select_pattern(mask: int, value: int, width: int) -> str:
    """Inverse of ``pattern_select``: the width-character pattern of (mask, value)."""
    return "".join("X" if not mask >> b & 1 else "1" if value >> b & 1 else "0"
                   for b in range(width - 1, -1, -1))


def _rows_where(gate: Gate, width: int, bit: int) -> tuple:
    """Basic-slicing index, into a ``(2,) * width + (cols,)`` view of rows, of
    the rows where every control of ``gate`` holds and its target reads ``bit``."""
    idx = [slice(None)] * width
    for q, ch in enumerate(gate.pattern or ""):
        if ch != "X":
            idx[q] = int(ch)
    idx[gate.target] = bit
    return tuple(idx)


_ROTATION_BLOCK = 1 << 14  # complex entries per cache-sized slice of a rotation


def _unitary(gates, width: int) -> np.ndarray:
    """Apply gates, first gate first, to the rows of the identity.

    A run of x/mcx gates is composed into one row-index map, O(2**width) per
    gate, and applied as one row gather before the next rotation and once at
    the end.  The gather writes a second buffer of the matrix's size, so two
    are alive at peak.  ry and phase act in place on basic-slicing views of
    the rows; ry goes slice by slice so that both rows of a pair stay in cache.
    """
    u = np.eye(1 << width, dtype=complex)
    spare = np.empty_like(u)
    scratch = np.empty((2, _ROTATION_BLOCK), dtype=complex)
    rows = (2,) * width + (-1,)
    perm = None
    for g in gates:
        if g.kind in ("x", "mcx"):
            if perm is None:
                perm = np.arange(1 << width)
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
    return u


def gate_unitary(gate: Gate, layout: RegisterLayout | int) -> np.ndarray:
    """Exact unitary of one gate over the full layout."""
    width = layout.total if isinstance(layout, RegisterLayout) else int(layout)
    validate_gate(gate, width)
    return _unitary((gate,), width)


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Full unitary, first gate applied first (rightmost in the matrix product)."""
    if circuit.n_qubits > MAX_SIM_QUBITS:
        raise TooLarge(f"{circuit.n_qubits} qubits exceeds the {MAX_SIM_QUBITS}-qubit budget")
    u = _unitary(circuit.gates, circuit.n_qubits)
    if circuit.global_phase:
        u *= np.exp(1j * circuit.global_phase)
    return u


_RESIDUAL_ROWS = 256  # rows of the u^H u triangle reduced at a time


def unitarity_residual(u: np.ndarray) -> float:
    """max |u^H u - I| over every entry.

    ``zherk`` on the Fortran-ordered view ``u.T`` writes one triangle of the
    Hermitian product (the transpose of u^H u, which has the same entry
    magnitudes); the maximum is taken over that triangle in row blocks.
    """
    dim = u.shape[0]
    h = zherk(1.0, u.T).T  # C-ordered; rows hold the lower triangle
    h.reshape(-1)[::dim + 1] -= 1
    worst = 0.0
    for r0 in range(0, dim, _RESIDUAL_ROWS):
        r1 = min(r0 + _RESIDUAL_ROWS, dim)
        worst = max(worst, float(np.abs(np.tril(h[r0:r1, :r1], r0)).max()))
    return worst


def inverse_gate(gate: Gate) -> Gate:
    if gate.kind in ("ry", "phase"):
        return replace(gate, angle=-gate.angle)
    return gate  # x / mcx are self-inverse


def inverse_circuit(circuit: Circuit) -> Circuit:
    gates = tuple(inverse_gate(g) for g in reversed(circuit.gates))
    return Circuit(circuit.n_qubits, gates, circuit.layout, -circuit.global_phase)


def embed_gates(gates, width: int, qubit_map: list[int]):
    """Remap gates from a subregister into a wider circuit.

    qubit_map[i] is the global qubit index of local qubit i.
    """
    out = []
    for g in gates:
        pattern = None
        if g.pattern is not None:
            chars = ["X"] * width
            for pos, ch in enumerate(g.pattern):
                if ch != "X":
                    chars[qubit_map[pos]] = ch
            pattern = "".join(chars)
        out.append(Gate(g.kind, target=qubit_map[g.target], pattern=pattern, angle=g.angle))
    return out


# --- serialization ---------------------------------------------------------

FORMAT_HEADER = "blockenc-ir v1"


def _ctrl_field(pattern: str | None) -> str:
    if pattern is None:
        return ""
    parts = [f"q{i}:{c}" for i, c in enumerate(pattern) if c != "X"]
    if not parts:
        return ""
    return "ctrl=" + ",".join(parts)


def _gate_line(g: Gate) -> str:
    ctrl = _ctrl_field(g.pattern)
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
    lines = [FORMAT_HEADER]
    if circuit.layout is not None:
        lines.append(f"layout m={circuit.layout.m} n={circuit.layout.n}")
    else:
        lines.append(f"qubits {circuit.n_qubits}")
    for key in sorted(metadata or {}):
        lines.append(f"{key} {metadata[key]!r}")
    if circuit.global_phase:
        lines.append(f"gphase({circuit.global_phase!r})")
    lines.extend(_gate_line(g) for g in circuit.gates)
    return "\n".join(lines) + "\n"


_META_KEYS = ("alpha",)


def _parse_ctrl(tok: str, width: int) -> str:
    chars = ["X"] * width
    for part in tok[len("ctrl="):].split(","):
        q, v = part.split(":")
        qubit = int(q[1:])
        if not 0 <= qubit < width:
            raise BadInput(f"control qubit {q} outside {width} qubits")
        chars[qubit] = v
    return "".join(chars)


def import_text(text: str) -> tuple[Circuit, dict]:
    """Parse the text form back into (Circuit, metadata).

    A line that does not parse raises BadInput naming it.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != FORMAT_HEADER:
        raise BadInput("missing format header")
    layout = None
    width = None
    meta: dict = {}
    gphase = 0.0
    gates: list[Gate] = []
    try:
        for ln in lines[1:]:
            toks = ln.split()
            head = toks[0]
            if head == "layout":
                kv = dict(t.split("=") for t in toks[1:])
                layout = RegisterLayout(int(kv["m"]), int(kv["n"]))
                width = layout.total
            elif head == "qubits":
                width = int(toks[1])
            elif head in _META_KEYS:
                meta[head] = float(toks[1])
            elif head.startswith("gphase("):
                gphase = float(head[len("gphase("):-1])
            else:
                if width is None:
                    raise BadInput("gate line before qubit count")
                gates.append(_parse_gate_line(toks, width))
    except (IndexError, KeyError, ValueError, StopIteration):
        raise BadInput(f"cannot parse IR line {ln!r}") from None
    if width is None:
        raise BadInput("missing qubit count")
    return Circuit(width, tuple(gates), layout, gphase), meta


def _parse_gate_line(toks: list[str], width: int) -> Gate:
    head = toks[0]
    rest = toks[1:]
    pattern = None
    if rest and rest[0].startswith("ctrl="):
        pattern = _parse_ctrl(rest[0], width)
        rest = rest[1:]
    if head == "x":
        return x(int(rest[0][1:]))
    if head == "mcx":
        tgt = next(t for t in rest if t.startswith("target="))
        target = int(tgt[len("target=q"):])
        if pattern is None:
            pattern = "X" * width
        return mcx(pattern, target)
    if head.startswith(("ry(", "phase(")):
        kind = head[:head.index("(")]
        angle = float(head[head.index("(") + 1:-1])
        return Gate(kind, target=int(rest[0][1:]), pattern=pattern, angle=angle)
    raise BadInput(f"cannot parse gate line {' '.join(toks)!r}")


def export_json(circuit: Circuit, metadata: dict | None = None) -> str:
    doc = {
        "format": "blockenc-ir",
        "version": 1,
        "qubits": circuit.n_qubits,
        "layout": None if circuit.layout is None else
            {"m": circuit.layout.m, "n": circuit.layout.n},
        "global_phase": circuit.global_phase,
        "metadata": metadata or {},
        "gates": [_gate_dict(g) for g in circuit.gates],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _gate_dict(g: Gate) -> dict:
    d: dict = {"kind": g.kind, "target": g.target}
    if g.pattern is not None:
        d["pattern"] = g.pattern
    if g.kind in ("ry", "phase"):
        d["angle"] = g.angle
    return d


def _json_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadInput(f"{what} must be an integer, got {value!r}")
    return value


def _json_number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise BadInput(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _json_gate(d) -> Gate:
    """One gate dict of the JSON form, every field checked for presence and type."""
    if not isinstance(d, dict):
        raise BadInput(f"gate entry must be an object, got {d!r}")
    kind = d.get("kind")
    if kind not in GATE_KINDS:
        raise BadInput(f"unknown gate kind {kind!r}")
    if "target" not in d:
        raise BadInput(f"{kind} gate without a target")
    target = _json_int(d["target"], f"{kind} gate target")
    pattern = d.get("pattern")
    if kind == "mcx" and pattern is None:
        raise BadInput("mcx gate without a pattern")
    if pattern is not None and not isinstance(pattern, str):
        raise BadInput(f"{kind} gate pattern must be a string, got {pattern!r}")
    if kind in ("ry", "phase") and "angle" not in d:
        raise BadInput(f"{kind} gate without an angle")
    angle = _json_number(d.get("angle", 0.0), f"{kind} gate angle")
    return Gate(kind, target=target, pattern=pattern, angle=angle)


def import_json(text: str) -> tuple[Circuit, dict]:
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise BadInput(f"invalid circuit JSON: {exc}") from None
    if not isinstance(doc, dict) or (doc.get("format"), doc.get("version")) != ("blockenc-ir", 1):
        raise BadInput("unrecognized circuit JSON")
    layout = None
    if doc.get("layout"):
        lay = doc["layout"]
        if not isinstance(lay, dict):
            raise BadInput(f"layout must be an object, got {lay!r}")
        layout = RegisterLayout(_json_int(lay.get("m"), "layout m"),
                                _json_int(lay.get("n"), "layout n"))
    if not isinstance(doc.get("gates"), list):
        raise BadInput("circuit JSON needs a gates list")
    gates = [_json_gate(d) for d in doc["gates"]]
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise BadInput(f"metadata must be an object, got {metadata!r}")
    circ = Circuit(_json_int(doc.get("qubits"), "qubits"), tuple(gates), layout,
                   _json_number(doc.get("global_phase", 0.0), "global_phase"))
    return circ, metadata
