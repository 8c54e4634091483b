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

A ``Gate`` is an immutable record, a ``typing.NamedTuple``, as is
``ingest.PlanItem``: a compile builds one or more gates per emitted gate, and
a tuple is built in under half the time of a frozen dataclass.  Being a
tuple, a gate is iterable and equals a plain tuple of its fields, so
``validate_gate`` checks the type to refuse that plain tuple, and
``Circuit`` refuses a lone gate as its ``gates``.  The compiler makes its
gates from all four fields through ``gate_of``, which skips the NamedTuple's
Python-level constructor.

Each gate is checked once, by ``validate_gate`` as the ``Circuit`` that holds
it is built.  The compiler's stages build gates unchecked, and the full
circuit checks every one of them; the prep and unprep circuits that state
preparation returns are the only other circuits a compile builds, and each
checks its own gates once.  A gate's target, mask and value must be ``int``s:
numpy integers are converted where they enter (``integer``,
``RegisterLayout.controls``), and a gate that still holds one is refused.

For a register layout of m data qubits, one delete qubit and n matrix qubits,
the basis index of ``|0>_data |0>_del |j>`` equals ``j``, which places the
encoded block in the top-left corner of the unitary.

The simulator, ``circuit_unitary``, acts on the rows of the identity's first
``columns`` columns and so returns those columns of the unitary.  Its one
gate kernel, ``apply_gates``, acts in place on any ``(2,) * width + (k,)``
array, complex or integer: every gate takes basic-slicing views of the
rows where its controls hold; phase scales the one where its target reads
1, x/mcx exchange the halves of the one with the target's axis whole, and
ry rotates the two where the target reads 0 and 1 in place, chunk by chunk
where they are wide.  The gates work on one dim x columns
complex buffer; the entry budget ``MAX_SIM_ENTRIES``, dim x columns <=
2^24, holds it to 256 MiB, the size of a full 12-qubit unitary.  The
verifier simulates only the data register of a compiled circuit, on m
qubits, and runs its x/mcx gates through ``apply_gates`` on an integer
array of label positions; it holds each array it builds, positions
included, to the same budget through ``check_budget`` (see ``verify``).

The text form spells a control on qubit q with value v as the token
``q{q}:{v}``.  ``export_text`` and ``import_text`` share one control-token
table per width, ``_control_tokens``: the writer looks each control's token
up, and the reader sums one code per token, which holds the token's mask
bit and its value bit, so a gate line costs about the same whatever its
control count.  A token off the table (a leading zero, a qubit at or past
the width, a malformed ctrl= list) or a repeated one sends its line to the
per-control reader ``_text_gate``, which accepts it or raises.

``unitarity_residual(v)`` is max |v^H v - I| of a dim x k input, one dense
k x k product in complex128 whatever the input's dtype or layout.  On the
block columns it says those columns are orthonormal; unitarity of the whole
circuit follows from its gate kinds, since every validated gate is unitary.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import re
import sys
from dataclasses import dataclass
from typing import NamedTuple

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
        m, n = integer(self.m, "layout m"), integer(self.n, "layout n")
        if m < 0 or n < 0:
            raise BadInput(f"invalid layout m={self.m} n={self.n}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)

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

        The delete qubit is never a control.  A cube wider than its
        register, or whose value has a bit outside its mask, is BadInput.
        """
        try:
            (dm, dv), (jm, jv) = data, matrix
            if not type(dm) is type(dv) is type(jm) is type(jv) is int:  # numpy ints
                dm, dv, jm, jv = (integer(v, "register cube") for v in (dm, dv, jm, jv))
            wide = dm >> self.m or jm >> self.n
        except (TypeError, ValueError):
            raise BadInput(f"register cubes must be (mask, value) pairs of integers, "
                           f"got data {data!r} and matrix {matrix!r}") from None
        if wide or dv & ~dm or jv & ~jm:
            raise BadInput(f"register cubes must be (mask, value) pairs with the value inside "
                           f"the mask and the register, got data {data!r} and matrix {matrix!r}")
        shift = self.n + 1
        return dm << shift | jm, dv << shift | jv


class Gate(NamedTuple):
    """One primitive gate; construct via the mcx/x/ry/phase helpers or ``gate_of``.

    A NamedTuple, not a dataclass: a compile builds more gates than it
    emits, and a tuple is built in under half the time.  Being a tuple, a
    gate equals any plain tuple of its fields, so ``validate_gate`` checks
    the type, not the fields, to tell the two apart.
    """

    kind: str
    target: int = -1
    controls: Cube = (0, 0)
    angle: float = 0.0


# The gate of a tuple of all four fields, as ``Gate._make`` builds it but
# without a Python-level call: ``Gate(...)`` runs the NamedTuple's generated
# ``__new__``, which costs about 60% more.  The helpers below, and every
# compiler stage that builds gates in bulk, make their gates through it.
gate_of = functools.partial(tuple.__new__, Gate)


def mcx(controls: Cube, target: int) -> Gate:
    return gate_of(("mcx", target, controls, 0.0))


def x(target: int) -> Gate:
    return gate_of(("x", target, (0, 0), 0.0))


def ry(angle: float, target: int, controls: Cube = (0, 0)) -> Gate:
    return gate_of(("ry", target, controls, float(angle)))


def phase(angle: float, target: int, controls: Cube = (0, 0)) -> Gate:
    return gate_of(("phase", target, controls, float(angle)))


def validate_gate(gate: Gate, width: int) -> None:
    """Raise BadGate if the gate cannot act on a width-qubit circuit.

    The gate's fields are unpacked once.  Its target, mask and value must
    be ``int``s, not bools or numpy integers, which the writer and the
    simulator cannot take; controls that are not a pair and an angle that
    is not a number are refused as a malformed gate too.
    """
    if not isinstance(gate, Gate):
        raise BadGate(f"{gate!r} is not a Gate")
    try:
        kind, target, (mask, value), angle = gate
    except (TypeError, ValueError):  # controls that are not a pair
        raise BadGate(f"malformed gate {gate!r}") from None
    if kind not in GATE_KINDS:
        raise BadGate(f"unknown gate kind {kind!r}")
    if not type(target) is type(mask) is type(value) is int:
        raise BadGate(f"malformed gate {gate!r}: target and controls must be ints")
    if not 0 <= target < width:
        raise BadGate(f"target {target} out of range for width {width}")
    if mask >> width or value & ~mask:
        raise BadGate(f"bad controls {(mask, value)} for width {width}")
    if mask >> (width - 1 - target) & 1:
        raise BadGate("target qubit must be free of controls")
    if kind == "x":
        if mask:
            raise BadGate("an x gate takes no controls")
    elif kind != "mcx":  # ry, phase
        try:
            if not math.isfinite(angle):
                raise BadGate(f"non-finite angle {angle}")
        except (TypeError, OverflowError):
            raise BadGate(f"malformed gate {gate!r}") from None


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over n_qubits; immutable after construction."""

    n_qubits: int
    gates: tuple[Gate, ...] = ()
    layout: RegisterLayout | None = None
    global_phase: float = 0.0

    def __post_init__(self):
        # a lone gate is itself a tuple, of its fields, so it is refused by type
        gates = None if isinstance(self.gates, Gate) else self.gates
        try:
            object.__setattr__(self, "gates", tuple(gates))
        except TypeError:
            raise BadInput(f"gates must be an iterable of gates, got {self.gates!r}") from None
        n_qubits = integer(self.n_qubits, "qubit count")
        if n_qubits < 0:
            raise BadInput(f"negative qubit count {n_qubits}")
        object.__setattr__(self, "n_qubits", n_qubits)
        object.__setattr__(self, "global_phase", finite_number(self.global_phase, "global_phase"))
        if self.layout is not None:
            if instance(self.layout, RegisterLayout, "layout").total != self.n_qubits:
                raise BadInput("layout does not match qubit count")
        for i, g in enumerate(self.gates):
            try:
                validate_gate(g, n_qubits)
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


_CHUNK = 1 << 14  # entries per cache-sized chunk of a gate's row views
_REVERSED = slice(None, None, -1)  # an axis read backwards: a swap's two halves exchanged


def check_budget(width: int, columns: int) -> None:
    """Raise TooLarge if ``columns`` columns of a width-qubit unitary exceed
    the ``MAX_SIM_ENTRIES`` simulation budget."""
    if columns << width > MAX_SIM_ENTRIES:
        raise TooLarge(f"{columns} columns of a {width}-qubit unitary exceed the "
                       f"{MAX_SIM_ENTRIES}-entry simulation budget")


def apply_gates(gates, rows: np.ndarray) -> None:
    """Apply the gates in place, first gate first, to the rows of a
    ``(2,) * width + (k,)`` array, complex or integer.

    Each gate takes basic-slicing views of the rows where its controls
    hold, built from one pass over the controls.  Phase scales the view
    where the target reads 1.  An x/mcx of at most ``2 * _CHUNK`` entries
    is one assignment: the view with the target's axis whole takes the same
    view read backwards along that axis, which numpy copies first because
    the two overlap.  A ry of at most ``_CHUNK`` entries per view is
    rotated in place on the two views where the target reads 0 and 1, with
    no copy.  Wider pairs are updated in 1-D chunks of at most ``_CHUNK``
    entries, so their temporaries stay cache-sized whatever the view's
    shape.  A rotation rounds each step once per component, a complex times
    a real scalar and then an add or a subtract, so every path gives the
    same bits whatever the memory layout.  The trailing axis keeps every
    view an array, never a scalar copy.
    """
    top = rows.ndim - 2  # the qubit of bit 0
    free = [slice(None)] * (top + 1)
    for kind, target, (mask, value), angle in gates:
        idx = free.copy()
        while mask:
            bit = mask.bit_length() - 1
            idx[top - bit] = value >> bit & 1
            mask ^= 1 << bit
        if kind == "x" or kind == "mcx":
            both = rows[tuple(idx)]  # the target's axis whole
            if both.size <= 2 * _CHUNK:
                idx[target] = _REVERSED
                both[...] = rows[tuple(idx)]  # numpy copies an overlapping source first
                continue
        idx[target] = 1
        hi = rows[tuple(idx)]
        if kind == "phase":
            hi *= np.exp(1j * angle)
            continue
        idx[target] = 0
        lo = rows[tuple(idx)]
        if lo.size <= _CHUNK:  # ry
            _rotate(lo, hi, angle)
            continue
        # matching 1-D chunks of the two views, whatever their shape; the
        # iterator writes a buffered chunk back before it yields the next
        with np.nditer([lo, hi], ["external_loop", "buffered"], [["readwrite"]] * 2,
                       buffersize=_CHUNK) as pairs:
            for a, b in pairs:
                if kind == "ry":
                    _rotate(a, b, angle)
                else:  # x, mcx
                    a[...], b[...] = b.copy(), a.copy()


def _rotate(a: np.ndarray, b: np.ndarray, angle: float) -> None:
    """(a, b) becomes (c a - s b, s a + c b) in place, c and s of angle / 2."""
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    sa, sb = a * s, b * s
    a *= c
    a -= sb
    b *= c
    b += sa


def circuit_unitary(circuit: Circuit, columns: int | None = None) -> np.ndarray:
    """The first ``columns`` columns of the unitary (all of them by default),
    first gate applied first (rightmost in the matrix product).

    ``apply_gates`` runs the circuit in place on the identity's first
    columns, and the global phase scales the result.  More than
    ``MAX_SIM_ENTRIES`` entries is ``TooLarge``, raised before any
    allocation; a ``columns`` that is not None or an integer in 1..2**width
    is ``BadInput``.
    """
    width = instance(circuit, Circuit, "circuit").n_qubits
    dim = 1 << width
    columns = dim if columns is None else integer(columns, "columns")
    if not 1 <= columns <= dim:
        raise BadInput(f"cannot simulate {columns} columns of a {width}-qubit unitary")
    check_budget(width, columns)
    u = np.eye(dim, columns, dtype=complex)
    apply_gates(circuit.gates, u.reshape((2,) * width + (-1,)))
    if circuit.global_phase:
        u *= np.exp(1j * circuit.global_phase)
    return u


def unitarity_residual(v: np.ndarray) -> float:
    """max |v^H v - I| of a dim x k input, the Gram product taken in complex128."""
    v = np.asarray(v, dtype=complex)
    gram = v.conj().T @ v
    gram.reshape(-1)[::gram.shape[0] + 1] -= 1
    return float(np.abs(gram).max())


def embed_gates(gates, width: int, qubits: tuple[int, ...]) -> list[Gate]:
    """Move gates from a contiguous subregister into a wider circuit.

    ``qubits`` are the ascending global indices of the subregister's qubits,
    so local qubit i is global qubit ``qubits[0] + i``.  The embedded gates
    are not validated here: the circuit they end up in checks each one.
    """
    if not qubits:  # no qubit, so no gate: a 0-qubit circuit has none
        return list(gates)
    first, shift = qubits[0], width - qubits[0] - len(qubits)
    return [gate_of((kind, target + first, (mask << shift, value << shift), angle))
            for kind, target, (mask, value), angle in gates]


# --- serialization ---------------------------------------------------------

FORMAT_HEADER = "blockenc-ir v1"


def _gate_line(g: Gate, tokens: tuple[tuple[str, str], ...]) -> str:
    """The text line of a gate; ``tokens[b][v]`` spells control value v on bit b."""
    kind, target, (mask, value), angle = g
    head = f"{kind}({angle!r})" if kind == "ry" or kind == "phase" else kind
    target = f"target=q{target}" if kind == "mcx" else f"q{target}"
    if not mask:
        return f"{head} {target}"
    ctrl = []
    while mask:  # lowest qubit, the highest bit, first
        b = mask.bit_length() - 1
        ctrl.append(tokens[b][value >> b & 1])
        mask ^= 1 << b
    return f"{head} ctrl={','.join(ctrl)} {target}"


def export_text(circuit: Circuit, metadata: dict | None = None) -> str:
    """Deterministic line-per-gate text form; round-trips through import_text.

    A gate's controls are spelled from the width's control-token table, so
    writing a control costs a table lookup.
    """
    width = _checked_width(instance(circuit, Circuit, "circuit").n_qubits)
    metadata = _checked_metadata(metadata or {})
    lines = [FORMAT_HEADER]
    if circuit.layout is not None:
        lines.append(f"layout m={circuit.layout.m} n={circuit.layout.n}")
    else:
        lines.append(f"qubits {width}")
    for key in sorted(metadata):
        lines.append(f"{key} {metadata[key]!r}")
    if circuit.global_phase:
        lines.append(f"gphase({circuit.global_phase!r})")
    tokens = _control_tokens(width)[1]
    lines.extend(_gate_line(g, tokens) for g in circuit.gates)
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
_CONTROL = re.compile(r"q([0-9]+):([01])")  # the per-control reader's scan of a ctrl= list
_CONTROLS = re.compile(rf"{_CONTROL.pattern}(?:,{_CONTROL.pattern})*")  # a ctrl= list's grammar
# The gate pattern takes any ctrl= list of the token characters: a list of
# tokens on the width's table is well formed, and any other goes to
# ``_text_gate``, which holds it to ``_CONTROLS``.
_GATE_LINE = re.compile(  # the most frequent kind, tried first
    rf"\s*(?:(?P<kind>x|(?P<mcx>mcx))|(?P<rot>ry|phase)\((?P<angle>{_NUMBER})\))"
    r"(?:\s+ctrl=(?P<ctrl>[q0-9:,]+))?"
    r"\s+(?(mcx)target=)q(?P<target>[0-9]+)\s*")  # target= on an mcx alone
_HEADER_KINDS = {kind: re.compile(rf"\s*{pattern}\s*") for kind, pattern in (
    ("layout", r"layout\s+m=([0-9]+)\s+n=([0-9]+)"),
    ("qubits", r"qubits\s+([0-9]+)"),
    ("alpha", rf"alpha\s+({_NUMBER})"),
    ("gphase", rf"gphase\(({_NUMBER})\)"),
)}


class _TokenCodes(dict):
    """Control token -> its code; a token off the table reads 0."""

    def __missing__(self, token: str) -> int:
        return 0


@functools.cache
def _control_tokens(width: int) -> tuple[_TokenCodes, tuple[tuple[str, str], ...]]:
    """The control-token table of a width-qubit circuit: each token
    ``q{q}:{v}`` of bit b mapped to its code ``1 << b | v << b + width``,
    its mask bit with its value bit above the width, and the two tokens of
    each bit b, ``tokens[b][v]``.

    The sum of a line's codes holds its mask in the low width bits and its
    value above them.  Those low bits hold one bit per token exactly when
    every token is on the table and none repeats: a code off the table adds
    nothing, and a repeat carries, which leaves fewer bits than tokens
    however far it carries.  So no gap between the mask and the value is
    needed; a line that passes that count has a mask below ``1 << width``
    and its value is exact.

    Only the spelling the writer uses is in the table: a token with a
    leading zero or a qubit past the width is off it.  The cached tables
    are shared by every caller and never changed.
    """
    codes, tokens = _TokenCodes(), []
    for b in range(width):
        pair = (f"q{width - 1 - b}:0", f"q{width - 1 - b}:1")
        codes[pair[0]], codes[pair[1]] = 1 << b, 1 << b | 1 << b + width
        tokens.append(pair)
    return codes, tuple(tokens)


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

    After the exact header line, each non-blank line is a gate line, which
    matches ``_GATE_LINE`` whole, or a header line of one kind, which
    matches its pattern in ``_HEADER_KINDS`` whole: ``layout``/``qubits``
    (one of them, before any gate), ``alpha`` and ``gphase(...)`` at most
    once each.  Any other line raises BadInput naming it.

    A gate's controls cost one sum of lookups in the width's control-token
    table: the low width bits of the sum of the tokens' codes are the mask
    and the bits above are the value, and the mask has one bit per token
    exactly when every token is on the table and none repeats, so a gate
    takes no Python step per control.  A line with a token off the table or
    a repeat goes to the per-control reader ``_text_gate``, which holds its
    ctrl= list to the grammar ``_CONTROLS`` that the line pattern leaves
    loose, then accepts it or raises.  An x or mcx has no angle to convert.  The circuit checks
    every gate as it is built, and a refused gate's line is found again by
    its index among the gate lines, on that error path alone.
    """
    lines = list(filter(str.strip, instance(text, str, "IR text").splitlines()))
    if not lines or lines[0] != FORMAT_HEADER:
        raise BadInput("missing format header")
    layout = width = gphase = code_of = low = None
    meta: dict = {}
    gates: list[Gate] = []
    read_gate = _GATE_LINE.fullmatch
    for ln in lines[1:]:
        if match := read_gate(ln):
            if width is None:
                _checked_controls(match, ln)
                raise BadInput(f"gate line {ln!r} before qubit count")
            kind, _, rot, angle, ctrl, target = match.groups()  # in pattern order
            toks = ctrl.split(",") if ctrl else ()
            code = sum(map(code_of, toks))
            if (mask := code & low).bit_count() == len(toks):
                gates.append(gate_of((kind or rot, _index(target, ln), (mask, code >> width),
                                      0.0 if kind else float(angle))))
            else:  # a token off the table, or a repeat
                gates.append(_text_gate(match, width, ln))
            continue
        for kind, pattern in _HEADER_KINDS.items():
            if match := pattern.fullmatch(ln):
                break
        else:
            raise BadInput(f"cannot parse IR line {ln!r}")
        if (kind in ("layout", "qubits") and width is not None or kind in meta
                or kind == "gphase" and gphase is not None):
            raise BadInput(f"repeated header line {ln!r}")
        if kind == "alpha":
            meta[kind] = finite_number(float(match[1]), kind)
        elif kind == "gphase":
            gphase = finite_number(float(match[1]), kind)
        else:
            if kind == "layout":
                layout = RegisterLayout(_index(match[1], ln), _index(match[2], ln))
                width = _checked_width(layout.total)
            else:
                width = _checked_width(_index(match[1], ln))
            code_of, low = _control_tokens(width)[0].__getitem__, (1 << width) - 1
    if width is None:
        raise BadInput("missing qubit count")
    return _read_circuit(width, gates, layout, 0.0 if gphase is None else gphase,
                         lambda i: f"IR line {[ln for ln in lines if read_gate(ln)][i]!r}"), meta


def _read_circuit(width: int, gates: list[Gate], layout: RegisterLayout | None,
                  gphase: float, where) -> Circuit:
    """The Circuit of parsed gates; a refused gate's BadGate names ``where(index)``."""
    try:
        return Circuit(width, tuple(gates), layout, gphase)
    except BadGate as exc:
        raise BadGate(f"{exc} in {where(exc.index)}") from None


def _checked_controls(match: re.Match, ln: str) -> str:
    """The ctrl= list of a matched gate line, if it is tokens joined by commas."""
    ctrl = match["ctrl"] or ""
    if ctrl and not _CONTROLS.fullmatch(ctrl):
        raise BadInput(f"cannot parse IR line {ln!r}")
    return ctrl


def _text_gate(match: re.Match, width: int, ln: str) -> Gate:
    """The gate of a matched gate line, read control by control; its ctrl=
    list is well formed and each control is on a distinct qubit below the
    width."""
    kind = match["kind"] or match["rot"]
    mask = value = 0
    for q, v in _CONTROL.findall(_checked_controls(match, ln)):
        qubit = _index(q, ln)
        if qubit >= width:
            raise BadInput(f"control qubit q{q} outside {width} qubits in IR line {ln!r}")
        bit = 1 << (width - 1 - qubit)
        if mask & bit:
            raise BadInput(f"control qubit q{q} repeated in IR line {ln!r}")
        mask |= bit
        value |= bit if v == "1" else 0
    return gate_of((kind, _index(match["target"], ln), (mask, value), float(match["angle"] or 0)))


def export_json(circuit: Circuit, metadata: dict | None = None) -> str:
    """The JSON form; round-trips through import_json."""
    _checked_width(instance(circuit, Circuit, "circuit").n_qubits)
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
    """``value`` as an int, or BadInput naming ``what`` unless it is an
    integer; a bool is not a number here.  A numpy integer becomes an int,
    so it never reaches a gate or a label set."""
    if type(value) is int:  # the common case, before the slower ABC check
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise BadInput(f"{what} must be an integer, got {value!r}")
    return int(value)


def instance(value, cls: type, what: str):
    """``value`` itself, or BadInput naming ``what`` unless it is a ``cls``."""
    if not isinstance(value, cls):
        raise BadInput(f"{what} must be a {cls.__name__}, got {value!r}")
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
        doc = json.loads(instance(text, str, "circuit JSON"))
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
