"""Amplitude loading on the data register.

The forward oracle loads ``phase_p * sqrt(item_p / alpha)`` onto basis state
``|p>`` via a binary tree of multiplexed Y rotations followed by a diagonal
layer realizing the four possible phases {1, -1, i, -i}.  The reverse oracle
is the adjoint of the forward circuit's unsigned rotation tree.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections.abc import Sized

import numpy as np

from .errors import BadInput
from .ir import Circuit, Gate, gate_of, instance, phase, ry, x


def _magnitude_tree(mags: np.ndarray, m: int) -> list[Gate]:
    """Multiplexed rotations sending |0..0> to the nonnegative amplitude vector.

    At each level, one reshape sums the squared magnitudes under both
    halves of every node.
    """
    gates: list[Gate] = []
    weights = mags.astype(float) ** 2
    for level in range(m):
        halves = np.sqrt(weights.reshape(1 << level, 2, -1).sum(axis=2))
        free = m - level
        for node, (left, right) in enumerate(halves.tolist()):
            angle = 2.0 * math.atan2(right, left)
            if angle == 0.0:
                continue
            # controlled on the node's path: qubits 0 .. level-1
            gates.append(ry(angle, level, (((1 << level) - 1) << free, node << free)))
    return gates


def _phase_layer(phases, m: int) -> list[Gate]:
    gates: list[Gate] = []
    full = (1 << m) - 1
    for p, ph in enumerate(phases):
        angle = cmath.phase(complex(ph))
        if abs(angle) < 1e-15:
            continue
        if p == 0:
            # phase on the all-zero state: flip, phase, flip back
            gates += [x(m - 1), phase(angle, m - 1, (full ^ 1, 0)), x(m - 1)]
        else:
            # target the lowest set bit of p, controlled on every other bit
            low = p & -p
            gates.append(phase(angle, m - low.bit_length(), (full ^ low, p ^ low)))
    return gates


def synthesize_prep(items, phases) -> Circuit:
    """Circuit C with C|0..0> = sum_p phase_p sqrt(item_p / alpha) |p>, alpha = sum(items).

    ``items`` and ``phases`` are flat sequences of equal length: each item is
    a finite nonnegative magnitude with one phase, a number of modulus 1 to
    within 1e-12; anything else is ``BadInput`` naming the argument.
    """
    if len(instance(phases, Sized, "phases")) != len(instance(items, Sized, "items")):
        raise BadInput(f"{len(phases)} phases for {len(items)} items")
    magnitudes, units = np.asarray(items), np.asarray(phases)
    if magnitudes.ndim != 1 or magnitudes.dtype.kind not in "iuf" or not np.all(
            (magnitudes >= 0) & (magnitudes <= sys.float_info.max)):
        raise BadInput("items must be a 1-D sequence of finite nonnegative magnitudes")
    if units.ndim != 1 or units.dtype.kind not in "iufc" or not np.all(
            np.abs(np.abs(units) - 1) <= 1e-12):
        raise BadInput("phases must be a 1-D sequence of numbers of modulus 1")
    alpha = float(sum(items))
    if alpha <= 0:  # also no items at all
        raise BadInput("no nonzero items to prepare")
    if not math.isfinite(alpha):
        raise BadInput(f"item magnitudes sum to {alpha}, beyond the float range")
    m = (len(items) - 1).bit_length()
    if m == 0:
        return Circuit(0, (), global_phase=cmath.phase(complex(phases[0])))
    mags = np.zeros(1 << m)
    mags[: len(items)] = np.sqrt(magnitudes / alpha)
    return Circuit(m, tuple(_magnitude_tree(mags, m) + _phase_layer(phases, m)))


def synthesize_unprep(prep: Circuit) -> Circuit:
    """Adjoint of the unsigned loader V = ``prep``'s ry gates (its phase layer
    is x and phase gates only), so that UNPREP^dag |0..0> = V|0..0>.

    The adjoint is built directly, the ry gates in reverse with negated
    angles, so the returned circuit is the only one that checks them.
    """
    gates = instance(prep, Circuit, "prep").gates
    return Circuit(prep.n_qubits, tuple(gate_of(("ry", target, controls, -angle))
                                        for kind, target, controls, angle in reversed(gates)
                                        if kind == "ry"))
