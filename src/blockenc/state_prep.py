"""Amplitude loading on the data register.

The forward oracle loads ``sign_p * sqrt(item_p / alpha)`` onto basis state
``|p>`` via a binary tree of multiplexed Y rotations followed by a diagonal
layer realizing the four possible phases {1, -1, i, -i}.  The reverse oracle
is the adjoint of the unsigned (all-positive) loader.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import EmptyData
from .ingest import DataVector, SignVector
from .ir import Circuit, Gate, inverse_circuit, phase, ry, x


def _magnitude_tree(mags: np.ndarray, m: int) -> list[Gate]:
    """Multiplexed rotations sending |0..0> to the nonnegative amplitude vector."""
    gates: list[Gate] = []
    weights = mags.astype(float) ** 2
    for level in range(m):
        block = 1 << (m - level)  # states per node at this level
        for node in range(1 << level):
            seg = weights[node * block:(node + 1) * block]
            left = math.sqrt(seg[: block // 2].sum())
            right = math.sqrt(seg[block // 2:].sum())
            angle = 2.0 * math.atan2(right, left)
            if angle == 0.0:
                continue
            pattern = None
            if level:
                bits = format(node, f"0{level}b")
                pattern = bits + "X" * (m - level)
            gates.append(ry(angle, level, pattern))
    return gates


def _phase_layer(phases, m: int) -> list[Gate]:
    gates: list[Gate] = []
    for p, ph in enumerate(phases):
        angle = cmath.phase(complex(ph))
        if abs(angle) < 1e-15:
            continue
        bits = format(p, f"0{m}b")
        if p == 0:
            # phase on the all-zero state: flip, phase, flip back
            pattern = "0" * (m - 1) + "X"
            gates.append(x(m - 1))
            gates.append(phase(angle, m - 1, pattern if m > 1 else None))
            gates.append(x(m - 1))
        else:
            target = bits.rindex("1")
            pattern = "".join("X" if i == target else c for i, c in enumerate(bits))
            gates.append(phase(angle, target, pattern if m > 1 else None))
    return gates


def _padded_magnitudes(data: DataVector) -> np.ndarray:
    if data.s == 0 or data.alpha <= 0:
        raise EmptyData("no nonzero items to prepare")
    mags = np.zeros(1 << data.m)
    mags[: data.s] = np.sqrt(np.asarray(data.items) / data.alpha)
    return mags


def synthesize_prep(data: DataVector, signs: SignVector) -> Circuit:
    """Circuit C with C|0..0> = sum_p sign_p sqrt(item_p / alpha) |p>."""
    mags = _padded_magnitudes(data)
    if data.m == 0:
        gphase = cmath.phase(complex(signs.phases[0]))
        return Circuit(0, (), global_phase=gphase)
    gates = _magnitude_tree(mags, data.m)
    gates += _phase_layer(signs.phases, data.m)
    return Circuit(data.m, tuple(gates))


def synthesize_unprep(data: DataVector) -> Circuit:
    """Adjoint of the unsigned loader V, so that UNPREP^dag |0..0> = V|0..0>."""
    mags = _padded_magnitudes(data)
    if data.m == 0:
        return Circuit(0, ())
    forward = Circuit(data.m, tuple(_magnitude_tree(mags, data.m)))
    return inverse_circuit(forward)
