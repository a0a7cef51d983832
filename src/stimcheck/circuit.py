"""Circuit intermediate representation and gate matrix semantics.

Circuits are immutable: a fixed qubit count plus an ordered gate sequence.
Controlled gates are stored as (controls, target) on a single-qubit base
kind; a circuit's overall unitary is the ordered product of its gates'
(control-expanded) matrices, last gate leftmost.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

_SQRT2_INV = 1.0 / math.sqrt(2.0)


class GateKind(Enum):
    """The gate set, defined only here. Each value is the kind's qelib1
    spelling, which `qasm.py` reads and writes; the tables below give each
    kind's parameter count and matrix entries."""

    I = "id"
    X = "x"
    Y = "y"
    Z = "z"
    H = "h"
    S = "s"
    SDG = "sdg"
    T = "t"
    TDG = "tdg"
    RX = "rx"
    RY = "ry"
    RZ = "rz"
    PHASE = "u1"
    U3 = "u3"

    @property
    def num_params(self) -> int:
        return _NUM_PARAMS[self]


_T_PHASE = cmath.exp(1j * math.pi / 4)

# Row-major entries (m00, m01, m10, m11) of every parameter-free gate kind.
_FIXED_ENTRIES = {
    GateKind.I: (1 + 0j, 0j, 0j, 1 + 0j),
    GateKind.X: (0j, 1 + 0j, 1 + 0j, 0j),
    GateKind.Y: (0j, -1j, 1j, 0j),
    GateKind.Z: (1 + 0j, 0j, 0j, -1 + 0j),
    GateKind.H: (complex(_SQRT2_INV), complex(_SQRT2_INV),
                 complex(_SQRT2_INV), complex(-_SQRT2_INV)),
    GateKind.S: (1 + 0j, 0j, 0j, 1j),
    GateKind.SDG: (1 + 0j, 0j, 0j, -1j),
    GateKind.T: (1 + 0j, 0j, 0j, _T_PHASE),
    GateKind.TDG: (1 + 0j, 0j, 0j, _T_PHASE.conjugate()),
}


def _rx(t: float) -> tuple[complex, ...]:
    c, s = math.cos(t / 2), math.sin(t / 2)
    return (complex(c), -1j * s, -1j * s, complex(c))


def _ry(t: float) -> tuple[complex, ...]:
    c, s = math.cos(t / 2), math.sin(t / 2)
    return (complex(c), complex(-s), complex(s), complex(c))


def _rz(t: float) -> tuple[complex, ...]:
    return (cmath.exp(-1j * t / 2), 0j, 0j, cmath.exp(1j * t / 2))


def _phase(lam: float) -> tuple[complex, ...]:
    return (1 + 0j, 0j, 0j, cmath.exp(1j * lam))


def _u3(t: float, phi: float, lam: float) -> tuple[complex, ...]:
    # qelib1 convention
    c, s = math.cos(t / 2), math.sin(t / 2)
    return (complex(c), -cmath.exp(1j * lam) * s,
            cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c)


# Parameter count and entries of every parametrised gate kind; every other
# kind takes no parameters.
_PARAMETRISED_ENTRIES = {
    GateKind.RX: (1, _rx),
    GateKind.RY: (1, _ry),
    GateKind.RZ: (1, _rz),
    GateKind.PHASE: (1, _phase),
    GateKind.U3: (3, _u3),
}
_NUM_PARAMS = {kind: _PARAMETRISED_ENTRIES.get(kind, (0, None))[0] for kind in GateKind}


def gate_entries(kind: GateKind, params: tuple[float, ...] = ()) -> tuple[complex, ...]:
    """Row-major entries (m00, m01, m10, m11) of a gate kind's 2x2 unitary,
    as Python complex numbers. Controls are applied by the simulator."""
    fixed = _FIXED_ENTRIES.get(kind)
    if fixed is not None and not params:
        return fixed
    count, entries = _PARAMETRISED_ENTRIES.get(kind, (0, None))
    if len(params) != count:
        raise ValueError(f"{kind.name} takes {count} parameter(s), got {len(params)}")
    if not all(map(math.isfinite, params)):
        raise ValueError(f"non-finite parameter in {params}")
    return entries(*params)


def base_matrix(kind: GateKind, params: tuple[float, ...] = ()) -> np.ndarray:
    """2x2 unitary for a gate kind. Controls are applied by the simulator."""
    return np.array(gate_entries(kind, params), dtype=complex).reshape(2, 2)


@dataclass(frozen=True)
class Gate:
    kind: GateKind
    target: int
    controls: tuple[int, ...] = ()
    params: tuple[float, ...] = ()

    def __post_init__(self):
        # an uncontrolled gate on a non-negative target passes the qubit checks
        if self.controls or self.target < 0:
            qubits = (*self.controls, self.target)
            if len(set(qubits)) != len(qubits):
                raise ValueError(f"controls and target must be distinct: {qubits}")
            if any(q < 0 for q in qubits):
                raise ValueError(f"negative qubit index: {qubits}")
        count = _NUM_PARAMS[self.kind]
        if len(self.params) != count:
            raise ValueError(
                f"{self.kind.name} takes {count} parameter(s), got {len(self.params)}"
            )

    @property
    def qubits(self) -> tuple[int, ...]:
        return (*self.controls, self.target)

    def matrix(self) -> np.ndarray:
        return base_matrix(self.kind, self.params)


@dataclass(frozen=True)
class Circuit:
    num_qubits: int
    gates: tuple[Gate, ...] = ()
    # label only; equality is structural (same qubit count, same gate sequence)
    name: str = field(default="", compare=False)

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError(f"num_qubits must be positive, got {self.num_qubits}")
        object.__setattr__(self, "gates", tuple(self.gates))
        n = self.num_qubits
        for g in self.gates:
            if g.target >= n or (g.controls and max(g.controls) >= n):
                raise ValueError(f"gate {g} out of range for {n} qubits")

    @property
    def gate_count(self) -> int:
        return len(self.gates)

    def appended(self, *gates: Gate) -> "Circuit":
        return Circuit(self.num_qubits, self.gates + tuple(gates), self.name)

    def prepended(self, *gates: Gate) -> "Circuit":
        return Circuit(self.num_qubits, tuple(gates) + self.gates, self.name)
