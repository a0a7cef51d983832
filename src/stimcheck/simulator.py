"""Dense state-vector simulation: |0...0> preparation, gate application, fidelity.

Gates are applied in place with stride arithmetic on the amplitude array;
no 2^n x 2^n matrix is ever materialized. `simulate` first compiles its
circuit into kernel ops `(target, control_mask, m00, m01, m10, m11)`, fusing
each run of uncontrolled gates on one qubit into a single 2x2, and then hands
each op to `kernels.apply_2x2`. The ops are compiled afresh on every call, so
no circuit carries a cache.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .circuit import Circuit, Gate, GateKind, base_matrix

MAX_QUBITS = 24

# Row-major 2x2 entries (m00, m01, m10, m11) of every parameter-free gate kind.
_FIXED_ENTRIES = {
    kind: tuple(base_matrix(kind).ravel().tolist())
    for kind in GateKind if kind.num_params == 0
}


@dataclass
class StateVector:
    num_qubits: int
    amplitudes: np.ndarray

    def copy(self) -> "StateVector":
        return StateVector(self.num_qubits, self.amplitudes.copy())

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amplitudes) ** 2)))


def zero_state(num_qubits: int, max_qubits: int = MAX_QUBITS) -> StateVector:
    if num_qubits < 1:
        raise ValueError(f"num_qubits must be positive, got {num_qubits}")
    if num_qubits > max_qubits:
        raise ValueError(f"{num_qubits} qubits exceeds the configured maximum of {max_qubits}")
    amps = np.zeros(1 << num_qubits, dtype=complex)
    amps[0] = 1.0
    return StateVector(num_qubits, amps)


def basis_state(num_qubits: int, index: int, max_qubits: int = MAX_QUBITS) -> StateVector:
    state = zero_state(num_qubits, max_qubits)
    if not 0 <= index < (1 << num_qubits):
        raise ValueError(f"basis index {index} out of range for {num_qubits} qubits")
    state.amplitudes[0] = 0.0
    state.amplitudes[index] = 1.0
    return state


def _entries(gate: Gate) -> tuple[complex, complex, complex, complex]:
    """The gate's 2x2 base matrix as Python complex entries (m00, m01, m10, m11)."""
    fixed = _FIXED_ENTRIES.get(gate.kind)
    if fixed is not None:
        return fixed
    return tuple(base_matrix(gate.kind, gate.params).ravel().tolist())


def _control_mask(gate: Gate) -> int:
    mask = 0
    for c in gate.controls:
        mask |= 1 << c
    return mask


def _matmul(a, b):
    """Row-major 2x2 product a @ b: b is applied first."""
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    return (
        a00 * b00 + a01 * b10, a00 * b01 + a01 * b11,
        a10 * b00 + a11 * b10, a10 * b01 + a11 * b11,
    )


def compile_ops(circuit: Circuit) -> tuple[tuple, ...]:
    """Kernel ops `(target, control_mask, m00, m01, m10, m11)` equivalent to
    the circuit's gates applied in order.

    Consecutive uncontrolled gates on one qubit multiply into one pending
    2x2. A qubit's pending matrix is emitted just before a controlled gate
    that uses the qubit as control or target; pending matrices on distinct
    qubits commute, so the rest are emitted at the end. Gate ranges are not
    checked again: `Circuit` rejects out-of-range gates when it is built.
    """
    ops = []
    pending: dict[int, tuple] = {}
    for gate in circuit.gates:
        m = _entries(gate)
        target = gate.target
        if not gate.controls:
            prior = pending.get(target)
            pending[target] = m if prior is None else _matmul(m, prior)
            continue
        for q in (*gate.controls, target):
            prior = pending.pop(q, None)
            if prior is not None:
                ops.append((q, 0, *prior))
        ops.append((target, _control_mask(gate), *m))
    ops.extend((q, 0, *m) for q, m in pending.items())
    return tuple(ops)


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply one gate in place and return the (mutated) state."""
    if any(q >= state.num_qubits for q in gate.qubits):
        raise ValueError(f"gate {gate} out of range for {state.num_qubits} qubits")
    kernels.apply_2x2(
        state.amplitudes, state.num_qubits, gate.target, _control_mask(gate), *_entries(gate)
    )
    return state


def simulate(circuit: Circuit, initial: StateVector) -> StateVector:
    """Apply the circuit's compiled kernel ops to a copy of `initial`, which
    is not mutated."""
    if circuit.num_qubits != initial.num_qubits:
        raise ValueError(
            f"circuit has {circuit.num_qubits} qubits but state has {initial.num_qubits}"
        )
    state = initial.copy()
    amps, n = state.amplitudes, state.num_qubits
    apply_2x2 = kernels.apply_2x2
    for op in compile_ops(circuit):
        apply_2x2(amps, n, *op)
    return state


def fidelity(a: StateVector, b: StateVector) -> float:
    """Squared overlap |<a|b>|^2, clamped to [0, 1] against rounding overshoot."""
    if a.num_qubits != b.num_qubits:
        raise ValueError(f"qubit counts differ: {a.num_qubits} vs {b.num_qubits}")
    overlap = np.vdot(a.amplitudes, b.amplitudes)
    return min(max(float(abs(overlap) ** 2), 0.0), 1.0)
