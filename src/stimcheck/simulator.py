"""Dense state-vector simulation: |0...0> preparation, gate application, fidelity.

Gates are applied in place with stride arithmetic on the amplitude array;
no 2^n x 2^n matrix is ever materialized. `compile_ops` turns a circuit into
kernel ops `(target, control_mask, m00, m01, m10, m11)`, fusing each run of
uncontrolled gates on one qubit into a single 2x2 (a diagonal run keeps
fusing across gates that act diagonally on its qubit) and cancelling CNOT
pairs around a diagonal, and `run_ops` hands each op to `kernels.apply_2x2`. The amplitudes may be one state of shape (2^n,)
or a block of states of shape (B, 2^n), one per row: every op then updates
all rows in one kernel call. `simulate` compiles its circuit afresh on every
call, so no circuit carries a cache; the verifier compiles each circuit once
per verify and runs the ops on blocks of stimuli.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .circuit import Circuit, Gate, GateKind, gate_entries

MAX_QUBITS = 24

@dataclass
class StateVector:
    num_qubits: int
    amplitudes: np.ndarray

    def copy(self) -> "StateVector":
        return StateVector(self.num_qubits, self.amplitudes.copy())

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amplitudes) ** 2)))


def check_qubits(num_qubits: int) -> None:
    """Reject qubit counts that cannot be simulated, before any memory is taken."""
    if num_qubits < 1:
        raise ValueError(f"num_qubits must be positive, got {num_qubits}")
    if num_qubits > MAX_QUBITS:
        raise ValueError(f"{num_qubits} qubits exceeds the configured maximum of {MAX_QUBITS}")


def zero_state(num_qubits: int) -> StateVector:
    check_qubits(num_qubits)
    amps = np.zeros(1 << num_qubits, dtype=complex)
    amps[0] = 1.0
    return StateVector(num_qubits, amps)


def basis_state(num_qubits: int, index: int) -> StateVector:
    state = zero_state(num_qubits)
    if not 0 <= index < (1 << num_qubits):
        raise ValueError(f"basis index {index} out of range for {num_qubits} qubits")
    state.amplitudes[0] = 0.0
    state.amplitudes[index] = 1.0
    return state


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


def _diagonal(m) -> bool:
    return m[1] == 0 and m[2] == 0


_CX = gate_entries(GateKind.X)


def compile_ops(circuit: Circuit) -> tuple[tuple, ...]:
    """Kernel ops `(target, control_mask, m00, m01, m10, m11)` equivalent to
    the circuit's gates applied in order.

    Consecutive uncontrolled gates on one qubit multiply into one pending
    2x2. A pending matrix is emitted just before a controlled gate that acts
    on its qubit non-diagonally; a diagonal one commutes with a gate's
    controls, and with its target when the gate's matrix is diagonal too, so
    it stays pending. Pending matrices on distinct qubits commute, so the
    rest are emitted at the end.

    A CNOT that repeats the last op on both of its qubits, with at most a
    diagonal D pending on the target in between, cancels that op: CX.D.CX
    is D (left pending) times diag(d1/d0, d0/d1) on the target where the
    control is set. This is the controlled-phase pattern u1.cx.u1.cx.u1,
    which made up most of a QFT's ops. Gate ranges are not checked again:
    `Circuit` rejects out-of-range gates when it is built.
    """
    ops: list = []
    pending: dict[int, tuple] = {}
    last: dict[int, int] = {}  # qubit -> index in ops of the last op acting on it

    def emit(op, qubits):
        for q in qubits:
            last[q] = len(ops)
        ops.append(op)

    for gate in circuit.gates:
        m = gate_entries(gate.kind, gate.params)
        target = gate.target
        if not gate.controls:
            prior = pending.get(target)
            pending[target] = m if prior is None else _matmul(m, prior)
            continue
        mask = _control_mask(gate)
        for q in gate.controls:
            prior = pending.get(q)
            if prior is not None and not _diagonal(prior):
                emit((q, 0, *pending.pop(q)), (q,))
        prior = pending.get(target)
        if m == _CX and len(gate.controls) == 1 and (prior is None or _diagonal(prior)):
            k = last.get(target)
            if k is not None and k == last.get(gate.controls[0]) and ops[k] == (target, mask, *_CX):
                d0, d1 = (prior[0], prior[3]) if prior is not None else (1, 1)
                ops[k] = None
                del last[target], last[gate.controls[0]]
                if d0 != d1:
                    emit((target, mask, d1 / d0, 0j, 0j, d0 / d1), gate.qubits)
                continue
        if prior is not None and not (_diagonal(prior) and _diagonal(m)):
            emit((target, 0, *pending.pop(target)), (target,))
        emit((target, mask, *m), gate.qubits)
    ops = [op for op in ops if op is not None]
    ops.extend((q, 0, *m) for q, m in pending.items())
    return tuple(ops)


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply one gate in place and return the (mutated) state."""
    if any(q >= state.num_qubits for q in gate.qubits):
        raise ValueError(f"gate {gate} out of range for {state.num_qubits} qubits")
    kernels.apply_2x2(
        state.amplitudes, state.num_qubits, gate.target, _control_mask(gate),
        *gate_entries(gate.kind, gate.params),
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
    run_ops(state.amplitudes, state.num_qubits, compile_ops(circuit))
    return state


def run_ops(amps: np.ndarray, num_qubits: int, ops: tuple[tuple, ...]) -> None:
    """Apply compiled kernel ops in place to one state (2^n,) or to every row
    of a block (B, 2^n)."""
    apply_2x2 = kernels.apply_2x2
    for op in ops:
        apply_2x2(amps, num_qubits, *op)


def fidelity(a: StateVector, b: StateVector) -> float:
    """Squared overlap |<a|b>|^2, clamped to [0, 1] against rounding overshoot."""
    if a.num_qubits != b.num_qubits:
        raise ValueError(f"qubit counts differ: {a.num_qubits} vs {b.num_qubits}")
    overlap = np.vdot(a.amplitudes, b.amplitudes)
    return min(max(float(abs(overlap) ** 2), 0.0), 1.0)
