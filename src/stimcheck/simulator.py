"""Dense state-vector simulation: |0...0> preparation, gate application, fidelity.

A state is a complex numpy array of shape (2^n,); qubit q is bit q of the
index, and n is log2 of the length. Gates are applied in place with stride
arithmetic; no 2^n x 2^n matrix is ever materialized. `compile_ops` turns a
circuit into kernel ops `(target, control_mask, m00, m01, m10, m11)`,
fusing each run of uncontrolled gates on one qubit into a single 2x2 (a
diagonal run keeps fusing across gates that act diagonally on its qubit)
and cancelling CNOT pairs around a diagonal, and `run_ops` hands each op to
`kernels.apply_2x2`, on one state or on every row of a (B, 2^n) block of
states in one call; a block is stored column-major, rows innermost, as the
kernel requires. `simulate` compiles its circuit afresh on every call,
so no circuit carries a cache; the verifier compiles each circuit once per
verify and runs the ops on blocks of stimuli.
"""
from __future__ import annotations

import numpy as np

from . import kernels
from .circuit import Circuit, Gate, GateKind, gate_entries

MAX_QUBITS = 24


def check_qubits(num_qubits: int) -> None:
    """Reject qubit counts that cannot be simulated, before any memory is taken."""
    if num_qubits < 1:
        raise ValueError(f"num_qubits must be positive, got {num_qubits}")
    if num_qubits > MAX_QUBITS:
        raise ValueError(f"{num_qubits} qubits exceeds the configured maximum of {MAX_QUBITS}")


def basis_state(num_qubits: int, index: int) -> np.ndarray:
    check_qubits(num_qubits)
    if not 0 <= index < (1 << num_qubits):
        raise ValueError(f"basis index {index} out of range for {num_qubits} qubits")
    amps = np.zeros(1 << num_qubits, dtype=complex)
    amps[index] = 1.0
    return amps


def zero_state(num_qubits: int) -> np.ndarray:
    return basis_state(num_qubits, 0)


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
_IDENTITY = (1, 0, 0, 1)


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
    which made up most of a QFT's ops.

    An op whose matrix multiplied out to exactly the identity, such as
    u1(-t/2).u1(t/2) left pending by a cancelled pair, or X.X, is dropped
    at the end, after the cancellations ran as if it were there. The kernel
    leaves a state bitwise unchanged under such an op, so dropping it
    changes no state. Gate ranges are not checked again: `Circuit` rejects
    out-of-range gates when it is built.
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
    ops.extend((q, 0, *m) for q, m in pending.items())
    return tuple(op for op in ops if op is not None and op[2:] != _IDENTITY)


def apply_gate(amps: np.ndarray, gate: Gate) -> np.ndarray:
    """Apply one gate in place to a state and return the (mutated) array."""
    n = len(amps).bit_length() - 1
    if n < 0 or len(amps) != 1 << n:
        raise ValueError(f"state length {len(amps)} is not a power of two")
    if any(q >= n for q in gate.qubits):
        raise ValueError(f"gate {gate} out of range for {n} qubits")
    if amps.dtype.kind != "c":
        raise ValueError(f"state dtype {amps.dtype} is not complex; apply_gate works in place")
    kernels.apply_2x2(amps, n, gate.target, _control_mask(gate),
                      *gate_entries(gate.kind, gate.params))
    return amps


def simulate(circuit: Circuit, initial: np.ndarray) -> np.ndarray:
    """Apply the circuit's compiled kernel ops to a complex copy of
    `initial`, which is not mutated, and return the copy."""
    if len(initial) != 1 << circuit.num_qubits:
        raise ValueError(
            f"circuit has {circuit.num_qubits} qubits but state has {len(initial)} amplitudes"
        )
    amps = np.array(initial, dtype=complex)
    run_ops(amps, circuit.num_qubits, compile_ops(circuit))
    return amps


def run_ops(amps: np.ndarray, num_qubits: int, ops: tuple[tuple, ...]) -> None:
    """Apply compiled kernel ops in place to one state (2^n,) or to every row
    of a column-major block (B, 2^n)."""
    apply_2x2 = kernels.apply_2x2
    for op in ops:
        apply_2x2(amps, num_qubits, *op)


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Squared overlap |<a|b>|^2 of two states, clamped to [0, 1] against
    rounding overshoot."""
    if len(a) != len(b):
        raise ValueError(f"state lengths differ: {len(a)} vs {len(b)}")
    overlap = np.vdot(a, b)
    return min(max(float(abs(overlap) ** 2), 0.0), 1.0)
