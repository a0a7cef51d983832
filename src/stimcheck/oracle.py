"""Brute-force ground truth at small qubit counts.

Builds full circuit unitaries by explicit matrix products (independent of
the stride-based simulator), and computes the trace-based fidelity measures
plus their state-level cross-checks. States are numpy arrays of 2^n
amplitudes, as in `simulator`.
"""
from __future__ import annotations

import functools

import numpy as np

from .circuit import Circuit, Gate, base_matrix
from .simulator import fidelity, simulate
from .stimuli import LOCAL_PREP_WORDS

ORACLE_LIMIT = 6
OMEGA_LIMIT = 4


def _check_limit(n: int, limit: int) -> None:
    if n > limit:
        raise ValueError(f"{n} qubits exceeds the oracle limit of {limit}")


def gate_unitary(gate: Gate, num_qubits: int) -> np.ndarray:
    """Full 2^n x 2^n matrix of one (possibly controlled) gate, built column
    by column from the definition."""
    m = gate.matrix()
    dim = 1 << num_qubits
    tbit = 1 << gate.target
    cmask = 0
    for c in gate.controls:
        cmask |= 1 << c
    full = np.zeros((dim, dim), dtype=complex)
    for j in range(dim):
        if (j & cmask) != cmask:
            full[j, j] = 1.0
        else:
            b = (j >> gate.target) & 1
            full[j & ~tbit, j] += m[0, b]
            full[j | tbit, j] += m[1, b]
    return full


def build_unitary(circuit: Circuit) -> np.ndarray:
    """Ordered product U_{m-1} ... U_0 of the circuit's gate matrices."""
    _check_limit(circuit.num_qubits, ORACLE_LIMIT)
    dim = 1 << circuit.num_qubits
    unitary = np.eye(dim, dtype=complex)
    for gate in circuit.gates:
        unitary = gate_unitary(gate, circuit.num_qubits) @ unitary
    return unitary


def _check_dims(u: np.ndarray, v: np.ndarray) -> int:
    if u.shape != v.shape or u.shape[0] != u.shape[1]:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    return int(u.shape[0]).bit_length() - 1


def ent_fidelity(u: np.ndarray, v: np.ndarray) -> float:
    """Entanglement fidelity 4^{-n} |tr(U^dag V)|^2."""
    n = _check_dims(u, v)
    value = float(abs(np.trace(u.conj().T @ v)) ** 2) / 4.0**n
    return min(max(value, 0.0), 1.0)


def avg_fidelity(u: np.ndarray, v: np.ndarray) -> float:
    """Average gate fidelity (2^n F_ent + 1) / (2^n + 1); equals 1 iff the
    realization matches the specification up to global phase."""
    n = _check_dims(u, v)
    dim = 1 << n
    return (dim * ent_fidelity(u, v) + 1.0) / (dim + 1.0)


def omega_state(num_qubits: int) -> np.ndarray:
    """Maximally entangled 2n-qubit state 2^{-n/2} sum_j |j>|j>."""
    n = num_qubits
    amps = np.zeros(1 << (2 * n), dtype=complex)
    j = np.arange(1 << n)
    amps[(j << n) | j] = 2.0 ** (-n / 2.0)
    return amps


def ent_fidelity_via_omega(spec: Circuit, impl: Circuit) -> float:
    """State-level route to the entanglement fidelity: apply both circuits to
    the first half of the maximally entangled 2n-qubit state."""
    if spec.num_qubits != impl.num_qubits:
        raise ValueError("qubit counts differ")
    n = spec.num_qubits
    _check_limit(n, OMEGA_LIMIT)
    omega = omega_state(n)
    out_spec = simulate(Circuit(2 * n, spec.gates), omega)
    out_impl = simulate(Circuit(2 * n, impl.gates), omega)
    return fidelity(out_spec, out_impl)


@functools.lru_cache(maxsize=8)
def _local_state_matrix(num_qubits: int) -> np.ndarray:
    """All 6^n local product states, one per row, enumeration ordered by
    base-6 digits (qubit n-1 most significant)."""
    zero = np.array([1.0, 0.0], dtype=complex)
    singles = []
    for word in LOCAL_PREP_WORDS:
        vec = zero
        for kind in word:
            vec = base_matrix(kind) @ vec
        singles.append(vec)
    single = np.array(singles)  # (6, 2)
    states = np.ones((1, 1), dtype=complex)
    for _ in range(num_qubits):
        states = np.einsum("ab,cd->acbd", states, single).reshape(
            states.shape[0] * 6, states.shape[1] * 2
        )
    return states


def mean_local_fidelity(spec: Circuit, impl: Circuit) -> float:
    """Exact average of F(U|l>, V|l>) over all 6^n local stimuli."""
    if spec.num_qubits != impl.num_qubits:
        raise ValueError("qubit counts differ")
    n = spec.num_qubits
    _check_limit(n, ORACLE_LIMIT)
    diff = build_unitary(spec).conj().T @ build_unitary(impl)
    states = _local_state_matrix(n)
    overlaps = np.einsum("ij,ij->i", states.conj(), states @ diff.T)
    return float(np.mean(np.abs(overlaps) ** 2))
