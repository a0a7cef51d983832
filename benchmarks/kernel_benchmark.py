#!/usr/bin/env python3
"""Time the gate-application kernel and whole-circuit simulation.

For the active backend, prints the time per amplitude of one gate from each
update class of the numpy kernel: u1 (diagonal), cx (anti-diagonal, one
control) and h (dense), each applied to every target in turn, at
n = 4, 8, ..., max-qubits. Then, for qft(16) and one global stimulus at
n = 16, prints the gate count, the kernel-op count after single-qubit runs
are fused, and the best time per `simulate`. When the compiled kernel is
built, also compares the two backends on random circuits of growing width.

Usage: python3 benchmarks/kernel_benchmark.py [--max-qubits N] [--gates M] [--repeats R]
"""
from __future__ import annotations

import argparse
import time

import numpy as np

from stimcheck import kernels
from stimcheck.circuit import Gate, GateKind
from stimcheck.library import qft, random_circuit
from stimcheck.simulator import compile_ops, simulate, zero_state
from stimcheck.stimuli import RandomSource, gen_global

# one gate per update class, as a function of (target, num_qubits)
CLASS_GATES = {
    "u1": lambda t, n: Gate(GateKind.PHASE, t, params=(0.3,)),
    "cx": lambda t, n: Gate(GateKind.X, t, controls=((t + 1) % n,)),
    "h": lambda t, n: Gate(GateKind.H, t),
}


def ns_per_amp(gate_class: str, num_qubits: int, repeats: int) -> float:
    """Best-of-`repeats` kernel time per gate, averaged over all targets,
    divided by the 2^n amplitudes of the state."""
    rng = np.random.default_rng(num_qubits)
    amps = rng.standard_normal(1 << num_qubits) + 1j * rng.standard_normal(1 << num_qubits)
    amps /= np.linalg.norm(amps)
    calls = []
    for target in range(num_qubits):
        gate = CLASS_GATES[gate_class](target, num_qubits)
        m = gate.matrix()
        mask = sum(1 << c for c in gate.controls)
        calls.append((target, mask, m[0, 0], m[0, 1], m[1, 0], m[1, 1]))
    loops = max(1, (1 << 16) >> num_qubits)  # keep each sample well above timer resolution
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(loops):
            for args in calls:
                kernels.apply_2x2(amps, num_qubits, *args)
        best = min(best, (time.perf_counter() - start) / (loops * len(calls)))
    return best / amps.size * 1e9


def simulate_ms(circuit, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        simulate(circuit, zero_state(circuit.num_qubits))
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def time_backend(name: str, num_qubits: int, num_gates: int, repeats: int) -> float:
    circuit = random_circuit(num_qubits, num_gates, RandomSource(1234, num_qubits),
                             with_rotations=True, with_toffoli=True)
    kernels.use_backend(name)
    return simulate_ms(circuit, repeats) / 1e3


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-qubits", type=int, default=20)
    parser.add_argument("--gates", type=int, default=200)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    backends = kernels.available_backends()
    print(f"active backend: {kernels.backend_name()} (available: {', '.join(backends)})")
    print("ns per amplitude, mean over targets:")
    print(f"{'qubits':>6} " + " ".join(f"{name:>8}" for name in CLASS_GATES))
    for n in range(4, args.max_qubits + 1, 4):
        row = [ns_per_amp(name, n, args.repeats) for name in CLASS_GATES]
        print(f"{n:>6} " + " ".join(f"{value:>8.2f}" for value in row))

    print(f"\n{'circuit':>16} {'gates':>6} {'ops':>6} {'ms/simulate':>12}")
    for label, circuit in (("qft(16)", qft(16)),
                           ("global n=16", gen_global(16, 16, RandomSource(16)).prep)):
        print(f"{label:>16} {circuit.gate_count:>6} {len(compile_ops(circuit)):>6} "
              f"{simulate_ms(circuit, args.repeats):>12.1f}")

    if "cython" not in backends:
        return
    active = kernels.backend_name()
    print(f"\n{'qubits':>6} {'python (s)':>12} {'cython (s)':>12} {'speedup':>8}")
    try:
        for n in range(4, args.max_qubits + 1, 2):
            t_py = time_backend("python", n, args.gates, args.repeats)
            t_cy = time_backend("cython", n, args.gates, args.repeats)
            print(f"{n:>6} {t_py:>12.6f} {t_cy:>12.6f} {t_py / t_cy:>7.2f}x")
    finally:
        kernels.use_backend(active)


if __name__ == "__main__":
    main()
