"""Bundled benchmark circuit families: GHZ preparation, quantum Fourier
transform, and random Clifford+T circuits."""
from __future__ import annotations

import math

from .circuit import Circuit, Gate, GateKind
from .stimuli import RandomSource

_RANDOM_1Q = (
    GateKind.X, GateKind.Y, GateKind.Z, GateKind.H,
    GateKind.S, GateKind.SDG, GateKind.T, GateKind.TDG,
)
_RANDOM_PARAM = (GateKind.RX, GateKind.RY, GateKind.RZ, GateKind.PHASE, GateKind.U3)


def ghz(num_qubits: int) -> Circuit:
    gates = [Gate(GateKind.H, 0)]
    gates += [Gate(GateKind.X, q + 1, controls=(q,)) for q in range(num_qubits - 1)]
    return Circuit(num_qubits, tuple(gates), name=f"ghz_{num_qubits}")


def _controlled_phase(control: int, target: int, angle: float) -> list[Gate]:
    # cu1 over the supported gate set: u1(a/2) c; cx c,t; u1(-a/2) t; cx c,t; u1(a/2) t
    half = angle / 2.0
    return [
        Gate(GateKind.PHASE, control, params=(half,)),
        Gate(GateKind.X, target, controls=(control,)),
        Gate(GateKind.PHASE, target, params=(-half,)),
        Gate(GateKind.X, target, controls=(control,)),
        Gate(GateKind.PHASE, target, params=(half,)),
    ]


def qft(num_qubits: int) -> Circuit:
    gates: list[Gate] = []
    for i in range(num_qubits - 1, -1, -1):
        gates.append(Gate(GateKind.H, i))
        for j in range(i - 1, -1, -1):
            gates += _controlled_phase(j, i, math.pi / (1 << (i - j)))
    for i in range(num_qubits // 2):  # bit reversal via CX-triple swaps
        a, b = i, num_qubits - 1 - i
        gates += [
            Gate(GateKind.X, b, controls=(a,)),
            Gate(GateKind.X, a, controls=(b,)),
            Gate(GateKind.X, b, controls=(a,)),
        ]
    return Circuit(num_qubits, tuple(gates), name=f"qft_{num_qubits}")


def random_circuit(
    num_qubits: int,
    num_gates: int,
    rng: RandomSource,
    with_rotations: bool = False,
    with_toffoli: bool = False,
) -> Circuit:
    """Random circuit over Clifford+T and CNOT; optionally rotation gates with
    random angles and Toffolis."""
    kinds: list[object] = list(_RANDOM_1Q) + ["cx"]
    if with_rotations:
        kinds += list(_RANDOM_PARAM)
    if with_toffoli and num_qubits >= 3:
        kinds.append("ccx")
    gen = rng.gen
    gates = []
    for _ in range(num_gates):
        choice = kinds[gen.integers(0, len(kinds))]
        if choice == "cx":
            if num_qubits < 2:
                choice = GateKind.H
            else:
                c, t = (int(q) for q in gen.choice(num_qubits, size=2, replace=False))
                gates.append(Gate(GateKind.X, t, controls=(c,)))
                continue
        if choice == "ccx":
            a, b, t = (int(q) for q in gen.choice(num_qubits, size=3, replace=False))
            gates.append(Gate(GateKind.X, t, controls=(a, b)))
            continue
        kind = choice
        params = tuple(float(a) for a in gen.uniform(-math.pi, math.pi, size=kind.num_params))
        gates.append(Gate(kind, int(gen.integers(0, num_qubits)), params=params))
    return Circuit(num_qubits, tuple(gates), name=f"random_{num_qubits}")


FAMILIES = ("ghz", "qft", "random")


def family_circuit(family: str, num_qubits: int, seed: int,
                   num_gates: int | None = None) -> Circuit:
    """One circuit of a bundled family by name. A random circuit has
    `num_gates` gates (4n if not given), Toffolis included, drawn from
    RandomSource(seed, num_qubits)."""
    if num_gates is not None and num_gates < 1:
        raise ValueError(f"gate count must be positive, got {num_gates}")
    if family == "ghz":
        return ghz(num_qubits)
    if family == "qft":
        return qft(num_qubits)
    if family == "random":
        return random_circuit(num_qubits, 4 * num_qubits if num_gates is None else num_gates,
                              RandomSource(seed, num_qubits), with_toffoli=True)
    raise ValueError(f"unknown family {family!r}")


def bundled_corpus(sizes: tuple[int, ...] = (4, 6, 8), seed: int = 2024) -> list[Circuit]:
    """Default benchmark corpus: one GHZ, QFT, and random Clifford+T circuit per size."""
    return [family_circuit(family, n, seed) for n in sizes for family in FAMILIES]
