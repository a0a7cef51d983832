"""Error injection: produce faulty realizations from a specification circuit.

`is_functional_mutation` filters out mutants that are accidentally
equivalent to their specification. It judges them by the exact average gate
fidelity from `equivalence.trace_fidelity`, which runs basis states through
the same compiled ops as `verify`, up to ORACLE_LIMIT qubits; the brute-force
unitaries of `oracle.py` stay the independent reference it is tested against.
"""
from __future__ import annotations

from enum import Enum

from .circuit import Circuit, Gate, GateKind
from .equivalence import trace_fidelity
from .oracle import ORACLE_LIMIT
from .oracle import avg_fidelity, build_unitary  # noqa: F401  (for tools that wrap them by name)
from .stimuli import RandomSource

EQUIVALENCE_MARGIN = 1e-10
TOFFOLI_COUNT = 10

INSERT_KINDS = (GateKind.X, GateKind.Y, GateKind.Z, GateKind.H, GateKind.S, GateKind.T)


class MutationError(ValueError):
    """The error option cannot be applied to this circuit (unusable instance)."""


class ErrorOption(Enum):
    REMOVE_1 = ("remove", 1)
    REMOVE_2 = ("remove", 2)
    REMOVE_3 = ("remove", 3)
    INSERT_1 = ("insert", 1)
    INSERT_2 = ("insert", 2)
    INSERT_3 = ("insert", 3)
    TOFFOLI_PREFIX = ("toffoli_prefix", TOFFOLI_COUNT)
    TOFFOLI_SUFFIX = ("toffoli_suffix", TOFFOLI_COUNT)

    @property
    def action(self) -> str:
        return self.value[0]

    @property
    def count(self) -> int:
        return self.value[1]

    @property
    def label(self) -> str:
        if self.action in ("remove", "insert"):
            return f"{self.action}_{self.count}"
        return self.action


def _random_toffolis(num_qubits: int, rng: RandomSource) -> list[Gate]:
    gates = []
    for _ in range(TOFFOLI_COUNT):
        a, b, t = (int(q) for q in rng.gen.choice(num_qubits, size=3, replace=False))
        gates.append(Gate(GateKind.X, t, controls=(a, b)))
    return gates


def mutate(circuit: Circuit, option: ErrorOption, rng: RandomSource) -> Circuit:
    """Apply one error-injection option; the input circuit is unchanged."""
    m = circuit.gate_count
    n = circuit.num_qubits
    name = f"{circuit.name}+{option.label}" if circuit.name else option.label

    if option.action == "remove":
        k = option.count
        if m < k:
            raise MutationError(f"cannot remove {k} gates from a {m}-gate circuit")
        positions = set(int(p) for p in rng.gen.choice(m, size=k, replace=False))
        gates = tuple(g for i, g in enumerate(circuit.gates) if i not in positions)
        return Circuit(n, gates, name)

    if option.action == "insert":
        gates = list(circuit.gates)
        for _ in range(option.count):
            kind = INSERT_KINDS[rng.gen.integers(0, len(INSERT_KINDS))]
            qubit = int(rng.gen.integers(0, n))
            position = int(rng.gen.integers(0, len(gates) + 1))
            gates.insert(position, Gate(kind, qubit))
        return Circuit(n, tuple(gates), name)

    # Toffoli prefix/suffix
    if n < 3:
        raise MutationError(f"Toffoli injection needs at least 3 qubits, circuit has {n}")
    toffolis = _random_toffolis(n, rng)
    if option.action == "toffoli_prefix":
        return Circuit(n, tuple(toffolis) + circuit.gates, name)
    return Circuit(n, circuit.gates + tuple(toffolis), name)


def is_functional_mutation(spec: Circuit, mutated: Circuit) -> bool | None:
    """True if the mutation changed the circuit's functionality, judged by the
    exact average gate fidelity. None above ORACLE_LIMIT qubits, where it is
    not checked."""
    if spec.num_qubits != mutated.num_qubits:
        return True
    if spec.num_qubits > ORACLE_LIMIT:
        return None
    _, f = trace_fidelity(spec, mutated)
    return f < 1.0 - EQUIVALENCE_MARGIN
