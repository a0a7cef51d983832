"""Random stimulus generation: classical, local quantum, and global quantum schemes.

Every stimulus is a preparation circuit meant to act on |0...0>. The local
scheme prepares per-qubit states from the six single-qubit stabilizer states
{|0>,|1>,|+>,|->,|up>,|down>}; the global scheme layers random Clifford
gates (H, S, CNOT) so that the stimulus ensemble approaches a state
2-design as the layer count grows.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Gate, GateKind

_VALID_SCHEMES = ("classical", "local", "global")


@dataclass(frozen=True)
class Scheme:
    kind: str
    layers: int | None = None  # global scheme only; None means "one layer per qubit"

    def __post_init__(self):
        if self.kind not in _VALID_SCHEMES:
            raise ValueError(f"unknown scheme {self.kind!r}; expected one of {_VALID_SCHEMES}")
        if self.layers is not None:
            if self.kind != "global":
                raise ValueError(f"layers only apply to the global scheme, not {self.kind!r}")
            if self.layers < 1:
                raise ValueError(f"layer count must be positive, got {self.layers}")


CLASSICAL = Scheme("classical")
LOCAL = Scheme("local")


def global_scheme(layers: int | None = None) -> Scheme:
    return Scheme("global", layers)


@dataclass(frozen=True)
class Stimulus:
    prep: Circuit
    scheme: Scheme
    seed_tag: str


class RandomSource:
    """Seeded PCG64 stream; identical (seed, stream) reproduces identical draws
    on every platform. derive() spawns an independent, reproducible substream."""

    def __init__(self, seed: int, *stream: int):
        self.seed = seed
        self.stream = stream
        entropy = [s & 0xFFFFFFFFFFFFFFFF for s in (seed, *stream)]
        self.gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))

    def derive(self, *indices: int) -> "RandomSource":
        return RandomSource(self.seed, *self.stream, *indices)

    @property
    def label(self) -> str:
        return ":".join(str(s) for s in (self.seed, *self.stream))


# Preparation words in application order (first gate applied first):
# |0>, |1>, |+>, |->, |up>, |down>
LOCAL_PREP_WORDS: tuple[tuple[GateKind, ...], ...] = (
    (),
    (GateKind.X,),
    (GateKind.H,),
    (GateKind.X, GateKind.H),
    (GateKind.H, GateKind.S),
    (GateKind.X, GateKind.H, GateKind.S),
)


def _single_qubit_cliffords() -> tuple[tuple[GateKind, ...], ...]:
    """All 24 single-qubit Clifford operations (mod global phase) as shortest
    words over {H, S}, in application order. Deterministic BFS enumeration."""
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    s = np.array([[1, 0], [0, 1j]], dtype=complex)

    def canon(m: np.ndarray) -> tuple:
        flat = m.flatten()
        pivot = next(v for v in flat if abs(v) > 1e-9)
        return tuple(np.round(flat / (pivot / abs(pivot)), 8))

    words: dict[tuple, tuple[GateKind, ...]] = {canon(np.eye(2, dtype=complex)): ()}
    frontier: list[tuple[tuple[GateKind, ...], np.ndarray]] = [((), np.eye(2, dtype=complex))]
    while frontier:
        next_frontier = []
        for word, mat in frontier:
            for kind, gate_mat in ((GateKind.H, h), (GateKind.S, s)):
                new_mat = gate_mat @ mat
                key = canon(new_mat)
                if key not in words:
                    new_word = word + (kind,)
                    words[key] = new_word
                    next_frontier.append((new_word, new_mat))
        frontier = next_frontier
    result = tuple(words.values())
    assert len(result) == 24
    return result


CLIFFORD_1Q_WORDS = _single_qubit_cliffords()


def gen_classical(num_qubits: int, rng: RandomSource, seed_tag: str = "") -> Stimulus:
    """Uniform computational basis state: X on each qubit whose bit is 1."""
    bits = rng.gen.integers(0, 2, size=num_qubits)
    gates = tuple(Gate(GateKind.X, q) for q in range(num_qubits) if bits[q])
    prep = Circuit(num_qubits, gates, name="classical-stimulus")
    return Stimulus(prep, CLASSICAL, seed_tag or rng.label)


def local_prep(choice) -> Circuit:
    """Preparation circuit putting qubit q in state LOCAL_PREP_WORDS[choice[q]]."""
    gates = tuple(
        Gate(kind, q) for q, word in enumerate(choice) for kind in LOCAL_PREP_WORDS[word]
    )
    return Circuit(len(choice), gates, name="local-stimulus")


def gen_local(num_qubits: int, rng: RandomSource, seed_tag: str = "") -> Stimulus:
    """Independent uniform draw of one of the six single-qubit states per qubit."""
    draws = rng.gen.integers(0, 6, size=num_qubits)
    return Stimulus(local_prep(draws), LOCAL, seed_tag or rng.label)


def gen_global(
    num_qubits: int, layers: int, rng: RandomSource, seed_tag: str = ""
) -> Stimulus:
    """Layered random Clifford preparation over {H, S, CNOT}.

    Each layer runs two sub-rounds of (uniform single-qubit Clifford word per
    qubit, then CNOTs on a uniformly random perfect-as-possible matching with
    random orientation). Two sub-rounds per layer were chosen empirically:
    with one sub-round the ensemble average of the outcome fidelity still
    deviates from the average gate fidelity by ~0.08 at l = n = 4, with two
    it agrees within sampling error.
    """
    if layers < 1:
        raise ValueError(f"layer count must be positive, got {layers}")
    gen = rng.gen
    gates: list[Gate] = []
    for _ in range(layers):
        for _ in range(2):
            for q in range(num_qubits):
                word = CLIFFORD_1Q_WORDS[gen.integers(0, 24)]
                gates.extend(Gate(kind, q) for kind in word)
            order = gen.permutation(num_qubits)
            for k in range(num_qubits // 2):
                a, b = int(order[2 * k]), int(order[2 * k + 1])
                if gen.random() < 0.5:
                    a, b = b, a
                gates.append(Gate(GateKind.X, b, controls=(a,)))
    prep = Circuit(num_qubits, tuple(gates), name="global-stimulus")
    return Stimulus(prep, global_scheme(layers), seed_tag or rng.label)


def next_stimulus(
    scheme: Scheme, num_qubits: int, rng: RandomSource, seed_tag: str = ""
) -> Stimulus:
    if scheme.kind == "classical":
        return gen_classical(num_qubits, rng, seed_tag)
    if scheme.kind == "local":
        return gen_local(num_qubits, rng, seed_tag)
    layers = scheme.layers if scheme.layers is not None else num_qubits
    return gen_global(num_qubits, layers, rng, seed_tag)
