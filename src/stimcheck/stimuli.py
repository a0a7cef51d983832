"""Random stimulus generation: classical, local quantum, and global quantum schemes.

Every stimulus is a preparation circuit meant to act on |0...0>. The local
scheme prepares per-qubit states from the six single-qubit stabilizer states
{|0>,|1>,|+>,|->,|up>,|down>}; the global scheme layers random Clifford
gates (H, S, CNOT) so that the stimulus ensemble approaches a state
2-design as the layer count grows. Gate matrices come from `circuit.py`
only: each of the six states is its preparation word's matrix applied to
|0>, and the 24 single-qubit Cliffords are enumerated from `base_matrix` of
H and S, each named by its tableau update, which `clifford.conjugation`
reads off its matrix.

`draw` records only the random choices behind a block of stimuli, one row
per stimulus, in a `Draws`: classical bits, local state indices, or, for
global, each qubit's Clifford word index and the CNOT pairs of every
sub-round, as `_draw_global` defines them. It gives the same values, and
leaves each generator in the same end state, as drawing each stimulus on
its own, so a stimulus does not depend on the block it is drawn in.
`Draws.prepare` builds the prepared states directly as a (B, 2^n) block in
the layout `kernels` defines: one amplitude per row for classical, an outer
product of single-qubit states for local, and for global one call of
`clifford.write_states`, which prepares each row from its stabilizer
tableau up to a global phase, which no fidelity |<.|.>|^2 sees; classical
and local rows equal the simulated preparation exactly.
`Draws.prep` rebuilds one row's preparation circuit, which the verifier
does only for a witness. It assembles the circuit from a per-n table of
shared gates, built on the first witness at that qubit count, so a witness
costs about as much as copying references to its gates. `next_stimulus`
is a draw of one row turned into a `Stimulus`.
"""
from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from itertools import compress, groupby
from typing import NamedTuple, Sequence

import numpy as np

from .circuit import Circuit, Gate, GateKind, base_matrix
from .clifford import conjugation, write_states

SCHEME_KINDS = ("classical", "local", "global")
# The most layers a global scheme takes: about 40 times the default of one
# per qubit at simulator.MAX_QUBITS, and a 16-row draw at n = 4 of about 2.6 MB
MAX_LAYERS = 1024


def checked_int(name: str, value) -> int:
    """`value` as an int, taking what `operator.index` takes but not a
    bool; anything else raises a ValueError that names `name`."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class Scheme:
    kind: str
    layers: int | None = None  # global scheme only; None means "one layer per qubit"

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise ValueError(f"unknown scheme {self.kind!r}; expected one of {SCHEME_KINDS}")
        if self.layers is not None:
            if self.kind != "global":
                raise ValueError(f"layers only apply to the global scheme, not {self.kind!r}")
            object.__setattr__(self, "layers", checked_int("layers", self.layers))
            if self.layers < 1:
                raise ValueError(f"layer count must be positive, got {self.layers}")
            if self.layers > MAX_LAYERS:
                raise ValueError(f"layer count must be at most {MAX_LAYERS}, got {self.layers}")


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


def _word_matrix(word: Sequence[GateKind]) -> np.ndarray:
    matrix = np.eye(2, dtype=complex)
    for kind in word:
        matrix = base_matrix(kind) @ matrix
    return matrix


# The six single-qubit states, one row each, in the order of LOCAL_PREP_WORDS:
# each word's matrix applied to |0>.
_LOCAL_STATES = np.array([_word_matrix(word)[:, 0] for word in LOCAL_PREP_WORDS])


def _single_qubit_cliffords() -> dict[tuple[int, ...], tuple[GateKind, ...]]:
    """All 24 single-qubit Clifford operations (mod global phase) as shortest
    words over {H, S}, in application order, keyed by their tableau update
    `clifford.conjugation`, which fixes a Clifford up to its global phase.
    Deterministic BFS enumeration."""
    identity = np.eye(2, dtype=complex)
    words = {conjugation(identity): ()}
    frontier: list[tuple[tuple[GateKind, ...], np.ndarray]] = [((), identity)]
    while frontier:
        next_frontier = []
        for word, mat in frontier:
            for kind in (GateKind.H, GateKind.S):
                new_mat = base_matrix(kind) @ mat
                key = conjugation(new_mat)
                if key not in words:
                    new_word = word + (kind,)
                    words[key] = new_word
                    next_frontier.append((new_word, new_mat))
        frontier = next_frontier
    assert len(words) == 24
    return words


# CLIFFORD_1Q_WORDS[w] and, as _CONJUGATIONS[w], its tableau update, which
# clifford.write_states takes
_CONJUGATIONS, CLIFFORD_1Q_WORDS = zip(*_single_qubit_cliffords().items())


class _GateTable(NamedTuple):
    """Every gate a stimulus preparation at one qubit count uses, built once:
    `clifford[q][w]` and `local[q][w]` are the gates of word w of
    CLIFFORD_1Q_WORDS and LOCAL_PREP_WORDS on qubit q, `x[q]` is X on q, and
    `cx[a][b]` is the CNOT with control a and target b."""
    clifford: tuple[tuple[tuple[Gate, ...], ...], ...]
    local: tuple[tuple[tuple[Gate, ...], ...], ...]
    x: tuple[Gate, ...]
    cx: tuple[tuple[Gate | None, ...], ...]


@functools.cache
def _gate_table(num_qubits: int) -> _GateTable:
    """The gate table at `num_qubits`, built on its first use. `Gate` is
    frozen, so every witness at that qubit count shares these gates."""
    qubits = range(num_qubits)
    single = {kind: tuple(Gate(kind, q) for q in qubits)
              for kind in (GateKind.X, GateKind.H, GateKind.S)}

    def words(table):
        return tuple(tuple(tuple(single[kind][q] for kind in word) for word in table)
                     for q in qubits)

    return _GateTable(
        words(CLIFFORD_1Q_WORDS),
        words(LOCAL_PREP_WORDS),
        single[GateKind.X],
        tuple(tuple(Gate(GateKind.X, b, controls=(a,)) if a != b else None for b in qubits)
              for a in qubits),
    )


def local_prep(choice) -> Circuit:
    """Preparation circuit putting qubit q in state LOCAL_PREP_WORDS[choice[q]]."""
    local = _gate_table(len(choice)).local
    gates = tuple(gate for q, word in enumerate(choice) for gate in local[q][word])
    return Circuit(len(choice), gates, name="local-stimulus")


def _draw_global(num_qubits: int, layers: int, gen: np.random.Generator, rows: int):
    """The draws of `rows` consecutive global stimuli from `gen`, as
    `Draws.choices` and `Draws.pairs` hold them: every sub-round's Clifford
    word index per qubit, and its CNOT (control, target) qubits.

    Each layer runs two sub-rounds. Two per layer were chosen empirically:
    with one sub-round the ensemble average of the outcome fidelity still
    deviates from the average gate fidelity by ~0.08 at l = n = 4, with two
    it agrees within sampling error.

    A sub-round is defined by 2n + n // 2 uniform doubles u, the next ones
    of `gen.random`: qubit q's word is floor(24 u[q]); the stable argsort
    of u[n:2n] is a uniform permutation, matched in consecutive pairs
    (a, b); and pair i's CNOT is (b, a) if u[2n + i] < 0.5, else (a, b).
    The words and the matching are uniform up to a bias of about 1e-14,
    from flooring a 53-bit double and from ties in the argsort.
    `gen.random` takes one whole 64-bit output per double and leaves the
    32-bit buffer alone, so one call for all rows gives the values, and the
    end state, of one call per sub-round."""
    n, coins = num_qubits, num_qubits // 2
    u = gen.random((rows, 2 * layers, 2 * n + coins))
    words = (24 * u[..., :n]).astype(np.intp)
    order = u[..., n:2 * n].argsort(axis=-1, kind="stable")
    # (rows, sub-rounds, n // 2, 2), also when n = 1 leaves no pairs
    matched = order[..., :2 * coins].reshape(rows, 2 * layers, coins, 2)
    return words, np.where(u[..., 2 * n:, None] < 0.5, matched[..., ::-1], matched)


@dataclass(frozen=True)
class Draws:
    """The random draws behind a block of stimuli, one row per stimulus.

    - classical: `choices[b, q]` is qubit q's bit;
    - local: `choices[b, q]` indexes LOCAL_PREP_WORDS;
    - global: `choices[b, r, q]` indexes CLIFFORD_1Q_WORDS for qubit q in
      sub-round r, and `pairs[b, r]` holds the (control, target) qubits of
      that sub-round's CNOTs.

    `prepare` builds the prepared states directly, without circuits; `prep`
    assembles one row's preparation circuit, for a witness, from the shared
    gates of `_gate_table`.
    """
    scheme: Scheme  # for global, with the layer count resolved
    choices: np.ndarray
    pairs: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.choices)

    @property
    def num_qubits(self) -> int:
        return self.choices.shape[-1]

    def prep(self, row: int) -> Circuit:
        """Preparation circuit of one row."""
        n = self.num_qubits
        choice = self.choices[row].tolist()
        if self.scheme.kind == "classical":
            return Circuit(n, tuple(compress(_gate_table(n).x, choice)),
                           name="classical-stimulus")
        if self.scheme.kind == "local":
            return local_prep(choice)
        table = _gate_table(n)
        gates: list[Gate] = []
        for words, matching in zip(choice, self.pairs[row].tolist()):
            for q, word in enumerate(words):
                gates.extend(table.clifford[q][word])
            gates.extend(table.cx[a][b] for a, b in matching)
        return Circuit(n, tuple(gates), name="global-stimulus")

    def stimulus(self, row: int, seed_tag: str) -> Stimulus:
        return Stimulus(self.prep(row), self.scheme, seed_tag)

    def prepare(self) -> np.ndarray:
        """The prepared states as a (rows, 2^n) block in the layout
        `kernels` defines; row b equals simulating `prep(b)` on |0...0>,
        for a global row up to a global phase. Each global row is taken
        through its own tableau, its sub-rounds in `prep`'s order, and then
        every row is written in one pass."""
        n, rows = self.num_qubits, len(self)
        if self.scheme.kind == "classical":
            block = np.zeros((rows, 1 << n), dtype=complex, order="F")
            block[np.arange(rows), self.choices @ (1 << np.arange(n))] = 1.0
            return block
        if self.scheme.kind == "local":
            return _product(_LOCAL_STATES[self.choices])
        block = np.empty((rows, 1 << n), dtype=complex, order="F")
        # The lists go with the generator, once write_states has evolved the
        # last row, before it allocates its arrays.
        write_states(n, _CONJUGATIONS, (zip(words, pairs) for words, pairs in
                                        zip(self.choices.tolist(), self.pairs.tolist())), block)
        return block


def _product(states: np.ndarray) -> np.ndarray:
    """(rows, n, 2) single-qubit states -> (rows, 2^n) product states,
    column-major as `kernels` takes them, with qubit 0 the least significant
    bit of the amplitude index. Built in place on the transpose,
    amplitude-major: after qubit q, its first 2^(q+1) amplitudes hold the
    product state of qubits 0..q of every row."""
    rows, n, _ = states.shape
    block = np.empty((rows, 1 << n), dtype=complex, order="F")
    columns = block.T
    columns[:2] = states[:, 0].T
    for q in range(1, n):
        low, high = columns[:1 << q], columns[1 << q:2 << q]
        np.multiply(states[:, q, 1], low, out=high)
        low *= states[:, q, 0]
    return block


def draw(scheme: Scheme, num_qubits: int, sources: Sequence[RandomSource]) -> Draws:
    """Draw one stimulus from each source in turn, in the order given; a
    source listed k times gives k consecutive stimuli of its stream, the
    ones `next_stimulus` would draw from it one at a time.

    Each run of consecutive identical sources draws its rows in one call,
    `integers` for classical and local and `_draw_global` for global: the
    same values and end state as drawing each stimulus on its own."""
    runs = [(source.gen, len(list(run))) for source, run in groupby(sources)]
    if scheme.kind == "global":
        layers = scheme.layers if scheme.layers is not None else num_qubits
        parts = [_draw_global(num_qubits, layers, gen, rows) for gen, rows in runs]
        return Draws(global_scheme(layers), *(np.concatenate(part) for part in zip(*parts)))
    high = 2 if scheme.kind == "classical" else 6
    choices = [gen.integers(0, high, size=(rows, num_qubits)) for gen, rows in runs]
    return Draws(scheme, np.concatenate(choices).astype(np.intp, copy=False))


def next_stimulus(
    scheme: Scheme, num_qubits: int, rng: RandomSource, seed_tag: str = ""
) -> Stimulus:
    """The next stimulus of `scheme` from `rng`'s stream, tagged `seed_tag`
    or, by default, the stream's label:

    - classical: a uniform computational basis state, X on each qubit whose
      bit is 1;
    - local: one of the six single-qubit states per qubit, each drawn
      independently and uniformly;
    - global: a layered random Clifford preparation over {H, S, CNOT}, drawn
      as `_draw_global` describes.
    """
    return draw(scheme, num_qubits, [rng]).stimulus(0, seed_tag or rng.label)
