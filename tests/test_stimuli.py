import itertools
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from stimcheck import clifford
from stimcheck.circuit import Circuit, Gate, GateKind, base_matrix
from stimcheck.clifford import conjugation, write_states
from stimcheck.oracle import build_unitary
from stimcheck.qasm import emit_qasm
from stimcheck.simulator import simulate, zero_state
from stimcheck.stimuli import (
    CLASSICAL,
    CLIFFORD_1Q_WORDS,
    LOCAL,
    LOCAL_PREP_WORDS,
    MAX_LAYERS,
    _CONJUGATIONS,
    Draws,
    RandomSource,
    Scheme,
    draw,
    global_scheme,
    local_prep,
    next_stimulus,
)

SQRT2_INV = 1 / math.sqrt(2)

# Expected six single-qubit states, in the order of LOCAL_PREP_WORDS.
SIX_STATES = (
    np.array([1, 0], dtype=complex),                     # |0>
    np.array([0, 1], dtype=complex),                     # |1>
    np.array([SQRT2_INV, SQRT2_INV]),                    # |+>
    np.array([SQRT2_INV, -SQRT2_INV]),                   # |->
    np.array([SQRT2_INV, 1j * SQRT2_INV]),               # |up>
    np.array([SQRT2_INV, -1j * SQRT2_INV]),              # |down>
)


def prep_state(word, num_qubits=1, qubit=0):
    circuit = Circuit(num_qubits, tuple(Gate(kind, qubit) for kind in word))
    return simulate(circuit, zero_state(num_qubits))


def word_matrix(word) -> np.ndarray:
    matrix = np.eye(2, dtype=complex)
    for kind in word:
        matrix = base_matrix(kind) @ matrix
    return matrix


# X, Z and Y by their (x, z) bits in a tableau
PAULIS = {(1, 0): base_matrix(GateKind.X), (0, 1): base_matrix(GateKind.Z),
          (1, 1): base_matrix(GateKind.Y)}


def assert_equal_up_to_phase(row: np.ndarray, expected: np.ndarray, err_msg: str = "") -> None:
    """`row` equals `expected` within 1e-12 once one unit-modulus factor,
    their overlap's phase, is divided out."""
    overlap = np.vdot(expected, row)
    np.testing.assert_allclose(row / (overlap / abs(overlap)), expected, rtol=0, atol=1e-12,
                               err_msg=err_msg)


class TestScheme:
    def test_known_kinds(self):
        assert CLASSICAL.kind == "classical"
        assert LOCAL.kind == "local"
        assert global_scheme(3).layers == 3

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Scheme("thermal")

    def test_layers_only_for_global(self):
        with pytest.raises(ValueError):
            Scheme("local", layers=2)

    def test_layers_taken_as_operator_index_takes_them(self):
        scheme = global_scheme(np.int64(3))
        assert scheme.layers == 3 and type(scheme.layers) is int
        assert scheme == global_scheme(3)

    def test_nonpositive_layers_rejected(self):
        # and a non-integer or a bool, which would fail later in numpy or
        # count as one layer
        for layers in (0, MAX_LAYERS + 1, 2.5, 3.0, "3", True, False):
            with pytest.raises(ValueError, match="layer"):
                global_scheme(layers)
        assert global_scheme(MAX_LAYERS).layers == MAX_LAYERS


class TestRandomSource:
    def test_same_seed_same_draws(self):
        a = RandomSource(5).gen.integers(0, 1000, size=10)
        b = RandomSource(5).gen.integers(0, 1000, size=10)
        np.testing.assert_array_equal(a, b)

    def test_derive_is_reproducible_and_independent(self):
        a = RandomSource(5).derive(1, 2)
        b = RandomSource(5).derive(1, 2)
        c = RandomSource(5).derive(1, 3)
        xs = a.gen.integers(0, 2**30, size=8)
        np.testing.assert_array_equal(xs, b.gen.integers(0, 2**30, size=8))
        assert not np.array_equal(xs, c.gen.integers(0, 2**30, size=8))

    def test_label(self):
        assert RandomSource(5).derive(1, 2).label == "5:1:2"


class TestLocalPrepWords:
    def test_words_prepare_expected_states(self):
        for word, expected in zip(LOCAL_PREP_WORDS, SIX_STATES):
            state = prep_state(word)
            # equal up to global phase
            assert abs(abs(np.vdot(expected, state)) - 1.0) < 1e-12

    def test_pairwise_overlaps(self):
        # |<a|b>|^2 is 1 on the diagonal, 0 for antipodal pairs, 1/2 otherwise
        states = [prep_state(w) for w in LOCAL_PREP_WORDS]
        for i, a in enumerate(states):
            for j, b in enumerate(states):
                overlap = abs(np.vdot(a, b)) ** 2
                if i == j:
                    expected = 1.0
                elif i // 2 == j // 2:  # {0,1}, {+,-}, {up,down} are antipodal
                    expected = 0.0
                else:
                    expected = 0.5
                assert abs(overlap - expected) < 1e-12, (i, j, overlap)


class TestClifford1qWords:
    def test_count(self):
        assert len(CLIFFORD_1Q_WORDS) == 24

    def test_words_are_distinct_operations(self):
        h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
        s = np.array([[1, 0], [0, 1j]], dtype=complex)
        mats = []
        for word in CLIFFORD_1Q_WORDS:
            m = np.eye(2, dtype=complex)
            for kind in word:
                m = (h if kind == GateKind.H else s) @ m
            mats.append(m)
        for i, a in enumerate(mats):
            for j, b in enumerate(mats):
                same = abs(abs(np.trace(a.conj().T @ b)) - 2.0) < 1e-9
                assert same == (i == j)

    def test_words_are_short(self):
        assert max(len(w) for w in CLIFFORD_1Q_WORDS) <= 6

    def test_words_are_golden(self):
        # A recorded global draw holds indices into this tuple, so its order
        # fixes the gates, and so the witness, of every global stimulus.
        golden = ["", "H", "S", "HS", "SH", "SS", "HSH", "HSS", "SHS", "SSH", "SSS",
                  "HSHS", "HSSH", "HSSS", "SHSS", "SSHS", "HSHSS", "HSSHS", "SHSSH",
                  "SHSSS", "SSHSS", "HSHSSH", "HSHSSS", "HSSHSS"]
        assert CLIFFORD_1Q_WORDS == tuple(tuple(GateKind[c] for c in word) for word in golden)

    def test_conjugations_map_each_pauli_as_their_word_does(self):
        # on one qubit and one generator, the masks act on bit 0 of x and z
        for word, entry in zip(CLIFFORD_1Q_WORDS, _CONJUGATIONS, strict=True):
            assert set(entry) <= {0, -1}, (word, entry)
            xx, xz, zx, zz, fx, fz, fy = entry
            u = word_matrix(word)
            for (x, z), pauli in PAULIS.items():
                sign = ((x & fx) ^ (z & fz) ^ (x & z & fy)) & 1
                image = PAULIS[(x & xx) ^ (z & zx), (x & xz) ^ (z & zz)]
                np.testing.assert_allclose(u @ pauli @ u.conj().T, (-1) ** sign * image,
                                           rtol=0, atol=1e-12, err_msg=f"{word} {x}{z}")
        # 6 symplectic 2x2s, each with 4 sign patterns
        assert len(set(_CONJUGATIONS)) == 24


class TestClassical:
    def test_only_x_gates_and_basis_output(self):
        for k in range(50):
            stim = next_stimulus(CLASSICAL, 4, RandomSource(100, k))
            assert all(g.kind == GateKind.X and not g.controls for g in stim.prep.gates)
            amps = simulate(stim.prep, zero_state(4))
            assert np.count_nonzero(amps) == 1

    def test_uniform_over_basis_states(self):
        n, draws = 3, 4000
        counts = np.zeros(2**n)
        for k in range(draws):
            stim = next_stimulus(CLASSICAL, n, RandomSource(7, k))
            amps = simulate(stim.prep, zero_state(n))
            counts[int(np.argmax(np.abs(amps)))] += 1
        p = 1 / 2**n
        sigma = math.sqrt(draws * p * (1 - p))
        assert np.all(np.abs(counts - draws * p) < 4 * sigma)

    def test_determinism(self):
        a = next_stimulus(CLASSICAL, 5, RandomSource(9, 1))
        b = next_stimulus(CLASSICAL, 5, RandomSource(9, 1))
        assert emit_qasm(a.prep) == emit_qasm(b.prep)


class TestLocal:
    def test_product_of_six_states(self):
        for k in range(30):
            stim = next_stimulus(LOCAL, 3, RandomSource(11, k))
            amps = simulate(stim.prep, zero_state(3))
            # every amplitude magnitude is a power of 1/sqrt(2)
            mags = np.abs(amps[np.abs(amps) > 1e-12])
            for m in mags:
                assert abs(math.log2(m) * 2 - round(math.log2(m) * 2)) < 1e-9

    def test_all_36_products_reachable_at_n2(self):
        seen = set()
        expected = set()
        for i, j in itertools.product(range(6), range(6)):
            target = np.kron(SIX_STATES[j], SIX_STATES[i])  # q1 (x) q0
            expected.add((i, j))
            for k in range(2000):
                if (i, j) in seen:
                    break
                stim = next_stimulus(LOCAL, 2, RandomSource(13, k))
                amps = simulate(stim.prep, zero_state(2))
                if abs(abs(np.vdot(target, amps)) - 1.0) < 1e-9:
                    seen.add((i, j))
        assert seen == expected

    def test_determinism(self):
        a = next_stimulus(LOCAL, 6, RandomSource(21, 4))
        b = next_stimulus(LOCAL, 6, RandomSource(21, 4))
        assert emit_qasm(a.prep) == emit_qasm(b.prep)


class TestGlobal:
    def test_single_qubit_has_no_cnots(self):
        stim = next_stimulus(global_scheme(3), 1, RandomSource(31))
        assert all(not g.controls for g in stim.prep.gates)

    def test_gate_kinds_restricted_to_h_s_cx(self):
        stim = next_stimulus(global_scheme(4), 4, RandomSource(33))
        for g in stim.prep.gates:
            if g.controls:
                assert g.kind == GateKind.X and len(g.controls) == 1
            else:
                assert g.kind in (GateKind.H, GateKind.S)

    def test_gate_count_bounds(self):
        n, layers = 5, 3
        stim = next_stimulus(global_scheme(layers), n, RandomSource(35))
        max_word = max(len(w) for w in CLIFFORD_1Q_WORDS)
        upper = layers * 2 * (n * max_word + n // 2)
        assert stim.prep.gate_count <= upper

    def test_outputs_are_stabilizer_states(self):
        # amplitudes of H/S/CNOT circuits on |0...0> have magnitude 0 or 2^(-k/2)
        for k in range(20):
            stim = next_stimulus(global_scheme(3), 3, RandomSource(37, k))
            amps = simulate(stim.prep, zero_state(3))
            mags = np.abs(amps[np.abs(amps) > 1e-9])
            assert np.allclose(mags, mags[0], atol=1e-9)

    def test_layer_validation(self):
        with pytest.raises(ValueError):
            next_stimulus(global_scheme(0), 2, RandomSource(0))

    def test_determinism(self):
        a = next_stimulus(global_scheme(4), 4, RandomSource(41, 2))
        b = next_stimulus(global_scheme(4), 4, RandomSource(41, 2))
        assert emit_qasm(a.prep) == emit_qasm(b.prep)


class TestNextStimulus:
    def test_dispatch(self):
        rng = RandomSource(50)
        assert next_stimulus(CLASSICAL, 3, rng.derive(0)).scheme == CLASSICAL
        assert next_stimulus(LOCAL, 3, rng.derive(1)).scheme == LOCAL
        stim = next_stimulus(global_scheme(), 3, rng.derive(2))
        assert stim.scheme == global_scheme(3)  # default: one layer per qubit

    def test_seed_tag_passthrough(self):
        stim = next_stimulus(CLASSICAL, 2, RandomSource(51), seed_tag="51:0")
        assert stim.seed_tag == "51:0"


# Blocks of 1, 2, 4 and 3 rows drawn in turn from one stream, as verify draws its blocks.
BLOCK_SIZES = (1, 2, 4, 3)


@pytest.mark.parametrize("n", [1, 3, 4, 7, 8, 12])
@pytest.mark.parametrize("scheme", [CLASSICAL, LOCAL, global_scheme(1), global_scheme()],
                         ids=["classical", "local", "global-1", "global-default"])
def test_block_rows_match_simulated_next_stimulus(n, scheme):
    block_rng, reference_rng = RandomSource(300, n), RandomSource(300, n)
    k = 0
    for rows in BLOCK_SIZES:
        draws = draw(scheme, n, [block_rng] * rows)
        block = draws.prepare()
        assert block.shape == (rows, 1 << n) and block.flags.f_contiguous
        for row in range(rows):
            tag = f"300:{k}"
            expected = next_stimulus(scheme, n, reference_rng, seed_tag=tag)
            # the witness rebuilt from the row's draws is the same stimulus
            assert draws.stimulus(row, tag) == expected
            reference = simulate(expected.prep, zero_state(n))
            if scheme.kind == "global":
                # a tableau fixes the state up to a global phase
                assert_equal_up_to_phase(block[row], reference, err_msg=f"stimulus {k}")
            else:
                np.testing.assert_allclose(block[row], reference, atol=1e-12,
                                           err_msg=f"stimulus {k}")
            k += 1


def test_draw_rows_from_separate_streams_match_next_stimulus():
    sources = [RandomSource(301, k) for k in range(5)]
    draws = draw(global_scheme(2), 4, sources)
    for row in range(5):
        assert draws.prep(row) == next_stimulus(global_scheme(2), 4, RandomSource(301, row)).prep


def fresh_prep(draws: Draws, row: int) -> Circuit:
    """A row's preparation circuit with every gate constructed here, from the
    row's draws alone, as the scheme defines it."""
    n, choice = draws.num_qubits, draws.choices[row].tolist()
    if draws.scheme.kind == "classical":
        gates = [Gate(GateKind.X, q) for q in range(n) if choice[q] == 1]
    elif draws.scheme.kind == "local":
        gates = [Gate(kind, q) for q in range(n) for kind in LOCAL_PREP_WORDS[choice[q]]]
    else:
        gates = []
        for words, matching in zip(choice, draws.pairs[row].tolist()):
            for q in range(n):
                gates += [Gate(kind, q) for kind in CLIFFORD_1Q_WORDS[words[q]]]
            gates += [Gate(GateKind.X, target, controls=(control,))
                      for control, target in matching]
    return Circuit(n, tuple(gates))


@pytest.mark.parametrize("n", [1, 3, 4, 8, 12])
@pytest.mark.parametrize("scheme", [CLASSICAL, LOCAL, global_scheme()],
                         ids=["classical", "local", "global"])
def test_witness_equals_its_gates_built_fresh(n, scheme):
    draws = draw(scheme, n, [RandomSource(320, n)] * 5)
    for row in range(len(draws)):
        witness, expected = draws.prep(row), fresh_prep(draws, row)
        assert witness == expected
        assert emit_qasm(witness) == emit_qasm(expected)
        assert witness.name == f"{scheme.kind}-stimulus"


def test_witnesses_at_one_qubit_count_share_their_gates():
    n = 5
    blocks = {
        "classical": [Draws(CLASSICAL, np.ones((1, n), dtype=np.intp))] * 2,
        "local": [Draws(LOCAL, np.full((1, n), word, dtype=np.intp)) for word in (3, 5)],
        "global": [draw(global_scheme(), n, [RandomSource(321, k)]) for k in range(2)],
    }
    for scheme, (first, second) in blocks.items():
        a, b = first.prep(0).gates, second.prep(0).gates
        interned = {gate: gate for gate in a}
        shared = [gate for gate in b if gate in interned]
        assert shared, scheme
        assert all(interned[gate] is gate for gate in shared), scheme
    # local_prep takes its gates from the same table as Draws.prep
    assert local_prep([1] * n).gates[0] is blocks["classical"][0].prep(0).gates[0]


def test_importing_the_package_builds_no_gate_table():
    code = ("import stimcheck.cli, stimcheck.stimuli as s; "
            "print(s._gate_table.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "0"


# One layer (two sub-rounds) of global draws from RandomSource(2024, seed), as
# recorded from `reference_global_draws`: the words of each sub-round, then
# its (control, target) pairs. A numpy whose PCG64 streams or doubles differ
# changes every global stimulus, witness and seed tag, and fails here first.
GOLDEN_GLOBAL_DRAWS = [
    (1, 11, [[12], [18]], [[], []]),
    (4, 12, [[15, 4, 17, 12], [10, 0, 17, 2]],
     [[(2, 0), (3, 1)], [(3, 1), (0, 2)]]),
    (7, 13, [[9, 10, 12, 7, 21, 9, 6], [13, 18, 20, 6, 3, 0, 3]],
     [[(6, 4), (3, 5), (2, 1)], [(0, 5), (4, 1), (6, 2)]]),
    (16, 14, [[8, 7, 18, 18, 9, 18, 15, 11, 11, 8, 1, 7, 15, 7, 22, 3],
              [11, 22, 21, 11, 0, 18, 23, 4, 23, 5, 22, 12, 7, 16, 18, 2]],
     [[(2, 8), (14, 7), (10, 15), (5, 9), (13, 0), (1, 11), (3, 6), (4, 12)],
      [(0, 7), (3, 11), (1, 15), (6, 5), (4, 9), (8, 13), (10, 12), (14, 2)]]),
]


@pytest.mark.parametrize("n,seed,words,pairs", GOLDEN_GLOBAL_DRAWS,
                         ids=[f"n{case[0]}" for case in GOLDEN_GLOBAL_DRAWS])
def test_global_draws_are_golden(n, seed, words, pairs):
    draws = draw(global_scheme(1), n, [RandomSource(2024, seed)])
    assert draws.choices[0].tolist() == words
    assert [[tuple(pair) for pair in rnd] for rnd in draws.pairs[0].tolist()] == pairs


def reference_global_draws(n: int, layers: int, gen: np.random.Generator):
    """One global stimulus's draws as they are defined, one sub-round at a
    time from 2n + n // 2 doubles u of `gen.random`: n words floor(24 u[q]),
    the qubits sorted by u[n + q] (ties in qubit order) and matched in
    consecutive pairs (a, b), and pair i taken as (b, a) if u[2n + i] < 0.5,
    else (a, b). `draw` must give these values, and leave `gen` where these
    calls leave it."""
    words, pairs = [], []
    for _ in range(2 * layers):
        u = gen.random(2 * n + n // 2).tolist()
        words.append([math.floor(24 * x) for x in u[:n]])
        order = sorted(range(n), key=lambda q: u[n + q])
        pairs.append([(b, a) if coin < 0.5 else (a, b)
                      for a, b, coin in zip(order[::2], order[1::2], u[2 * n:])])
    return words, pairs


def source_pattern(pattern: str, rows: int, seed: int) -> list[RandomSource]:
    """`rows` sources: one shared source, a source per row, or two sources
    interleaved as a, a, b, a, a, b, ..."""
    if pattern == "shared":
        return [RandomSource(seed)] * rows
    if pattern == "separate":
        return [RandomSource(seed, row) for row in range(rows)]
    a, b = RandomSource(seed, 0), RandomSource(seed, 1)
    return [(a, a, b, a)[row % 4] for row in range(rows)]


def buffer_half(source: RandomSource, value: int) -> None:
    """Give `source`'s generator a buffered 32-bit half, as a 32-bit draw
    that took the low half of an output leaves it."""
    state = source.gen.bit_generator.state
    state["has_uint32"], state["uinteger"] = 1, value
    source.gen.bit_generator.state = state


def assert_draws_equal_the_generator_calls(n: int, layers, sources) -> None:
    """`draw` from `sources` against the reference calls on copies of them:
    equal rows, and every generator left in the same state, its 32-bit
    buffer included, with the same next `random()` value."""
    copies = {}
    for source in sources:
        if id(source) not in copies:
            copy = RandomSource(source.seed, *source.stream)
            copy.gen.bit_generator.state = source.gen.bit_generator.state
            copies[id(source)] = copy
    draws = draw(global_scheme(layers), n, sources)
    for row, source in enumerate(sources):
        words, pairs = reference_global_draws(n, layers or n, copies[id(source)].gen)
        assert draws.choices[row].tolist() == words, f"row {row}"
        assert [[tuple(pair) for pair in rnd] for rnd in draws.pairs[row].tolist()] == pairs
    for source in {id(source): source for source in sources}.values():
        expected = copies[id(source)].gen
        assert source.gen.bit_generator.state == expected.bit_generator.state
        assert source.gen.random() == expected.random()


RAW_DRAW_QUBITS = [1, 2, 3, 4, 5, 7, 8, 16, 17]


@pytest.mark.parametrize("n", RAW_DRAW_QUBITS)
@pytest.mark.parametrize("layers", [1, 2, None], ids=["global-1", "global-2", "global-default"])
def test_raw_draws_equal_the_generator_calls(n, layers):
    for rows in (1, 4, 11):
        for pattern in ("shared", "separate", "interleaved"):
            sources = source_pattern(pattern, rows, 330 + n)
            assert_draws_equal_the_generator_calls(n, layers, sources)


@pytest.mark.parametrize("n", RAW_DRAW_QUBITS)
def test_raw_draws_start_from_a_buffered_half(n):
    # the draws take whole 64-bit outputs, so a buffered 32-bit half, as a
    # 32-bit draw leaves it, stays in the generator for the next such draw
    for value in (0, 1 << 31, (1 << 32) - 1):
        for pattern in ("shared", "interleaved"):
            sources = source_pattern(pattern, 4, 340 + n)
            for source in sources:
                buffer_half(source, value)
            assert_draws_equal_the_generator_calls(n, 2, sources)
            for source in sources:
                state = source.gen.bit_generator.state
                assert (state["has_uint32"], state["uinteger"]) == (1, value)
    # a stale half left by a consumed buffer stays in the state
    source = RandomSource(341, n)
    source.gen.integers(0, 5, size=2, dtype=np.uint32)
    assert source.gen.bit_generator.state["has_uint32"] == 0
    assert_draws_equal_the_generator_calls(n, 2, [source] * 3)


# Each class's count over SUB_ROUNDS draws at n = 4 must lie within
# BINOMIAL_SIGMAS standard deviations of its mean: a false alarm in about
# 6e-7 per count, for a seeded draw that does not change between runs.
SUB_ROUNDS = 20_000
BINOMIAL_SIGMAS = 5


def assert_binomial(counts, trials: int, p: float, what: str) -> None:
    mean, sigma = trials * p, math.sqrt(trials * p * (1 - p))
    for key, count in counts.items():
        assert abs(count - mean) <= BINOMIAL_SIGMAS * sigma, (what, key, count, mean)


def test_global_draws_are_uniform_and_independent_at_n4():
    draws = draw(global_scheme(1), 4, [RandomSource(360)] * (SUB_ROUNDS // 2))
    words = draws.choices.reshape(SUB_ROUNDS, 4)
    pairs = draws.pairs.reshape(SUB_ROUNDS, 2, 2).tolist()
    # each of the 24 words has p = 1/24 on each of 4 * SUB_ROUNDS qubits
    counts = dict(enumerate(np.bincount(words.ravel(), minlength=24)))
    assert_binomial(counts, 4 * SUB_ROUNDS, 1 / 24, "word")
    # 3 matchings of 4 qubits times 2 x 2 orientations, each p = 1/12
    cnots = Counter(frozenset(map(tuple, rnd)) for rnd in pairs)
    assert len(cnots) == 12
    assert_binomial(cnots, SUB_ROUNDS, 1 / 12, "cnots")
    # the matching does not depend on the words: qubit 0's word and its
    # partner's lie on the same side of 12 with p = 1/2
    partner = [next(b if a == 0 else a for a, b in rnd if 0 in (a, b)) for rnd in pairs]
    same = np.sum((words[:, 0] < 12) == (words[np.arange(SUB_ROUNDS), partner] < 12))
    assert_binomial({"same side": same}, SUB_ROUNDS, 1 / 2, "partner word")


def assert_global_rows_equal_simulated_preps(n: int, layers: int | None, rows: int) -> None:
    # every row goes through its own tableau, which fixes it up to a global phase
    for seed in range(8 if n <= 8 else 3):
        draws = draw(global_scheme(layers), n, [RandomSource(310, n, seed)] * rows)
        block = draws.prepare()
        assert block.shape == (rows, 1 << n) and block.flags.f_contiguous
        for row in range(rows):
            expected = simulate(draws.prep(row), zero_state(n))
            assert_equal_up_to_phase(block[row], expected, err_msg=f"seed {seed}, row {row}")


GLOBAL_ROW_QUBITS = [1, 2, 3, 5, 8, 10, 12, 16]


@pytest.mark.parametrize("n", GLOBAL_ROW_QUBITS)
@pytest.mark.parametrize("layers", [1, None], ids=["global-1", "global-default"])
def test_one_row_global_block_equals_its_simulated_prep(n, layers):
    assert_global_rows_equal_simulated_preps(n, layers, rows=1)


@pytest.mark.parametrize("n", GLOBAL_ROW_QUBITS)
@pytest.mark.parametrize("layers", [1, None], ids=["global-1", "global-default"])
def test_every_row_of_a_global_block_equals_its_simulated_prep(n, layers):
    assert_global_rows_equal_simulated_preps(n, layers, rows=4)


# The 24 words' updates, then those of X, H and S on their own:
# `write_states`'s table for the circuits below, whose rounds index it.
TEST_TABLE = (*_CONJUGATIONS,
              *(conjugation(base_matrix(kind)) for kind in (GateKind.X, GateKind.H, GateKind.S)))
GATE_WORDS = {GateKind.X: 24, GateKind.H: 25, GateKind.S: 26}
IDENTITY_WORD = CLIFFORD_1Q_WORDS.index(())


def random_clifford_circuit(n: int, length: int, gen: np.random.Generator):
    """X, H, S and CX gates and whole CLIFFORD_1Q_WORDS words in any order,
    each of the five equally likely (no CX at n = 1): the circuit, and the
    same steps as `write_states` rounds over TEST_TABLE, one round per gate
    or word."""
    gates, rounds = [], []
    for _ in range(length):
        kind = int(gen.integers(5 if n > 1 else 4))
        words = [IDENTITY_WORD] * n
        if kind == 4:
            control, target = (int(q) for q in gen.choice(n, size=2, replace=False))
            gates.append(Gate(GateKind.X, target, controls=(control,)))
            rounds.append((words, [(control, target)]))
            continue
        q = int(gen.integers(n))
        if kind == 3:
            word = int(gen.integers(len(CLIFFORD_1Q_WORDS)))
            gates.extend(Gate(g, q) for g in CLIFFORD_1Q_WORDS[word])
            words[q] = word
        else:
            gate_kind = (GateKind.X, GateKind.H, GateKind.S)[kind]
            gates.append(Gate(gate_kind, q))
            words[q] = GATE_WORDS[gate_kind]
        rounds.append((words, []))
    return Circuit(n, tuple(gates)), rounds


def tableau_states(n: int, rows) -> np.ndarray:
    out = np.empty((len(rows), 1 << n), dtype=complex, order="F")
    write_states(n, TEST_TABLE, rows, out)
    return out


def tableau_state(n: int, rounds) -> np.ndarray:
    return tableau_states(n, [rounds])[0]


def random_clifford_circuits():
    gen = np.random.default_rng(311)
    for n in range(1, 7):
        for _ in range(40):
            yield random_clifford_circuit(n, int(gen.integers(0, 8 * n + 1)), gen)


def test_ch_form_matches_the_oracle_on_random_clifford_circuits():
    for circuit, rounds in random_clifford_circuits():
        assert_equal_up_to_phase(tableau_state(circuit.num_qubits, rounds),
                                 build_unitary(circuit)[:, 0], err_msg=emit_qasm(circuit))


def circuits_by_qubit_count(circuits):
    by_n: dict[int, list] = {}
    for circuit, rounds in circuits:
        by_n.setdefault(circuit.num_qubits, []).append(rounds)
    return by_n


def test_a_block_of_ch_forms_equals_its_rows_written_one_at_a_time():
    # a block of rows takes its tables as (rows,) columns, one row as ints
    for n, rows in circuits_by_qubit_count(random_clifford_circuits()).items():
        np.testing.assert_array_equal(tableau_states(n, rows),
                                      [tableau_state(n, rounds) for rounds in rows])


def test_every_line_of_the_tableau_update_and_write_runs():
    # Every line of `conjugation`, `_evolve`, `_reduce`, `_write` and
    # `write_states` runs on the oracle test's circuits: in `_reduce`, a
    # generator left with no X part, a new pivot that clears its bit from
    # the earlier ones, the same in the elimination that solves for s0, and
    # a bit that is no pivot; in `_write`, one row and a block of rows.
    codes = {clifford.conjugation.__code__, clifford._evolve.__code__,
             clifford._reduce.__code__, clifford._write.__code__, write_states.__code__}
    ran = set()

    def trace_lines(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_name, frame.f_lineno))
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code in codes else None

    circuits = list(random_clifford_circuits())
    previous = sys.gettrace()
    sys.settrace(trace_calls)
    try:
        for kind in (GateKind.X, GateKind.H, GateKind.S):
            conjugation(base_matrix(kind))
        for circuit, rounds in circuits:
            tableau_state(circuit.num_qubits, rounds)
        for n, rows in circuits_by_qubit_count(circuits).items():
            tableau_states(n, rows)
    finally:
        sys.settrace(previous)
    lines = {(code.co_name, line) for code in codes for _, _, line in code.co_lines()
             if line is not None and line != code.co_firstlineno}
    assert {name for name, _ in lines} == {"conjugation", "_evolve", "_reduce", "_write",
                                           "write_states"}
    assert lines - ran == set()


def assert_generators_stabilize_their_rows(n: int, rows) -> None:
    """Each generator of each row's tableau, applied to the row as a
    circuit of X, Y and Z gates, gives the row back."""
    states = tableau_states(n, rows)
    kinds = {(1, 0): GateKind.X, (0, 1): GateKind.Z, (1, 1): GateKind.Y}
    for rounds, state in zip(rows, states):
        X, Z, r = clifford._evolve(n, TEST_TABLE, rounds)
        for g in range(n):
            bits = [((X[q] >> g) & 1, (Z[q] >> g) & 1) for q in range(n)]
            pauli = Circuit(n, tuple(Gate(kinds[b], q) for q, b in enumerate(bits) if any(b)))
            sign = -1 if (r >> g) & 1 else 1
            np.testing.assert_allclose(sign * simulate(pauli, state.copy()), state,
                                       rtol=0, atol=1e-12, err_msg=f"generator {g}")


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
def test_every_generator_stabilizes_its_row(n):
    for layers in (1, None):
        draws = draw(global_scheme(layers), n, [RandomSource(314, n)] * 3)
        assert_generators_stabilize_their_rows(
            n, [list(zip(words, pairs)) for words, pairs in
                zip(draws.choices.tolist(), draws.pairs.tolist())])
    # and on circuits of single gates and words in any order
    circuits = circuits_by_qubit_count(random_clifford_circuits())
    if n in circuits:
        assert_generators_stabilize_their_rows(n, circuits[n])


def one_row_global_prepare_peak(n: int, seed: int) -> int:
    """The tracemalloc peak of one one-row global `prepare` at n qubits."""
    draws = draw(global_scheme(), n, [RandomSource(seed)])
    peaks = []

    def prepare():
        # a new thread starts with an empty kernel scratch, so nothing an
        # earlier test left there is reused
        tracemalloc.start()
        try:
            draws.prepare()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    thread = threading.Thread(target=prepare)
    thread.start()
    thread.join()
    return peaks[0]


def test_one_row_global_prepare_peaks_below_two_states_at_20_qubits():
    n = 20
    assert one_row_global_prepare_peak(n, 312) < 2 * (1 << n) * 16


def test_one_row_global_prepare_peaks_below_one_and_a_half_states_at_16_qubits():
    # The block and the write pass's 6 bytes per amplitude, about 1.44
    # states: an n = 16 verify allocates and frees these buffers, and a
    # larger one, freed, moves glibc's heap thresholds under every later
    # allocation of the process.
    n = 16
    assert one_row_global_prepare_peak(n, 315) < 1.5 * (1 << n) * 16


def test_concurrent_one_row_global_prepares_match_sequential_ones():
    # Each prepare writes through arrays of its own, and numpy releases the
    # interpreter lock inside its passes over them.
    n = 12
    draws = [draw(global_scheme(), n, [RandomSource(313, k)]) for k in range(4)]
    expected = [d.prepare() for d in draws]
    results: dict[int, list[np.ndarray]] = {}

    def worker(k: int) -> None:
        results[k] = [draws[k].prepare() for _ in range(5)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(len(draws))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for k, block in enumerate(expected):
        for out in results[k]:
            np.testing.assert_array_equal(out, block)
