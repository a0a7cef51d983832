import math

import numpy as np
import pytest

from stimcheck.circuit import GateKind
from stimcheck.library import bundled_corpus, ghz, qft, random_circuit
from stimcheck.oracle import build_unitary
from stimcheck.simulator import simulate, zero_state
from stimcheck.stimuli import RandomSource


def test_ghz_state():
    out = simulate(ghz(3), zero_state(3))
    expected = np.zeros(8, dtype=complex)
    expected[0] = expected[7] = 1 / math.sqrt(2)
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_ghz_gate_count():
    assert ghz(5).gate_count == 5  # one H plus a CNOT chain


def test_qft_matches_dft_matrix():
    for n in (1, 2, 3, 4):
        dim = 1 << n
        omega = np.exp(2j * math.pi / dim)
        expected = np.array(
            [[omega ** (j * k) for k in range(dim)] for j in range(dim)]
        ) / math.sqrt(dim)
        u = build_unitary(qft(n))
        np.testing.assert_allclose(u, expected, atol=1e-10)


def test_random_circuit_gate_count_and_determinism():
    a = random_circuit(4, 25, RandomSource(9), with_rotations=True, with_toffoli=True)
    b = random_circuit(4, 25, RandomSource(9), with_rotations=True, with_toffoli=True)
    assert a.gate_count == 25
    assert a.gates == b.gates


def test_random_circuit_without_rotations_is_discrete():
    circuit = random_circuit(4, 50, RandomSource(10))
    for g in circuit.gates:
        assert g.kind.num_params == 0
        assert len(g.controls) <= 1


def test_random_circuit_single_qubit_has_no_cx():
    circuit = random_circuit(1, 30, RandomSource(11))
    assert all(not g.controls for g in circuit.gates)


def test_bundled_corpus_shape():
    corpus = bundled_corpus()
    assert len(corpus) == 9
    assert [c.num_qubits for c in corpus] == [4, 4, 4, 6, 6, 6, 8, 8, 8]
    names = {c.name for c in corpus}
    assert "ghz_4" in names and "qft_6" in names and "random_8" in names


def test_bundled_corpus_reproducible():
    a = bundled_corpus(seed=7)
    b = bundled_corpus(seed=7)
    assert all(x.gates == y.gates for x, y in zip(a, b))


@pytest.mark.parametrize("n", [2, 3])
def test_qft_uses_only_supported_kinds(n):
    for g in qft(n).gates:
        assert g.kind in (GateKind.H, GateKind.PHASE, GateKind.X)
