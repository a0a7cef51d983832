import math

import pytest

from stimcheck import oracle
from stimcheck.bench import BenchmarkConfig, run_benchmark_circuits
from stimcheck.circuit import Circuit, Gate, GateKind
from stimcheck.library import bundled_corpus, ghz, qft, random_circuit
from stimcheck.mutation import (
    INSERT_KINDS,
    TOFFOLI_COUNT,
    ErrorOption,
    MutationError,
    is_functional_mutation,
    mutate,
)
from stimcheck.qasm import emit_qasm
from stimcheck.stimuli import CLASSICAL, RandomSource

ALL_OPTIONS = list(ErrorOption)


def test_eight_options_with_expected_labels():
    assert [o.label for o in ALL_OPTIONS] == [
        "remove_1", "remove_2", "remove_3",
        "insert_1", "insert_2", "insert_3",
        "toffoli_prefix", "toffoli_suffix",
    ]


@pytest.mark.parametrize("option", ALL_OPTIONS, ids=lambda o: o.label)
def test_gate_count_arithmetic(option):
    base = qft(4)
    mutated = mutate(base, option, RandomSource(1))
    if option.action == "remove":
        assert mutated.gate_count == base.gate_count - option.count
    elif option.action == "insert":
        assert mutated.gate_count == base.gate_count + option.count
    else:
        assert mutated.gate_count == base.gate_count + TOFFOLI_COUNT


@pytest.mark.parametrize("option", ALL_OPTIONS, ids=lambda o: o.label)
def test_input_circuit_unchanged(option):
    base = qft(4)
    before = emit_qasm(base)
    mutate(base, option, RandomSource(2))
    assert emit_qasm(base) == before


@pytest.mark.parametrize("option", ALL_OPTIONS, ids=lambda o: o.label)
def test_determinism(option):
    base = ghz(4)
    a = mutate(base, option, RandomSource(3, 0))
    b = mutate(base, option, RandomSource(3, 0))
    assert a.gates == b.gates


def test_remove_keeps_original_gate_order():
    base = qft(3)
    mutated = mutate(base, ErrorOption.REMOVE_2, RandomSource(4))
    it = iter(base.gates)
    for g in mutated.gates:
        # every surviving gate appears in the original, in order
        while next(it) != g:
            pass


def test_insert_adds_single_qubit_gates_from_pool():
    base = ghz(5)
    mutated = mutate(base, ErrorOption.INSERT_3, RandomSource(5))
    originals = list(base.gates)
    added = [g for g in mutated.gates if not (g in originals and not originals.remove(g))]
    assert len(added) == 3
    for g in added:
        assert g.kind in INSERT_KINDS and not g.controls


def test_insert_into_empty_circuit():
    mutated = mutate(Circuit(2), ErrorOption.INSERT_1, RandomSource(6))
    assert mutated.gate_count == 1


def test_toffoli_prefix_and_suffix_placement():
    base = ghz(3)
    prefix = mutate(base, ErrorOption.TOFFOLI_PREFIX, RandomSource(7))
    suffix = mutate(base, ErrorOption.TOFFOLI_SUFFIX, RandomSource(7))
    assert prefix.gates[TOFFOLI_COUNT:] == base.gates
    assert suffix.gates[:base.gate_count] == base.gates
    for g in prefix.gates[:TOFFOLI_COUNT]:
        assert g.kind == GateKind.X and len(g.controls) == 2


def test_remove_from_too_small_circuit():
    with pytest.raises(MutationError):
        mutate(Circuit(2, (Gate(GateKind.H, 0),)), ErrorOption.REMOVE_2, RandomSource(8))


def test_toffoli_needs_three_qubits():
    with pytest.raises(MutationError):
        mutate(ghz(2), ErrorOption.TOFFOLI_PREFIX, RandomSource(9))


def test_mutation_error_is_value_error():
    assert issubclass(MutationError, ValueError)


class TestIsFunctionalMutation:
    def test_identical_circuits_are_not_functional(self):
        base = qft(3)
        assert is_functional_mutation(base, base) is False

    def test_cancelling_pair_removal_is_not_functional(self):
        # removing both H gates of an HH pair leaves the identity behind
        spec = Circuit(1, (Gate(GateKind.H, 0), Gate(GateKind.H, 0)))
        assert is_functional_mutation(spec, Circuit(1)) is False

    def test_single_gate_change_is_functional(self):
        spec = ghz(3)
        mutated = mutate(spec, ErrorOption.INSERT_1, RandomSource(10))
        # inserted X/Y/Z/H/S/T on some qubit always changes a GHZ preparation
        assert is_functional_mutation(spec, mutated) is True

    def test_qubit_count_change_counts_as_functional(self):
        assert is_functional_mutation(Circuit(2), Circuit(3)) is True

    def test_too_large_returns_none(self):
        spec = ghz(7)
        assert is_functional_mutation(spec, spec.appended(Gate(GateKind.X, 0))) is None

    def test_most_random_mutations_are_functional(self):
        spec = random_circuit(4, 40, RandomSource(11))
        outcomes = [
            is_functional_mutation(spec, mutate(spec, option, RandomSource(12, k)))
            for option in ALL_OPTIONS
            for k in range(5)
        ]
        assert all(o in (True, False) for o in outcomes)
        assert sum(outcomes) >= 0.8 * len(outcomes)

    @pytest.mark.parametrize("n", [4, 6])
    def test_verdicts_are_python_bools(self, n):
        for ci, circuit in enumerate(bundled_corpus((n,))):
            for oi, option in enumerate(ALL_OPTIONS):
                mutant = mutate(circuit, option, RandomSource(13, ci, oi))
                assert type(is_functional_mutation(circuit, mutant)) is bool

    def test_equivalent_corpus_mutant_is_filtered_by_the_benchmark(self):
        # random_4 with two inserted gates that cancel: its fidelity rounds to
        # just below 1, and `bench` tests the verdict with `is False`
        circuits = bundled_corpus((4,))
        spec = circuits[2]
        option_index = ALL_OPTIONS.index(ErrorOption.INSERT_2)
        mutant = mutate(spec, ErrorOption.INSERT_2, RandomSource(13, 2, option_index, 0))
        f = oracle.avg_fidelity(oracle.build_unitary(spec), oracle.build_unitary(mutant))
        assert 1.0 - 1e-12 < f < 1.0
        assert is_functional_mutation(spec, mutant) is False
        config = BenchmarkConfig(schemes=(CLASSICAL,), error_seeds=1, stimuli_seeds=1,
                                 max_stimuli=2, master_seed=13)
        rows = run_benchmark_circuits(circuits, config)
        row = next(r for r in rows if (r.circuit, r.error_option) == ("random_4", "insert_2"))
        assert row.equiv_filtered == 1
        assert math.isnan(row.p_s)
