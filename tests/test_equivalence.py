import itertools
import math
import threading
import tracemalloc

import numpy as np
import pytest

from stimcheck import kernels, oracle
from stimcheck.bench import BenchmarkConfig
from stimcheck.circuit import Circuit, Gate, GateKind
from stimcheck.equivalence import (
    BLOCK_AMPS,
    EXACT_LIMIT,
    MIN_EPSILON,
    Verdict,
    VerificationConfig,
    trace_fidelity,
    verify,
    verify_exhaustive_local,
)
from stimcheck.library import bundled_corpus, ghz, qft, random_circuit
from stimcheck.mutation import ErrorOption, MutationError, mutate
from stimcheck.simulator import fidelity, simulate, zero_state
from stimcheck.stimuli import (
    CLASSICAL,
    LOCAL,
    RandomSource,
    Stimulus,
    global_scheme,
    local_prep,
    next_stimulus,
)


def cnot_pair() -> tuple[Circuit, Circuit]:
    """Identity (as empty circuit) versus a bare CNOT: classically detectable
    only from basis states with the control set."""
    return Circuit(2), Circuit(2, (Gate(GateKind.X, 0, controls=(1,)),))


def phase_error_pair() -> tuple[Circuit, Circuit]:
    """Identity versus Z on one qubit: invisible to every classical stimulus."""
    return Circuit(2), Circuit(2, (Gate(GateKind.Z, 0),))


class TestVerify:
    def test_equivalent_circuits_exhaust_budget(self):
        spec = ghz(3)
        config = VerificationConfig(LOCAL, max_stimuli=8, seed=1)
        report = verify(spec, spec, config)
        assert report.verdict == Verdict.BUDGET_EXHAUSTED
        assert report.stimuli_used == 8
        assert report.witness is None
        assert report.min_fidelity > 1 - 1e-12

    def test_detects_cnot_with_classical_stimuli(self):
        spec, impl = cnot_pair()
        report = verify(spec, impl, VerificationConfig(CLASSICAL, max_stimuli=32, seed=3))
        assert report.verdict == Verdict.ERROR_DETECTED
        assert report.witness is not None
        # early exit: the failing stimulus is the last one simulated
        assert len(report.fidelities) == report.stimuli_used
        assert 1 - report.fidelities[-1] > 1e-8

    def test_classical_blind_to_phase_error(self):
        spec, impl = phase_error_pair()
        report = verify(spec, impl, VerificationConfig(CLASSICAL, max_stimuli=64, seed=5))
        assert report.verdict == Verdict.BUDGET_EXHAUSTED
        assert report.min_fidelity > 1 - 1e-12

    def test_local_detects_phase_error(self):
        spec, impl = phase_error_pair()
        report = verify(spec, impl, VerificationConfig(LOCAL, max_stimuli=64, seed=5))
        assert report.verdict == Verdict.ERROR_DETECTED

    def test_global_detects_phase_error_quickly(self):
        spec, impl = phase_error_pair()
        report = verify(spec, impl, VerificationConfig(global_scheme(), max_stimuli=16, seed=5))
        assert report.verdict == Verdict.ERROR_DETECTED
        assert report.stimuli_used <= 4

    def test_reports_reproducible_up_to_timing(self):
        spec = random_circuit(4, 30, RandomSource(71))
        impl = random_circuit(4, 30, RandomSource(72))
        config = VerificationConfig(global_scheme(2), max_stimuli=8, seed=9)
        a = verify(spec, impl, config)
        b = verify(spec, impl, config)
        assert a.verdict == b.verdict
        assert a.stimuli_used == b.stimuli_used
        assert a.fidelities == b.fidelities
        if a.witness is not None:
            assert a.witness.prep == b.witness.prep

    def test_qubit_mismatch(self):
        with pytest.raises(ValueError):
            verify(Circuit(2), Circuit(3), VerificationConfig(LOCAL))

    def test_never_flags_truly_equivalent_circuits(self):
        # soundness: no false positives over many random equivalent pairs
        for scheme in (CLASSICAL, LOCAL, global_scheme(2)):
            for k in range(40):
                circuit = random_circuit(
                    3, 24, RandomSource(200 + k), with_rotations=True
                )
                config = VerificationConfig(scheme, max_stimuli=3, seed=k)
                report = verify(circuit, circuit, config)
                assert report.verdict == Verdict.BUDGET_EXHAUSTED, (scheme, k)


class TestVerificationConfig:
    def test_rejects_empty_budget(self):
        with pytest.raises(ValueError):
            VerificationConfig(LOCAL, max_stimuli=0)

    def test_rejects_a_non_integer_or_bool_budget(self):
        for budget in (2.5, 16.0, "16", True, False):
            with pytest.raises(ValueError, match="max_stimuli"):
                VerificationConfig(LOCAL, max_stimuli=budget)

    def test_takes_a_budget_as_operator_index_takes_it(self):
        config = VerificationConfig(LOCAL, max_stimuli=np.int64(3))
        assert config.max_stimuli == 3 and type(config.max_stimuli) is int
        assert verify(ghz(3), ghz(3), config).stimuli_used == 3

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            VerificationConfig(LOCAL, epsilon=0.0)
        with pytest.raises(ValueError):
            VerificationConfig(LOCAL, epsilon=0.7)


ENTRY_POINTS = {
    "VerificationConfig": lambda epsilon: VerificationConfig(LOCAL, epsilon=epsilon),
    "verify_exhaustive_local": lambda epsilon: verify_exhaustive_local(qft(3), qft(3), epsilon),
    "BenchmarkConfig": lambda epsilon: BenchmarkConfig(epsilon=epsilon),
}


@pytest.mark.parametrize("epsilon", [-1.0, 0.0, math.nan, 1e-11, 0.7])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_entry_point_rejects_an_epsilon_outside_its_range(entry, epsilon):
    with pytest.raises(ValueError, match=r"epsilon must lie in \[1e-10, 0\.5\).*rounding"):
        ENTRY_POINTS[entry](epsilon)


def test_an_equivalent_rewrite_passes_at_the_least_epsilon():
    # at epsilon = 1e-15 every scheme flagged this pair at its first stimulus
    spec = qft(6)
    impl = spec.prepended(Gate(GateKind.H, 1), Gate(GateKind.H, 1))
    for scheme in (CLASSICAL, LOCAL, global_scheme()):
        report = verify(spec, impl, VerificationConfig(scheme, epsilon=MIN_EPSILON))
        assert report.verdict is Verdict.BUDGET_EXHAUSTED, scheme
    report = verify_exhaustive_local(qft(3), qft(3), MIN_EPSILON)
    assert report.verdict is Verdict.BUDGET_EXHAUSTED


class TestExhaustiveLocal:
    def test_equivalent_pair_uses_all_36(self):
        # HH = identity, so both circuits are the identity on 2 qubits
        spec = Circuit(2, (Gate(GateKind.H, 0), Gate(GateKind.H, 0)))
        report = verify_exhaustive_local(spec, Circuit(2))
        assert report.verdict == Verdict.BUDGET_EXHAUSTED
        assert report.stimuli_used == 36
        assert report.min_fidelity > 1 - 1e-12

    def test_detects_cnot(self):
        spec, impl = cnot_pair()
        report = verify_exhaustive_local(spec, impl)
        assert report.verdict == Verdict.ERROR_DETECTED
        assert report.stimuli_used < 36

    def test_detects_phase_error(self):
        spec, impl = phase_error_pair()
        report = verify_exhaustive_local(spec, impl)
        assert report.verdict == Verdict.ERROR_DETECTED

    def test_exhaustive_limit(self):
        with pytest.raises(ValueError):
            verify_exhaustive_local(Circuit(9), Circuit(9))

    def test_witness_tags_are_stable(self):
        spec, impl = cnot_pair()
        a = verify_exhaustive_local(spec, impl)
        b = verify_exhaustive_local(spec, impl)
        assert a.witness.seed_tag == b.witness.seed_tag
        assert a.witness.seed_tag.startswith("exhaustive:")


def test_min_fidelity_of_empty_report():
    spec = ghz(2)
    report = verify(spec, spec, VerificationConfig(LOCAL, max_stimuli=1, seed=0))
    assert math.isclose(report.min_fidelity, 1.0)


def _inserted(circuit: Circuit, insertions: list[tuple[int, list[Gate]]]) -> Circuit:
    """The circuit with each gate list spliced in before gate `position`."""
    gates = list(circuit.gates)
    for position, extra in sorted(insertions, key=lambda item: -item[0]):
        gates[position:position] = extra
    return Circuit(circuit.num_qubits, tuple(gates))


def _inverse_pairs(qubits: list[int], theta: float) -> list[list[Gate]]:
    """H.H, S.SDG, T.TDG and rx(theta).rx(-theta), one on each given qubit."""
    a, b, c, d = qubits
    return [
        [Gate(GateKind.H, a), Gate(GateKind.H, a)],
        [Gate(GateKind.S, b), Gate(GateKind.SDG, b)],
        [Gate(GateKind.T, c), Gate(GateKind.TDG, c)],
        [Gate(GateKind.RX, d, params=(theta,)), Gate(GateKind.RX, d, params=(-theta,))],
    ]


# n = 12 is past the oracle's range, so only these identities vouch for the
# verdict there. Fusion multiplies each inserted pair into one 2x2 that is
# the identity only up to rounding, so the fidelity bound checks it too.
@pytest.mark.parametrize("n", [4, 8, 12])
@pytest.mark.parametrize("scheme", [CLASSICAL, LOCAL, global_scheme()], ids=lambda s: s.kind)
def test_identities_inserted_into_a_circuit_never_flag(n, scheme):
    rng = RandomSource(77, n)
    spec = random_circuit(n, 5 * n, rng.derive(0), with_rotations=True, with_toffoli=True)

    def position() -> int:
        return int(rng.gen.integers(0, spec.gate_count + 1))

    def qubit() -> int:
        return int(rng.gen.integers(0, n))

    q = qubit()
    # applied Z, Y, X: the operator X.Y.Z is the global phase i
    phase = _inserted(spec, [(position(), [Gate(GateKind.Z, q), Gate(GateKind.Y, q),
                                           Gate(GateKind.X, q)])])
    theta = float(rng.gen.uniform(-math.pi, math.pi))
    pairs = _inverse_pairs([qubit() for _ in range(4)], theta)
    undone = _inserted(spec, [(position(), pair) for pair in pairs])
    for impl in (spec, phase, undone):
        report = verify(spec, impl, VerificationConfig(scheme, max_stimuli=8, seed=n))
        assert report.verdict is Verdict.BUDGET_EXHAUSTED
        assert min(report.fidelities) >= 1 - 1e-12


def _reference_run(spec, impl, stimuli, epsilon):
    """Stimulus by stimulus: simulate the preparation circuit, then spec and
    impl, and stop at the first fidelity below 1 - epsilon."""
    n = spec.num_qubits
    fidelities = []
    for stimulus in stimuli:
        prepared = simulate(stimulus.prep, zero_state(n))
        fidelities.append(fidelity(simulate(spec, prepared), simulate(impl, prepared)))
        if 1.0 - fidelities[-1] > epsilon:
            return Verdict.ERROR_DETECTED, fidelities, stimulus
    return Verdict.BUDGET_EXHAUSTED, fidelities, None


def _assert_same_report(report, reference):
    verdict, fidelities, witness = reference
    assert report.verdict is verdict
    assert report.stimuli_used == len(fidelities)
    assert report.fidelities == pytest.approx(fidelities, abs=1e-12)
    assert report.witness == witness


def _corpus_pairs(sizes):
    """Each bundled circuit with one mutant per error option, and with an
    equivalent copy (inserted H.H) that runs every budget to the end."""
    for ci, circuit in enumerate(bundled_corpus(sizes)):
        yield circuit, circuit.prepended(Gate(GateKind.H, 1), Gate(GateKind.H, 1))
        for oi, option in enumerate(ErrorOption):
            try:
                yield circuit, mutate(circuit, option, RandomSource(500, ci, oi))
            except MutationError:
                continue


@pytest.mark.parametrize("n", [4, 6, 8])
def test_verify_matches_a_stimulus_by_stimulus_loop(n):
    for k, (spec, impl) in enumerate(_corpus_pairs((n,))):
        for scheme in (CLASSICAL, LOCAL, global_scheme()):
            config = VerificationConfig(scheme, max_stimuli=20, seed=k)
            rng = RandomSource(config.seed)
            stimuli = (next_stimulus(scheme, n, rng, seed_tag=f"{config.seed}:{j}")
                       for j in range(config.max_stimuli))
            reference = _reference_run(spec, impl, stimuli, config.epsilon)
            _assert_same_report(verify(spec, impl, config), reference)


def test_global_verify_at_16_qubits_matches_a_stimulus_by_stimulus_loop():
    # n = 16 is the first width where every block is one row, which the
    # tableau prepares; the reference simulates each preparation circuit.
    n = 16
    spec = qft(n)
    rng = RandomSource(78)
    positions = rng.gen.integers(0, spec.gate_count + 1, size=4)
    pairs = _inverse_pairs([int(q) for q in rng.gen.integers(0, n, size=4)], 0.4)
    rewrite = _inserted(spec, [(int(k), pair) for k, pair in zip(positions, pairs)])
    # its fidelity (about 0.25) depends on the stimulus, unlike an inserted
    # Pauli's 0, so a wrongly prepared stimulus shows in the fidelities
    mutant = mutate(spec, ErrorOption.REMOVE_1, RandomSource(80))
    for impl, verdict in ((rewrite, Verdict.BUDGET_EXHAUSTED), (mutant, Verdict.ERROR_DETECTED)):
        config = VerificationConfig(global_scheme(), max_stimuli=2, seed=16)
        rng = RandomSource(config.seed)
        stimuli = (next_stimulus(config.scheme, n, rng, seed_tag=f"{config.seed}:{j}")
                   for j in range(config.max_stimuli))
        report = verify(spec, impl, config)
        assert report.verdict is verdict
        _assert_same_report(report, _reference_run(spec, impl, stimuli, config.epsilon))


def _first_verify_peak(spec, scheme) -> int:
    """The tracemalloc peak of one verify of `spec` against itself with one
    stimulus, run in a new thread, whose kernel scratch starts empty."""
    peaks = []

    def run():
        tracemalloc.start()
        try:
            verify(spec, spec, VerificationConfig(scheme, max_stimuli=1))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    return peaks[0]


def test_global_verify_peaks_no_higher_than_a_local_one_at_18_qubits():
    # A verify holds two blocks plus the kernel scratch, whatever the scheme:
    # a global row's write pass frees its arrays before the kernel scratch grows.
    for scheme in (LOCAL, global_scheme()):  # one-time allocations stay out
        verify(ghz(4), ghz(4), VerificationConfig(scheme, max_stimuli=1))
    n = 18
    spec = ghz(n)
    local = _first_verify_peak(spec, LOCAL)
    global_ = _first_verify_peak(spec, global_scheme())
    assert global_ - local < 0.1 * (1 << n) * 16, (global_, local)


# The reference loop is slow, so past this many stimuli it checks a prefix.
REFERENCE_PREFIX = 6 ** 4


@pytest.mark.parametrize("n", [4, 6])
def test_exhaustive_local_matches_a_stimulus_by_stimulus_loop(n):
    for spec, impl in itertools.islice(_corpus_pairs((n,)), 1, None):
        report = verify_exhaustive_local(spec, impl)
        stimuli = (Stimulus(local_prep(choice), LOCAL,
                            "exhaustive:" + "".join(map(str, choice)))
                   for choice in itertools.product(range(6), repeat=n))
        reference = _reference_run(spec, impl, itertools.islice(stimuli, REFERENCE_PREFIX), 1e-8)
        if report.stimuli_used <= REFERENCE_PREFIX:
            _assert_same_report(report, reference)
        else:
            assert reference[0] is Verdict.BUDGET_EXHAUSTED
            assert report.fidelities[:REFERENCE_PREFIX] == pytest.approx(reference[1], abs=1e-12)


@pytest.mark.parametrize("n,budget,max_rows", [(12, 64, 16), (16, 4, 1)])
def test_blocks_hold_at_most_2_to_the_16_amplitudes(monkeypatch, n, budget, max_rows):
    shapes = set()
    apply_2x2 = kernels.apply_2x2

    def recording(amps, *args):
        shapes.add(amps.shape)
        apply_2x2(amps, *args)

    monkeypatch.setattr(kernels, "apply_2x2", recording)
    spec = ghz(n)
    report = verify(spec, spec, VerificationConfig(LOCAL, max_stimuli=budget, seed=1))
    assert report.stimuli_used == budget
    rows = {shape[0] for shape in shapes}
    assert all(shape[1] == 1 << n for shape in shapes)
    assert max(rows) == max_rows


@pytest.mark.parametrize("scheme", [CLASSICAL, LOCAL, global_scheme()], ids=lambda s: s.kind)
def test_an_equivalent_pair_runs_its_16_stimuli_in_two_blocks(scheme):
    spec = qft(4)
    impl = spec.prepended(Gate(GateKind.H, 1), Gate(GateKind.H, 1))
    report = verify(spec, impl, VerificationConfig(scheme, max_stimuli=16, seed=4))
    assert report.verdict is Verdict.BUDGET_EXHAUSTED
    assert report.blocks == (1, 15)


@pytest.mark.parametrize("n,budget,blocks", [
    (12, 64, (1, 16, 16, 16, 15)),  # 16 rows of 2^12 fill BLOCK_AMPS
    (16, 4, (1, 1, 1, 1)),
])
def test_blocks_grow_sixteenfold_up_to_2_to_the_16_amplitudes(n, budget, blocks):
    spec = ghz(n)
    report = verify(spec, spec, VerificationConfig(LOCAL, max_stimuli=budget, seed=1))
    assert report.stimuli_used == budget
    assert report.blocks == blocks


def test_a_detection_at_the_first_stimulus_runs_one_row():
    # X flips a classical stimulus's bit, so every stimulus detects it
    report = verify(Circuit(3), Circuit(3, (Gate(GateKind.X, 0),)),
                    VerificationConfig(CLASSICAL, max_stimuli=16, seed=0))
    assert report.stimuli_used == 1
    assert report.blocks == (1,)


@pytest.mark.parametrize("pair,scheme", [(cnot_pair, CLASSICAL), (phase_error_pair, LOCAL)],
                         ids=["cnot-classical", "phase-local"])
def test_a_detection_in_the_second_block_ends_it(pair, scheme):
    spec, impl = pair()
    for seed in range(100):  # the first seed whose detection lands in stimuli 2-16
        config = VerificationConfig(scheme, max_stimuli=16, seed=seed)
        report = verify(spec, impl, config)
        if 2 <= report.stimuli_used <= 16:
            break
    assert 2 <= report.stimuli_used <= 16, "no seed below 100 detects in the second block"
    assert report.blocks == (1, 15)
    rng = RandomSource(seed)
    stimuli = (next_stimulus(scheme, 2, rng, seed_tag=f"{seed}:{j}") for j in range(16))
    _assert_same_report(report, _reference_run(spec, impl, stimuli, config.epsilon))


def test_a_detection_at_stimulus_k_prepares_fewer_than_16k_rows():
    # Each bundled-corpus mutant under each scheme, with the default budget:
    # a detection runs the budget's blocks (1, 15) up to the detecting one.
    # Blocks growing fourfold would keep the bound too (fewer than 4k rows),
    # so the blocks themselves are checked as well.
    later = 0
    for ci, spec in enumerate(bundled_corpus()):
        for oi, option in enumerate(ErrorOption):
            try:
                impl = mutate(spec, option, RandomSource(501, ci, oi))
            except MutationError:
                continue
            for scheme in (CLASSICAL, LOCAL, global_scheme()):
                report = verify(spec, impl, VerificationConfig(scheme, seed=ci))
                if report.verdict is not Verdict.ERROR_DETECTED:
                    continue
                assert sum(report.blocks) < 16 * report.stimuli_used, report.blocks
                assert report.blocks == ((1,) if report.stimuli_used == 1 else (1, 15))
                later += report.stimuli_used > 1
    assert later > 0, "no mutant is detected after the first stimulus"


def test_exhaustive_local_blocks_cover_every_stimulus():
    spec = qft(4)
    report = verify_exhaustive_local(spec, spec.prepended(Gate(GateKind.H, 1),
                                                          Gate(GateKind.H, 1)))
    assert report.verdict is Verdict.BUDGET_EXHAUSTED
    assert sum(report.blocks) == report.stimuli_used == 6 ** 4
    assert report.blocks == (1, 16, 256, 1023)


def _assert_trace_matches_oracle(spec, impl):
    u, v = oracle.build_unitary(spec), oracle.build_unitary(impl)
    result = trace_fidelity(spec, impl)
    assert [type(f) for f in result] == [float, float]
    assert result == pytest.approx((oracle.ent_fidelity(u, v), oracle.avg_fidelity(u, v)),
                                   abs=1e-12, rel=0)


@pytest.mark.parametrize("n", range(1, 7))
def test_trace_fidelity_matches_the_oracle_on_corpus_mutants(n):
    checked = 0
    for ci, circuit in enumerate(bundled_corpus((n,))):
        for oi, option in enumerate(ErrorOption):
            for k in range(2):
                try:
                    mutant = mutate(circuit, option, RandomSource(600, ci, oi, k))
                except MutationError:
                    continue
                _assert_trace_matches_oracle(circuit, mutant)
                checked += 1
    assert checked >= 18


@pytest.mark.parametrize("n", range(1, 7))
def test_trace_fidelity_matches_the_oracle_on_random_circuits(n):
    for k in range(3):
        a = random_circuit(n, 6 * n, RandomSource(601, n, k), with_rotations=True)
        b = random_circuit(n, 6 * n, RandomSource(602, n, k), with_rotations=True)
        # a small rotation keeps the fidelity away from 0 and 1
        near = a.appended(Gate(GateKind.RY, n - 1, params=(0.3 + 0.2 * k,)))
        for impl in (a, b, near):
            _assert_trace_matches_oracle(a, impl)


@pytest.mark.parametrize("n,rows", [(8, 256), (9, 128)])
def test_trace_fidelity_blocks_hold_at_most_2_to_the_16_amplitudes(monkeypatch, n, rows):
    shapes = set()
    apply_2x2 = kernels.apply_2x2

    def recording(amps, *args):
        shapes.add(amps.shape)
        apply_2x2(amps, *args)

    monkeypatch.setattr(kernels, "apply_2x2", recording)
    trace_fidelity(ghz(n), ghz(n))
    assert shapes == {(rows, 1 << n)}
    assert rows << n <= BLOCK_AMPS


def test_trace_fidelity_over_several_blocks():
    n = 9
    assert (1 << (2 * n)) // BLOCK_AMPS == 4
    spec = random_circuit(n, 5 * n, RandomSource(603), with_rotations=True, with_toffoli=True)
    undone = _inserted(spec, [(spec.gate_count // 2, [Gate(GateKind.H, 4), Gate(GateKind.H, 4)])])
    for impl in (spec, undone):
        assert trace_fidelity(spec, impl) == pytest.approx((1.0, 1.0), abs=1e-12, rel=0)
    # tr(U^dag Z U) = tr(Z) = 0
    flipped = ghz(n).appended(Gate(GateKind.Z, 4))
    dim = 1 << n
    assert trace_fidelity(ghz(n), flipped) == pytest.approx((0.0, 1.0 / (dim + 1)),
                                                            abs=1e-12, rel=0)


def test_trace_fidelity_limits():
    with pytest.raises(ValueError, match="qubit counts differ"):
        trace_fidelity(ghz(3), ghz(4))
    with pytest.raises(ValueError, match=f"exact-check limit of {EXACT_LIMIT}"):
        trace_fidelity(ghz(EXACT_LIMIT + 1), ghz(EXACT_LIMIT + 1))
