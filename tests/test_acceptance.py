"""End-to-end acceptance suite.

Each test checks one headline property of the verifier at its stated
tolerance and prints a single PASS/FAIL line with the measured numbers, so a
plain ``pytest -v tests/test_acceptance.py -s`` doubles as a results report.

Fault model used throughout: a "bit-flip error on q0" is an X gate acting on
the realization's input (prepended in gate order, V = U·(X⊗I)), and likewise
for phase flips; this is the placement that classical stimuli can never
distinguish when the error is a Z.
"""
from __future__ import annotations

import math
import statistics
import time

import numpy as np

from stimcheck.bench import BenchmarkConfig, run_benchmark_circuits
from stimcheck.circuit import Circuit, Gate, GateKind
from stimcheck.equivalence import Verdict, VerificationConfig, verify, verify_exhaustive_local
from stimcheck.library import bundled_corpus, random_circuit
from stimcheck.mutation import ErrorOption, MutationError, is_functional_mutation, mutate
from stimcheck.oracle import avg_fidelity, build_unitary, ent_fidelity, ent_fidelity_via_omega
from stimcheck.qasm import parse_qasm, emit_qasm
from stimcheck.simulator import simulate, zero_state
from stimcheck.stimuli import (
    CLASSICAL,
    LOCAL,
    RandomSource,
    draw,
    global_scheme,
    next_stimulus,
)


def _verdict_line(name: str, ok: bool, detail: str) -> None:
    print(f"\n{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _with_input_error(circuit: Circuit, kind: GateKind, qubit: int = 0) -> Circuit:
    return circuit.prepended(Gate(kind, qubit))


def _outcome_fidelities(diff: np.ndarray, layers: int, seed: int, count: int) -> np.ndarray:
    """|<g|diff|g>|^2 for the global stimuli g drawn from RandomSource(seed, k),
    k < count, prepared as one block."""
    n = diff.shape[0].bit_length() - 1
    sources = [RandomSource(seed, k) for k in range(count)]
    block = draw(global_scheme(layers), n, sources).prepare()
    overlaps = np.einsum("ki,ki->k", block.conj(), block @ diff.T)
    return np.abs(overlaps) ** 2


# --------------------------------------------------------------------------
# 1. A bit flip on an input qubit makes every classical stimulus produce an
#    orthogonal output pair: detection on the very first stimulus with
#    fidelity numerically zero (< 1e-20; floating point cannot promise a
#    bitwise 0.0 after ~100 gate applications).
def test_classical_stimuli_detect_input_bit_flip_immediately():
    start = time.perf_counter()
    cases = 0
    worst_fidelity = 0.0
    for k in range(100):
        n = (4, 8, 12)[k % 3]
        base = random_circuit(n, 3 * n, RandomSource(10_000 + k), with_rotations=True)
        impl = _with_input_error(base, GateKind.X)
        report = verify(base, impl, VerificationConfig(CLASSICAL, max_stimuli=16, seed=k))
        if (report.verdict is Verdict.ERROR_DETECTED
                and report.stimuli_used == 1
                and report.fidelities[0] < 1e-20):
            cases += 1
        worst_fidelity = max(worst_fidelity, report.fidelities[0])
    elapsed = time.perf_counter() - start
    ok = cases == 100 and elapsed < 10.0
    _verdict_line(
        "classical-detects-bit-flip-on-first-stimulus",
        ok,
        f"{cases}/100 immediate detections, worst fidelity {worst_fidelity:.3g} "
        f"(tolerance < 1e-20), {elapsed:.2f} s (< 10 s)",
    )


# --------------------------------------------------------------------------
# 2. A phase flip on an input qubit is invisible to every classical
#    stimulus: 0% detections and all fidelities within 1e-10 of 1.
def test_classical_stimuli_are_blind_to_input_phase_flip():
    start = time.perf_counter()
    detections = 0
    worst_gap = 0.0
    for k in range(100):
        n = (4, 8, 12)[k % 3]
        base = random_circuit(n, 3 * n, RandomSource(20_000 + k), with_rotations=True)
        impl = _with_input_error(base, GateKind.Z)
        report = verify(base, impl, VerificationConfig(CLASSICAL, max_stimuli=16, seed=k))
        if report.verdict is Verdict.ERROR_DETECTED:
            detections += 1
        worst_gap = max(worst_gap, max(1.0 - f for f in report.fidelities))
    elapsed = time.perf_counter() - start
    ok = detections == 0 and worst_gap < 1e-10 and elapsed < 10.0
    _verdict_line(
        "classical-blind-to-phase-flip",
        ok,
        f"{detections}/100 detections (required 0), worst 1-F = {worst_gap:.3g} "
        f"(tolerance 1e-10), {elapsed:.2f} s (< 10 s)",
    )


# --------------------------------------------------------------------------
# 3. A single local stimulus detects a one-qubit X or Z input error with
#    probability exactly 2/3 (four of the six single-qubit states move to an
#    orthogonal state, two are fixed points): empirical rate 0.6667 +- 0.03
#    over >= 3000 independent first draws per error kind.
def test_local_first_stimulus_detection_rate_is_two_thirds():
    start = time.perf_counter()
    draws = 3000
    rates = {}
    for kind, seed_base in ((GateKind.X, 30_000), (GateKind.Z, 40_000)):
        hits = 0
        for k in range(draws):
            base = random_circuit(2, 6, RandomSource(seed_base, k, 0))
            impl = _with_input_error(base, kind)
            stim = next_stimulus(LOCAL, 2, RandomSource(seed_base, k, 1))
            prepared = simulate(stim.prep, zero_state(2))
            a = simulate(base, prepared)
            b = simulate(impl, prepared)
            if 1.0 - abs(np.vdot(a, b)) ** 2 > 1e-8:
                hits += 1
        rates[kind.name] = hits / draws
    elapsed = time.perf_counter() - start
    ok = all(abs(rate - 2 / 3) <= 0.03 for rate in rates.values()) and elapsed < 60.0
    _verdict_line(
        "local-detection-rate-two-thirds",
        ok,
        f"X: {rates['X']:.4f}, Z: {rates['Z']:.4f} (target 0.6667 +- 0.03, "
        f"{draws} draws each), {elapsed:.1f} s (< 60 s)",
    )


# --------------------------------------------------------------------------
# 4. Exhaustive local stimuli are a complete test set: any functionally
#    different pair of 2-qubit circuits (oracle F_avg < 1 - 1e-10) is caught
#    within the 36 product stimuli.
def test_exhaustive_local_stimuli_are_complete_at_two_qubits():
    start = time.perf_counter()
    detected = 0
    pairs = 0
    k = 0
    options = list(ErrorOption)[:6]  # remove/insert; Toffolis need 3 qubits
    while pairs < 200:
        base = random_circuit(2, 12, RandomSource(50_000, k, 0))
        option = options[k % len(options)]
        k += 1
        try:
            mutant = mutate(base, option, RandomSource(50_000, k, 1))
        except MutationError:
            continue
        if not is_functional_mutation(base, mutant):
            continue
        pairs += 1
        report = verify_exhaustive_local(base, mutant)
        if report.verdict is Verdict.ERROR_DETECTED:
            detected += 1
    elapsed = time.perf_counter() - start
    ok = detected == 200 and elapsed < 30.0
    _verdict_line(
        "exhaustive-local-complete-n2",
        ok,
        f"{detected}/200 nonequivalent pairs detected within 36 stimuli, "
        f"{elapsed:.1f} s (< 30 s)",
    )


# --------------------------------------------------------------------------
# 5. The two independent fidelity routes agree: the trace formula for the
#    entanglement fidelity matches the state-level maximally-entangled
#    cross-check within 1e-9, and the average gate fidelity of any unitary
#    with itself is 1 within 1e-12.
def test_fidelity_trace_and_state_routes_agree():
    start = time.perf_counter()
    worst_route_gap = 0.0
    worst_self_gap = 0.0
    for k in range(100):
        n = 2 + k % 3
        spec = random_circuit(n, 20, RandomSource(60_000, k, 0), with_rotations=True)
        impl = random_circuit(n, 20, RandomSource(60_000, k, 1), with_rotations=True)
        u, v = build_unitary(spec), build_unitary(impl)
        worst_route_gap = max(
            worst_route_gap, abs(ent_fidelity_via_omega(spec, impl) - ent_fidelity(u, v))
        )
        worst_self_gap = max(worst_self_gap, abs(avg_fidelity(u, u) - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst_route_gap < 1e-9 and worst_self_gap < 1e-12
    _verdict_line(
        "fidelity-routes-agree",
        ok,
        f"worst route gap {worst_route_gap:.3g} (tolerance 1e-9), worst self "
        f"F_avg gap {worst_self_gap:.3g} (tolerance 1e-12), {elapsed:.1f} s",
    )


# --------------------------------------------------------------------------
# 6. A single-qubit Pauli input error at n = 4 has average gate fidelity
#    exactly 1/17 (the Pauli is traceless), so a single global stimulus
#    should fail to see it with frequency at most about 1/17: empirical
#    non-detection over 10^4 draws <= 1/17 + 0.01.
def test_global_stimulus_rarely_misses_a_pauli_error():
    start = time.perf_counter()
    n = 4
    base = random_circuit(n, 3 * n, RandomSource(70_000), with_rotations=True)
    impl = _with_input_error(base, GateKind.Y)
    f_avg = avg_fidelity(build_unitary(base), build_unitary(impl))
    f_avg_gap = abs(f_avg - 1 / 17)

    diff = build_unitary(base).conj().T @ build_unitary(impl)
    draws = 10_000
    misses = int(np.count_nonzero(1.0 - _outcome_fidelities(diff, n, 70_001, draws) <= 1e-8))
    miss_rate = misses / draws
    elapsed = time.perf_counter() - start
    ok = f_avg_gap < 1e-12 and miss_rate <= 1 / 17 + 0.01 and elapsed < 120.0
    _verdict_line(
        "global-miss-rate-bounded-by-avg-fidelity",
        ok,
        f"F_avg = {f_avg:.12f} (1/17 within {f_avg_gap:.3g}, tolerance 1e-12), "
        f"non-detection {miss_rate:.4f} <= {1 / 17 + 0.01:.4f} over {draws} draws, "
        f"{elapsed:.1f} s (< 120 s)",
    )


# --------------------------------------------------------------------------
# 7. The layered random Clifford ensemble approximates the Haar average: at
#    n = 4 with l = n layers, the mean outcome fidelity over 10^4 global
#    stimuli is within 0.02 of the average gate fidelity for 10 random
#    faulty pairs, and the gap shrinks as the layer count grows from 1 to 2n.
def test_global_ensemble_mean_matches_average_gate_fidelity():
    start = time.perf_counter()
    n, draws = 4, 10_000

    def mean_fidelity(diff: np.ndarray, layers: int, seed: int, count: int) -> float:
        return float(np.mean(_outcome_fidelities(diff, layers, seed, count)))

    worst_gap = 0.0
    for k in range(10):
        base = random_circuit(n, 3 * n, RandomSource(80_000, k, 0), with_rotations=True)
        mutant = mutate(base, list(ErrorOption)[k % 8], RandomSource(80_000, k, 1))
        diff = build_unitary(base).conj().T @ build_unitary(mutant)
        f_avg = avg_fidelity(build_unitary(base), build_unitary(mutant))
        empirical = mean_fidelity(diff, n, 80_100 + k, draws)
        worst_gap = max(worst_gap, abs(empirical - f_avg))

    # layer sweep on the first pair, documented in the PASS line
    base = random_circuit(n, 3 * n, RandomSource(80_000, 0, 0), with_rotations=True)
    mutant = mutate(base, ErrorOption.REMOVE_1, RandomSource(80_000, 0, 1))
    diff = build_unitary(base).conj().T @ build_unitary(mutant)
    f_avg = avg_fidelity(build_unitary(base), build_unitary(mutant))
    sweep = {
        layers: abs(mean_fidelity(diff, layers, 80_200 + layers, 2_000) - f_avg)
        for layers in (1, 2, 4, 8)
    }
    elapsed = time.perf_counter() - start
    ok = worst_gap <= 0.02 and sweep[1] >= sweep[8] and elapsed < 600.0
    sweep_text = ", ".join(f"l={layer}: {gap:.4f}" for layer, gap in sweep.items())
    _verdict_line(
        "global-ensemble-approximates-haar-average",
        ok,
        f"worst |mean F - F_avg| = {worst_gap:.4f} over 10 pairs "
        f"(tolerance 0.02, {draws} draws, l = {n}); layer sweep [{sweep_text}]; "
        f"{elapsed:.0f} s",
    )


# --------------------------------------------------------------------------
# 8. The full benchmark over the bundled corpus finishes quickly, emits the
#    fixed CSV schema, and shows the expected qualitative behavior: global
#    stimuli detect at least as often as local, local at least as often as
#    classical (within one std-dev of the aggregated rates); global needs
#    the fewest stimuli; and per-stimulus simulation time grows from
#    classical to local to global.
def test_benchmark_orderings_over_bundled_corpus(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "bench.csv"
    config = BenchmarkConfig(
        schemes=(CLASSICAL, LOCAL, global_scheme()),
        error_options=tuple(ErrorOption),
        error_seeds=10,
        stimuli_seeds=3,
        max_stimuli=16,
        output_path=str(out),
    )
    rows = run_benchmark_circuits(bundled_corpus(), config)
    elapsed = time.perf_counter() - start

    header = out.read_text().splitlines()[0].split(",")
    schema_ok = header == [
        "circuit", "n", "scheme", "error_option",
        "p_s", "p_s_std", "avg_stimuli", "avg_stimuli_std",
        "avg_time", "avg_time_std", "total", "skipped", "equiv_filtered",
    ]

    def aggregate(scheme: str, attr: str, option: str | None = None) -> float:
        values = [
            getattr(r, attr) for r in rows
            if r.scheme == scheme and (option is None or r.error_option == option)
        ]
        values = [v for v in values if not math.isnan(v)]
        return statistics.fmean(values)

    rate_ok = True
    rate_notes = []
    for option in (o.label for o in ErrorOption):
        p = {s: aggregate(s, "p_s", option) for s in ("classical", "local", "global")}
        tol = max(aggregate(s, "p_s_std", option) for s in p)
        if not (p["global"] >= p["local"] - tol and p["local"] >= p["classical"] - tol):
            rate_ok = False
            rate_notes.append(f"{option}: {p}")

    s_global = aggregate("global", "avg_stimuli")
    s_local = aggregate("local", "avg_stimuli")
    t = {s: aggregate(s, "avg_time") for s in ("classical", "local", "global")}
    stimuli_ok = s_global <= s_local
    time_ok = t["global"] >= t["local"] >= t["classical"]

    ok = (schema_ok and rate_ok and stimuli_ok and time_ok and elapsed < 1800.0)
    _verdict_line(
        "benchmark-structure-and-orderings",
        ok,
        f"schema {'ok' if schema_ok else 'BAD'}; detection ordering "
        f"{'ok' if rate_ok else 'violated: ' + '; '.join(rate_notes)}; "
        f"avg stimuli global {s_global:.2f} <= local {s_local:.2f}: {stimuli_ok}; "
        f"per-stimulus time classical {t['classical']:.6f} <= local "
        f"{t['local']:.6f} <= global {t['global']:.6f}: {time_ok}; "
        f"{elapsed:.0f} s (< 1800 s)",
    )


# --------------------------------------------------------------------------
# 9. The QASM emitter and parser are exact structural inverses over 1000
#    random circuits, and a hand-written two-gate snippet parses to exactly
#    the documented circuit.
def test_qasm_round_trip_is_structural_identity():
    start = time.perf_counter()
    failures = 0
    rng = RandomSource(90_000)
    for k in range(1000):
        n = 1 + k % 10
        m = int(rng.derive(k, 0).gen.integers(0, 301))
        circuit = random_circuit(n, m, rng.derive(k, 1), with_rotations=True,
                                 with_toffoli=True)
        recovered = parse_qasm(emit_qasm(circuit))
        if (recovered.num_qubits, recovered.gates) != (circuit.num_qubits, circuit.gates):
            failures += 1

    snippet = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[1];\ncx q[1],q[0];\n"
    parsed = parse_qasm(snippet)
    snippet_ok = parsed.num_qubits == 2 and parsed.gates == (
        Gate(GateKind.H, 1),
        Gate(GateKind.X, 0, controls=(1,)),
    )
    elapsed = time.perf_counter() - start
    ok = failures == 0 and snippet_ok
    _verdict_line(
        "qasm-round-trip",
        ok,
        f"{1000 - failures}/1000 structural round-trips, two-gate snippet "
        f"{'ok' if snippet_ok else 'BAD'}, {elapsed:.1f} s",
    )


# --------------------------------------------------------------------------
# 10. The stride-based simulator agrees with the independently built full
#     unitary on 500 random circuits: every amplitude of the simulated
#     |0...0> evolution matches the unitary's first column within 1e-10.
def test_simulator_agrees_with_matrix_oracle():
    start = time.perf_counter()
    worst = 0.0
    for k in range(500):
        n = 1 + k % 6
        circuit = random_circuit(n, 30, RandomSource(95_000, k), with_rotations=True,
                                 with_toffoli=True)
        simulated = simulate(circuit, zero_state(n))
        reference = build_unitary(circuit)[:, 0]
        worst = max(worst, float(np.max(np.abs(simulated - reference))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10
    _verdict_line(
        "simulator-matches-matrix-oracle",
        ok,
        f"500/500 circuits, worst amplitude deviation {worst:.3g} "
        f"(tolerance 1e-10), {elapsed:.1f} s",
    )
