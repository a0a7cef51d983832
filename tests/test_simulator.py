import dataclasses
import itertools
import math
import threading

import numpy as np
import pytest

from stimcheck import kernels, simulator
from stimcheck.circuit import Circuit, Gate, GateKind
from stimcheck.library import bundled_corpus, qft, random_circuit
from stimcheck.oracle import build_unitary, gate_unitary
from stimcheck.simulator import (
    apply_gate,
    basis_state,
    compile_ops,
    fidelity,
    run_ops,
    simulate,
    zero_state,
)
from stimcheck.stimuli import RandomSource, global_scheme, next_stimulus

SQRT2_INV = 1 / math.sqrt(2)


def example3_circuit() -> Circuit:
    return Circuit(2, (Gate(GateKind.H, 1), Gate(GateKind.X, 0, controls=(1,))))


def test_zero_state_one_qubit():
    np.testing.assert_array_equal(zero_state(1), [1, 0])


def test_zero_state_two_qubits():
    np.testing.assert_array_equal(zero_state(2), [1, 0, 0, 0])


def test_zero_state_three_qubits():
    state = zero_state(3)
    assert state.shape == (8,)
    assert state.dtype == complex
    assert state[0] == 1


def test_zero_state_respects_maximum():
    with pytest.raises(ValueError):
        zero_state(25)


def test_h_on_q1_of_00():
    state = apply_gate(zero_state(2), Gate(GateKind.H, 1))
    np.testing.assert_allclose(state, [SQRT2_INV, 0, SQRT2_INV, 0])


def test_cnot_entangles():
    state = np.array([SQRT2_INV, 0, SQRT2_INV, 0], dtype=complex)
    assert apply_gate(state, Gate(GateKind.X, 0, controls=(1,))) is state
    np.testing.assert_allclose(state, [SQRT2_INV, 0, 0, SQRT2_INV])


def test_x_flips_single_qubit():
    state = apply_gate(zero_state(1), Gate(GateKind.X, 0))
    np.testing.assert_array_equal(state, [0, 1])


def test_apply_gate_out_of_range():
    with pytest.raises(ValueError, match="out of range for 1 qubits"):
        apply_gate(zero_state(1), Gate(GateKind.X, 1))
    # a state's qubit count is log2 of its length, so other lengths are rejected
    for length in (0, 3, 6):
        with pytest.raises(ValueError, match=f"state length {length} is not a power of two"):
            apply_gate(np.ones(length, dtype=complex), Gate(GateKind.X, 0))


def test_simulate_example3():
    out = simulate(example3_circuit(), zero_state(2))
    np.testing.assert_allclose(out, [SQRT2_INV, 0, 0, SQRT2_INV])


def test_simulate_empty_circuit_keeps_state():
    initial = simulate(example3_circuit(), zero_state(2))
    out = simulate(Circuit(2), initial)
    np.testing.assert_array_equal(out, initial)
    assert out is not initial


def test_simulate_qubit_mismatch():
    with pytest.raises(ValueError):
        simulate(Circuit(3), zero_state(2))
    with pytest.raises(ValueError, match="circuit has 2 qubits but state has 6 amplitudes"):
        simulate(Circuit(2), np.ones(6, dtype=complex))


@pytest.mark.parametrize("initial", [np.array([1.0, 0.0]), np.array([1, 0])],
                         ids=["float", "int"])
def test_simulate_copies_a_real_state_into_a_complex_one(initial):
    # S then H on |0> gives |+>, which a real array can hold only after S
    out = simulate(Circuit(1, (Gate(GateKind.S, 0), Gate(GateKind.H, 0))), initial)
    assert out.dtype == complex
    np.testing.assert_allclose(out, [SQRT2_INV, SQRT2_INV], rtol=0, atol=1e-15)
    np.testing.assert_array_equal(initial, [1, 0])


@pytest.mark.parametrize("dtype", [float, np.int64])
def test_apply_gate_rejects_a_non_complex_state(dtype):
    state = np.array([1, 0], dtype=dtype)
    with pytest.raises(ValueError, match=f"state dtype {np.dtype(dtype)} is not complex"):
        apply_gate(state, Gate(GateKind.H, 0))
    np.testing.assert_array_equal(state, [1, 0])


def test_fidelity_self_is_one():
    state = simulate(example3_circuit(), zero_state(2))
    assert abs(fidelity(state, state) - 1.0) < 1e-12


def test_fidelity_orthogonal_basis_states():
    assert fidelity(basis_state(1, 0), basis_state(1, 1)) == 0.0


def test_fidelity_of_00_with_bell_state():
    bell = np.array([SQRT2_INV, 0, 0, SQRT2_INV], dtype=complex)
    # independent check: direct inner product on the raw arrays
    expected = abs(np.vdot(zero_state(2), bell)) ** 2
    assert math.isclose(fidelity(zero_state(2), bell), expected)
    assert math.isclose(fidelity(zero_state(2), bell), 0.5)


def test_fidelity_symmetry_and_phase_invariance():
    rng = RandomSource(17)
    for k in range(20):
        a = simulate(random_circuit(3, 20, rng.derive(k, 0)), zero_state(3))
        b = simulate(random_circuit(3, 20, rng.derive(k, 1)), zero_state(3))
        assert fidelity(a, b) == fidelity(b, a)
        theta = float(rng.gen.uniform(0, 2 * math.pi))
        rotated = np.exp(1j * theta) * a
        assert abs(fidelity(rotated, b) - fidelity(a, b)) < 1e-12


def test_fidelity_qubit_mismatch():
    with pytest.raises(ValueError, match="state lengths differ: 2 vs 4"):
        fidelity(zero_state(1), zero_state(2))


def test_norm_preserved_by_random_circuits():
    for k in range(30):
        circuit = random_circuit(5, 60, RandomSource(700 + k), with_rotations=True,
                                 with_toffoli=True)
        out = simulate(circuit, zero_state(5))
        assert abs(np.linalg.norm(out) - 1.0) < 1e-10


def test_simulator_matches_oracle_unitary():
    for k in range(20):
        n = 2 + k % 5
        circuit = random_circuit(n, 30, RandomSource(900 + k), with_rotations=True,
                                 with_toffoli=True)
        unitary = build_unitary(circuit)
        initial = simulate(random_circuit(n, 10, RandomSource(1000 + k)), zero_state(n))
        out = simulate(circuit, initial)
        np.testing.assert_allclose(out, unitary @ initial, atol=1e-10)


# Every gate kind, plus matrices whose exact zeros select the kernel's
# diagonal (rx(0), u3(0, phi, lam)) or anti-diagonal (y) update with entries
# other than 1.
KERNEL_CASES = [
    *((kind, ()) for kind in GateKind if kind.num_params == 0),
    (GateKind.RX, (0.7,)),
    (GateKind.RX, (0.0,)),
    (GateKind.RY, (0.7,)),
    (GateKind.RZ, (0.7,)),
    (GateKind.PHASE, (0.7,)),
    (GateKind.U3, (0.3, 0.2, 0.1)),
    (GateKind.U3, (0.0, 0.2, 0.1)),
]


@pytest.mark.parametrize("kind,params", KERNEL_CASES,
                         ids=["-".join([k.value, *map(str, p)]) for k, p in KERNEL_CASES])
def test_apply_gate_matches_oracle_for_every_target_and_control_set(kind, params):
    n = 4
    rng = np.random.default_rng(2024)
    state = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    state /= np.linalg.norm(state)
    # every target with every control set: none, one below or above it, two
    # both below, both above or on either side of it, and all other qubits
    for target in range(n):
        others = [q for q in range(n) if q != target]
        for k in range(n):
            for controls in itertools.combinations(others, k):
                gate = Gate(kind, target, controls, params)
                out = apply_gate(state.copy(), gate)
                np.testing.assert_allclose(out, gate_unitary(gate, n) @ state,
                                           atol=1e-12, err_msg=str(gate))


@pytest.mark.parametrize("kind,params", KERNEL_CASES,
                         ids=["-".join([k.value, *map(str, p)]) for k, p in KERNEL_CASES])
def test_a_block_update_equals_its_rows_updated_one_at_a_time(kind, params):
    # a 15-row block, column-major as verify runs it, against each row as
    # a state of its own, which the test above checks against the oracle
    n, rows = 4, 15
    rng = np.random.default_rng(2025)
    block = np.asfortranarray(rng.standard_normal((rows, 1 << n))
                              + 1j * rng.standard_normal((rows, 1 << n)))
    for target in range(n):
        others = [q for q in range(n) if q != target]
        for k in range(n):
            for controls in itertools.combinations(others, k):
                gate = Gate(kind, target, controls, params)
                out = block.copy(order="F")
                kernels.apply_2x2(out, n, target, sum(1 << c for c in controls),
                                  *gate.matrix().ravel())
                expected = [apply_gate(row.copy(), gate) for row in block]
                np.testing.assert_allclose(out, expected, atol=1e-12, err_msg=str(gate))


def test_the_kernel_rejects_a_layout_it_would_update_a_copy_of():
    n = 4
    rng = np.random.default_rng(2026)
    row_major = rng.standard_normal((15, 1 << n)) + 1j * rng.standard_normal((15, 1 << n))
    for amps in (row_major, np.asfortranarray(row_major)[0]):
        before = amps.copy()
        with pytest.raises(ValueError, match="rows innermost"):
            kernels.apply_2x2(amps, n, 1, 0b100, 0j, 1 + 0j, 1 + 0j, 0j)
        np.testing.assert_array_equal(amps, before)


def circuit_with_runs(num_qubits: int, seed: int) -> Circuit:
    """Random gates with rotations and Toffolis, each followed by a run of up
    to four single-qubit gates on one random qubit, which compile_ops fuses."""
    rng = RandomSource(seed)
    base = random_circuit(num_qubits, 30, rng.derive(0), with_rotations=True,
                          with_toffoli=True)
    # on one qubit random_circuit draws single-qubit gates only
    run_gates = random_circuit(1, 4 * 30, rng.derive(1), with_rotations=True).gates
    gates = []
    for k, gate in enumerate(base.gates):
        gates.append(gate)
        q = int(rng.gen.integers(0, num_qubits))
        length = int(rng.gen.integers(0, 5))
        gates.extend(dataclasses.replace(g, target=q) for g in run_gates[4 * k:4 * k + length])
    return Circuit(num_qubits, tuple(gates))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_simulate_matches_gate_by_gate_and_oracle(n):
    for k in range(5):
        circuit = circuit_with_runs(n, 40 + 10 * n + k)
        assert len(compile_ops(circuit)) < circuit.gate_count
        initial = simulate(random_circuit(n, 10, RandomSource(1100 + k)), zero_state(n))
        folded = initial.copy()
        for gate in circuit.gates:
            apply_gate(folded, gate)
        out = simulate(circuit, initial)
        np.testing.assert_allclose(out, folded, atol=1e-12)
        np.testing.assert_allclose(out, build_unitary(circuit) @ initial,
                                   atol=1e-12)


DIAGONAL_GATES = (
    Gate(GateKind.Z, 0), Gate(GateKind.S, 0), Gate(GateKind.TDG, 0),
    Gate(GateKind.RZ, 0, params=(0.7,)), Gate(GateKind.PHASE, 0, params=(-1.3,)),
)


def circuit_with_cx_sandwiches(num_qubits: int, seed: int) -> Circuit:
    """Random gates, each followed by CX(c,t).D.CX(c,t), where D is a run of
    diagonal gates on t and on c, and sometimes a run of H on t, which keeps
    the CNOTs from cancelling."""
    rng = RandomSource(seed)
    base = random_circuit(num_qubits, 20, rng.derive(0), with_rotations=True,
                          with_toffoli=num_qubits >= 3)
    gates = []
    for gate in base.gates:
        gates.append(gate)
        c, t = (int(q) for q in rng.gen.permutation(num_qubits)[:2])
        middle = [dataclasses.replace(DIAGONAL_GATES[int(k)], target=q)
                  for k, q in zip(rng.gen.integers(0, len(DIAGONAL_GATES), size=3), (t, c, t))]
        if rng.gen.random() < 0.25:
            middle.append(Gate(GateKind.H, t))
        cx = Gate(GateKind.X, t, controls=(c,))
        gates += [cx, *middle, cx]
    return Circuit(num_qubits, tuple(gates))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_cancelled_cnot_pairs_match_gate_by_gate_and_oracle(n):
    for circuit in (qft(n), *(circuit_with_cx_sandwiches(n, 60 + 10 * n + k) for k in range(4))):
        ops = compile_ops(circuit)
        assert sum(1 for op in ops if op[1]) < sum(1 for g in circuit.gates if g.controls)
        initial = simulate(random_circuit(n, 10, RandomSource(1300 + n)), zero_state(n))
        folded = initial.copy()
        for gate in circuit.gates:
            apply_gate(folded, gate)
        out = simulate(circuit, initial)
        np.testing.assert_allclose(out, folded, atol=1e-12)
        np.testing.assert_allclose(out, build_unitary(circuit) @ initial,
                                   atol=1e-12)


def test_qft_compiles_to_under_half_as_many_ops_as_gates():
    circuit = qft(16)
    assert len(compile_ops(circuit)) < circuit.gate_count / 2


def is_identity_op(op) -> bool:
    return op[2:] == (1, 0, 0, 1)


# Circuits whose pending diagonals multiply out to the exact identity: a
# QFT's u1(-t/2).u1(t/2) after a cancelled CX pair, and X.X around a CNOT.
IDENTITY_CIRCUITS = [*bundled_corpus(), *(qft(n) for n in (2, 5, 16)),
                     Circuit(3, (Gate(GateKind.X, 0), Gate(GateKind.X, 2, controls=(1,)),
                                 Gate(GateKind.X, 0), Gate(GateKind.H, 2)))]


@pytest.mark.parametrize("circuit", IDENTITY_CIRCUITS, ids=lambda c: c.name or "x-x")
def test_no_compiled_op_is_the_identity(circuit):
    assert not any(is_identity_op(op) for op in compile_ops(circuit))


def test_dropped_identity_ops_leave_every_state_bitwise_equal(monkeypatch):
    dropped = 0
    for k, circuit in enumerate(IDENTITY_CIRCUITS):
        n = circuit.num_qubits
        ops = compile_ops(circuit)
        with monkeypatch.context() as patch:
            # an identity that no op equals keeps every op, as before the filter
            patch.setattr(simulator, "_IDENTITY", None)
            kept = compile_ops(circuit)
        assert [op for op in kept if not is_identity_op(op)] == list(ops)
        dropped += len(kept) - len(ops)
        rng = np.random.default_rng(k)
        block = rng.standard_normal((3, 1 << n)) + 1j * rng.standard_normal((3, 1 << n))
        without, with_identities = block.copy(order="F"), block.copy(order="F")
        run_ops(without, n, ops)
        run_ops(with_identities, n, kept)
        np.testing.assert_array_equal(without, with_identities, err_msg=circuit.name)
    assert dropped > 0


def test_qft16_compiles_to_178_ops():
    # 280 before its 102 exact identities were dropped
    assert len(compile_ops(qft(16))) == 178


def test_simulate_leaves_initial_unmutated():
    initial = simulate(random_circuit(4, 10, RandomSource(5)), zero_state(4))
    before = initial.copy()
    out = simulate(circuit_with_runs(4, 6), initial)
    np.testing.assert_array_equal(initial, before)
    assert not np.shares_memory(out, initial)


def test_global_stimulus_fuses_into_under_half_as_many_kernel_calls(monkeypatch):
    n = 16
    prep = next_stimulus(global_scheme(n), n, RandomSource(8)).prep
    calls = 0
    apply_2x2 = kernels.apply_2x2

    def counting(*args):
        nonlocal calls
        calls += 1
        apply_2x2(*args)

    monkeypatch.setattr(kernels, "apply_2x2", counting)
    out = simulate(prep, zero_state(n))
    assert calls == len(compile_ops(prep))
    assert calls < prep.gate_count / 2
    assert abs(np.linalg.norm(out) - 1.0) < 1e-10


def test_concurrent_simulations_match_sequential_ones():
    # The numpy kernel's scratch buffers are per thread, and numpy releases
    # the interpreter lock inside updates of this size.
    n = 12
    circuits = [random_circuit(n, 60, RandomSource(1200 + k), with_rotations=True)
                for k in range(4)]
    expected = [simulate(c, zero_state(n)) for c in circuits]
    results: dict[int, list[np.ndarray]] = {}

    def worker(k: int) -> None:
        results[k] = [simulate(circuits[k], zero_state(n)) for _ in range(5)]

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(len(circuits))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    for k, amps in enumerate(expected):
        for out in results[k]:
            np.testing.assert_array_equal(out, amps)
