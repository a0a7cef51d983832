import math

import numpy as np
import pytest

from stimcheck.circuit import Circuit, Gate, GateKind
from stimcheck.library import ghz, qft, random_circuit
from stimcheck.oracle import (
    ORACLE_LIMIT,
    avg_fidelity,
    build_unitary,
    ent_fidelity,
    ent_fidelity_via_omega,
    gate_unitary,
    mean_local_fidelity,
    omega_state,
)
from stimcheck.simulator import basis_state, simulate, zero_state
from stimcheck.stimuli import RandomSource

SQRT2_INV = 1 / math.sqrt(2)


class TestGateUnitary:
    def test_h_on_q1_of_two(self):
        u = gate_unitary(Gate(GateKind.H, 1), 2)
        expected = SQRT2_INV * np.array(
            [[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, -1, 0], [0, 1, 0, -1]]
        )
        np.testing.assert_allclose(u, expected, atol=1e-15)

    def test_cnot_control_q1_target_q0(self):
        u = gate_unitary(Gate(GateKind.X, 0, controls=(1,)), 2)
        expected = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
        np.testing.assert_array_equal(u, expected)

    def test_toffoli_permutes_two_states_only(self):
        u = gate_unitary(Gate(GateKind.X, 0, controls=(1, 2)), 3)
        expected = np.eye(8, dtype=complex)
        expected[[6, 7]] = expected[[7, 6]]
        np.testing.assert_array_equal(u, expected)

    def test_matches_column_by_column_simulation(self):
        # dual route: the explicit matrix must reproduce the simulator on
        # every basis state, for random controlled gates
        rng = RandomSource(100)
        for k in range(30):
            circuit = random_circuit(3, 1, rng.derive(k), with_rotations=True,
                                     with_toffoli=True)
            gate = circuit.gates[0]
            u = gate_unitary(gate, 3)
            for j in range(8):
                out = simulate(Circuit(3, (gate,)), basis_state(3, j))
                np.testing.assert_allclose(u[:, j], out, atol=1e-12)


class TestBuildUnitary:
    def test_empty_circuit_is_identity(self):
        np.testing.assert_array_equal(build_unitary(Circuit(2)), np.eye(4))

    def test_h_then_cnot(self):
        circuit = Circuit(2, (Gate(GateKind.H, 1), Gate(GateKind.X, 0, controls=(1,))))
        expected = SQRT2_INV * np.array(
            [[1, 0, 1, 0], [0, 1, 0, 1], [0, 1, 0, -1], [1, 0, -1, 0]], dtype=complex
        )
        np.testing.assert_allclose(build_unitary(circuit), expected, atol=1e-15)

    def test_unitarity_of_random_circuits(self):
        for k in range(10):
            u = build_unitary(random_circuit(4, 30, RandomSource(200 + k),
                                             with_rotations=True, with_toffoli=True))
            np.testing.assert_allclose(u.conj().T @ u, np.eye(16), atol=1e-12)

    def test_limit_enforced(self):
        with pytest.raises(ValueError):
            build_unitary(Circuit(ORACLE_LIMIT + 1))


class TestFidelityMeasures:
    def test_equal_unitaries(self):
        u = build_unitary(qft(3))
        assert abs(ent_fidelity(u, u) - 1.0) < 1e-12
        assert abs(avg_fidelity(u, u) - 1.0) < 1e-12

    def test_global_phase_invariance(self):
        u = build_unitary(ghz(3))
        v = np.exp(0.7j) * u
        assert abs(avg_fidelity(u, v) - 1.0) < 1e-12

    def test_identity_vs_z_single_qubit(self):
        # tr(Z) = 0, so F_ent = 0 and F_avg = 1/3
        i2, z = np.eye(2, dtype=complex), np.diag([1.0, -1.0]).astype(complex)
        assert ent_fidelity(i2, z) == 0.0
        assert abs(avg_fidelity(i2, z) - 1 / 3) < 1e-15

    def test_identity_vs_s_single_qubit(self):
        # |tr(S)|^2 = |1+i|^2 = 2, so F_ent = 1/2 and F_avg = 2/3
        i2 = np.eye(2, dtype=complex)
        s = np.diag([1.0, 1.0j])
        assert abs(ent_fidelity(i2, s) - 0.5) < 1e-15
        assert abs(avg_fidelity(i2, s) - 2 / 3) < 1e-15

    def test_avg_is_affine_in_ent(self):
        rng = RandomSource(300)
        for k in range(10):
            u = build_unitary(random_circuit(3, 20, rng.derive(k, 0), with_rotations=True))
            v = build_unitary(random_circuit(3, 20, rng.derive(k, 1), with_rotations=True))
            fe, fa = ent_fidelity(u, v), avg_fidelity(u, v)
            assert abs(fa - (8 * fe + 1) / 9) < 1e-12

    def test_avg_one_iff_equivalent(self):
        # phase-equivalent pair: RZ(t) vs PHASE(t) differ by a global phase only
        theta = 0.37
        u = build_unitary(Circuit(1, (Gate(GateKind.RZ, 0, params=(theta,)),)))
        v = build_unitary(Circuit(1, (Gate(GateKind.PHASE, 0, params=(theta,)),)))
        assert avg_fidelity(u, v) > 1 - 1e-12
        # and a genuinely different pair stays strictly below 1
        w = build_unitary(Circuit(1, (Gate(GateKind.PHASE, 0, params=(theta + 1e-3,)),)))
        assert avg_fidelity(u, w) < 1 - 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ent_fidelity(np.eye(2), np.eye(4))


class TestOmegaRoute:
    def test_omega_state_shape_and_norm(self):
        omega = omega_state(2)
        assert omega.shape == (16,)
        assert abs(np.linalg.norm(omega) - 1.0) < 1e-15
        # nonzero only at indices (j << n) | j
        nz = np.flatnonzero(np.abs(omega) > 1e-12)
        assert list(nz) == [0, 5, 10, 15]

    def test_matches_trace_route(self):
        rng = RandomSource(400)
        for k in range(15):
            n = 2 + k % 3
            spec = random_circuit(n, 20, rng.derive(k, 0), with_rotations=True)
            impl = random_circuit(n, 20, rng.derive(k, 1), with_rotations=True)
            via_omega = ent_fidelity_via_omega(spec, impl)
            via_trace = ent_fidelity(build_unitary(spec), build_unitary(impl))
            assert abs(via_omega - via_trace) < 1e-10, k

    def test_qubit_mismatch(self):
        with pytest.raises(ValueError):
            ent_fidelity_via_omega(Circuit(2), Circuit(3))


class TestMeanLocalFidelity:
    def test_equivalent_circuits(self):
        spec = qft(2)
        assert abs(mean_local_fidelity(spec, spec) - 1.0) < 1e-12

    def test_identity_vs_z_single_qubit(self):
        # Z preserves |0>,|1> and flips the other four states to their
        # antipodes: mean = (2*1 + 4*0)/6 = 1/3
        spec = Circuit(1)
        impl = Circuit(1, (Gate(GateKind.Z, 0),))
        assert abs(mean_local_fidelity(spec, impl) - 1 / 3) < 1e-12

    def test_identity_vs_x_single_qubit(self):
        # X flips |0>,|1> and |up>,|down>, fixes |+>,|->: mean = 2/6 = 1/3
        spec = Circuit(1)
        impl = Circuit(1, (Gate(GateKind.X, 0),))
        assert abs(mean_local_fidelity(spec, impl) - 1 / 3) < 1e-12

    def test_matches_direct_enumeration(self):
        from itertools import product

        from stimcheck.stimuli import LOCAL_PREP_WORDS

        spec = random_circuit(2, 15, RandomSource(500), with_rotations=True)
        impl = random_circuit(2, 15, RandomSource(501), with_rotations=True)
        total = 0.0
        for choice in product(range(6), repeat=2):
            gates = []
            for q in range(2):
                gates.extend(Gate(kind, q) for kind in LOCAL_PREP_WORDS[choice[q]])
            prepared = simulate(Circuit(2, tuple(gates)), zero_state(2))
            a = simulate(spec, prepared)
            b = simulate(impl, prepared)
            total += abs(np.vdot(a, b)) ** 2
        assert abs(mean_local_fidelity(spec, impl) - total / 36) < 1e-10

    def test_lower_bound_on_detection(self):
        # sampling local stimuli cannot beat the exact mean by much:
        # empirical detection frequency tracks 1 - mean fidelity
        spec = Circuit(1)
        impl = Circuit(1, (Gate(GateKind.Z, 0),))
        mean = mean_local_fidelity(spec, impl)
        rng = RandomSource(600)
        hits = 0
        draws = 3000
        for k in range(draws):
            choice = int(rng.gen.integers(0, 6))
            from stimcheck.stimuli import LOCAL_PREP_WORDS

            prep = Circuit(1, tuple(Gate(kind, 0) for kind in LOCAL_PREP_WORDS[choice]))
            prepared = simulate(prep, zero_state(1))
            a = simulate(spec, prepared)
            b = simulate(impl, prepared)
            if 1 - abs(np.vdot(a, b)) ** 2 > 1e-8:
                hits += 1
        # detection probability is exactly 1 - mean = 2/3 here; allow 4 sigma
        assert abs(mean - 1 / 3) < 1e-12
        assert abs(hits / draws - 2 / 3) < 4 * math.sqrt((2 / 3) * (1 / 3) / draws)
