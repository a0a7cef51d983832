import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stimcheck.circuit import Circuit, Gate, GateKind, base_matrix

SQRT2_INV = 1 / math.sqrt(2)


def test_pauli_x_matrix():
    assert np.array_equal(base_matrix(GateKind.X), [[0, 1], [1, 0]])


def test_hadamard_matrix():
    np.testing.assert_allclose(
        base_matrix(GateKind.H), np.array([[1, 1], [1, -1]]) * SQRT2_INV
    )


def test_identity_matrix():
    assert np.array_equal(base_matrix(GateKind.I), np.eye(2))


def test_s_matrix():
    assert np.array_equal(base_matrix(GateKind.S), [[1, 0], [0, 1j]])


def test_y_z_matrices():
    assert np.array_equal(base_matrix(GateKind.Y), [[0, -1j], [1j, 0]])
    assert np.array_equal(base_matrix(GateKind.Z), [[1, 0], [0, -1]])


def test_s_sdg_t_tdg_inverses():
    for kind, dagger in [(GateKind.S, GateKind.SDG), (GateKind.T, GateKind.TDG)]:
        product = base_matrix(kind) @ base_matrix(dagger)
        np.testing.assert_allclose(product, np.eye(2), atol=1e-15)


angles = st.floats(min_value=-4 * math.pi, max_value=4 * math.pi,
                   allow_nan=False, allow_infinity=False)


@given(st.sampled_from(list(GateKind)), angles, angles, angles)
def test_unitarity(kind, a, b, c):
    params = (a, b, c)[: kind.num_params]
    m = base_matrix(kind, params)
    np.testing.assert_allclose(m.conj().T @ m, np.eye(2), atol=1e-12)


def test_base_matrix_rejects_wrong_param_count():
    with pytest.raises(ValueError):
        base_matrix(GateKind.RX)
    with pytest.raises(ValueError):
        base_matrix(GateKind.H, (0.1,))


def test_base_matrix_rejects_non_finite():
    with pytest.raises(ValueError):
        base_matrix(GateKind.RZ, (math.inf,))


def example3_circuit() -> Circuit:
    return Circuit(2, (Gate(GateKind.H, 1), Gate(GateKind.X, 0, controls=(1,))))


def test_gate_count_empty():
    assert Circuit(3).gate_count == 0


def test_gate_count_two_gate_circuit():
    assert example3_circuit().gate_count == 2


def test_gate_count_additive_after_toffoli_insertion():
    circuit = example3_circuit()
    toffolis = tuple(Gate(GateKind.X, 2, controls=(0, 1)) for _ in range(10))
    grown = Circuit(3, circuit.gates + toffolis)
    assert grown.gate_count == 12


def raises_exactly(message: str):
    return pytest.raises(ValueError, match=f"^{re.escape(message)}$")


def test_gate_rejects_duplicate_qubits():
    for target, controls, qubits in ((1, (1,), "(1, 1)"), (0, (2, 1, 2), "(2, 1, 2, 0)")):
        with raises_exactly(f"controls and target must be distinct: {qubits}"):
            Gate(GateKind.X, target, controls=controls)


@pytest.mark.parametrize("target,controls,qubits", [
    (-1, (), "(-1,)"),
    (-2, (0,), "(0, -2)"),
    (1, (-1,), "(-1, 1)"),
    (2, (0, -3), "(0, -3, 2)"),
])
def test_gate_rejects_negative_qubits(target, controls, qubits):
    with raises_exactly(f"negative qubit index: {qubits}"):
        Gate(GateKind.X, target, controls=controls)


@pytest.mark.parametrize("kind,controls,params,message", [
    (GateKind.RX, (), (), "RX takes 1 parameter(s), got 0"),
    (GateKind.U3, (), (0.1, 0.2), "U3 takes 3 parameter(s), got 2"),
    (GateKind.H, (), (0.1,), "H takes 0 parameter(s), got 1"),
    (GateKind.PHASE, (1,), (), "PHASE takes 1 parameter(s), got 0"),
    (GateKind.X, (1,), (0.5,), "X takes 0 parameter(s), got 1"),
])
def test_gate_rejects_wrong_param_count(kind, controls, params, message):
    with raises_exactly(message):
        Gate(kind, 0, controls=controls, params=params)


def test_circuit_rejects_out_of_range_gate():
    for gate in (
        Gate(GateKind.H, 2),
        Gate(GateKind.RZ, 5, params=(0.1,)),
        Gate(GateKind.X, 2, controls=(0,)),
        Gate(GateKind.X, 0, controls=(2,)),
        Gate(GateKind.X, 1, controls=(0, 2)),
        Gate(GateKind.X, 0, controls=(3, 1)),
    ):
        with raises_exactly(f"gate {gate} out of range for 2 qubits"):
            Circuit(2, (Gate(GateKind.H, 0), gate))


def test_circuit_accepts_gates_on_its_last_qubit():
    gates = (Gate(GateKind.H, 2), Gate(GateKind.X, 0, controls=(2,)),
             Gate(GateKind.X, 1, controls=(0, 2)))
    assert Circuit(3, gates).gates == gates


def test_circuit_rejects_nonpositive_qubits():
    with pytest.raises(ValueError):
        Circuit(0)


def test_equality_is_structural_and_ignores_name():
    a = Circuit(2, example3_circuit().gates, name="foo")
    b = Circuit(2, example3_circuit().gates, name="bar")
    assert a == b
    assert a != Circuit(2, example3_circuit().gates[:1])


def test_appended_prepended_do_not_mutate():
    base = example3_circuit()
    grown = base.appended(Gate(GateKind.X, 0))
    front = base.prepended(Gate(GateKind.Z, 1))
    assert base.gate_count == 2
    assert grown.gates[-1] == Gate(GateKind.X, 0)
    assert front.gates[0] == Gate(GateKind.Z, 1)
