import math
import re
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from stimcheck import qasm
from stimcheck.circuit import Circuit, Gate, GateKind
from stimcheck.library import random_circuit
from stimcheck.qasm import QasmError, emit_qasm, parse_qasm
from stimcheck.stimuli import RandomSource

EXAMPLE3 = """
OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
h q[1];
cx q[1],q[0];
"""


def test_parse_example3():
    circuit = parse_qasm(EXAMPLE3)
    assert circuit.num_qubits == 2
    assert circuit.gates == (Gate(GateKind.H, 1), Gate(GateKind.X, 0, controls=(1,)))


def test_parse_empty_register():
    circuit = parse_qasm("OPENQASM 2.0; qreg q[1];")
    assert circuit.num_qubits == 1
    assert circuit.gates == ()


def test_unknown_gate_diagnostic_points_at_token():
    with pytest.raises(QasmError) as exc:
        parse_qasm('OPENQASM 2.0;\nqreg q[2];\nfoo q[0];')
    diag = exc.value.diagnostic
    assert (diag.line, diag.column) == (3, 1)
    assert "foo" in diag.message


@pytest.mark.parametrize("text,position,message", [
    # an unexpected character on line 3, after a comment line
    ("OPENQASM 2.0;\n// qreg r[2];\n  qreg q[1]; $x q[0];\n", (3, 14), "unexpected character '$'"),
    # a missing ';' at the end of input, on the last line
    ("OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1]", (4, 13), "expected ';', found 'end of input'"),
    # an error after a run of blank lines
    ("OPENQASM 2.0;\n\n\n\nqreg q[2];\n\n\n\n\n   cz q[0],q[1];\n", (10, 4), "unknown gate 'cz'"),
], ids=["character-after-comment", "semicolon-at-end", "after-blank-lines"])
def test_diagnostic_positions(text, position, message):
    with pytest.raises(QasmError) as exc:
        parse_qasm(text)
    diag = exc.value.diagnostic
    assert (diag.line, diag.column) == position
    assert diag.message == message


def test_qubit_index_out_of_range():
    with pytest.raises(QasmError) as exc:
        parse_qasm("OPENQASM 2.0; qreg q[2]; x q[2];")
    assert "out of range" in exc.value.diagnostic.message


def test_multiple_registers_rejected():
    with pytest.raises(QasmError) as exc:
        parse_qasm("OPENQASM 2.0; qreg q[2]; qreg r[2];")
    assert "multiple" in exc.value.diagnostic.message


def test_wrong_version_rejected():
    with pytest.raises(QasmError):
        parse_qasm("OPENQASM 3.0; qreg q[1];")


def test_measure_is_a_parse_error():
    with pytest.raises(QasmError):
        parse_qasm("OPENQASM 2.0; qreg q[1]; creg c[1]; measure q[0] -> c[0];")


@pytest.mark.parametrize("expr,value", [
    ("pi", math.pi),
    ("pi/2", math.pi / 2),
    ("-pi/4", -math.pi / 4),
    ("2*pi/4", math.pi / 2),
    ("0.25", 0.25),
    ("--1.5", 1.5),
    ("1e-3", 1e-3),
])
def test_angle_expressions(expr, value):
    circuit = parse_qasm(f"OPENQASM 2.0; qreg q[1]; rz({expr}) q[0];")
    assert circuit.gates[0].params == (value,)


@pytest.mark.parametrize("expr,message", [
    ("pi/0", "division by zero"),
    ("0/0", "division by zero"),
    ("1e999", "out of range"),
    ("1e200*1e200", "not a finite number"),
    ("-1e200*1e200", "not a finite number"),
    ("1e200*1e200*0", "not a finite number"),
])
def test_non_finite_angle_is_a_diagnostic(expr, message):
    with pytest.raises(QasmError) as exc:
        parse_qasm(f"OPENQASM 2.0;\nqreg q[1];\nrx({expr}) q[0];")
    diag = exc.value.diagnostic
    assert (diag.line, diag.column) == (3, 4)
    assert message in diag.message


def test_overflowing_literal_points_at_the_literal():
    text = "OPENQASM 2.0; qreg q[1]; rz(1/1e999) q[0];"
    with pytest.raises(QasmError) as exc:
        parse_qasm(text)
    diag = exc.value.diagnostic
    assert (diag.line, diag.column) == (1, text.index("1e999") + 1)
    assert "1e999" in diag.message


def test_angle_expression_rejects_plus():
    with pytest.raises(QasmError):
        parse_qasm("OPENQASM 2.0; qreg q[1]; rz(1+1) q[0];")


def test_u1_maps_to_phase():
    circuit = parse_qasm("OPENQASM 2.0; qreg q[1]; u1(0.5) q[0];")
    assert circuit.gates[0].kind is GateKind.PHASE


def test_u2_maps_to_u3():
    circuit = parse_qasm("OPENQASM 2.0; qreg q[1]; u2(0.1,0.2) q[0];")
    gate = circuit.gates[0]
    assert gate.kind is GateKind.U3
    assert gate.params == (math.pi / 2, 0.1, 0.2)


def test_ccx_parses_to_double_controlled_x():
    circuit = parse_qasm("OPENQASM 2.0; qreg q[3]; ccx q[0],q[1],q[2];")
    assert circuit.gates[0] == Gate(GateKind.X, 2, controls=(0, 1))


def test_emit_example3_statement_order():
    text = emit_qasm(parse_qasm(EXAMPLE3))
    statements = [line for line in text.splitlines() if line and not line.startswith(("OPENQASM", "include", "qreg"))]
    assert statements == ["h q[1];", "cx q[1],q[0];"]


def test_emit_empty_circuit():
    assert emit_qasm(Circuit(3)) == 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\n'


def test_emit_ccx():
    circuit = Circuit(3, (Gate(GateKind.X, 0, controls=(2, 1)),))
    assert "ccx q[2],q[1],q[0];" in emit_qasm(circuit)
    assert parse_qasm(emit_qasm(circuit)) == circuit


@pytest.mark.parametrize("spelling", [kind.value for kind in GateKind] + ["u2", "cx", "ccx"])
def test_every_spelling_round_trips(spelling):
    _, qubits, params = qasm._GATE_TABLE[spelling]
    angles = f"({','.join(['0.5', '-pi/3', '2'][:params])})" if params else ""
    args = ",".join(f"q[{q}]" for q in range(qubits))
    circuit = parse_qasm(f"OPENQASM 2.0; qreg q[3]; {spelling}{angles} {args};")
    assert parse_qasm(emit_qasm(circuit)) == circuit


def test_docstring_lists_exactly_the_parse_table():
    listed = re.search(r"\{([^}]*)\}", qasm.__doc__).group(1).split(", ")
    assert len(listed) == len(set(listed))
    assert set(listed) == set(qasm._GATE_TABLE)


def test_emit_rejects_controlled_non_x():
    with pytest.raises(ValueError):
        emit_qasm(Circuit(2, (Gate(GateKind.H, 0, controls=(1,)),)))


def test_comments_and_whitespace_ignored():
    circuit = parse_qasm("// header\nOPENQASM 2.0;\n\nqreg q[1]; // reg\n  x q[0];\n")
    assert circuit.gates == (Gate(GateKind.X, 0),)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(0, 60))
def test_round_trip_random_circuits(seed, num_qubits, num_gates):
    circuit = random_circuit(num_qubits, num_gates, RandomSource(seed),
                             with_rotations=True, with_toffoli=True)
    assert parse_qasm(emit_qasm(circuit)) == circuit


def test_parser_is_deterministic():
    text = emit_qasm(random_circuit(4, 40, RandomSource(3), with_rotations=True))
    assert parse_qasm(text) == parse_qasm(text)


# Fragments of the accepted language and near misses, so that generated text
# reaches the parser's later states rather than failing at the header.
QASM_FRAGMENTS = [
    "OPENQASM", "2.0", "3.0", "include", '"qelib1.inc"', '"other.inc"', "qreg", "creg",
    "q", "r", "[", "]", ";", ",", "(", ")", "*", "/", "-", "+", "pi", "0", "1", "2",
    "07", "1e999", "0.5", ".5e-3", "1e200", "x", "cx", "ccx", "u2", "u3", "rx", "id",
    "measure", "->", " ", "\n", "//", "\t",
]
qasm_soup = st.lists(st.sampled_from(QASM_FRAGMENTS), max_size=40).map("".join)


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.text(max_size=120),
    qasm_soup,
    qasm_soup.map(lambda body: "OPENQASM 2.0;\nqreg q[3];\n" + body),
))
def test_any_text_yields_a_circuit_or_a_diagnostic(text):
    try:
        circuit = parse_qasm(text)
    except QasmError as exc:
        assert exc.diagnostic.line >= 1 and exc.diagnostic.column >= 1
    else:
        assert isinstance(circuit, Circuit)


@pytest.mark.parametrize("text", [
    "OPENQASM 2.0; qreg q[" + "1" * 5000 + "];",
    "OPENQASM 2.0; qreg q[2]; x q[" + "1" * 5000 + "];",
])
def test_integer_too_long_for_int_is_a_diagnostic(text):
    # int() refuses numerals of more than 4300 digits with a ValueError
    with pytest.raises(QasmError) as exc:
        parse_qasm(text)
    diag = exc.value.diagnostic
    assert (diag.line, diag.column) == (1, text.index("1" * 5000) + 1)
    assert "digits" in diag.message


# --- the statement match against the token parser ------------------------------

def outcome(parse, text):
    """The circuit `parse` reads from `text`, every parameter to the bit, or
    the diagnostic it raises."""
    try:
        circuit = parse(text)
    except QasmError as exc:
        return exc.diagnostic
    return (circuit.num_qubits, circuit.name,
            [(g.kind, g.target, g.controls, tuple(map(float.hex, g.params))) for g in circuit.gates])


def reference(text):
    return qasm._Parser(text).parse()


def assert_same_as_reference(text):
    assert outcome(parse_qasm, text) == outcome(reference, text)


# Whole statements, statements the match must decline, and glued names.
STATEMENT_FRAGMENTS = [
    "h q[0];", "x q[2];", "id q[1];\n", "cx q[0],q[1];", "cx q[1], q[1];", "ccx q[0],q[1],q[2];",
    "rz(0.5) q[1];", "rz(-.5e-3) q[0];", "u3(1,-2.5,3e1) q[2];", "u2(0.1,0.2) q[0];",
    "u1(1e999) q[0];", "rx(pi/2) q[0];", "rx( 0.5 ) q[0];", "rx(1_0) q[0];", "rx(--1) q[0];",
    "rx(inf) q[0];", "rx(-0.0) q[0];", "h(0.5) q[0];", "rx q[0];", "cx q[0];", "h q[0],q[1];",
    "hq[0];", "cxq[0],q[1];", "h.x q[0];", "h q[3];", "h r[0];", "cx q[0],r[1];",
    "x q[0000000000000000000001];", "h q [ 0 ] ;", "//h q[0];", "x q[1]; // done\n",
    "qreg q[2];", "h q[0]", "$",
]
HEADERS = [
    "OPENQASM 2.0;\nqreg q[3];\n",
    'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\n',
    "OPENQASM 2.0; qreg q[3];",
    "// c\nOPENQASM 2.0;//\nqreg//\nq[03]//x\n;",
    "OPENQASM 2.0;\n//qreg r[2];\n",
]
statement_soup = st.lists(
    st.tuples(st.sampled_from(STATEMENT_FRAGMENTS + QASM_FRAGMENTS), st.sampled_from(["", " ", "\n"])),
    max_size=20,
).map(lambda parts: "".join(a + b for a, b in parts))


@settings(max_examples=2000, deadline=None)
@given(st.one_of(
    st.text(max_size=120),
    qasm_soup,
    qasm_soup.map(lambda body: "OPENQASM 2.0;\nqreg q[3];\n" + body),
    st.tuples(st.sampled_from(HEADERS), statement_soup).map("".join),
))
def test_parse_qasm_equals_the_token_parser(text):
    assert_same_as_reference(text)


HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\n'


@pytest.mark.parametrize("body,expected", [
    # a comment holds a whole statement, up to its line end
    ("//h q[0];", []),
    ("//h q[0];\nx q[1];", [Gate(GateKind.X, 1)]),
    # glued names are one token
    ("hq[0];", "4:1: unknown gate 'hq'"),
    ("cxq[0],q[1];", "4:1: unknown gate 'cxq'"),
    # a zero-padded index longer than the digit cap is still an index
    ("x q[" + "0" * 25 + "2];", [Gate(GateKind.X, 2)]),
    ("x q[" + "0" * 25 + "3];", "4:5: qubit index 3 out of range for q[3]"),
    # parameters are number literals as the tokenizer reads them
    ("rx(1_0) q[0];", "4:5: expected ')', found '_0'"),
    ("rx(inf) q[0];", "4:4: expected a number or pi, found 'inf'"),
    ("x q[0];\nqreg r[2];", "5:1: multiple quantum registers are not supported"),
    # the first bad character wins over an earlier grammar error
    ("h q[0];\nfoo q[1];\nx q[2];\n$", "7:1: unexpected character '$'"),
], ids=["comment", "comment-then-gate", "glued-h", "glued-cx", "padded-index",
        "padded-index-out-of-range", "underscore", "inf", "second-qreg", "dollar-after-unknown-gate"])
def test_match_declines_what_the_token_parser_reads_otherwise(body, expected):
    text = HEADER + body
    assert_same_as_reference(text)
    if isinstance(expected, list):
        assert parse_qasm(text).gates == tuple(expected)
    else:
        with pytest.raises(QasmError) as exc:
            parse_qasm(text)
        assert str(exc.value.diagnostic) == expected


@pytest.mark.parametrize("text,expected", [
    ("OPENQASM 2.0;\nqreg q[\u0663];\n", "2:8: unexpected character '\u0663'"),
    (HEADER + "h q[\uff11];", "4:5: unexpected character '\uff11'"),
    (HEADER + "rx(\u0663.\u0665) q[2];", "4:4: unexpected character '\u0663'"),
    (HEADER + "rx(3.\u0665) q[2];", "4:6: unexpected character '\u0665'"),
    # whitespace is ASCII too
    (HEADER + "h\u00a0q[0];", "4:2: unexpected character '\\xa0'"),
], ids=["arabic-indic-register-size", "fullwidth-index", "arabic-indic-parameter",
        "arabic-indic-fraction", "no-break-space"])
def test_only_ascii_digits_and_whitespace_are_read(text, expected):
    assert_same_as_reference(text)
    with pytest.raises(QasmError) as exc:
        parse_qasm(text)
    assert str(exc.value.diagnostic) == expected


def test_commented_out_register_is_not_read():
    text = "OPENQASM 2.0;\n//qreg q[2];\n"
    assert_same_as_reference(text)
    with pytest.raises(QasmError, match="expected 'qreg', found 'end of input'"):
        parse_qasm(text)


def test_match_hands_over_once_at_the_first_declined_statement():
    text = HEADER + "h q[0];\ncx q[0],q[1];\nrz(pi/2) q[2];\nx q[1];\nu1(0.5) q[0];\n"
    offsets = []

    class Spy(qasm._Parser):
        def __init__(self, source, offset=0):
            offsets.append(offset)
            super().__init__(source, offset)

    expected = outcome(reference, text)
    with mock.patch.object(qasm, "_Parser", Spy):
        assert outcome(parse_qasm, text) == expected
    assert offsets == [text.index("rz(pi/2)")]


class _NoHandoff:
    def __init__(self, *args):
        raise AssertionError("parse_qasm handed over to the token parser")


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(0, 60))
def test_emitted_text_never_hands_over(seed, num_qubits, num_gates):
    circuit = random_circuit(num_qubits, num_gates, RandomSource(seed),
                             with_rotations=True, with_toffoli=True)
    text = emit_qasm(circuit)
    with mock.patch.object(qasm, "_Parser", _NoHandoff):
        parsed = parse_qasm(text)
    assert outcome(lambda _: parsed, text) == outcome(reference, text)
