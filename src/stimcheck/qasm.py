"""OpenQASM 2.0 subset: one quantum register, qelib1 gate spellings.

Supported statements: the OPENQASM 2.0 header, an optional qelib1 include,
a single qreg declaration, and gate applications drawn from
{id, x, y, z, h, s, sdg, t, tdg, rx, ry, rz, u1, u2, u3, cx, ccx}.
Each `GateKind` is read and written under its value, with the parameter
count `circuit.py` gives it. On top of those, u2 is read as u3 with
theta = pi/2, and cx and ccx spell X with one or two controls.
Angle expressions allow numeric literals, pi, unary minus, and * /.
Digits and whitespace are ASCII only. Anything else is a parse error.

`parse_qasm` reads the header, and then each gate statement, with one match
of a compiled regex, and builds the statement's `Gate` directly. The match
accepts a strict subset of the language: parameters are plain number
literals, and no comment sits inside a statement. For every statement it
accepts it builds exactly the gate the token parser `_Parser` reads. If it
declines a header or any statement (no match, an unknown gate, another
register, a wrong arity, an index out of range, a repeated qubit),
`parse_qasm` returns `_Parser(source).parse()`, which reads the whole source
again. `_Parser` is the only code that builds a diagnostic, so `parse_qasm`
returns the circuit, or raises the diagnostic, that `_Parser(source).parse()`
does for every source. `emit_qasm` writes nothing the match declines, so
only hand-written sources, with an expression such as `pi/2`, a comment
inside a statement, or an error, pay for the token parser, about 4x the
match per gate.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

from .circuit import Circuit, Gate, GateKind


@dataclass(frozen=True)
class ParseDiagnostic:
    line: int
    column: int
    message: str
    path: str | None = None  # the file, for a source read from one

    def __str__(self) -> str:
        where = "" if self.path is None else f"{self.path}:"
        return f"{where}{self.line}:{self.column}: {self.message}"


class QasmError(Exception):
    def __init__(self, diagnostic: ParseDiagnostic):
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic


_NUMBER = r"\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?"
_NAME = r"[A-Za-z_][A-Za-z0-9_.]*"

# The last alternative matches any character the others do not, so that
# `finditer` leaves no gaps and reports it as unexpected.
_TOKEN_RE = re.compile(
    rf"""
    (?P<skip>\s+|//[^\n]*)
  | (?P<number>{_NUMBER})
  | (?P<name>{_NAME})
  | (?P<string>"[^"]*")
  | (?P<punct>[;,\[\]()*/\-])
  | (?P<other>.)
    """,
    re.VERBOSE | re.DOTALL | re.ASCII,
)

# spelling -> (kind, qubit arity, param arity), as the module docstring lists
_GATE_TABLE = {
    **{kind.value: (kind, 1, kind.num_params) for kind in GateKind},
    "u2": (GateKind.U3, 1, 2),
    "cx": (GateKind.X, 2, 0),
    "ccx": (GateKind.X, 3, 0),
}

# Register sizes and qubit indices longer than this are rejected before
# int(), which raises ValueError past sys.get_int_max_str_digits() digits.
_MAX_INT_DIGITS = 18

# The statement match of `parse_qasm`. `_SKIP` is whitespace and comments,
# where the tokenizer skips them; each comment must run to its line end, so
# that backtracking cannot leave part of one to be read as a statement.
_SKIP = r"(?:\s|//[^\n]*(?![^\n]))*"
# What ends a name token: without it, `hq[0]` would read as `h q[0]`.
_NAME_END = r"(?![A-Za-z0-9_.])"
_INTEGER = rf"(\d{{1,{_MAX_INT_DIGITS}}})"
_HEADER_RE = re.compile(
    rf"""{_SKIP} OPENQASM{_NAME_END} {_SKIP} 2\.0 {_SKIP} ; {_SKIP}
    (?: include{_NAME_END} {_SKIP} "qelib1\.inc" {_SKIP} ; {_SKIP} )?
    qreg{_NAME_END} {_SKIP} ({_NAME}) {_SKIP} \[ {_SKIP} {_INTEGER} {_SKIP} \] {_SKIP} ; {_SKIP}""",
    re.VERBOSE | re.ASCII,
)
# One gate statement and the skip after it: name, parameter list (plain
# number literals with an optional minus, no whitespace), register and one
# to three indices (the register repeated), all as the tokenizer splits them.
_SIGNED_NUMBER = rf"-?(?:{_NUMBER})"
_INDEX = rf"\s*\[\s*{_INTEGER}\s*\]"
_STATEMENT_RE = re.compile(
    rf"""({_NAME}){_NAME_END} (?: \( ({_SIGNED_NUMBER}(?:,{_SIGNED_NUMBER})*) \) )?
    \s* (?P<reg>{_NAME}) {_INDEX} (?: \s*,\s* (?P=reg) {_INDEX} (?: \s*,\s* (?P=reg) {_INDEX} )? )?
    \s* ; {_SKIP}""",
    re.VERBOSE | re.ASCII,
)


class _Token(NamedTuple):
    kind: str
    text: str
    offset: int  # into the source; line and column are found only for a diagnostic


def _diagnostic(source: str, offset: int, message: str) -> QasmError:
    """An error at `offset`, with its 1-based line and column."""
    line = source.count("\n", 0, offset) + 1
    column = offset - source.rfind("\n", 0, offset)
    return QasmError(ParseDiagnostic(line, column, message))


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        if kind == "other":
            raise _diagnostic(source, m.start(), f"unexpected character {m.group()!r}")
        if kind != "skip":
            tokens.append(_Token(kind, m.group(), m.start()))
    tokens.append(_Token("eof", "", len(source)))
    return tokens


class _Parser:
    """The token parser: `_Parser(source).parse()` reads a whole source and is
    the only code that builds a diagnostic."""

    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, message: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise _diagnostic(self.source, tok.offset, message)

    def expect(self, kind: str, text: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            self.fail(f"expected {want!r}, found {tok.text or 'end of input'!r}")
        return self.advance()

    def parse(self) -> Circuit:
        self.expect("name", "OPENQASM")
        version = self.expect("number")
        if version.text != "2.0":
            self.fail("only OPENQASM 2.0 is supported", version)
        self.expect("punct", ";")
        if self.peek().kind == "name" and self.peek().text == "include":
            self.advance()
            inc = self.expect("string")
            if inc.text != '"qelib1.inc"':
                self.fail("only qelib1.inc may be included", inc)
            self.expect("punct", ";")

        reg_name, num_qubits = self.parse_qreg()
        gates = []
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind == "name" and tok.text == "qreg":
                self.fail("multiple quantum registers are not supported", tok)
            gates.append(self.parse_gate(reg_name, num_qubits))
        return Circuit(num_qubits, tuple(gates), name=reg_name)

    def parse_qreg(self) -> tuple[str, int]:
        self.expect("name", "qreg")
        reg = self.expect("name")
        self.expect("punct", "[")
        size = self.expect("number")
        num_qubits = self.parse_integer(size, "register size")
        if num_qubits < 1:
            self.fail("register size must be a positive integer", size)
        self.expect("punct", "]")
        self.expect("punct", ";")
        return reg.text, num_qubits

    def parse_gate(self, reg_name: str, num_qubits: int) -> Gate:
        tok = self.expect("name")
        entry = _GATE_TABLE.get(tok.text)
        if entry is None:
            self.fail(f"unknown gate {tok.text!r}", tok)
        kind, qubit_arity, param_arity = entry
        params: tuple[float, ...] = ()
        if param_arity:
            self.expect("punct", "(")
            values = [self.parse_angle()]
            while self.peek().text == ",":
                self.advance()
                values.append(self.parse_angle())
            self.expect("punct", ")")
            if len(values) != param_arity:
                self.fail(f"{tok.text} takes {param_arity} parameter(s), got {len(values)}", tok)
            if tok.text == "u2":  # u2(phi, lam) = u3(pi/2, phi, lam)
                values = [math.pi / 2, *values]
            params = tuple(values)
        qubits = [self.parse_qubit(reg_name, num_qubits)]
        while self.peek().text == ",":
            self.advance()
            qubits.append(self.parse_qubit(reg_name, num_qubits))
        self.expect("punct", ";")
        if len(qubits) != qubit_arity:
            self.fail(f"{tok.text} takes {qubit_arity} qubit(s), got {len(qubits)}", tok)
        if len(set(qubits)) != len(qubits):
            self.fail(f"duplicate qubit argument in {tok.text}", tok)
        *controls, target = qubits
        return Gate(kind, target, tuple(controls), params)

    def parse_qubit(self, reg_name: str, num_qubits: int) -> int:
        tok = self.expect("name")
        if tok.text != reg_name:
            self.fail(f"unknown register {tok.text!r}", tok)
        self.expect("punct", "[")
        idx = self.expect("number")
        index = self.parse_integer(idx, "qubit index")
        if index >= num_qubits:
            self.fail(f"qubit index {index} out of range for {reg_name}[{num_qubits}]", idx)
        self.expect("punct", "]")
        return index

    def parse_integer(self, tok: _Token, what: str) -> int:
        if not tok.text.isdigit():
            self.fail(f"{what} must be an integer", tok)
        if len(tok.text.lstrip("0")) > _MAX_INT_DIGITS:
            self.fail(f"{what} has more than {_MAX_INT_DIGITS} digits", tok)
        return int(tok.text)

    def parse_angle(self) -> float:
        start = self.peek()
        value = self.parse_factor()
        while self.peek().text in ("*", "/"):
            op = self.advance().text
            rhs = self.parse_factor()
            if op == "*":
                value *= rhs
            elif rhs == 0:
                self.fail("division by zero in angle", start)
            else:
                value /= rhs
        if not math.isfinite(value):
            self.fail("angle is not a finite number", start)
        return value

    def parse_factor(self) -> float:
        sign = 1.0
        while self.peek().text == "-":
            self.advance()
            sign = -sign
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            value = float(tok.text)
            if not math.isfinite(value):
                self.fail(f"number {tok.text} is out of range", tok)
            return sign * value
        if tok.kind == "name" and tok.text == "pi":
            self.advance()
            return sign * math.pi
        self.fail(f"expected a number or pi, found {tok.text or 'end of input'!r}")


def _matched_gate(name: str, params: str | None, reg: str, a: str, b: str | None,
                  c: str | None, reg_name: str, num_qubits: int) -> Gate | None:
    """The gate `_Parser` reads from the fields of one `_STATEMENT_RE` match,
    or None where it would read something else or raise a diagnostic."""
    entry = _GATE_TABLE.get(name)
    if entry is None or reg != reg_name:
        return None
    kind, qubit_arity, param_arity = entry
    indices = (a,) if b is None else (a, b) if c is None else (a, b, c)
    if len(indices) != qubit_arity:
        return None
    qubits = tuple(map(int, indices))
    if max(qubits) >= num_qubits or (qubit_arity > 1 and len(set(qubits)) != qubit_arity):
        return None
    if params is None:
        return None if param_arity else Gate(kind, qubits[-1], qubits[:-1])
    values = tuple(map(float, params.split(",")))
    if len(values) != param_arity or not all(map(math.isfinite, values)):
        return None
    if name == "u2":  # u2(phi, lam) = u3(pi/2, phi, lam)
        values = (math.pi / 2, *values)
    return Gate(kind, qubits[-1], qubits[:-1], values)


def parse_qasm(source: str) -> Circuit:
    """Parse the QASM subset. Raises QasmError carrying a ParseDiagnostic.

    The header and each gate statement are read with one regex match; if
    the match declines any of them, `_Parser` reads the whole source (see
    the module docstring).
    """
    header = _HEADER_RE.match(source)
    if header is None or int(header[2]) < 1:
        return _Parser(source).parse()
    reg_name, num_qubits = header[1], int(header[2])
    gates: list[Gate] = []
    known: dict[str, Gate] = {}  # statement text -> its gate; circuits repeat statements
    pos, end = header.end(), len(source)
    match = _STATEMENT_RE.match
    while pos < end and (m := match(source, pos)):
        text = m.group()
        gate = known.get(text) or _matched_gate(*m.groups(), reg_name, num_qubits)
        if gate is None:
            break
        known[text] = gate
        gates.append(gate)
        pos = m.end()
    if pos < end:
        return _Parser(source).parse()
    return Circuit(num_qubits, tuple(gates), name=reg_name)


def read_text(path: str | Path) -> str:
    """The text of a UTF-8 file, its line ends read as in text mode. A byte
    that is not UTF-8 raises QasmError at the line and column of the text
    before it, with `path` in its diagnostic."""
    # CR and LF bytes occur in UTF-8 only as those characters
    data = Path(path).read_bytes().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[:exc.start].decode("utf-8")
        error = _diagnostic(before, len(before),
                            f"byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})")
    raise QasmError(replace(error.diagnostic, path=str(path)))


def load_circuit(path: str | Path) -> Circuit:
    """Parse a UTF-8 QASM file, read by `read_text`, into a circuit named
    after the file's stem. A parse error raises QasmError with the file's
    path in its diagnostic."""
    path = Path(path)
    text = read_text(path)
    try:
        circuit = parse_qasm(text)
    except QasmError as exc:
        diagnostic = exc.diagnostic
    else:
        return Circuit(circuit.num_qubits, circuit.gates, name=path.stem)
    raise QasmError(replace(diagnostic, path=str(path)))


def emit_qasm(circuit: Circuit) -> str:
    """Serialize a circuit; parse_qasm(emit_qasm(c)) is structurally equal to c."""
    lines = ['OPENQASM 2.0;', 'include "qelib1.inc";', f"qreg q[{circuit.num_qubits}];"]
    for gate in circuit.gates:
        if gate.controls:
            if gate.kind is not GateKind.X or len(gate.controls) > 2:
                raise ValueError(f"no QASM spelling for controlled {gate.kind.name} gate: {gate}")
            name = "cx" if len(gate.controls) == 1 else "ccx"
        else:
            name = gate.kind.value
        args = ",".join(f"q[{q}]" for q in gate.qubits)
        if gate.params:
            params = ",".join(repr(p) for p in gate.params)
            lines.append(f"{name}({params}) {args};")
        else:
            lines.append(f"{name} {args};")
    return "\n".join(lines) + "\n"
