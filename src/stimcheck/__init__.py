"""stimcheck: simulative equivalence checking for quantum circuits via random stimuli."""
from .circuit import Circuit, Gate, GateKind, base_matrix
from .equivalence import (
    Verdict,
    VerificationConfig,
    VerificationReport,
    verify,
    verify_exhaustive_local,
)
from .kernels import backend_name
from .mutation import ErrorOption, MutationError, is_functional_mutation, mutate
from .qasm import ParseDiagnostic, QasmError, emit_qasm, parse_qasm
from .simulator import apply_gate, fidelity, simulate, zero_state
from .stimuli import (
    CLASSICAL,
    LOCAL,
    RandomSource,
    Scheme,
    Stimulus,
    global_scheme,
    next_stimulus,
)

__version__ = "0.1.0"

__all__ = [
    "Circuit", "Gate", "GateKind", "base_matrix",
    "apply_gate", "fidelity", "simulate", "zero_state",
    "ParseDiagnostic", "QasmError", "emit_qasm", "parse_qasm",
    "Scheme", "Stimulus", "RandomSource", "CLASSICAL", "LOCAL", "global_scheme",
    "next_stimulus",
    "Verdict", "VerificationConfig", "VerificationReport",
    "verify", "verify_exhaustive_local",
    "ErrorOption", "MutationError", "mutate", "is_functional_mutation",
    "backend_name",
]
