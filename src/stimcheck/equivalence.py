"""Simulative verification: draw stimuli, simulate both circuits, compare
output fidelities, stop at the first discrepancy or when the budget is
exhausted.

`verify` and `verify_exhaustive_local` share one block engine. Each verify
compiles the specification and the realization once. Stimuli are drawn and
prepared as blocks of B rows of a column-major (B, 2^n) array, rows
innermost as `kernels.apply_2x2` takes them, with B = 1, 16, 256, ...
capped by the remaining budget, so a 16-stimulus budget runs in two blocks
of 1 and 15 rows: the first stimulus alone, since a faulty realization is
most often caught there, and the rest in one round of kernel calls. A
detection wastes the rest of its block: at most 14 rows in the default
budget's second block, and in general a detection at stimulus k has
prepared fewer than 16k rows. A block holds at most BLOCK_AMPS amplitudes,
so from n = 16 on every block has one row. The report records the row
count of each block. A global block is prepared by one call of
`clifford.write_states`, which takes each row's stabilizer tableau from
|0...0> through every sub-round in time polynomial in n, reduces it, and
then writes the 2^n amplitudes of all rows in one pass, each row up to a
global phase, which the fidelity does not see. The specification runs in
place on the prepared block and the realization on one copy in the same
layout, so two blocks are live; both are freed before the next block is
prepared. A row is a state, a strided (2^n,) array, so `fidelity`
compares rows as they are. Only the row that detects an error gets its
preparation circuit rebuilt, as the witness, from its recorded draws; the
circuit is assembled from a per-n table of shared gates
(`stimuli._gate_table`), not built gate by gate.

`trace_fidelity` takes the same block step on classical stimuli, the
consecutive computational basis states 0, 1, ..., 2^n - 1, and sums
tr(U_spec† U_impl) = Σ_i <U_spec i|U_impl i> block by block, one `vdot`
over each pair of blocks' contiguous transposes. From the trace
it gives, exactly, the entanglement and average gate fidelities that
`oracle.py` computes from products of full gate matrices. It costs 2^n
simulations of each circuit and reaches EXACT_LIMIT qubits.

`next_stimulus` and `simulate` are not called here but stay importable from
this module, for tools that wrap the verify loop's layers by name.
"""
from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .circuit import Circuit
from .simulator import check_qubits, compile_ops, fidelity, run_ops
from .simulator import simulate  # noqa: F401
from .stimuli import CLASSICAL, LOCAL, Draws, RandomSource, Scheme, Stimulus, checked_int, draw
from .stimuli import next_stimulus  # noqa: F401

DEFAULT_MAX_STIMULI = 16
DEFAULT_EPSILON = 1e-8
EXHAUSTIVE_LOCAL_LIMIT = 8
# trace_fidelity costs 2^n simulations of each circuit: qft(10) against
# itself takes about 0.8 s, qft(11) 3.5 s (one core of a 2-vCPU x86 host).
EXACT_LIMIT = 10
# Amplitudes per block: blocks amortize per-call kernel cost, which matters
# only on small states; beyond this a wider block just takes more memory.
BLOCK_AMPS = 1 << 16
# Each block has this many times the rows of the one before, so that a pair
# which runs the default budget of 16 pays for two rounds of per-op kernel
# calls (1 and 15 rows) while a detection at the first stimulus, the common
# case for a faulty realization, still costs one row.
BLOCK_GROWTH = 16


class Verdict(Enum):
    ERROR_DETECTED = "error_detected"
    BUDGET_EXHAUSTED = "budget_exhausted"


@dataclass(frozen=True)
class VerificationConfig:
    scheme: Scheme
    max_stimuli: int = DEFAULT_MAX_STIMULI
    epsilon: float = DEFAULT_EPSILON
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "max_stimuli", checked_int("max_stimuli", self.max_stimuli))
        if self.max_stimuli < 1:
            raise ValueError(f"max_stimuli must be positive, got {self.max_stimuli}")
        if not 0.0 < self.epsilon < 0.5:
            raise ValueError(f"epsilon must lie in (0, 0.5), got {self.epsilon}")


@dataclass
class VerificationReport:
    verdict: Verdict
    stimuli_used: int
    fidelities: list[float] = field(default_factory=list)
    witness: Stimulus | None = None
    elapsed: float = 0.0
    # the row count of each block the verify ran, in order
    blocks: tuple[int, ...] = ()

    @property
    def min_fidelity(self) -> float:
        return min(self.fidelities) if self.fidelities else 1.0


def _check_compatible(spec: Circuit, impl: Circuit) -> None:
    if spec.num_qubits != impl.num_qubits:
        raise ValueError(
            f"qubit counts differ: specification has {spec.num_qubits}, "
            f"realization has {impl.num_qubits}"
        )
    check_qubits(spec.num_qubits)


def _run_block(draws: Draws, n: int, spec_ops, impl_ops) -> tuple[np.ndarray, np.ndarray]:
    """Prepare the block of `draws` and run it through both compiled
    circuits: the specification in place, the realization on a copy. The
    caller frees both before it prepares the next block, so that two
    blocks are live, not three."""
    out_spec = draws.prepare()
    out_impl = out_spec.copy(order="K")
    run_ops(out_spec, n, spec_ops)
    run_ops(out_impl, n, impl_ops)
    return out_spec, out_impl


def _run_blocks(spec, impl, budget, draw_block, seed_tag, epsilon) -> VerificationReport:
    """Check `budget` stimuli in blocks of 1, 16, 256, ... rows (growing by
    BLOCK_GROWTH), each block capped by the remaining budget and by
    BLOCK_AMPS amplitudes.

    `draw_block(rows)` returns the Draws of the next `rows` stimuli, and
    `seed_tag(k, choice)` the tag of stimulus k from its row of choices.
    Fidelities are checked row by row in stimulus order and the first
    detection ends the run, so `stimuli_used` and `fidelities` are what a
    stimulus-by-stimulus loop would report; the rest of that block is
    discarded, so a detection at stimulus k has prepared fewer than 16k rows
    (at most 14 wasted in the second block of a 16-stimulus budget). The
    witness circuit is built only for the detecting row.
    """
    start = time.perf_counter()
    n = spec.num_qubits
    spec_ops, impl_ops = compile_ops(spec), compile_ops(impl)
    max_rows = max(1, BLOCK_AMPS >> n)
    fidelities: list[float] = []
    blocks: list[int] = []
    rows = 1
    while len(fidelities) < budget:
        draws = draw_block(min(rows, max_rows, budget - len(fidelities)))
        blocks.append(len(draws))
        out_spec, out_impl = _run_block(draws, n, spec_ops, impl_ops)
        for row in range(len(draws)):
            f = fidelity(out_spec[row], out_impl[row])
            fidelities.append(f)
            if 1.0 - f > epsilon:
                k = len(fidelities) - 1
                witness = draws.stimulus(row, seed_tag(k, draws.choices[row]))
                return VerificationReport(
                    Verdict.ERROR_DETECTED, k + 1, fidelities, witness,
                    time.perf_counter() - start, tuple(blocks),
                )
        del out_spec, out_impl
        rows *= BLOCK_GROWTH
    return VerificationReport(
        Verdict.BUDGET_EXHAUSTED, len(fidelities), fidelities, None,
        time.perf_counter() - start, tuple(blocks),
    )


def verify(spec: Circuit, impl: Circuit, config: VerificationConfig) -> VerificationReport:
    """Budgeted verification with randomly drawn stimuli; deterministic given the seed.

    Stimulus k is the k-th draw from one RandomSource(config.seed) stream,
    tagged f"{seed}:{k}", exactly as `next_stimulus` would draw it."""
    _check_compatible(spec, impl)
    rng = RandomSource(config.seed)
    return _run_blocks(
        spec, impl, config.max_stimuli,
        lambda rows: draw(config.scheme, spec.num_qubits, [rng] * rows),
        lambda k, choice: f"{config.seed}:{k}",
        config.epsilon,
    )


def verify_exhaustive_local(
    spec: Circuit, impl: Circuit, epsilon: float = DEFAULT_EPSILON
) -> VerificationReport:
    """Enumerate all 6^n local stimuli without repetition."""
    _check_compatible(spec, impl)
    n = spec.num_qubits
    if n > EXHAUSTIVE_LOCAL_LIMIT:
        raise ValueError(f"{n} qubits exceeds the exhaustive limit of {EXHAUSTIVE_LOCAL_LIMIT}")
    choices = itertools.product(range(6), repeat=n)
    return _run_blocks(
        spec, impl, 6 ** n,
        lambda rows: Draws(LOCAL, np.array(list(itertools.islice(choices, rows)), dtype=np.intp)),
        lambda k, choice: "exhaustive:" + "".join(map(str, choice)),
        epsilon,
    )


def trace_fidelity(spec: Circuit, impl: Circuit) -> tuple[float, float]:
    """(entanglement fidelity, average gate fidelity) of the two circuits'
    unitaries, from tr(U_spec† U_impl) summed over blocks of basis states.

    Each block holds at most BLOCK_AMPS amplitudes, so up to n = 8 there is
    one block; only one pair of blocks is live at a time. The fidelities
    are clamped as `oracle.ent_fidelity` and `oracle.avg_fidelity` clamp
    them."""
    _check_compatible(spec, impl)
    n = spec.num_qubits
    if n > EXACT_LIMIT:
        raise ValueError(f"{n} qubits exceeds the exact-check limit of {EXACT_LIMIT}")
    dim = 1 << n
    spec_ops, impl_ops = compile_ops(spec), compile_ops(impl)
    max_rows = max(1, BLOCK_AMPS >> n)
    trace = 0j
    for first in range(0, dim, max_rows):
        # basis states first, first + 1, ... as the classical stimuli of their bits
        indices = np.arange(first, min(first + max_rows, dim))
        bits = (indices[:, None] >> np.arange(n)) & 1
        out_spec, out_impl = _run_block(Draws(CLASSICAL, bits), n, spec_ops, impl_ops)
        # the transposes are C-contiguous, so vdot flattens them without a copy
        trace += complex(np.vdot(out_spec.T, out_impl.T))
        del out_spec, out_impl
    f_ent = min(max(abs(trace) ** 2 / 4.0**n, 0.0), 1.0)
    return f_ent, (dim * f_ent + 1.0) / (dim + 1.0)
