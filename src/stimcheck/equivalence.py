"""Simulative verification loop: draw a stimulus, simulate both circuits,
compare output fidelity, stop at the first discrepancy or when the budget
is exhausted."""
from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from enum import Enum

from .circuit import Circuit
from .simulator import fidelity, simulate, zero_state
from .stimuli import LOCAL, RandomSource, Scheme, Stimulus, local_prep, next_stimulus

DEFAULT_MAX_STIMULI = 16
DEFAULT_EPSILON = 1e-8
EXHAUSTIVE_LOCAL_LIMIT = 8


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

    @property
    def min_fidelity(self) -> float:
        return min(self.fidelities) if self.fidelities else 1.0


def _check_compatible(spec: Circuit, impl: Circuit) -> None:
    if spec.num_qubits != impl.num_qubits:
        raise ValueError(
            f"qubit counts differ: specification has {spec.num_qubits}, "
            f"realization has {impl.num_qubits}"
        )


def _run_stimuli(spec, impl, stimuli, epsilon) -> VerificationReport:
    start = time.perf_counter()
    fidelities: list[float] = []
    n = spec.num_qubits
    for stimulus in stimuli:
        prepared = simulate(stimulus.prep, zero_state(n))
        out_spec = simulate(spec, prepared)
        out_impl = simulate(impl, prepared)
        f = fidelity(out_spec, out_impl)
        fidelities.append(f)
        if 1.0 - f > epsilon:
            return VerificationReport(
                Verdict.ERROR_DETECTED, len(fidelities), fidelities, stimulus,
                time.perf_counter() - start,
            )
    return VerificationReport(
        Verdict.BUDGET_EXHAUSTED, len(fidelities), fidelities, None,
        time.perf_counter() - start,
    )


def verify(spec: Circuit, impl: Circuit, config: VerificationConfig) -> VerificationReport:
    """Budgeted verification with randomly drawn stimuli; deterministic given the seed."""
    _check_compatible(spec, impl)
    rng = RandomSource(config.seed)
    stimuli = (
        next_stimulus(config.scheme, spec.num_qubits, rng, seed_tag=f"{config.seed}:{k}")
        for k in range(config.max_stimuli)
    )
    return _run_stimuli(spec, impl, stimuli, config.epsilon)


def verify_exhaustive_local(
    spec: Circuit,
    impl: Circuit,
    epsilon: float = DEFAULT_EPSILON,
    limit: int = EXHAUSTIVE_LOCAL_LIMIT,
) -> VerificationReport:
    """Enumerate all 6^n local stimuli without repetition."""
    _check_compatible(spec, impl)
    n = spec.num_qubits
    if n > limit:
        raise ValueError(f"{n} qubits exceeds the exhaustive limit of {limit}")

    def stimuli():
        for choice in itertools.product(range(6), repeat=n):
            yield Stimulus(local_prep(choice), LOCAL,
                           seed_tag="exhaustive:" + "".join(map(str, choice)))

    return _run_stimuli(spec, impl, stimuli(), epsilon)
