"""The benchmark's three workloads: their inputs, their laps and their
verdict checks.

Each workload is a closed loop run from one process and one thread: the next
request starts when the last returns. A lap is a fixed list of requests built
from the workload seed, and every lap repeats it exactly (same inputs, same
verify seeds), so each unit of work is timed once per lap, with a host
probe that says how fast the host ran during it.

- mutant-sweep: the paper's error-injection experiment, through
  `stimcheck.bench.run_benchmark_circuits`. Most verifies stop at the first
  stimulus, so per-gate dispatch on tiny states, stimulus generation and the
  mutation/oracle filter dominate; kernel bandwidth plays no part.
- equiv-small: compiler-check case. Corpus circuits at n = 4, 6, 8 against
  equivalent rewrites, as QASM text; every verify runs its full budget.
  Same layers as mutant-sweep used the opposite way: no early exit, no
  mutation, no oracle.
- wide-equiv: qft at n = 16 against an equivalent rewrite, once per scheme,
  with a one-stimulus budget run to exhaustion.
  The kernel does nearly all the work; dispatch, generation and parsing are
  a few percent and the oracle does not run.
"""
from __future__ import annotations

import signal
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import stimcheck
from stimcheck import bench, equivalence, oracle, qasm, simulator
from stimcheck.bench import BenchmarkConfig
from stimcheck.circuit import Circuit, Gate, GateKind
from stimcheck.equivalence import Verdict, VerificationConfig
from stimcheck.library import bundled_corpus, qft
from stimcheck.mutation import EQUIVALENCE_MARGIN

from tracing import patched

clock = time.perf_counter

SCHEMES = (stimcheck.CLASSICAL, stimcheck.LOCAL, stimcheck.global_scheme())
EPSILON = 1e-8
# Gate pairs whose product is the identity; inserting one keeps a circuit
# equivalent.
INVERSE_PAIRS = (
    (GateKind.H, GateKind.H),
    (GateKind.S, GateKind.SDG),
    (GateKind.T, GateKind.TDG),
    (GateKind.X, GateKind.X),
)


@dataclass(frozen=True)
class Scale:
    """Input sizes. FULL is the benchmark; the self-test uses a tiny one."""
    sweep_sizes: tuple[int, ...] = (4, 6, 8)
    error_seeds: int = 4
    equiv_sizes: tuple[int, ...] = (4, 6, 8)
    rewrites: int = 1
    wide_qubits: int = 16
    wide_stimuli: int = 1
    max_stimuli: int = 16


FULL = Scale()


_PROBE_ARRAY = np.ones(16, dtype=complex)
# Amplitudes of the streaming probe: a 16-qubit state, 1 MB.
STREAM_AMPS = 1 << 16
_stream_state: list[np.ndarray] = []


def _python_step() -> None:
    """Python arithmetic and small numpy calls, the same kind of work as
    per-gate dispatch on tiny states."""
    acc = 0
    for i in range(200):
        acc += i * 3 % 7
    for _ in range(20):
        _PROBE_ARRAY * 0.5 + _PROBE_ARRAY


def _stream_step() -> None:
    """One numpy 2x2 update of a 1 MB state, the same kind of work as the
    kernel on wide states: copy one half, write both halves as a*x + b*y."""
    if not _stream_state:
        _stream_state.append(np.ones(STREAM_AMPS, dtype=complex))
    halves = _stream_state[0].reshape(2, -1)
    x0 = halves[0].copy()
    halves[0] = 0.6 * x0 + 0.8 * halves[1]
    halves[1] = 0.8 * x0 - 0.6 * halves[1]


@dataclass(frozen=True)
class Probe:
    """A fixed step of work and its time on a host where no neighbour
    contends for the core (Intel Xeon, 2 vCPUs). Under contention interpreter
    code slows 1.5-2x but memory-streaming numpy code less, so each workload
    is gauged by the probe whose work resembles its own.

    A probe runs once after each unit of work. With `interval_s` set it runs
    instead every interval_s during the unit, from an interval timer, so that
    it gauges the host over the unit itself; that suits units of a second or
    so, between which the host's speed can change."""
    step: Callable[[], None]
    quiet_s: float
    interval_s: float = 0.0

    def slowdown(self, steps: int = 3) -> float:
        """Median step time over its quiet-host time. Taken right after a
        unit of work, it gauges how fast the host ran at that moment."""
        times = []
        for _ in range(steps):
            t0 = clock()
            self.step()
            times.append(clock() - t0)
        return sorted(times)[steps // 2] / self.quiet_s


# 37-40 us per step when quiet, 62-79 us when contended.
PYTHON_PROBE = Probe(_python_step, 40e-6)
# 0.38-0.42 ms per step when quiet, 0.5-0.6 ms when contended; every 50 ms,
# which costs a unit about 1% of its time (subtracted from it).
STREAM_PROBE = Probe(_stream_step, 0.4e-3, interval_s=0.05)


@dataclass
class Lap:
    """One pass over a workload's requests."""
    probe: Probe = PYTHON_PROBE
    units: list[tuple[str, float]] = field(default_factory=list)  # (kind, seconds), call order
    slowdowns: list[float] = field(default_factory=list)  # host slowdown during each unit
    probe_s: float = 0.0  # time spent in probes, within units or after them
    verifies: list[tuple] = field(default_factory=list)  # (spec, impl, config, report)
    errors: list[str] = field(default_factory=list)
    rows: list = field(default_factory=list)
    seconds: float = 0.0
    _samples: list[float] = field(default_factory=list)  # in-unit slowdowns
    _sampled_s: float = 0.0  # in-unit probe time

    def _sample(self, signum, frame) -> None:
        t0 = clock()
        self.probe.step()
        elapsed = clock() - t0
        self._samples.append(elapsed / self.probe.quiet_s)
        self._sampled_s += elapsed

    @contextmanager
    def unit(self, kind: str):
        """Time the body as one unit of work, less the probe time within it,
        and record the host slowdown the probe measured during or after it."""
        interval = self.probe.interval_s
        self._samples, self._sampled_s = [], 0.0
        if interval:
            previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, interval, interval)
        t0 = clock()
        try:
            yield
        finally:
            seconds = clock() - t0
            if interval:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            t1 = clock()
            samples = self._samples or [self.probe.slowdown()]
            self.slowdowns.append(sorted(samples)[len(samples) // 2])
            self.probe_s += clock() - t1 + self._sampled_s
            self.units.append((kind, seconds - self._sampled_s))


def _derived_seed(*entropy: int) -> int:
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def rewrite(circuit: Circuit, rng: np.random.Generator) -> Circuit:
    """Insert inverse pairs at seeded positions: one pair per ten gates, at least two."""
    gates = list(circuit.gates)
    for _ in range(max(2, circuit.gate_count // 10)):
        first, second = INVERSE_PAIRS[rng.integers(len(INVERSE_PAIRS))]
        qubit = int(rng.integers(circuit.num_qubits))
        position = int(rng.integers(len(gates) + 1))
        gates[position:position] = [Gate(first, qubit), Gate(second, qubit)]
    return Circuit(circuit.num_qubits, tuple(gates), name=f"{circuit.name}+rewrite")


# --- mutant-sweep -------------------------------------------------------------

@dataclass
class SweepInputs:
    circuits: list[Circuit]
    config: BenchmarkConfig


class MutantSweep:
    request_kind = "verify"
    equivalent = False
    probe = PYTHON_PROBE

    @staticmethod
    def build(seed: int, scale: Scale) -> SweepInputs:
        config = BenchmarkConfig(
            schemes=SCHEMES, error_seeds=scale.error_seeds, stimuli_seeds=1,
            max_stimuli=scale.max_stimuli, epsilon=EPSILON, master_seed=seed,
        )
        return SweepInputs(bundled_corpus(scale.sweep_sizes), config)

    @staticmethod
    def check_inputs(inputs: SweepInputs) -> list[str]:
        return []

    @staticmethod
    def lap(inputs: SweepInputs, lap: Lap, tracer=None) -> None:
        def timed(kind, fn, record=False):
            def wrapper(*args):
                with lap.unit(kind):
                    result = fn(*args)
                if record:
                    lap.verifies.append((*args, result))
                return result
            return wrapper

        timers = [
            (bench, "verify", timed("verify", bench.verify, record=True)),
            (bench, "mutate", timed("mutate", bench.mutate)),
            (bench, "is_functional_mutation", timed("filter", bench.is_functional_mutation)),
        ]
        with patched(timers), tracer.installed() if tracer else nullcontext():
            lap.rows = bench.run_benchmark_circuits(inputs.circuits, inputs.config)


# --- equiv-small and wide-equiv -------------------------------------------------

@dataclass(frozen=True)
class Request:
    num_qubits: int
    spec_text: str
    impl_text: str
    config: VerificationConfig


def _requests(seed: int, circuits: list[Circuit], rewrites: int, max_stimuli: int):
    requests = []
    for ci, circuit in enumerate(circuits):
        spec_text = stimcheck.emit_qasm(circuit)
        for r in range(rewrites):
            impl = rewrite(circuit, np.random.default_rng([seed, ci, r]))
            impl_text = stimcheck.emit_qasm(impl)
            for si, scheme in enumerate(SCHEMES):
                config = VerificationConfig(scheme, max_stimuli, EPSILON,
                                            _derived_seed(seed, ci, r, si))
                requests.append(Request(circuit.num_qubits, spec_text, impl_text, config))
    return requests


class EquivSmall:
    request_kind = "request"
    equivalent = True
    probe = PYTHON_PROBE

    @staticmethod
    def build(seed: int, scale: Scale) -> list[Request]:
        corpus = bundled_corpus(scale.equiv_sizes, seed=seed)
        return _requests(seed, corpus, scale.rewrites, scale.max_stimuli)

    @staticmethod
    def check_inputs(requests: list[Request]) -> list[str]:
        """Every rewrite the oracle can handle must have average gate fidelity 1."""
        failures = []
        checked = set()
        for req in requests:
            key = (req.spec_text, req.impl_text)
            if req.num_qubits > oracle.ORACLE_LIMIT or key in checked:
                continue
            checked.add(key)
            f = oracle.avg_fidelity(oracle.build_unitary(qasm.parse_qasm(req.spec_text)),
                                    oracle.build_unitary(qasm.parse_qasm(req.impl_text)))
            if f < 1.0 - EQUIVALENCE_MARGIN:
                failures.append(f"rewrite at n={req.num_qubits} is not equivalent: "
                                f"avg fidelity {f!r}")
        return failures

    @staticmethod
    def lap(requests: list[Request], lap: Lap, tracer=None) -> None:
        with tracer.installed() if tracer else nullcontext():
            for req in requests:
                spec = impl = report = None
                with lap.unit("request"):
                    try:
                        with tracer.span("bench.request") if tracer else nullcontext():
                            spec = qasm.parse_qasm(req.spec_text)
                            impl = qasm.parse_qasm(req.impl_text)
                            report = equivalence.verify(spec, impl, req.config)
                    except Exception as exc:  # counted as a failed verify; the loop goes on
                        lap.errors.append(f"n={req.num_qubits} {req.config.scheme.kind}: {exc!r}")
                lap.verifies.append((spec, impl, req.config, report))


class WideEquiv(EquivSmall):
    probe = STREAM_PROBE

    @staticmethod
    def build(seed: int, scale: Scale) -> list[Request]:
        return _requests(seed, [qft(scale.wide_qubits)], 1, scale.wide_stimuli)


WORKLOADS = {"mutant-sweep": MutantSweep, "equiv-small": EquivSmall, "wide-equiv": WideEquiv}


# --- verdict gate ---------------------------------------------------------------

def signature(report) -> tuple | None:
    if report is None:
        return None
    return (report.verdict, report.stimuli_used, tuple(report.fidelities))


def _consistent(report, max_stimuli: int, epsilon: float) -> bool:
    """The verdict agrees with the fidelities the report carries."""
    fids = report.fidelities
    if len(fids) != report.stimuli_used or not fids:
        return False
    if report.verdict is Verdict.ERROR_DETECTED:
        return 1.0 - fids[-1] > epsilon and all(1.0 - f <= epsilon for f in fids[:-1])
    return report.stimuli_used == max_stimuli and all(1.0 - f <= epsilon for f in fids)


def _witness_confirmed(spec: Circuit, impl: Circuit, prep: Circuit, epsilon: float,
                       unitaries: dict) -> bool:
    """At n <= ORACLE_LIMIT through the oracle's explicit unitaries, else by
    simulating the witness again."""
    n = spec.num_qubits
    if n <= oracle.ORACLE_LIMIT:
        for c in (spec, impl):
            if id(c) not in unitaries:
                unitaries[id(c)] = oracle.build_unitary(c)
        psi = oracle.build_unitary(prep)[:, 0]
        overlap = np.vdot(unitaries[id(spec)] @ psi, unitaries[id(impl)] @ psi)
        return 1.0 - abs(overlap) ** 2 > epsilon
    prepared = simulator.simulate(prep, simulator.zero_state(n))
    f = simulator.fidelity(simulator.simulate(spec, prepared), simulator.simulate(impl, prepared))
    return 1.0 - f > epsilon


def check_verdicts(verifies: list[tuple], equivalent: bool) -> list[str]:
    """Check one lap's verifies. Equivalent pairs must exhaust the budget at
    fidelity 1; every detection's witness must be confirmed independently."""
    failures = []
    unitaries: dict = {}
    for k, (spec, impl, config, report) in enumerate(verifies):
        where = f"verify {k} (n={spec.num_qubits if spec else '?'}, {config.scheme.kind})"
        if report is None:
            failures.append(f"{where}: raised")
        elif not _consistent(report, config.max_stimuli, config.epsilon):
            failures.append(f"{where}: verdict disagrees with its fidelities")
        elif equivalent and report.verdict is not Verdict.BUDGET_EXHAUSTED:
            failures.append(f"{where}: equivalent pair flagged, min fidelity {report.min_fidelity!r}")
        elif report.verdict is Verdict.ERROR_DETECTED and not _witness_confirmed(
                spec, impl, report.witness.prep, config.epsilon, unitaries):
            failures.append(f"{where}: witness not confirmed")
    return failures
