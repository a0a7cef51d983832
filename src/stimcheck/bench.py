"""Error-injection benchmark harness with CSV reporting.

For every (circuit x error option x error seed x stimulus seed x scheme) a
faulty realization is generated and verified; results are aggregated into
one row per (circuit, scheme, error option).

Detection rate p_s is computed over usable instances: instances whose
mutation is inapplicable are skipped, and mutations whose exact average
gate fidelity (`is_functional_mutation`) proves them accidentally
equivalent are filtered out and reported separately. A row
with no usable instance has p_s NaN, so that it does not read as 0 %
detected. The average stimulus count is taken over detected instances.
avg_time is a verify's whole wall clock per stimulus used, averaged over
verifies: compiling both circuits and drawing, preparing, simulating and
comparing the stimuli, not the simulation alone.
"""
from __future__ import annotations

import csv
import math
import statistics
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .circuit import Circuit
from .equivalence import (
    DEFAULT_EPSILON, DEFAULT_MAX_STIMULI, Verdict, VerificationConfig, check_epsilon, verify)
from .mutation import ErrorOption, MutationError, is_functional_mutation, mutate
from .qasm import load_circuit
from .stimuli import RandomSource, Scheme

CSV_HEADER = [
    "circuit", "n", "scheme", "error_option",
    "p_s", "p_s_std", "avg_stimuli", "avg_stimuli_std",
    "avg_time", "avg_time_std", "total", "skipped", "equiv_filtered",
]


@dataclass(frozen=True)
class BenchmarkConfig:
    circuit_paths: tuple[str, ...] = ()
    schemes: tuple[Scheme, ...] = ()
    error_options: tuple[ErrorOption, ...] = tuple(ErrorOption)
    error_seeds: int = 50
    stimuli_seeds: int = 5
    max_stimuli: int = DEFAULT_MAX_STIMULI
    epsilon: float = DEFAULT_EPSILON
    output_path: str | None = None
    master_seed: int = 0

    def __post_init__(self):
        if self.error_seeds < 1 or self.stimuli_seeds < 1:
            raise ValueError("seed counts must be at least 1")
        check_epsilon(self.epsilon)


@dataclass
class BenchmarkRow:
    circuit: str
    num_qubits: int
    scheme: str
    error_option: str
    p_s: float
    p_s_std: float
    avg_stimuli: float
    avg_stimuli_std: float
    avg_time: float
    avg_time_std: float
    total: int
    skipped: int
    equiv_filtered: int

    def as_record(self) -> list:
        return [
            self.circuit, self.num_qubits, self.scheme, self.error_option,
            f"{self.p_s:.4f}", f"{self.p_s_std:.4f}",
            f"{self.avg_stimuli:.4f}", f"{self.avg_stimuli_std:.4f}",
            f"{self.avg_time:.6f}", f"{self.avg_time_std:.6f}",
            self.total, self.skipped, self.equiv_filtered,
        ]


def _derived_seed(*entropy: int) -> int:
    seq = np.random.SeedSequence([e & 0xFFFFFFFFFFFFFFFF for e in entropy])
    return int(seq.generate_state(1, np.uint64)[0])


def _mean_std(values: list[float]) -> tuple[float, float]:
    if not values:
        return math.nan, math.nan
    if len(values) == 1:
        return values[0], 0.0
    return statistics.fmean(values), statistics.stdev(values)


def run_benchmark_circuits(
    circuits: list[Circuit], config: BenchmarkConfig
) -> list[BenchmarkRow]:
    if config.output_path:
        # an unwritable CSV path fails here, before the first verify
        open(config.output_path, "a").close()
    rows: list[BenchmarkRow] = []
    for ci, circuit in enumerate(circuits):
        # Mutants are shared across schemes and stimulus seeds.
        for oi, option in enumerate(config.error_options):
            mutants: list[Circuit | None] = []  # None = unusable instance
            functional: list[bool | None] = []
            for e in range(config.error_seeds):
                rng = RandomSource(config.master_seed, ci, oi, e)
                try:
                    mutant = mutate(circuit, option, rng)
                except MutationError:
                    mutants.append(None)
                    functional.append(None)
                    continue
                mutants.append(mutant)
                functional.append(is_functional_mutation(circuit, mutant))
            for si, scheme in enumerate(config.schemes):
                detected_flags: list[float] = []
                stimuli_counts: list[float] = []
                times: list[float] = []
                skipped = 0
                filtered = 0
                for e, mutant in enumerate(mutants):
                    for s in range(config.stimuli_seeds):
                        if mutant is None:
                            skipped += 1
                            continue
                        if functional[e] is False:
                            filtered += 1
                            continue
                        seed = _derived_seed(config.master_seed, ci, oi, e, s, si)
                        report = verify(
                            circuit, mutant,
                            VerificationConfig(scheme, config.max_stimuli, config.epsilon, seed),
                        )
                        hit = report.verdict is Verdict.ERROR_DETECTED
                        detected_flags.append(1.0 if hit else 0.0)
                        times.append(report.elapsed / report.stimuli_used)
                        if hit:
                            stimuli_counts.append(float(report.stimuli_used))
                p_s, p_s_std = _mean_std(detected_flags)
                avg_s, avg_s_std = _mean_std(stimuli_counts)
                avg_t, avg_t_std = _mean_std(times)
                rows.append(BenchmarkRow(
                    circuit=circuit.name or f"circuit_{ci}",
                    num_qubits=circuit.num_qubits,
                    scheme=scheme.kind,
                    error_option=option.label,
                    p_s=100.0 * p_s,
                    p_s_std=100.0 * p_s_std,
                    avg_stimuli=avg_s,
                    avg_stimuli_std=avg_s_std,
                    avg_time=avg_t,
                    avg_time_std=avg_t_std,
                    total=config.error_seeds * config.stimuli_seeds,
                    skipped=skipped,
                    equiv_filtered=filtered,
                ))
    if config.output_path:
        write_csv(rows, config.output_path)
    return rows


def run_benchmark(config: BenchmarkConfig) -> list[BenchmarkRow]:
    circuits = [load_circuit(path) for path in config.circuit_paths]
    return run_benchmark_circuits(circuits, config)


def write_csv(rows: list[BenchmarkRow], out: str | TextIO) -> None:
    """Write the header and the rows as CSV to the file at path `out`, or to
    the open text stream `out`."""
    if isinstance(out, str):
        with open(out, "w", newline="") as fh:
            write_csv(rows, fh)
        return
    writer = csv.writer(out)
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow(row.as_record())
