#!/usr/bin/env python3
"""Time the gate-application kernel, whole-circuit simulation and the
verifier's block stimulus engine.

1. The time per amplitude of one gate from each update class of the numpy
   kernel: u1 (diagonal), cu1 (diagonal, one control), cx (anti-diagonal,
   one control) and h (dense), each applied to every target in turn, at
   n = 4, 8, ..., max-qubits; and the floor they are measured against, one
   in-place `np.multiply` of the whole state by a scalar.
2. For qft(16) and one global stimulus at n = 16: the gate count, the
   kernel-op count `compile_ops` makes of them, and the best time per
   `simulate`.
3. The block engine, for each scheme at n = 4, 8 and 16 and blocks of 1, 4
   and 16 rows: stimuli per second through the whole engine, and the time
   per stimulus of its layers: drawing, preparing the (B, 2^n) block, and
   simulating spec and impl (both qft(n)) on it. `verify` caps a block at
   2^16 amplitudes, so at n = 16 it only ever runs one row; the wider rows
   there show what a wider block would cost. The witness column is the
   time per `Draws.stimulus` of one row: the preparation circuit `verify`
   rebuilds for the stimulus that detects an error.
4. One global stimulus (one layer per qubit) at n = 4, 8, ..., 20, up to
   max-qubits: the time per `Draws.prepare` of a one-row block, which goes
   through the row's stabilizer tableau, against simulating the same
   preparation circuit gate by gate with `simulate`; the two parts of
   `prepare` timed apart, `evolve` (the tableau taken through every
   sub-round, then reduced to the row's amplitude tables) and `write` (the
   amplitudes written from those tables into a new one-row block); the
   tracemalloc peak of one such `prepare` in a new thread, in bytes per
   amplitude (the block itself is 16), measured in a call of its own so
   that tracing slows no timed call; and at n = 4, 8 and 12 the time per
   row of a 16-row block, whose rows each go through their own tableau, as
   in `verify`. n = 4 and 8 are the sizes at which the equivalence
   workloads and the global-ensemble acceptance test prepare their rows.
5. The equivalence filter of `bench`, for qft(n) against an insert_2
   mutant: ms per pair for the oracle route (two `oracle.build_unitary`
   calls and `oracle.avg_fidelity`) and for `equivalence.trace_fidelity`,
   at n = 4 and 6, and for `trace_fidelity` alone at n = 8, past the
   oracle's limit.
6. Parsing, in us per gate: `parse_qasm`, which reads each gate statement
   with one regex match, against the token parser `_Parser(source).parse()`
   it must agree with, on the `emit_qasm` texts of the bundled corpus (all
   nine circuits per pass) and of qft(16).
7. The block schedule of `verify`: for each scheme at n = 4, 8 and 12, the
   best ms per `verify` of qft(n) against an equivalent rewrite (an H pair
   inserted in front) with the default budget of 16 stimuli, which runs to
   the end, and the row count of each block it ran (`report.blocks`).

Usage: python3 benchmarks/kernel_benchmark.py [--max-qubits N] [--repeats R] [--json PATH]

`--json PATH` also writes every printed row, table by table, to PATH, with
the Python and numpy versions, the machine, the CPU count and the kernel
backend.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import threading
import time
import tracemalloc

import numpy as np

from stimcheck import clifford, kernels, oracle, qasm
from stimcheck.circuit import Gate, GateKind
from stimcheck.equivalence import VerificationConfig, trace_fidelity, verify
from stimcheck.library import bundled_corpus, qft
from stimcheck.mutation import ErrorOption, mutate
from stimcheck.simulator import compile_ops, run_ops, simulate, zero_state
from stimcheck.stimuli import (
    _CONJUGATIONS, CLASSICAL, LOCAL, RandomSource, draw, global_scheme, next_stimulus)

# one gate per update class, as a function of (target, num_qubits)
CLASS_GATES = {
    "u1": lambda t, n: Gate(GateKind.PHASE, t, params=(0.3,)),
    "cu1": lambda t, n: Gate(GateKind.PHASE, t, controls=((t + 1) % n,), params=(0.3,)),
    "cx": lambda t, n: Gate(GateKind.X, t, controls=((t + 1) % n,)),
    "h": lambda t, n: Gate(GateKind.H, t),
}


def random_state(num_qubits: int) -> np.ndarray:
    rng = np.random.default_rng(num_qubits)
    amps = rng.standard_normal(1 << num_qubits) + 1j * rng.standard_normal(1 << num_qubits)
    return amps / np.linalg.norm(amps)


def ns_per_amp(gate_class: str, num_qubits: int, repeats: int) -> float:
    """Best-of-`repeats` kernel time per gate, averaged over all targets,
    divided by the 2^n amplitudes of the state."""
    amps = random_state(num_qubits)
    calls = []
    for target in range(num_qubits):
        gate = CLASS_GATES[gate_class](target, num_qubits)
        m = gate.matrix()
        mask = sum(1 << c for c in gate.controls)
        calls.append((target, mask, m[0, 0], m[0, 1], m[1, 0], m[1, 1]))
    loops = max(1, (1 << 16) >> num_qubits)  # keep each sample well above timer resolution
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(loops):
            for args in calls:
                kernels.apply_2x2(amps, num_qubits, *args)
        best = min(best, (time.perf_counter() - start) / (loops * len(calls)))
    return best / amps.size * 1e9


def floor_ns_per_amp(num_qubits: int, repeats: int) -> float:
    """Best-of-`repeats` time of one in-place `np.multiply` of the state by
    a unit scalar, per amplitude: one read and one write of every
    amplitude, the least any update of the whole state costs."""
    amps = random_state(num_qubits)
    phase = np.exp(0.3j)
    loops = max(1, (1 << 16) >> num_qubits)

    def multiply():
        for _ in range(loops):
            np.multiply(amps, phase, out=amps)

    return best_seconds(multiply, repeats) / loops / amps.size * 1e9


def best_seconds(step, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        step()
        best = min(best, time.perf_counter() - start)
    return best


def simulate_ms(circuit, repeats: int) -> float:
    return best_seconds(lambda: simulate(circuit, zero_state(circuit.num_qubits)), repeats) * 1e3


def block_engine_row(scheme, num_qubits: int, rows: int, repeats: int) -> tuple[float, ...]:
    """(stimuli/s, draw us, prepare us, spec+impl us) per stimulus for blocks
    of `rows` stimuli, each layer timed best-of-`repeats`."""
    ops = compile_ops(qft(num_qubits))
    rng = RandomSource(7, num_qubits, rows)
    draws = draw(scheme, num_qubits, [rng] * rows)
    prepared = draws.prepare()

    def simulate_both():
        # copies in the block's own layout, as verify makes them
        out_spec = prepared.copy(order="K")
        out_impl = prepared.copy(order="K")
        run_ops(out_spec, num_qubits, ops)
        run_ops(out_impl, num_qubits, ops)

    layers = (
        best_seconds(lambda: draw(scheme, num_qubits, [rng] * rows), repeats),
        best_seconds(draws.prepare, repeats),
        best_seconds(simulate_both, repeats),
    )
    per_stimulus = [t / rows for t in layers]
    return (1.0 / sum(per_stimulus), *(t * 1e6 for t in per_stimulus))


ENGINE_LAYERS = ("draw", "prepare", "spec+impl")


def peak_bytes(step) -> int:
    """The tracemalloc peak of one call of `step` in a new thread."""
    peaks = []

    def traced():
        tracemalloc.start()
        try:
            step()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    thread = threading.Thread(target=traced)
    thread.start()
    thread.join()
    return peaks[0]


def witness_us(scheme, num_qubits: int, repeats: int, loops: int = 20) -> float:
    """Best-of-`repeats` time of `Draws.stimulus` on one row, the witness
    `verify` builds for a detecting row, in us."""
    draws = draw(scheme, num_qubits, [RandomSource(11, num_qubits)])

    def build():
        for _ in range(loops):
            draws.stimulus(0, "witness")

    return best_seconds(build, repeats) / loops * 1e6


def show(tables: dict, key: str, title: str, columns, rows: list[dict]) -> None:
    """Print `rows` under `title`, one line each, every column right-aligned
    as `(name, width, format)` gives it (None prints as "-", and a column
    without a format prints as `str` gives it), and keep them under `key`
    for the JSON report."""
    print(f"\n{title}")
    print(" ".join(f"{name:>{width}}" for name, width, _ in columns))
    for row in rows:
        print(" ".join(f"{'-':>{width}}" if row[name] is None
                       else f"{row[name] if fmt else str(row[name]):>{width}{fmt}}"
                       for name, width, fmt in columns))
    tables[key] = rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-qubits", type=int, default=20)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--json", metavar="PATH",
                        help="also write every printed row and the environment to PATH")
    args = parser.parse_args()
    tables: dict[str, list[dict]] = {}

    print(f"kernel: {kernels.backend_name()}")
    show(tables, "kernel_ns_per_amp",
         "ns per amplitude, mean over targets, and one in-place multiply of the state:",
         [("qubits", 6, "d")] + [(name, 8, ".2f") for name in (*CLASS_GATES, "floor")],
         [{"qubits": n, **{name: ns_per_amp(name, n, args.repeats) for name in CLASS_GATES},
           "floor": floor_ns_per_amp(n, args.repeats)}
          for n in range(4, args.max_qubits + 1, 4)])

    circuits = (("qft(16)", qft(16)),
                ("global n=16", next_stimulus(global_scheme(), 16, RandomSource(16)).prep))
    show(tables, "simulate", "whole circuits:",
         [("circuit", 16, ""), ("gates", 6, "d"), ("ops", 6, "d"), ("ms/simulate", 12, ".1f")],
         [{"circuit": label, "gates": circuit.gate_count, "ops": len(compile_ops(circuit)),
           "ms/simulate": simulate_ms(circuit, args.repeats)} for label, circuit in circuits])

    engine = []
    for scheme in (CLASSICAL, LOCAL, global_scheme()):
        for n in (4, 8, 16):
            witness = witness_us(scheme, n, args.repeats)
            for rows in (1, 4, 16):
                rate, *layers = block_engine_row(scheme, n, rows, args.repeats)
                engine.append({"scheme": scheme.kind, "qubits": n, "rows": rows,
                               "stimuli/s": rate, **dict(zip(ENGINE_LAYERS, layers)),
                               "witness": witness})
    show(tables, "block_engine",
         "block engine (spec and impl: qft(n)); us per stimulus by layer, "
         "and us per witness of one row:",
         [("scheme", 9, ""), ("qubits", 6, "d"), ("rows", 4, "d"), ("stimuli/s", 10, ".1f")]
         + [(layer, 10, ".1f") for layer in (*ENGINE_LAYERS, "witness")],
         engine)

    preparations = []
    for n in range(4, min(args.max_qubits, 20) + 1, 4):
        draws = draw(global_scheme(), n, [RandomSource(5, n)])
        circuit = draws.prep(0)
        rounds = list(zip(draws.choices[0].tolist(), draws.pairs[0].tolist()))

        def evolve():
            return clifford._reduce(n, *clifford._evolve(n, _CONJUGATIONS, rounds))

        row_tables = evolve()
        preparations.append({
            "qubits": n,
            "prepare": best_seconds(draws.prepare, args.repeats) * 1e3,
            "evolve": best_seconds(evolve, args.repeats) * 1e3,
            "write": best_seconds(lambda: clifford._write(
                n, [row_tables], np.empty((1, 1 << n), dtype=complex)), args.repeats) * 1e3,
            "simulate": best_seconds(lambda: simulate(circuit, zero_state(n)), args.repeats) * 1e3,
            "peak_B_per_amp": peak_bytes(draws.prepare) / (1 << n),
        })
    show(tables, "global_prepare_ms",
         "one global stimulus, ms per preparation (evolve + write), "
         "and peak bytes per amplitude of prepare:",
         [("qubits", 6, "d"), ("prepare", 10, ".3f"), ("evolve", 10, ".3f"),
          ("write", 10, ".3f"), ("simulate", 10, ".2f"), ("peak_B_per_amp", 14, ".2f")],
         preparations)
    rows = 16
    blocks = []
    for n in (4, 8, 12):
        block = draw(global_scheme(), n, [RandomSource(5, n)] * rows)
        blocks.append({"qubits": n, "rows": rows,
                       "ms/row": best_seconds(block.prepare, args.repeats) / rows * 1e3})
    show(tables, "global_block_ms_per_row",
         f"global block of {rows} rows, one tableau per row, ms per row:",
         [("qubits", 6, "d"), ("rows", 4, "d"), ("ms/row", 8, ".3f")], blocks)

    pairs = []
    for n in (4, 6, 8):
        spec = qft(n)
        mutant = mutate(spec, ErrorOption.INSERT_2, RandomSource(9, n))
        brute = None
        if n <= oracle.ORACLE_LIMIT:
            brute = best_seconds(lambda: oracle.avg_fidelity(oracle.build_unitary(spec),
                                                             oracle.build_unitary(mutant)),
                                 args.repeats) * 1e3
        pairs.append({"qubits": n, "oracle": brute,
                      "trace": best_seconds(lambda: trace_fidelity(spec, mutant),
                                            args.repeats) * 1e3})
    show(tables, "equivalence_filter_ms",
         "equivalence filter, qft(n) against an insert_2 mutant, ms per pair:",
         [("qubits", 6, "d"), ("oracle", 10, ".2f"), ("trace", 10, ".2f")], pairs)

    parsers = {"parse_qasm": qasm.parse_qasm, "_Parser": lambda text: qasm._Parser(text).parse()}
    parses = []
    for label, circuits in (("bundled corpus", bundled_corpus()), ("qft(16)", [qft(16)])):
        texts = [qasm.emit_qasm(c) for c in circuits]
        gates = sum(c.gate_count for c in circuits)
        parses.append({"input": label, "gates": gates, **{
            name: best_seconds(lambda: [parse(t) for t in texts], args.repeats) / gates * 1e6
            for name, parse in parsers.items()}})
    show(tables, "parse_us_per_gate", "parsing emitted QASM, us per gate:",
         [("input", 14, ""), ("gates", 6, "d")] + [(name, 10, ".2f") for name in parsers], parses)

    schedules = []
    for scheme in (CLASSICAL, LOCAL, global_scheme()):
        for n in (4, 8, 12):
            spec = qft(n)
            rewrite = spec.prepended(Gate(GateKind.H, 1), Gate(GateKind.H, 1))
            config = VerificationConfig(scheme, seed=n)
            schedules.append({
                "scheme": scheme.kind, "qubits": n,
                "ms/verify": best_seconds(lambda: verify(spec, rewrite, config),
                                          args.repeats) * 1e3,
                "blocks": list(verify(spec, rewrite, config).blocks)})
    show(tables, "verify_schedule",
         "verify of qft(n) against an equivalent rewrite, 16 stimuli: ms per verify, "
         "and rows per block:",
         [("scheme", 9, ""), ("qubits", 6, "d"), ("ms/verify", 10, ".2f"), ("blocks", 12, "")],
         schedules)

    if args.json:
        report = {
            "environment": {"python": platform.python_version(), "numpy": np.__version__,
                            "cpu_count": os.cpu_count(), "machine": platform.machine(),
                            "kernel_backend": kernels.backend_name()},
            "args": {"max_qubits": args.max_qubits, "repeats": args.repeats},
            "tables": tables,
        }
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
