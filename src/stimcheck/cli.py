"""Command-line front end.

Subcommands: verify, bench, mutate, gen-circuits, oracle-check.
Exit codes for verify: 0 = no discrepancy found, 1 = error detected,
2 = usage/IO/parse error, or out of memory.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .bench import BenchmarkConfig, run_benchmark, write_csv
from .equivalence import (
    DEFAULT_EPSILON,
    DEFAULT_MAX_STIMULI,
    EXACT_LIMIT,
    Verdict,
    VerificationConfig,
    trace_fidelity,
    verify,
)
from .library import FAMILIES, family_circuit
from .mutation import EQUIVALENCE_MARGIN, ErrorOption, MutationError, mutate
from .oracle import (
    OMEGA_LIMIT,
    ORACLE_LIMIT,
    avg_fidelity,
    build_unitary,
    ent_fidelity,
    ent_fidelity_via_omega,
    mean_local_fidelity,
)
from .qasm import QasmError, emit_qasm, load_circuit, read_text
from .stimuli import SCHEME_KINDS, RandomSource, Scheme

EXIT_OK = 0
EXIT_DETECTED = 1
EXIT_ERROR = 2

_OPTION_BY_LABEL = {opt.label: opt for opt in ErrorOption}


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scheme", choices=SCHEME_KINDS, default="global")
    parser.add_argument("--layers", type=int, default=None,
                        help="layer count for the global scheme (default: one per qubit)")
    parser.add_argument("--max-stimuli", type=int, default=DEFAULT_MAX_STIMULI)
    parser.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    parser.add_argument("--seed", type=int, default=0)


def _cmd_verify(args) -> int:
    if args.witness_out:
        # an unwritable witness path fails here, before the verify
        witness = Path(args.witness_out)
        if witness.is_dir() or not os.access(witness.parent, os.W_OK | os.X_OK):
            print(f"error: cannot write the witness to {witness}: "
                  "not a file in a writable directory", file=sys.stderr)
            return EXIT_ERROR
    spec = load_circuit(args.spec)
    impl = load_circuit(args.impl)
    scheme = Scheme(args.scheme, args.layers)
    config = VerificationConfig(scheme, args.max_stimuli, args.epsilon, args.seed)
    try:
        report = verify(spec, impl, config)
    except MemoryError:
        raise MemoryError(f"verifying {spec.num_qubits}-qubit circuits needs more memory "
                          "than is free") from None
    detected = report.verdict is Verdict.ERROR_DETECTED
    print(f"verdict: {'error detected' if detected else 'no discrepancy found (budget exhausted)'}")
    print(f"scheme: {args.scheme}")
    print(f"stimuli used: {report.stimuli_used}")
    print(f"minimum fidelity: {report.min_fidelity:.6g}")
    print(f"elapsed: {report.elapsed:.4f} s")
    if detected and args.witness_out:
        Path(args.witness_out).write_text(emit_qasm(report.witness.prep))
        print(f"witness stimulus written to {args.witness_out}")
    return EXIT_DETECTED if detected else EXIT_OK


_CONFIG_KEYS = ("circuit_paths", "schemes", "error_options", "layers", "error_seeds",
               "stimuli_seeds", "max_stimuli", "epsilon", "output_path", "master_seed")


def _read_config_file(path: str) -> dict[str, tuple[str, int]]:
    """Each key's value and line number, from the text `read_text` reads."""
    try:
        text = read_text(path)
    except QasmError as exc:
        raise ValueError(str(exc)) from None
    values: dict[str, tuple[str, int]] = {}
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, equals, value = (part.strip() for part in line.partition("="))
        if not equals:
            raise ValueError(f"{path}:{number}: expected 'key = value', found {raw!r}")
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}:{number}: unknown key {key!r}; "
                             f"expected one of {', '.join(_CONFIG_KEYS)}")
        values[key] = value, number
    return values


def _count(text: str) -> int:
    count = int(text)
    if count < 1:
        raise ValueError(f"must be at least 1, got {count}")
    return count


def _scheme_names(text: str) -> list[str]:
    return [Scheme(name).kind for name in text.split(",")]  # Scheme checks each name


def _error_options(text: str) -> tuple[ErrorOption, ...]:
    try:
        return tuple(_OPTION_BY_LABEL[label] for label in text.split(","))
    except KeyError as exc:
        raise ValueError(f"unknown error option {exc}") from None


def _cmd_bench(args) -> int:
    file_values = _read_config_file(args.config) if args.config else {}

    def pick(flag_value, key, convert, default):
        """`convert` of the flag's value, else of the file's, else the
        default. An error names the key, and the file and line it is on."""
        if flag_value is not None:
            value, where = flag_value, ""
        elif key in file_values:
            value, number = file_values[key]
            where = f"{args.config}:{number}: "
        else:
            return default
        try:
            return convert(value)
        except ValueError as exc:
            raise ValueError(f"{where}{key}: {exc}") from None

    circuits = list(args.circuits or [])
    if not circuits and "circuit_paths" in file_values:
        circuits = file_values["circuit_paths"][0].split(",")
    if not circuits:
        print("error: no circuit files given", file=sys.stderr)
        return EXIT_ERROR

    scheme_names = pick(args.schemes, "schemes", _scheme_names, SCHEME_KINDS)
    options = pick(args.options, "error_options", _error_options, tuple(ErrorOption))
    layers = pick(args.layers, "layers", lambda s: Scheme("global", int(s)).layers, None)
    config = BenchmarkConfig(
        circuit_paths=tuple(circuits),
        schemes=tuple(Scheme(name, layers if name == "global" else None)
                      for name in scheme_names),
        error_options=options,
        error_seeds=pick(args.error_seeds, "error_seeds", _count, BenchmarkConfig.error_seeds),
        stimuli_seeds=pick(args.stimuli_seeds, "stimuli_seeds", _count,
                           BenchmarkConfig.stimuli_seeds),
        max_stimuli=pick(args.max_stimuli, "max_stimuli", _count, BenchmarkConfig.max_stimuli),
        epsilon=pick(args.epsilon, "epsilon", float, BenchmarkConfig.epsilon),
        output_path=pick(args.out, "output_path", str, BenchmarkConfig.output_path),
        master_seed=pick(args.seed, "master_seed", int, BenchmarkConfig.master_seed),
    )
    rows = run_benchmark(config)
    if args.format == "csv" and not config.output_path:
        write_csv(rows, sys.stdout)
    else:
        for row in rows:
            print(f"{row.circuit:>14} n={row.num_qubits:<3} {row.scheme:>9} "
                  f"{row.error_option:>14} p_s={row.p_s:7.2f}% "
                  f"avg_s={row.avg_stimuli:7.3f} avg_t={row.avg_time:.5f}s "
                  f"(total={row.total} skipped={row.skipped} equiv={row.equiv_filtered})")
    if config.output_path:
        print(f"CSV written to {config.output_path}")
    return EXIT_OK


def _cmd_mutate(args) -> int:
    circuit = load_circuit(args.spec)
    option = _OPTION_BY_LABEL.get(args.option)
    if option is None:
        print(f"error: unknown error option {args.option!r}; "
              f"choose from {', '.join(_OPTION_BY_LABEL)}", file=sys.stderr)
        return EXIT_ERROR
    try:
        mutant = mutate(circuit, option, RandomSource(args.seed))
    except MutationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    text = emit_qasm(mutant)
    if args.out:
        Path(args.out).write_text(text)
        print(f"mutated circuit written to {args.out}")
    else:
        print(text, end="")
    return EXIT_OK


def _cmd_gen_circuits(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    sizes = [int(s) for s in args.sizes.split(",")]
    families = args.families.split(",")
    written = []
    for n in sizes:
        for family in families:
            # an unknown family raises ValueError, which main reports
            circuit = family_circuit(family, n, args.seed, args.gates)
            path = out_dir / f"{circuit.name}.qasm"
            path.write_text(emit_qasm(circuit))
            written.append(path)
    for path in written:
        print(path)
    return EXIT_OK


def _cmd_oracle_check(args) -> int:
    spec = load_circuit(args.spec)
    impl = load_circuit(args.impl)
    if spec.num_qubits != impl.num_qubits:
        print("error: qubit counts differ", file=sys.stderr)
        return EXIT_ERROR
    n = spec.num_qubits
    if n <= ORACLE_LIMIT:
        u = build_unitary(spec)
        v = build_unitary(impl)
        f_ent = ent_fidelity(u, v)
        f_avg = avg_fidelity(u, v)
    else:
        # exact from the kernel trace; raises above EXACT_LIMIT
        f_ent, f_avg = trace_fidelity(spec, impl)
    print(f"entanglement fidelity: {f_ent:.12f}")
    print(f"average gate fidelity: {f_avg:.12f}")
    if n <= OMEGA_LIMIT:
        print(f"entanglement fidelity via |Omega>: {ent_fidelity_via_omega(spec, impl):.12f}")
    if n <= ORACLE_LIMIT:
        print(f"mean fidelity over all 6^{n} local stimuli: {mean_local_fidelity(spec, impl):.12f}")
    else:
        print(f"skipped above {ORACLE_LIMIT} qubits: the |Omega> and 6^{n}-local measures")
    equivalent = f_avg > 1.0 - EQUIVALENCE_MARGIN
    print(f"functionally equivalent: {'yes' if equivalent else 'no'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stimcheck",
        description="Simulative equivalence checking for quantum circuits via random stimuli",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="check a realization against a specification")
    p_verify.add_argument("spec")
    p_verify.add_argument("impl")
    _add_common_flags(p_verify)
    p_verify.add_argument("--witness-out", default=None,
                          help="write the detecting stimulus prep circuit as QASM")
    p_verify.set_defaults(func=_cmd_verify)

    p_bench = sub.add_parser("bench", help="run the error-injection benchmark")
    p_bench.add_argument("circuits", nargs="*", help="QASM circuit files")
    p_bench.add_argument("--config", default=None, help="key = value config file")
    p_bench.add_argument("--schemes", default=None)
    p_bench.add_argument("--options", default=None)
    p_bench.add_argument("--error-seeds", type=int, default=None)
    p_bench.add_argument("--stimuli-seeds", type=int, default=None)
    p_bench.add_argument("--max-stimuli", type=int, default=None)
    p_bench.add_argument("--epsilon", type=float, default=None)
    p_bench.add_argument("--layers", type=int, default=None)
    p_bench.add_argument("--seed", type=int, default=None)
    p_bench.add_argument("--out", default=None, help="CSV output path")
    p_bench.add_argument("--format", choices=["csv", "text"], default="text")
    p_bench.set_defaults(func=_cmd_bench)

    p_mutate = sub.add_parser("mutate", help="inject an error into a circuit")
    p_mutate.add_argument("spec")
    p_mutate.add_argument("--option", required=True)
    p_mutate.add_argument("--seed", type=int, default=0)
    p_mutate.add_argument("--out", default=None)
    p_mutate.set_defaults(func=_cmd_mutate)

    p_gen = sub.add_parser("gen-circuits", help="write the bundled circuit families as QASM")
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--sizes", default="4,6,8")
    p_gen.add_argument("--families", default=",".join(FAMILIES))
    p_gen.add_argument("--gates", type=int, default=None,
                       help="gate count for random circuits (default 4n)")
    p_gen.add_argument("--seed", type=int, default=2024)
    p_gen.set_defaults(func=_cmd_gen_circuits)

    p_oracle = sub.add_parser("oracle-check",
                              help="exact fidelity measures: brute force up to "
                                   f"{ORACLE_LIMIT} qubits, kernel trace up to {EXACT_LIMIT}")
    p_oracle.add_argument("spec")
    p_oracle.add_argument("impl")
    p_oracle.set_defaults(func=_cmd_oracle_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except QasmError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
