#!/usr/bin/env python3
"""Self-test of the benchmark on tiny inputs, in one process, in seconds:

    python3 perfbench/selftest.py

It checks that every workload, traced and untraced, prints each metric
declared in BENCHMARK.json with its unit, and that the verdict gate trips on
a mutant deliberately labelled equivalent, both where the oracle checks the
inputs (n <= 6) and where only the verdict can catch it (n = 7).
"""
from __future__ import annotations

import json
import re
import sys

import worker

worker._import_program()

import run  # noqa: E402
from stimcheck.circuit import Circuit, Gate, GateKind  # noqa: E402
from stimcheck.qasm import emit_qasm, parse_qasm  # noqa: E402
from workloads import WORKLOADS, EquivSmall, Scale  # noqa: E402

TINY = Scale(sweep_sizes=(3, 4), error_seeds=1, equiv_sizes=(3, 7), rewrites=1,
             wide_qubits=8, wide_stimuli=2, max_stimuli=4)
SEED = 3
SECONDS = 0.2


def check_printed_metrics(spec: dict) -> None:
    for name in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = worker.run(name, SEED, SECONDS, bool(trace), TINY)
            result["env"] = {}
            assert result["correct"] and result["failed"] == 0, (name, result["failures"])
            if not trace:
                result["metrics"]["setup_s"] = {"value": 0.25, "unit": "s"}
            declared = {m["name"]: m["unit"] for m in spec[section]}
            lines = run.report_lines(result, declared)
            printed = dict(re.fullmatch(r"(\S+) = \S+ (\S+).*", line).groups()
                           for line in lines[:-1] if not line.startswith("#"))
            for metric, unit in declared.items():
                assert printed.get(metric) == unit, (name, trace, metric, printed.get(metric))
            final = json.loads(lines[-1])
            assert set(final) == {"correct", "attempted", "failed", "metrics"}
            assert set(final["metrics"]) == set(declared)
            print(f"ok: {name} --trace {trace} prints {len(declared)} metrics")


def mislabelled(n: int):
    """EquivSmall whose first rewrite at n qubits is a real mutant (one extra
    X gate) still labelled equivalent."""
    class Mislabelled(EquivSmall):
        @staticmethod
        def build(seed, scale):
            requests = EquivSmall.build(seed, scale)
            k = next(i for i, r in enumerate(requests) if r.num_qubits == n)
            impl = parse_qasm(requests[k].impl_text)
            bad = Circuit(n, impl.gates + (Gate(GateKind.X, 0),))
            requests[k] = type(requests[k])(n, requests[k].spec_text, emit_qasm(bad),
                                            requests[k].config)
            return requests
    return Mislabelled


def check_gate_trips() -> None:
    for n, where in ((3, "oracle check of the inputs"), (7, "verdict check")):
        WORKLOADS["mislabelled"] = mislabelled(n)
        try:
            result = worker.run("mislabelled", SEED, SECONDS, False, TINY)
        finally:
            del WORKLOADS["mislabelled"]
        assert not result["correct"] and result["failed"] >= 1, result
        print(f"ok: gate trips at n={n} ({where}): {result['failures'][0]}")


def main() -> int:
    spec = json.loads((worker.ROOT / "BENCHMARK.json").read_text())
    check_printed_metrics(spec)
    check_gate_trips()
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
