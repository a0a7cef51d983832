#!/usr/bin/env python3
"""stimcheck benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload mutant-sweep --seed 1 --seconds 35 --trace 0

Run from the root of a checkout. The workloads and metrics are declared in
BENCHMARK.json; workloads.py says what each workload does and why.

The workload runs in a child process (worker.py) with BLAS and OpenMP pinned
to one thread, so that its peak RSS is its own and the oracle's matrix
products do not contend for the cores. The program is driven through its
public API and sees only the generated inputs.

--trace 0 measures the end-to-end metrics with tracing off. A neighbour on
a shared host can slow this process 1.5-2x for seconds to minutes at a time,
so times are host-corrected: every lap repeats the same requests, a fixed
host probe gauges the host's slowdown over its quiet-host speed during each
unit of work, each unit's time is divided by that slowdown, and each unit
takes its median over the laps. The probe's work resembles the workload's
(workloads.Probe): Python arithmetic and small numpy calls, taken after each
of the small-state workloads' short units, and a numpy 2x2 update of a 1 MB
state, taken every 50 ms within each of wide-equiv's second-long units. On a
quiet host the correction is about 1; the raw figures and the measured
slowdown are printed in details.

    verifies_per_s  verifies in a lap / corrected lap time
    stimuli_per_s   stimuli fully checked in a lap / corrected lap time
    verify_p50_s    median request latency (a request on the equivalence
                    workloads includes parsing both circuits)
    verify_tail_s   highest percentile with at least 10 requests beyond it,
                    or the maximum when a lap holds 10 requests or fewer;
                    the percentile and count are printed beside it
    peak_rss_mb     peak RSS of the worker process
    setup_s         from process start until the inputs are generated and
                    checked, corrected by a probe taken right after, median
                    over several fresh processes

--trace 1 runs untraced and traced laps alternately and prints the
per-layer metrics (per lap, not host-corrected), the tracing overhead
(fastest traced lap minus fastest untraced lap) and a kernel sweep; spans go
to perfbench/out/.

Every verdict is checked outside the timed region. A verify that raised or
gave a wrong verdict counts in `failed`; then the result says
"correct": false and the command exits 1.

The tier-1 test wall clock is deliberately not a workload: it is dominated by
one statistical test and would cost ten minutes a run.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
# Fresh set-up-only processes before and after the measured one; with the
# measured process this gives 2 * SETUP_PROBES + 1 set-up samples.
SETUP_PROBES = 4
# Every run must end well inside 180 seconds.
DEADLINE_S = 170
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def _spawn(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run worker.py to completion; return its JSON line and its start time."""
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args], cwd=ROOT, env=_child_env(),
            capture_output=True, text=True, timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired as exc:  # subprocess.run killed and reaped it
        raise BenchError(f"worker timed out after {exc.timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), started


def _format(value: float) -> str:
    return f"{value:.6g}"


def report_lines(result: dict, declared: dict) -> list[str]:
    """Human-readable lines, then the JSON result line, which comes last."""
    metrics, details = result["metrics"], result["details"]
    lines = [f"# env {json.dumps(result['env'])}", f"# details {json.dumps(details)}"]
    lines += [f"# FAILED {failure}" for failure in result["failures"]]
    lines += [f"# {name} = {_format(v)}" for name, v in details.get("quality", {}).items()]
    for name in declared:
        note = ""
        if name == "verify_tail_s":
            note = (f"  (p{details['verify_tail_percentile']:.1f} of "
                    f"{details['verify_tail_samples']} requests)")
        lines.append(f"{name} = {_format(metrics[name]['value'])} {metrics[name]['unit']}{note}")
    lines.append(f"failed_share = {_format(result['failed'] / result['attempted'])} share"
                 f"  ({result['failed']} of {result['attempted']} verifies)")
    lines.append(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: metrics[name] for name in declared},
    }))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; expected one of {names}")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "stimcheck" / "__init__.py").is_file():
        print(f"error: no stimcheck sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    probe = [*common, "--seconds", "0", "--trace", "0", "--setup-only"]
    setups = []
    try:
        if not args.trace:
            for _ in range(SETUP_PROBES):
                ready, started = _spawn(probe, deadline)
                setups.append((ready["ready"] - started) * ready["host_scale"])
        result, started = _spawn(
            [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
        if not args.trace:
            setups.append((result["ready"] - started) * result["host_scale"])
            for _ in range(SETUP_PROBES):
                ready, started = _spawn(probe, deadline)
                setups.append((ready["ready"] - started) * ready["host_scale"])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        result["details"]["setup_samples_s"] = setups
    if {k: v["unit"] for k, v in metrics.items()} != declared:
        print(f"error: worker metrics {sorted(metrics)} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": result["env"], "details": result["details"],
              "failures": result["failures"], "metrics": metrics}
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / f"{args.workload}.trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print("\n".join(report_lines(result, declared)))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
