"""One workload in one process: set up, run laps for the given seconds,
check every verdict, print one JSON result line.

Started by run.py with BLAS/OpenMP threads pinned to one; not meant to be
run by hand. With --setup-only it stops once the inputs are ready and prints
only the time it got there.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
# Laps needed for a median per unit, and in a traced run for untraced and
# traced laps to compare.
MIN_LAPS = 3
# A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10
# Host probes either side of a unit that gauge the host's speed during it.
PROBE_WINDOW = 3
# Probe steps taken once set-up is done, to correct the set-up time.
SETUP_PROBE_STEPS = 15


def _import_program():
    """Import stimcheck from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import stimcheck
    if Path(stimcheck.__file__).resolve().parent != src / "stimcheck":
        raise ImportError(f"stimcheck imported from {stimcheck.__file__}, not {src}")
    return stimcheck


def environment(stimcheck) -> dict:
    import numpy as np
    from stimcheck import kernels

    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "backend": stimcheck.backend_name(),
        "compiled_kernel": "cython" in kernels.available_backends(),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it:
    (value, percentile, samples). Below TAIL_BEYOND + 1 samples, the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def run_laps(workload, inputs, seconds: float, traced: bool):
    """Closed loop of identical laps; in a traced run, untraced and traced
    laps alternate so that the overhead is measured under the same load."""
    from tracing import Tracer
    from workloads import Lap, check_verdicts, signature

    tracer = Tracer() if traced else None
    # Traced laps are not host-corrected; a probe within units would only
    # add to the spans it interrupts.
    probe = replace(workload.probe, interval_s=0.0) if traced else workload.probe
    laps: list[Lap] = []
    failures: list[str] = []
    reference = None
    start = time.perf_counter()
    # Start a lap only if it should end within the time given.
    while len(laps) < MIN_LAPS or (
            time.perf_counter() - start + (time.perf_counter() - start) / len(laps) <= seconds):
        lap = Lap(probe)
        t0 = time.perf_counter()
        try:
            workload.lap(inputs, lap, tracer if traced and len(laps) % 2 else None)
        except Exception as exc:  # a verify that raised ends the sweep and the run
            failures.append(f"lap {len(laps)} raised {exc!r}")
            break
        lap.seconds = time.perf_counter() - t0
        failures += lap.errors
        sigs = [signature(v[3]) for v in lap.verifies]
        if reference is None:
            reference = sigs
            failures += check_verdicts(lap.verifies, workload.equivalent)
        else:
            failures += [f"lap {len(laps)} verify {k} differs from lap 0"
                         for k, (a, b) in enumerate(zip(sigs, reference)) if a != b]
            if len(sigs) != len(reference):
                failures.append(f"lap {len(laps)} made {len(sigs)} verifies, lap 0 {len(reference)}")
            lap.verifies = []  # keep memory flat: only lap 0's records are needed
        laps.append(lap)
    return laps, failures, tracer


def quality(laps) -> dict[str, tuple[float, str]]:
    """Detection figures of lap 0 (exact for fixed code and seed) and the
    bench's own instance accounting."""
    from stimcheck.equivalence import Verdict

    reports = [v[3] for v in laps[0].verifies if v[3] is not None]
    hits = [r for r in reports if r.verdict is Verdict.ERROR_DETECTED]
    rows = laps[0].rows
    instances = sum(r.total for r in rows)
    return {
        "bench.detect_rate": (len(hits) / len(reports) if rows and reports else 0.0, "share"),
        "bench.stimuli_to_detect": (
            statistics.fmean(r.stimuli_used for r in hits) if rows and hits else 0.0, "stimuli"),
        "bench.instances": (instances, "count"),
        "bench.skipped": (sum(r.skipped for r in rows), "count"),
        "bench.equiv_filtered": (sum(r.equiv_filtered for r in rows), "count"),
        "bench.useful_ratio": (len(reports) / instances if instances else 0.0, "share"),
    }


def end_to_end(workload, laps) -> tuple[dict, dict]:
    """Host-corrected medians across the identical laps.

    Each unit's time is divided by the host slowdown the workload's probe
    measured during it or, for a probe taken after each unit, by the median
    slowdown around it (PROBE_WINDOW units either side, same lap), which
    gives its time on a quiet host; each unit then takes its median over the
    laps."""
    import numpy as np
    from numpy.lib.stride_tricks import sliding_window_view

    kinds = [k for k, _ in laps[0].units]
    durations = np.array([[d for _, d in lap.units] for lap in laps])
    window = 0 if workload.probe.interval_s else PROBE_WINDOW
    slowdowns = np.pad(np.array([lap.slowdowns for lap in laps]),
                       ((0, 0), (window, window)), mode="edge")
    scale = 1.0 / np.median(sliding_window_view(slowdowns, 2 * window + 1, axis=1), axis=-1)
    per_unit = np.median(durations * scale, axis=0)
    residual = np.median([(lap.seconds - lap.probe_s - row.sum()) * np.median(row_scale)
                          for lap, row, row_scale in zip(laps, durations, scale)])
    lap_s = float(per_unit.sum()) + max(float(residual), 0.0)
    latencies = [float(d) for k, d in zip(kinds, per_unit) if k == workload.request_kind]
    reports = [v[3] for v in laps[0].verifies]
    stimuli = sum(r.stimuli_used for r in reports)
    tail_s, tail_pct, tail_n = tail(latencies)
    metrics = {
        "verifies_per_s": (len(reports) / lap_s, "1/s"),
        "stimuli_per_s": (stimuli / lap_s, "1/s"),
        "verify_p50_s": (statistics.median(latencies), "s"),
        "verify_tail_s": (tail_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    raw_lap_s = float(np.median([lap.seconds - lap.probe_s for lap in laps]))
    details = {
        "laps": len(laps),
        "lap_seconds": [round(lap.seconds, 4) for lap in laps],
        "host_slowdown": float(np.median(1.0 / scale)),
        "corrected_lap_s": lap_s,
        "raw_lap_s": raw_lap_s,
        "raw_verifies_per_s": len(reports) / raw_lap_s,
        "verifies_per_lap": len(reports),
        "stimuli_per_lap": stimuli,
        "requests_per_lap": len(latencies),
        "verify_tail_percentile": tail_pct,
        "verify_tail_samples": tail_n,
    }
    return metrics, details


def traced_metrics(workload_name: str, laps, tracer) -> tuple[dict, dict]:
    from tracing import kernel_sweep, layer_metrics

    untraced = [lap.seconds for k, lap in enumerate(laps) if k % 2 == 0]
    traced = [lap.seconds for k, lap in enumerate(laps) if k % 2 == 1]
    metrics = layer_metrics(tracer, len(traced), laps[0].verifies)
    overhead = min(traced) - min(untraced)
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_share"] = (overhead / min(untraced), "share")
    metrics["trace.spans"] = (len(tracer.start) / len(traced), "count")
    metrics.update(kernel_sweep())
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{workload_name}.spans.npz"
    tracer.save(spans_path)
    return metrics, {"laps": len(laps), "traced_laps": len(traced),
                     "spans_file": str(spans_path.relative_to(ROOT))}


def _host_scale() -> float:
    """Inverse host slowdown just after set-up, which is interpreter work."""
    from workloads import PYTHON_PROBE
    return 1.0 / PYTHON_PROBE.slowdown(SETUP_PROBE_STEPS)


def setup(workload_name: str, seed: int, scale=None):
    """Generate the inputs and check them; (workload, inputs, failures)."""
    from workloads import FULL, WORKLOADS

    workload = WORKLOADS[workload_name]
    inputs = workload.build(seed, scale or FULL)
    return workload, inputs, workload.check_inputs(inputs)


def run(workload_name: str, seed: int, seconds: float, trace: bool, scale=None) -> dict:
    """Set up, measure and check one workload; returns the result record."""
    workload, inputs, failures = setup(workload_name, seed, scale)
    ready = time.monotonic()
    host_scale = _host_scale()
    laps, lap_failures, tracer = run_laps(workload, inputs, seconds, trace)
    failures += lap_failures
    if len(laps) < (2 if trace else 1):
        raise RuntimeError(f"too few laps completed to measure: {failures}")
    attempted = max(1, sum(kind == workload.request_kind for lap in laps for kind, _ in lap.units))
    if trace:
        metrics, details = traced_metrics(workload_name, laps, tracer)
        metrics.update(quality(laps))
    else:
        metrics, details = end_to_end(workload, laps)
        details["quality"] = {name: v for name, (v, _) in quality(laps).items()}
    return {
        "ready": ready,
        "host_scale": host_scale,
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
        "details": details,
        "failures": failures[:20],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    stimcheck = _import_program()
    if args.setup_only:
        setup(args.workload, args.seed)
        ready = time.monotonic()
        print(json.dumps({"ready": ready, "host_scale": _host_scale()}))
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    result["env"] = environment(stimcheck)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
