"""Span tracing of stimcheck's layers from outside the package.

`Tracer.installed()` replaces, for the duration of a `with` block, each
public function at the module attribute its caller resolves (for example
`stimcheck.simulator.apply_gate`, which `simulate` looks up on every gate)
with a wrapper that records a span: name, start, end, parent span and
request id. Spans are kept in compact arrays in memory and written out once
at the end with `save`. `layer_metrics` turns them into the per-layer
metrics; a layer's self time is its span time minus the time its child spans
cover.
"""
from __future__ import annotations

import itertools
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

import stimcheck
from stimcheck import bench, equivalence, kernels, mutation, qasm, simulator

# n at or below which a kernel call is dominated by per-call overhead.
SMALL_N = 8
# Bytes a 2x2 kernel computes per touched amplitude: one complex128 read
# and one written.
BYTES_PER_AMP = 2 * 16
SWEEP_QUBITS = (4, 8, 12, 16, 20)

clock = time.perf_counter


@contextmanager
def patched(replacements):
    """Set (module, attribute, value) triples; restore the originals on exit."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in replacements]
    for module, attr, value in replacements:
        setattr(module, attr, value)
    try:
        yield
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self._stack: list[int] = []
        self.request_id = -1
        self.counts: Counter = Counter()
        self.pair = (None, None)  # (spec, impl) of the verify in progress

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int, t0: float) -> int:
        idx = len(self.start)
        stack = self._stack
        if not stack:
            self.request_id += 1
        self.start.append(t0)
        self.end.append(t0)
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.request.append(self.request_id)
        stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.end[idx] = clock()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name), clock())
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, after=None):
        """Span around `fn`; `after(args, result)` updates counters."""
        nid = self._id(name)

        def wrapper(*args, **kwargs):
            idx = self._open(nid, clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _wrap_verify(self, fn):
        inner = self.wrap("equivalence.verify", fn)

        def wrapper(spec, impl, config):
            self.pair = (spec, impl)
            return inner(spec, impl, config)

        return wrapper

    def _wrap_simulate(self, fn):
        ids = {kind: self._id(f"simulator.simulate.{kind}") for kind in ("prep", "spec", "impl")}

        def wrapper(circuit, initial):
            spec, impl = self.pair
            kind = "spec" if circuit is spec else "impl" if circuit is impl else "prep"
            idx = self._open(ids[kind], clock())
            try:
                return fn(circuit, initial)
            finally:
                self._close(idx)

        return wrapper

    def _wrap_kernel(self, fn):
        nid = self._id("kernels.apply_2x2")
        counts = self.counts

        def wrapper(amps, num_qubits, target, control_mask, m00, m01, m10, m11):
            t0 = clock()
            idx = self._open(nid, t0)
            try:
                fn(amps, num_qubits, target, control_mask, m00, m01, m10, m11)
            finally:
                self._close(idx)
            counts["kernels.amps"] += 1 << (num_qubits - control_mask.bit_count())
            if num_qubits <= SMALL_N:
                counts["kernels.small_calls"] += 1
                counts["kernels.small_s"] += self.end[idx] - t0
            counts["kernels.max_n"] = max(counts["kernels.max_n"], num_qubits)

        return wrapper

    def _count_stimulus(self, args, stimulus):
        self.counts[f"stimuli.prep_gates.{stimulus.scheme.kind}"] += stimulus.prep.gate_count
        self.counts[f"stimuli.count.{stimulus.scheme.kind}"] += 1

    def _count_filter(self, args, functional):
        if functional is None:
            self.counts["mutation.filter_unchecked"] += 1

    @contextmanager
    def installed(self):
        """Wrap every traced function where its caller resolves it."""
        replacements = [
            (bench, "verify", self._wrap_verify(bench.verify)),
            (equivalence, "verify", self._wrap_verify(equivalence.verify)),
            (bench, "mutate", self.wrap("mutation.mutate", bench.mutate)),
            (bench, "is_functional_mutation",
             self.wrap("mutation.is_functional_mutation", bench.is_functional_mutation,
                       self._count_filter)),
            (equivalence, "next_stimulus",
             self.wrap("stimuli.next_stimulus", equivalence.next_stimulus,
                       self._count_stimulus)),
            (equivalence, "simulate", self._wrap_simulate(equivalence.simulate)),
            (equivalence, "fidelity", self.wrap("simulator.fidelity", equivalence.fidelity)),
            (simulator, "apply_gate", self.wrap("simulator.apply_gate", simulator.apply_gate)),
            (kernels, "apply_2x2", self._wrap_kernel(kernels.apply_2x2)),
            (mutation, "build_unitary", self.wrap("oracle.build_unitary", mutation.build_unitary)),
            (mutation, "avg_fidelity", self.wrap("oracle.avg_fidelity", mutation.avg_fidelity)),
            (qasm, "parse_qasm", self.wrap("qasm.parse_qasm", qasm.parse_qasm)),
        ]
        with patched(replacements):
            yield

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "request": np.array(self.request, dtype=np.int32),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, self seconds)."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        self_time = dur - covered
        calls = np.bincount(a["name"], minlength=len(self.names))
        total = np.bincount(a["name"], weights=dur, minlength=len(self.names))
        own = np.bincount(a["name"], weights=self_time, minlength=len(self.names))
        return {name: (int(calls[i]), float(total[i]), float(own[i]))
                for i, name in enumerate(self.names)}


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 where the layer did no work in this workload."""
    return num / den if den else 0.0


def _median_seconds(step, min_seconds: float = 0.05) -> float:
    """Median time of `step()`, repeated for at least min_seconds and 5 times."""
    times = []
    stop = clock() + min_seconds
    while len(times) < 5 or clock() < stop:
        t0 = clock()
        step()
        times.append(clock() - t0)
    return float(np.median(times))


def _random_state(num_qubits: int) -> np.ndarray:
    rng = np.random.default_rng(num_qubits)
    size = 1 << num_qubits
    amps = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return amps / np.linalg.norm(amps)


def ref_ns_per_amp(num_qubits: int) -> float:
    """Floor for the kernel: one in-place numpy a*x + b*y pass over 2^n
    complex amplitudes, in ns per amplitude."""
    x = _random_state(num_qubits)
    y = x[::-1].copy()
    tmp = np.empty_like(x)

    def step():
        np.multiply(x, 0.6, out=x)
        np.multiply(y, 0.8j, out=tmp)
        np.add(x, tmp, out=x)

    return _median_seconds(step) / x.size * 1e9


def kernel_ns_per_amp(num_qubits: int) -> float:
    """Active kernel applying H on each target in turn, in ns per touched
    amplitude."""
    amps = _random_state(num_qubits)
    h = stimcheck.base_matrix(stimcheck.GateKind.H)
    targets = itertools.count()

    def step():
        target = next(targets) % num_qubits
        kernels.apply_2x2(amps, num_qubits, target, 0, h[0, 0], h[0, 1], h[1, 0], h[1, 1])

    return _median_seconds(step) / amps.size * 1e9


def kernel_sweep(qubits=SWEEP_QUBITS) -> dict[str, tuple[float, str]]:
    out = {}
    for n in qubits:
        out[f"kernels.ns_per_amp.n{n}"] = (kernel_ns_per_amp(n), "ns")
        out[f"kernels.ref_ns_per_amp.n{n}"] = (ref_ns_per_amp(n), "ns")
    return out


def layer_metrics(tracer: Tracer, laps: int, verifies: list) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of `laps` identical traced laps, each per lap.

    `verifies` holds the (spec, impl, config, report) of one lap."""
    t = tracer.totals()
    c = tracer.counts
    zero = (0, 0.0, 0.0)

    def per_lap(value):
        return value / laps

    parse = t.get("qasm.parse_qasm", zero)
    gen = t.get("stimuli.next_stimulus", zero)
    gate = t.get("simulator.apply_gate", zero)
    kern = t.get("kernels.apply_2x2", zero)
    ver = t.get("equivalence.verify", zero)
    mut = t.get("mutation.mutate", zero)
    filt = t.get("mutation.is_functional_mutation", zero)
    unitary = t.get("oracle.build_unitary", zero)
    afid = t.get("oracle.avg_fidelity", zero)
    amps = c["kernels.amps"]
    reports = [v[3] for v in verifies]
    stimuli_used = sum(r.stimuli_used for r in reports)
    first_exits = sum(1 for r in reports
                      if r.verdict is stimcheck.Verdict.ERROR_DETECTED and r.stimuli_used == 1)
    max_n = c["kernels.max_n"]
    ref = ref_ns_per_amp(max_n) if max_n else 0.0
    ns_per_amp = _ratio(kern[1], amps) * 1e9

    m = {
        "qasm.parse_calls": (per_lap(parse[0]), "count"),
        "qasm.parse_s": (per_lap(parse[1]), "s"),
        "stimuli.gen_calls": (per_lap(gen[0]), "count"),
        "stimuli.gen_s": (per_lap(gen[1]), "s"),
    }
    for kind in ("classical", "local", "global"):
        m[f"stimuli.prep_gates.{kind}"] = (
            _ratio(c[f"stimuli.prep_gates.{kind}"], c[f"stimuli.count.{kind}"]), "gates")
    for kind in ("prep", "spec", "impl"):
        m[f"simulator.{kind}_s"] = (per_lap(t.get(f"simulator.simulate.{kind}", zero)[1]), "s")
    m.update({
        "simulator.compare_s": (per_lap(t.get("simulator.fidelity", zero)[1]), "s"),
        "simulator.gates_applied": (per_lap(gate[0]), "count"),
        "simulator.dispatch_s": (per_lap(gate[2]), "s"),
        "simulator.dispatch_us_per_gate": (_ratio(gate[2], gate[0]) * 1e6, "us"),
        "kernels.calls": (per_lap(kern[0]), "count"),
        "kernels.busy_s": (per_lap(kern[1]), "s"),
        "kernels.us_per_call": (_ratio(c["kernels.small_s"], c["kernels.small_calls"]) * 1e6, "us"),
        "kernels.ns_per_amp": (ns_per_amp, "ns"),
        "kernels.bytes_computed": (per_lap(amps * BYTES_PER_AMP), "B"),
        "kernels.ref_ns_per_amp": (ref, "ns"),
        "kernels.ref_ratio": (_ratio(ns_per_amp, ref), "ratio"),
        "equivalence.verify_calls": (len(reports), "count"),
        "equivalence.stimuli_used": (stimuli_used, "count"),
        "equivalence.first_stimulus_exit_share": (_ratio(first_exits, len(reports)), "share"),
        "equivalence.self_s": (per_lap(ver[2]), "s"),
        "mutation.mutate_s": (per_lap(mut[1]), "s"),
        "mutation.filter_s": (per_lap(filt[1]), "s"),
        "mutation.filter_calls": (per_lap(filt[0]), "count"),
        "mutation.filter_unchecked": (per_lap(c["mutation.filter_unchecked"]), "count"),
        "oracle.build_unitary_calls": (per_lap(unitary[0]), "count"),
        "oracle.build_unitary_s": (per_lap(unitary[1]), "s"),
        "oracle.avg_fidelity_s": (per_lap(afid[1]), "s"),
    })
    return m
