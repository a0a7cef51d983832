import csv
import math

import pytest

from stimcheck.bench import (
    CSV_HEADER,
    BenchmarkConfig,
    BenchmarkRow,
    run_benchmark,
    run_benchmark_circuits,
    write_csv,
)
from stimcheck.circuit import Circuit, Gate, GateKind
from stimcheck.library import ghz
from stimcheck.mutation import ErrorOption
from stimcheck.qasm import emit_qasm
from stimcheck.stimuli import CLASSICAL, LOCAL, global_scheme

FAST = dict(error_seeds=4, stimuli_seeds=2, max_stimuli=8)


def small_config(**overrides) -> BenchmarkConfig:
    values = dict(
        schemes=(CLASSICAL, LOCAL, global_scheme()),
        error_options=(ErrorOption.REMOVE_1, ErrorOption.INSERT_1),
        **FAST,
    )
    values.update(overrides)
    return BenchmarkConfig(**values)


def test_row_layout_matches_header():
    config = small_config()
    rows = run_benchmark_circuits([ghz(3)], config)
    assert len(rows) == len(config.error_options) * len(config.schemes)
    for row in rows:
        assert len(row.as_record()) == len(CSV_HEADER)


def test_counts_add_up():
    config = small_config()
    rows = run_benchmark_circuits([ghz(3)], config)
    total = config.error_seeds * config.stimuli_seeds
    for row in rows:
        assert row.total == total
        detected = round(row.p_s / 100 * (total - row.skipped - row.equiv_filtered))
        assert 0 <= detected <= total - row.skipped - row.equiv_filtered


def test_deterministic_given_master_seed():
    def strip_times(rows):
        return [
            (r.circuit, r.num_qubits, r.scheme, r.error_option, r.p_s, r.p_s_std,
             r.avg_stimuli, r.avg_stimuli_std, r.total, r.skipped, r.equiv_filtered)
            for r in rows
        ]

    a = run_benchmark_circuits([ghz(3)], small_config(master_seed=5))
    b = run_benchmark_circuits([ghz(3)], small_config(master_seed=5))
    assert strip_times(a) == strip_times(b)


def test_unusable_instances_are_skipped():
    # GHZ on 2 qubits has no third qubit for a Toffoli
    config = small_config(error_options=(ErrorOption.TOFFOLI_PREFIX,))
    rows = run_benchmark_circuits([ghz(2)], config)
    for row in rows:
        assert row.skipped == row.total
        assert math.isnan(row.avg_stimuli)
        assert math.isnan(row.p_s) and math.isnan(row.p_s_std)


def test_equivalent_mutations_are_filtered():
    # removing a gate from an HH circuit always yields a single H: functional.
    # Removing from [X, X] yields a single X: also functional. Use [H, H] with
    # remove_2 instead: the only possible removal leaves the identity behind.
    spec = Circuit(1, (Gate(GateKind.H, 0), Gate(GateKind.H, 0)), name="hh")
    config = small_config(error_options=(ErrorOption.REMOVE_2,))
    rows = run_benchmark_circuits([spec], config)
    for row in rows:
        assert row.equiv_filtered == row.total


def test_detection_rate_bounds():
    rows = run_benchmark_circuits([ghz(3)], small_config())
    for row in rows:
        assert 0.0 <= row.p_s <= 100.0


def test_larger_budget_never_hurts_detection():
    small = run_benchmark_circuits([ghz(3)], small_config(max_stimuli=1))
    large = run_benchmark_circuits([ghz(3)], small_config(max_stimuli=16))
    for a, b in zip(small, large):
        assert b.p_s >= a.p_s - 1e-9


def test_run_benchmark_reads_qasm(tmp_path):
    path = tmp_path / "ghz_3.qasm"
    path.write_text(emit_qasm(ghz(3)))
    config = small_config(circuit_paths=(str(path),),
                          error_options=(ErrorOption.INSERT_1,))
    rows = run_benchmark(config)
    assert rows and all(r.circuit == "ghz_3" and r.num_qubits == 3 for r in rows)


def test_write_csv_round_trip(tmp_path):
    rows = run_benchmark_circuits([ghz(3)], small_config())
    out = tmp_path / "results.csv"
    write_csv(rows, str(out))
    with open(out, newline="") as fh:
        records = list(csv.reader(fh))
    assert records[0] == CSV_HEADER
    assert len(records) == len(rows) + 1
    for record, row in zip(records[1:], rows):
        assert record[0] == row.circuit
        assert float(record[4]) == pytest.approx(row.p_s, abs=5e-5)


def test_output_path_in_config(tmp_path):
    out = tmp_path / "auto.csv"
    run_benchmark_circuits([ghz(3)], small_config(output_path=str(out)))
    assert out.exists()


def test_config_validation():
    with pytest.raises(ValueError):
        BenchmarkConfig(error_seeds=0)
    with pytest.raises(ValueError):
        BenchmarkConfig(stimuli_seeds=0)


def test_row_as_record_formatting():
    row = BenchmarkRow("c", 3, "local", "remove_1", 66.6667, 4.2, 1.5, 0.25,
                       0.000123456, 0.0, 10, 0, 2)
    record = row.as_record()
    assert record[4] == "66.6667"
    assert record[8] == "0.000123"
