import csv
import os
import subprocess
import sys

import pytest

from stimcheck import bench, cli
from stimcheck.circuit import Circuit, Gate, GateKind
from stimcheck.cli import EXIT_DETECTED, EXIT_ERROR, EXIT_OK, main
from stimcheck.equivalence import EXACT_LIMIT
from stimcheck.library import ghz, qft
from stimcheck.qasm import emit_qasm, parse_qasm
from stimcheck.stimuli import MAX_LAYERS


@pytest.fixture
def ghz_file(tmp_path):
    path = tmp_path / "ghz_3.qasm"
    path.write_text(emit_qasm(ghz(3)))
    return str(path)


@pytest.fixture
def broken_ghz_file(tmp_path):
    broken = Circuit(3, ghz(3).gates + (Gate(GateKind.X, 1),))
    path = tmp_path / "broken.qasm"
    path.write_text(emit_qasm(broken))
    return str(path)


class TestVerify:
    def test_equivalent_exits_zero(self, ghz_file, capsys):
        code = main(["verify", ghz_file, ghz_file, "--max-stimuli", "4"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "no discrepancy found" in out
        assert "stimuli used: 4" in out

    def test_detected_exits_one(self, ghz_file, broken_ghz_file, capsys):
        code = main(["verify", ghz_file, broken_ghz_file])
        assert code == EXIT_DETECTED
        assert "error detected" in capsys.readouterr().out

    def test_witness_file_parses(self, ghz_file, broken_ghz_file, tmp_path):
        witness = tmp_path / "witness.qasm"
        code = main(["verify", ghz_file, broken_ghz_file,
                     "--witness-out", str(witness)])
        assert code == EXIT_DETECTED
        assert parse_qasm(witness.read_text()).num_qubits == 3

    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    def test_unwritable_witness_out_fails_before_the_verify(self, ghz_file, broken_ghz_file,
                                                            tmp_path, capsys, monkeypatch,
                                                            where):
        def no_verify(*args):
            raise AssertionError("verify called before the witness path was checked")

        monkeypatch.setattr(cli, "verify", no_verify)
        witness = tmp_path / "missing" / "w.qasm" if where == "missing directory" else tmp_path
        before = sorted(tmp_path.iterdir())
        code = main(["verify", ghz_file, broken_ghz_file, "--witness-out", str(witness)])
        assert code == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write the witness to {witness}")
        assert sorted(tmp_path.iterdir()) == before

    def test_out_of_memory_exits_two_and_names_the_qubit_count(self, ghz_file, capsys,
                                                               monkeypatch):
        def no_memory(*args):
            raise MemoryError("Unable to allocate 256. MiB for an array")

        monkeypatch.setattr(cli, "verify", no_memory)
        code = main(["verify", ghz_file, ghz_file])
        assert code == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: out of memory: verifying 3-qubit circuits needs more "
                                "memory than is free\n")

    def test_no_witness_file_when_nothing_is_detected(self, ghz_file, tmp_path):
        witness = tmp_path / "w.qasm"
        code = main(["verify", ghz_file, ghz_file, "--max-stimuli", "2",
                     "--witness-out", str(witness)])
        assert code == EXIT_OK
        assert not witness.exists()

    def test_missing_file_exits_two(self, ghz_file, capsys):
        code = main(["verify", ghz_file, "/nonexistent/impl.qasm"])
        assert code == EXIT_ERROR
        assert "error" in capsys.readouterr().err

    def test_parse_error_exits_two(self, ghz_file, tmp_path, capsys):
        bad = tmp_path / "bad.qasm"
        bad.write_text("OPENQASM 2.0;\nqreg q[1];\nfoo q[0];\n")
        code = main(["verify", ghz_file, str(bad)])
        assert code == EXIT_ERROR
        assert "parse error" in capsys.readouterr().err

    @pytest.mark.parametrize("angle", ["pi/0", "1e999", "1e200*1e200"])
    def test_non_finite_angle_exits_two(self, ghz_file, tmp_path, capsys, angle):
        bad = tmp_path / "bad.qasm"
        bad.write_text(f"OPENQASM 2.0;\nqreg q[3];\nrx({angle}) q[0];\n")
        code = main(["verify", ghz_file, str(bad)])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"parse error: {bad}:3:4: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("bad_side", ["spec", "impl"])
    def test_parse_error_names_its_file(self, ghz_file, tmp_path, capsys, bad_side):
        bad = tmp_path / "bad.qasm"
        bad.write_text("OPENQASM 2.0;\nqreg q[1];\nfoo q[0];\n")
        files = [str(bad), ghz_file] if bad_side == "spec" else [ghz_file, str(bad)]
        assert main(["verify", *files]) == EXIT_ERROR
        assert capsys.readouterr().err == f"parse error: {bad}:3:1: unknown gate 'foo'\n"

    @pytest.mark.parametrize("content,where", [
        (b"\xff\xfe", "1:1"),
        # line ends as in text mode; the column counts the characters before
        (b"OPENQASM 2.0;\r\nqreg q[1];\r// \xc3\xbc \xff\xfe\n", "3:6"),
    ], ids=["first-byte", "after-crlf-cr-and-a-two-byte-character"])
    def test_undecodable_byte_is_a_parse_error_at_its_line_and_column(
            self, ghz_file, tmp_path, capsys, content, where):
        bad = tmp_path / "bad.qasm"
        bad.write_bytes(content)
        assert main(["verify", ghz_file, str(bad)]) == EXIT_ERROR
        assert capsys.readouterr().err == (
            f"parse error: {bad}:{where}: byte 0xff is not UTF-8 (invalid start byte)\n")

    def test_scheme_flags(self, ghz_file, capsys):
        code = main(["verify", ghz_file, ghz_file, "--scheme", "classical",
                     "--max-stimuli", "2", "--seed", "7"])
        assert code == EXIT_OK
        assert "scheme: classical" in capsys.readouterr().out

    @pytest.mark.parametrize("flags,message", [
        (["--scheme", "local", "--layers", "3"], "layers only apply to the global scheme"),
        (["--scheme", "global", "--layers", "0"], "layer count must be positive"),
        (["--scheme", "global", "--layers", "1000000000"],
         f"layer count must be at most {MAX_LAYERS}, got 1000000000"),
    ], ids=["local-layers", "global-zero-layers", "global-layers-above-the-bound"])
    def test_invalid_layers_exit_two(self, ghz_file, capsys, flags, message):
        assert main(["verify", ghz_file, ghz_file, *flags]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err


class TestBench:
    ARGS = ["--error-seeds", "2", "--stimuli-seeds", "1", "--max-stimuli", "4",
            "--options", "insert_1", "--schemes", "classical,local"]

    def test_text_output(self, ghz_file, capsys):
        code = main(["bench", ghz_file, *self.ARGS])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "p_s=" in out and "ghz_3" in out

    def test_csv_output_file(self, ghz_file, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        code = main(["bench", ghz_file, *self.ARGS, "--out", str(out)])
        assert code == EXIT_OK
        with open(out, newline="") as fh:
            records = list(csv.reader(fh))
        assert len(records) == 1 + 2  # header + 1 option x 2 schemes

    def test_csv_output_to_stdout(self, ghz_file, capsys):
        code = main(["bench", ghz_file, *self.ARGS, "--format", "csv"])
        assert code == EXIT_OK
        records = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert records[0] == list(bench.CSV_HEADER)
        assert [record[2:4] for record in records[1:]] == [["classical", "insert_1"],
                                                           ["local", "insert_1"]]

    def test_csv_output_appends_to_a_redirected_stdout(self, ghz_file, tmp_path):
        out = tmp_path / "out.csv"
        out.write_text("previous line\n")
        with open(out, "a") as fh:
            subprocess.run([sys.executable, "-m", "stimcheck.cli", "bench", ghz_file,
                            *self.ARGS, "--format", "csv"], stdout=fh, check=True, timeout=120,
                           env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        with open(out, newline="") as fh:
            lines = fh.read().split("\r\n")
        assert lines[0] == "previous line\n" + ",".join(bench.CSV_HEADER)
        assert len(lines) == 1 + 2 + 1  # header, 1 option x 2 schemes, empty tail

    def test_layers_apply_to_global_only(self, ghz_file, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        code = main(["bench", ghz_file, "--error-seeds", "1", "--stimuli-seeds", "1",
                     "--max-stimuli", "2", "--options", "insert_1", "--layers", "3",
                     "--out", str(out)])
        assert code == EXIT_OK
        with open(out, newline="") as fh:
            records = list(csv.reader(fh))
        assert [record[2] for record in records[1:]] == ["classical", "local", "global"]

    def test_layers_above_the_bound_exit_two(self, ghz_file, capsys):
        assert main(["bench", ghz_file, "--layers", "1000000000"]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: layers: layer count must be at most {MAX_LAYERS}, got 1000000000\n")
        assert captured.out == ""

    def test_unwritable_out_fails_before_any_verify(self, ghz_file, tmp_path, capsys,
                                                    monkeypatch):
        def no_verify(*args):
            raise AssertionError("verify called before the CSV path was checked")

        monkeypatch.setattr(bench, "verify", no_verify)
        out = tmp_path / "missing" / "rows.csv"
        code = main(["bench", ghz_file, "--error-seeds", "1", "--out", str(out)])
        assert code == EXIT_ERROR
        assert "No such file or directory" in capsys.readouterr().err
        assert not out.parent.exists()

    def test_no_circuits_is_an_error(self, capsys):
        assert main(["bench"]) == EXIT_ERROR

    def test_unknown_option_is_an_error(self, ghz_file, capsys):
        code = main(["bench", ghz_file, "--options", "swap_all"])
        assert code == EXIT_ERROR

    def test_config_file_with_cli_override(self, ghz_file, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        config = tmp_path / "bench.cfg"
        config.write_text(
            "# benchmark settings\n"
            "error_seeds = 3\n"
            "stimuli_seeds = 1\n"
            "max_stimuli = 4\n"
            "schemes = classical\n"
            "error_options = insert_1,remove_1\n"
            f"output_path = {out}\n"
        )
        code = main(["bench", ghz_file, "--config", str(config),
                     "--options", "insert_1"])  # CLI overrides the file
        assert code == EXIT_OK
        with open(out, newline="") as fh:
            records = list(csv.reader(fh))
        assert len(records) == 2  # header + 1 option x 1 scheme
        assert records[1][3] == "insert_1"

    def test_config_file_takes_every_listed_key(self, ghz_file, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        config = tmp_path / "bench.cfg"
        config.write_text(
            f"circuit_paths = {ghz_file}\n"
            "schemes = classical,global\n"
            "error_options = insert_1\n"
            "layers = 1\n"
            "error_seeds = 2\n"
            "stimuli_seeds = 1\n"
            "max_stimuli = 2\n"
            "epsilon = 0.01\n"
            f"output_path = {out}\n"
            "master_seed = 5\n"
        )
        assert main(["bench", "--config", str(config)]) == EXIT_OK
        with open(out, newline="") as fh:
            records = list(csv.reader(fh))
        assert [record[2] for record in records[1:]] == ["classical", "global"]
        total = bench.CSV_HEADER.index("total")
        assert {record[total] for record in records[1:]} == {"2"}  # the error_seeds

    @pytest.mark.parametrize("line,message", [
        ("eror_seeds = 1", "unknown key 'eror_seeds'; expected one of circuit_paths, "),
        ("error_seeds 1", "expected 'key = value', found 'error_seeds 1'"),
        ("error_seeds = abc", "error_seeds: invalid literal for int() with base 10: 'abc'"),
        ("error_seeds = 0", "error_seeds: must be at least 1, got 0"),
        ("schemes = local,glob", "schemes: unknown scheme 'glob'; expected one of "),
    ], ids=["misspelled-key", "no-equals-sign", "bad-int", "zero-count", "unknown-scheme"])
    def test_config_file_error_names_the_file_and_line(self, ghz_file, tmp_path, capsys,
                                                        monkeypatch, line, message):
        def no_verify(*args):
            raise AssertionError("verify ran")

        monkeypatch.setattr(bench, "verify", no_verify)
        config = tmp_path / "bench.cfg"
        config.write_text(f"# settings\nmax_stimuli = 2\n{line}\n")
        assert main(["bench", ghz_file, "--config", str(config)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {config}:3: {message}")

    def test_undecodable_config_byte_names_its_line_and_column(self, ghz_file, tmp_path,
                                                                capsys):
        config = tmp_path / "bench.cfg"
        config.write_bytes(b"# settings\r\nmax_stimuli = 2\rschemes = caf\xc3\xa9,\xff\n")
        assert main(["bench", ghz_file, "--config", str(config)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        # the column counts characters: "schemes = café," is 15 of them
        assert captured.err == (f"error: {config}:3:16: byte 0xff is not UTF-8 "
                                "(invalid start byte)\n")


class TestMutate:
    def test_stdout_output_parses(self, ghz_file, capsys):
        code = main(["mutate", ghz_file, "--option", "insert_2", "--seed", "3"])
        assert code == EXIT_OK
        circuit = parse_qasm(capsys.readouterr().out)
        assert circuit.gate_count == ghz(3).gate_count + 2

    def test_output_file(self, ghz_file, tmp_path):
        out = tmp_path / "mutant.qasm"
        code = main(["mutate", ghz_file, "--option", "remove_1", "--out", str(out)])
        assert code == EXIT_OK
        assert parse_qasm(out.read_text()).gate_count == ghz(3).gate_count - 1

    def test_unknown_option(self, ghz_file, capsys):
        assert main(["mutate", ghz_file, "--option", "explode"]) == EXIT_ERROR

    def test_inapplicable_option(self, tmp_path, capsys):
        path = tmp_path / "tiny.qasm"
        path.write_text(emit_qasm(Circuit(2, (Gate(GateKind.H, 0),))))
        code = main(["mutate", str(path), "--option", "toffoli_prefix"])
        assert code == EXIT_ERROR


class TestGenCircuits:
    def test_writes_parsable_families(self, tmp_path, capsys):
        out_dir = tmp_path / "corpus"
        code = main(["gen-circuits", "--out", str(out_dir), "--sizes", "3,4",
                     "--families", "ghz,qft"])
        assert code == EXIT_OK
        files = sorted(p.name for p in out_dir.glob("*.qasm"))
        assert files == ["ghz_3.qasm", "ghz_4.qasm", "qft_3.qasm", "qft_4.qasm"]
        for p in out_dir.glob("*.qasm"):
            parse_qasm(p.read_text())

    def test_explicit_gate_count_is_kept(self, tmp_path, capsys):
        code = main(["gen-circuits", "--out", str(tmp_path), "--families", "random",
                     "--sizes", "3", "--gates", "5"])
        assert code == EXIT_OK
        assert parse_qasm((tmp_path / "random_3.qasm").read_text()).gate_count == 5

    @pytest.mark.parametrize("gates", ["0", "-5"])
    def test_gate_count_below_one_is_an_error(self, tmp_path, capsys, gates):
        code = main(["gen-circuits", "--out", str(tmp_path), "--families", "random",
                     "--sizes", "3", "--gates", gates])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == f"error: gate count must be positive, got {gates}\n"
        assert not (tmp_path / "random_3.qasm").exists()

    def test_unknown_family(self, tmp_path, capsys):
        code = main(["gen-circuits", "--out", str(tmp_path), "--families", "vqe"])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == "error: unknown family 'vqe'\n"


class TestOracleCheck:
    def test_equivalent_pair(self, ghz_file, capsys):
        code = main(["oracle-check", ghz_file, ghz_file])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "average gate fidelity: 1.000000000000" in out
        assert "via |Omega>: 1.000000000000" in out
        assert "mean fidelity over all 6^3 local stimuli: 1.000000000000" in out
        assert "skipped" not in out
        assert "functionally equivalent: yes" in out

    def test_different_pair(self, ghz_file, broken_ghz_file, capsys):
        code = main(["oracle-check", ghz_file, broken_ghz_file])
        assert code == EXIT_OK
        assert "functionally equivalent: no" in capsys.readouterr().out

    def test_qubit_mismatch(self, ghz_file, tmp_path, capsys):
        other = tmp_path / "two.qasm"
        other.write_text(emit_qasm(ghz(2)))
        assert main(["oracle-check", ghz_file, str(other)]) == EXIT_ERROR

    @pytest.mark.parametrize("extra,equivalent", [
        ((Gate(GateKind.H, 5), Gate(GateKind.H, 5)), "yes"),
        ((Gate(GateKind.T, 5),), "no"),
    ], ids=["rewrite", "mutant"])
    def test_eight_qubits_use_the_kernel_trace(self, tmp_path, capsys, extra, equivalent):
        spec, impl = tmp_path / "spec.qasm", tmp_path / "impl.qasm"
        spec.write_text(emit_qasm(qft(8)))
        impl.write_text(emit_qasm(qft(8).appended(*extra)))
        assert main(["oracle-check", str(spec), str(impl)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "entanglement fidelity: " in out
        assert "average gate fidelity: " in out
        assert "skipped above 6 qubits: the |Omega> and 6^8-local measures" in out
        assert "mean fidelity" not in out
        assert f"functionally equivalent: {equivalent}" in out

    def test_above_exact_limit_exits_two(self, tmp_path, capsys):
        path = tmp_path / "wide.qasm"
        path.write_text(emit_qasm(ghz(EXACT_LIMIT + 1)))
        assert main(["oracle-check", str(path), str(path)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert f"exact-check limit of {EXACT_LIMIT}" in err
        assert "Traceback" not in err
