"""Command-line front end tests: exit codes, artifact files, reproducibility
and config validation."""
import csv
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import parasim.cli
from parasim.cli import main, parse_float_list, parse_int_range, read_noise_file
from parasim.factorize import FactorizationError
from parasim.circuits import circuit_unitary, read_circuit
from parasim.engine import read_shotset


def run_cli(*argv):
    return main(list(argv))


class TestParsing:
    def test_int_range(self):
        assert parse_int_range("3") == [3]
        assert parse_int_range("1..5") == [1, 2, 3, 4, 5]

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            parse_int_range("5..1")

    def test_float_list(self):
        assert parse_float_list("0.5,1.0,2") == [0.5, 1.0, 2.0]

    def test_noise_file(self, tmp_path):
        path = tmp_path / "noise.txt"
        path.write_text("# comment\np_prep_flip 0.01\neps01 0.02\neps10=0.03\n")
        noise = read_noise_file(path)
        assert noise.p_prep_flip == 0.01
        assert noise.eps01 == 0.02
        assert noise.eps10 == 0.03

    def test_unknown_noise_key_rejected(self, tmp_path):
        path = tmp_path / "noise.txt"
        path.write_text("frobnication 0.5\n")
        with pytest.raises(ValueError):
            read_noise_file(path)


class TestVerify:
    def test_parafermi_passes(self, capsys):
        assert run_cli("verify", "--kind", "pf", "--p", "2") == 0
        out = capsys.readouterr().out
        assert "commutator_identity,pf,2,1" in out
        assert "True" in out

    def test_parabose_reports_beta(self, capsys):
        assert run_cli("verify", "--kind", "pb", "--p", "2", "--np", "2") == 0
        out = capsys.readouterr().out
        assert "beta=1" in out

    def test_odd_order_rejected(self, capsys):
        assert run_cli("verify", "--kind", "pf", "--p", "3") == 2

    def test_range_runs_every_order(self, tmp_path):
        report = tmp_path / "report.csv"
        assert run_cli("verify", "--kind", "pf", "--p", "2..6",
                       "--out", str(report)) == 0
        text = report.read_text()
        for p in (2, 4, 6):
            assert f"commutator_identity,pf,{p}," in text


class TestFactorize:
    def test_writes_three_gammas(self, tmp_path):
        out = tmp_path / "gammas.txt"
        assert run_cli("factorize", "--kind", "pf", "--p", "2",
                       "--alpha", "0.785398", "--out", str(out)) == 0
        text = out.read_text()
        assert len([ln for ln in text.splitlines() if ln.startswith("gammas")]) == 1
        gammas = [float(x) for x in text.split("gammas ")[1].split("\n")[0].split()]
        assert len(gammas) == 3
        residual = float(text.split("residual_onehot ")[1].split("\n")[0])
        assert residual <= 1e-9

    def test_zero_alpha_zero_gammas(self, tmp_path):
        out = tmp_path / "gammas.txt"
        assert run_cli("factorize", "--kind", "pb", "--p", "3", "--np", "2",
                       "--alpha", "0", "--out", str(out)) == 0
        gammas = [float(x) for x in
                  out.read_text().split("gammas ")[1].split("\n")[0].split()]
        assert gammas == [0.0, 0.0, 0.0]

    def test_five_qubit_records_twenty_factors(self, tmp_path):
        out = tmp_path / "gammas.txt"
        assert run_cli("factorize", "--kind", "pf", "--p", "4",
                       "--alpha", "0.5", "--out", str(out)) == 0
        assert "factors 20" in out.read_text()

    def test_missing_cutoff_rejected(self):
        assert run_cli("factorize", "--kind", "pb", "--p", "3",
                       "--alpha", "0.5") == 2


class TestCompile:
    def test_from_gamma_document(self, tmp_path):
        gammas = tmp_path / "gammas.txt"
        circuit_path = tmp_path / "circuit.txt"
        run_cli("factorize", "--kind", "pf", "--p", "2", "--alpha", "0.5",
                "--out", str(gammas))
        assert run_cli("compile", "--gammas", str(gammas),
                       "--out", str(circuit_path)) == 0
        circuit = read_circuit(circuit_path)
        assert circuit.num_qubits == 3
        unitary = circuit_unitary(circuit)
        assert np.max(np.abs(unitary @ unitary.conj().T - np.eye(8))) < 1e-12

    def test_direct_compile(self, tmp_path):
        circuit_path = tmp_path / "circuit.txt"
        assert run_cli("compile", "--kind", "pb", "--p", "2", "--np", "2",
                       "--alpha", "0.3", "--out", str(circuit_path)) == 0
        assert circuit_path.exists()

    def test_requires_spec_or_document(self):
        assert run_cli("compile") == 2

    @pytest.mark.parametrize("key,replacement,named", [
        ("np", None, "missing key 'np'"),
        ("gammas", "gammas 0.1 abc 0.3", "cannot parse gammas"),
    ])
    def test_malformed_gamma_document_exits_2(self, tmp_path, capsys, key,
                                              replacement, named):
        gammas = tmp_path / "gammas.txt"
        run_cli("factorize", "--kind", "pf", "--p", "2", "--alpha", "0.5",
                "--out", str(gammas))
        lines = [ln for ln in gammas.read_text().splitlines()
                 if not ln.startswith(key + " ")]
        if replacement:
            lines.append(replacement)
        gammas.write_text("\n".join(lines) + "\n")
        assert run_cli("compile", "--gammas", str(gammas)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and named in err


class TestFactorizationFailure:
    @pytest.mark.parametrize("argv", [
        ("factorize", "--kind", "pf", "--p", "2", "--alpha", "0.5"),
        ("compile", "--kind", "pf", "--p", "2", "--alpha", "0.5"),
        ("simulate", "--kind", "pf", "--p", "2", "--alpha", "0.5", "--shots", "10"),
    ])
    def test_solver_failure_is_one_line_and_exit_1(self, monkeypatch, capsys, argv):
        def fail(*args, **kwargs):
            raise FactorizationError("factorization residual 1e-03 exceeds tol 1e-09")

        monkeypatch.setattr(parasim.cli, "solve_displacement", fail)
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err == "error: factorization residual 1e-03 exceeds tol 1e-09\n"


class TestFileErrors:
    @pytest.mark.parametrize("argv", [
        ("compile", "--gammas", "{tmp}/missing.txt"),
        ("simulate", "--kind", "pf", "--p", "2", "--alpha", "0.3", "--shots", "10",
         "--noise", "{tmp}/missing.txt"),
        ("simulate", "--kind", "pf", "--p", "2", "--alpha", "0.3", "--shots", "10",
         "--out", "{tmp}/no/such/dir/x.csv"),
    ], ids=["compile-gammas", "simulate-noise", "simulate-out"])
    def test_missing_or_unwritable_file_is_one_line_and_exit_2(self, tmp_path, capsys,
                                                               argv):
        argv = [a.format(tmp=tmp_path) for a in argv]
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "No such file or directory" in err


def test_importing_the_cli_does_not_load_scipy():
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, parasim.cli; sys.exit('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()


class TestSimulate:
    def test_writes_csv_and_shotset(self, tmp_path):
        out = tmp_path / "sim.csv"
        shots_path = tmp_path / "shots.txt"
        assert run_cli("simulate", "--kind", "pf", "--p", "2", "--alpha", "0.785398",
                       "--shots", "500", "--seed", "5",
                       "--out", str(out), "--shotset-out", str(shots_path)) == 0
        text = out.read_text()
        assert "shots_raw" in text and "exact" in text
        shotset = read_shotset(shots_path)
        assert shotset.shots == 500

    def test_reproducible_bytes(self, tmp_path):
        # identical command line + seed -> identical bytes, provenance included
        out = tmp_path / "a.csv"
        args = ("simulate", "--kind", "pb", "--p", "2", "--np", "2",
                "--alpha", "0.3", "--shots", "300", "--seed", "9",
                "--out", str(out))
        assert run_cli(*args) == 0
        first = out.read_bytes()
        assert run_cli(*args) == 0
        assert out.read_bytes() == first

    def test_spam_flag_requires_noise(self, tmp_path):
        assert run_cli("simulate", "--kind", "pf", "--p", "2", "--alpha", "0.3",
                       "--shots", "100", "--spam-correct") == 2


class TestStudy:
    def test_pf_evolution_exact_column(self, tmp_path):
        out = tmp_path / "pf.csv"
        assert run_cli("study", "pf-evolution", "--p", "2", "--g", "0.02",
                       "--times", "0,19.63495,39.26991", "--shots", "200",
                       "--seed", "7", "--out", str(out)) == 0
        rows = [ln.split(",") for ln in out.read_text().splitlines()
                if ln.startswith("pf-evolution") and ",exact," in ln]
        for row in rows:
            gt, mean = float(row[1]), float(row[3])
            assert mean == pytest.approx(1 - np.cos(2 * gt), abs=1e-8)

    def test_pb_mandel_sweep(self, tmp_path):
        out = tmp_path / "pb.csv"
        assert run_cli("study", "pb-mandel", "--alpha", "0.3", "--np", "2",
                       "--p", "1..3", "--shots", "200", "--seed", "7",
                       "--out", str(out)) == 0
        text = out.read_text()
        assert text.count("exact") == 3

    def test_cutoff_study(self, tmp_path):
        out = tmp_path / "cut.csv"
        assert run_cli("study", "cutoff", "--alpha", "0.3", "--p", "1..3",
                       "--np-range", "1..3", "--out", str(out)) == 0
        text = out.read_text()
        assert "np9_ref" in text

    def test_svg_artifact(self, tmp_path):
        out = tmp_path / "pf.csv"
        svg = tmp_path / "pf.svg"
        assert run_cli("study", "pf-evolution", "--p", "2", "--times", "0,40",
                       "--shots", "100", "--out", str(out), "--svg", str(svg)) == 0
        assert svg.read_text().startswith("<svg")

    def test_noise_study_with_mitigation(self, tmp_path):
        noise = tmp_path / "noise.txt"
        noise.write_text("eps01 0.02\neps10 0.03\np_depol_2q 0.005\n")
        out = tmp_path / "pf.csv"
        assert run_cli("study", "pf-evolution", "--p", "2", "--times", "39.27",
                       "--shots", "300", "--seed", "2", "--noise", str(noise),
                       "--spam-correct", "--postselect", "--out", str(out)) == 0
        text = out.read_text()
        assert "shots_spam" in text and "shots_postselected" in text

    @pytest.mark.parametrize("g", ["0", "-0", "nan", "inf"])
    def test_pf_evolution_rejects_a_zero_or_non_finite_g(self, capsys, g):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("study", "pf-evolution", "--p", "2", "--g", g,
                           "--shots", "10") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: --g ")

    def test_simulate_and_pb_mandel_share_the_estimators(self, tmp_path):
        noise = tmp_path / "noise.txt"
        noise.write_text("p_prep_flip 0.005\neps01 0.01\neps10 0.02\n"
                         "p_depol_1q 0.001\np_depol_2q 0.01\n")
        common = ("--alpha", "0.6", "--np", "2", "--p", "3", "--shots", "800",
                  "--seed", "4", "--noise", str(noise), "--spam-correct", "--postselect")
        sim, study = tmp_path / "sim.csv", tmp_path / "study.csv"
        assert run_cli("simulate", "--kind", "pb", *common, "--out", str(sim)) == 0
        assert run_cli("study", "pb-mandel", *common, "--mitigation-order", "spam-first",
                       "--out", str(study)) == 0

        def rows(path):
            lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
            return {row["source"]: row for row in csv.DictReader(lines)}

        got, want = rows(sim), rows(study)
        for source in ("shots_raw", "shots_spam", "shots_postselected"):
            for key in ("mean_n", "mean_n2", "mandel_q", "retained_fraction"):
                assert got[source][key] == want[source][key], (source, key)

    def test_pf_evolution_needs_single_order(self):
        assert run_cli("study", "pf-evolution", "--p", "2..4",
                       "--shots", "10") == 2

    @pytest.mark.parametrize("argv", [
        ("study", "pb-mandel", "--alpha", "0.3", "--p", "1..3", "--shots", "10"),
        ("simulate", "--kind", "pb", "--p", "2", "--alpha", "0.1"),
        ("simulate", "--kind", "pf", "--p", "2", "--alpha", "0.1", "--shots", "0"),
        ("factorize", "--kind", "pf", "--p", "5", "--alpha", "0.1"),
        ("factorize", "--kind", "pb", "--p", "0", "--np", "2", "--alpha", "0.1"),
        ("verify", "--kind", "pb", "--p", "0", "--np", "2"),
        ("study", "pb-mandel", "--alpha", "-0.5", "--np", "2", "--p", "1..2",
         "--shots", "10"),
    ])
    def test_invalid_configs_exit_2(self, argv):
        assert run_cli(*argv) == 2
