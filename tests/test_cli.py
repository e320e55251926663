"""Command-line front end tests: exit codes, artifact files, reproducibility
and config validation."""
import contextlib
import csv
import io
import math
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parasim.cli
import parasim.experiments
from parasim.cli import (
    MAX_RANGE_POINTS,
    main,
    parse_float_list,
    parse_int_range,
    read_noise_file,
)
from parasim.factorize import FactorizationError
from parasim.circuits import read_circuit
from parasim.dense import circuit_unitary
from parasim.engine import read_shotset
from parasim.experiments import MITIGATION_ORDERS
from parasim.mapping import GeneratorBasis, PauliString, PauliSum, generator_family


def run_cli(*argv):
    return main(list(argv))


class TestParsing:
    def test_int_range(self):
        assert parse_int_range("3", "--p") == range(3, 4)
        assert parse_int_range("1..5", "--p") == range(1, 6)

    def test_a_huge_range_is_read_by_index_not_listed(self):
        assert parse_int_range("9999999001..10000000000", "--p")[-1] == 10 ** 10

    def test_a_range_holds_at_most_the_point_limit(self):
        assert len(parse_int_range(f"1..{MAX_RANGE_POINTS}", "--p")) == MAX_RANGE_POINTS
        with pytest.raises(ValueError, match=f"^--np-range '0..{MAX_RANGE_POINTS}' holds "
                                             f"{MAX_RANGE_POINTS + 1} points, over the limit "):
            parse_int_range(f"0..{MAX_RANGE_POINTS}", "--np-range")

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError, match="^--np-range '5..1' is an empty range$"):
            parse_int_range("5..1", "--np-range")

    def test_float_list(self):
        assert parse_float_list("0.5,1.0,2", "--times") == [0.5, 1.0, 2.0]

    def test_noise_file(self, tmp_path):
        path = tmp_path / "noise.txt"
        text = "# comment\np_prep_flip 0.01\neps01 0.02\neps10=0.03\n"
        path.write_text(text)
        noise = read_noise_file(path)
        assert noise.p_prep_flip == 0.01
        assert noise.eps01 == 0.02
        assert noise.eps10 == 0.03
        for separator in ("\t", " \t  "):  # any run of whitespace reads as the space
            path.write_text(text.replace(" ", separator))
            assert read_noise_file(path) == noise

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

    def test_past_the_dense_width_limit(self, capsys):
        # Q = 13 > MAX_DENSE_QUBITS: the mapping check reads the one-hot block
        assert run_cli("verify", "--kind", "pb", "--p", "1", "--np", "12") == 0
        out = capsys.readouterr().out
        assert out.splitlines()[2].startswith("xy_mapping,pb,1,12,")
        assert out.splitlines()[2].endswith(",True")

    def test_generator_algebra_checked_at_seven_qubits(self, capsys):
        assert run_cli("verify", "--kind", "pf", "--p", "6") == 0
        out = capsys.readouterr().out.splitlines()
        assert "commutator_closure,pf,6,3,Q=7,True" in out
        assert "jacobi,pf,6,3,Q=7,True" in out

    def test_generator_algebra_holds_at_twenty_five_qubits(self, capsys):
        # the first width whose names pass the alphabet's u, v, w again
        assert run_cli("verify", "--kind", "pb", "--p", "2", "--np", "24") == 0
        out = capsys.readouterr().out.splitlines()
        assert "jacobi,pb,2,24,Q=25,True" in out
        assert all(line.endswith(",True") for line in out[1:])

    @pytest.mark.parametrize("p,np_cut", [(300, 3), (400, 2)])
    def test_high_orders_pass(self, capsys, p, np_cut):
        # beta's double factorials overflow a float here; its product does not
        assert run_cli("verify", "--kind", "pb", "--p", str(p), "--np", str(np_cut)) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 5 and all(line.endswith(",True") for line in out[1:])

    def test_generator_algebra_checked_once_per_width(self, monkeypatch, capsys):
        calls = []
        jacobi = parasim.cli.check_jacobi
        monkeypatch.setattr(parasim.cli, "check_jacobi",
                            lambda basis: calls.append(basis) or jacobi(basis))
        assert run_cli("verify", "--kind", "pb", "--p", "1..7", "--np", "5") == 0
        assert len(calls) == 1
        assert capsys.readouterr().out.count("commutator_closure,pb,") == 7

    def test_a_family_that_does_not_close_fails(self, monkeypatch, capsys):
        # v0 with the sign of its YZX word flipped: the family no longer closes
        def broken_family(q):
            family = generator_family(q)
            gens = list(family.generators)
            gens[2] = PauliSum((PauliString(1.0, "XZY" + "I" * (q - 3)),
                                PauliString(1.0, "YZX" + "I" * (q - 3))))
            return GeneratorBasis(tuple(gens), family.labels)

        monkeypatch.setattr(parasim.cli, "generator_family", broken_family)
        assert run_cli("verify", "--kind", "pb", "--p", "2", "--np", "4") == 1
        out = capsys.readouterr().out.splitlines()
        assert "commutator_closure,pb,2,4,Q=5,False" in out
        assert "jacobi,pb,2,4,Q=5,False" in out


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

    def test_past_the_dense_width_limit(self, capsys):
        # Q = 14 > MAX_DENSE_QUBITS: the full residual needs no 2^Q matrix
        assert run_cli("factorize", "--kind", "pb", "--p", "2", "--np", "13",
                       "--alpha", "0.5") == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 91 + 2
        assert float(out.split("residual_full ")[1]) <= 1e-12


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

    @pytest.mark.parametrize("command", ["compile", "factorize"])
    def test_out_that_is_a_directory_prints_and_leaves_nothing(self, tmp_path, capsys,
                                                               command):
        out = tmp_path / "made"
        out.mkdir()
        assert run_cli(command, "--kind", "pb", "--p", "2", "--np", "2", "--alpha", "0.3",
                       "--out", str(out)) == 2
        assert capsys.readouterr() == ("", f"error: [Errno 21] Is a directory: '{out}'\n")
        assert [p.name for p in tmp_path.iterdir()] == ["made"]

    @pytest.mark.parametrize("key,replacement,named", [
        ("np", None, "missing key 'np'"),
        ("gammas", "gammas 0.1 abc 0.3", "cannot parse gammas"),
        ("gammas", "gammas nan 0 0", "gammas must be finite"),
        ("labels", "labels zz yy xx", "labels 'zz yy xx' are not"),
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
        ("study", "pb-mandel", "--alpha", "0.5", "--np", "2", "--p", "1..2", "--shots", "10"),
        ("study", "pf-evolution", "--p", "2", "--times", "0.1", "--shots", "10"),
    ])
    def test_solver_failure_is_one_line_and_exit_1(self, monkeypatch, capsys, argv):
        def fail(*args, **kwargs):
            raise FactorizationError("factorization residual 1e-03 exceeds tol 1e-09")

        monkeypatch.setattr(parasim.cli, "solve_displacement", fail)
        monkeypatch.setattr(parasim.experiments, "solve_displacement", fail)
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err == "error: factorization residual 1e-03 exceeds tol 1e-09\n"


class TestUnrepresentableAlpha:
    @pytest.mark.parametrize("argv", [
        ("factorize", "--kind", "pb", "--p", "2", "--np", "2", "--alpha", "1e9"),
        ("factorize", "--kind", "pb", "--p", "2", "--np", "2", "--alpha", "1e17"),
        ("simulate", "--kind", "pb", "--p", "2", "--np", "2", "--alpha", "1e9",
         "--shots", "10"),
        ("simulate", "--kind", "pb", "--p", "2", "--np", "2", "--alpha", "1e17",
         "--shots", "10"),
        ("study", "pf-evolution", "--p", "2", "--times", "1e300", "--shots", "10"),
        # alpha * w overflows a float
        ("factorize", "--kind", "pb", "--p", "2", "--np", "2", "--alpha", "1e308"),
        ("study", "pf-evolution", "--p", "2", "--times", "1", "--g", "1e308",
         "--shots", "10"),
        # no shots, yet the study factors every point
        ("study", "pb-mandel", "--alpha", "1e17", "--np", "2", "--p", "1", "--shots", "0"),
        # exact rows only: the target itself holds the rule
        ("study", "cutoff", "--alpha", "1e17", "--p", "1..2", "--np-range", "1..2"),
        ("study", "cutoff", "--alpha", "1e7", "--p", "1..2", "--np-range", "1..2"),
    ])
    @pytest.mark.filterwarnings("error")
    def test_one_error_line_exit_2_and_no_file(self, tmp_path, capsys, argv):
        assert run_cli(*argv, "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: alpha ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv,message", [
        (("factorize", "--kind", "pb", "--p", "2", "--np", "2", "--alpha", "nan"),
         "alpha must be finite, not nan"),
        (("compile", "--kind", "pb", "--p", "2", "--np", "2", "--alpha", "nan"),
         "alpha must be finite, not nan"),
        (("simulate", "--kind", "pb", "--p", "2", "--np", "2", "--alpha", "nan",
          "--shots", "10"), "alpha must be finite, not nan"),
        (("study", "cutoff", "--alpha", "1e7", "--p", "1..2", "--np-range", "1..2"),
         "alpha 10000000.0 is too large: its gauged target misses a real rotation by "
         "more than 1e-09, at order p 1 and cutoff np 2"),
    ], ids=["factorize-nan", "compile-nan", "simulate-nan", "cutoff-names-the-point"])
    def test_message_names_the_alpha_and_point(self, capsys, argv, message):
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("times,g,alpha,where", [
        ("0,1e300", "0.02", "2.0000000000000002e+298", "time 1e+300 and g 0.02"),
        ("1", "1e308", "1e+308", "time 1.0 and g 1e+308"),
    ], ids=["large-time", "large-g"])
    def test_evolution_names_the_time_and_g(self, capsys, times, g, alpha, where):
        assert run_cli("study", "pf-evolution", "--p", "2", "--times", times, "--g", g,
                       "--shots", "10") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: alpha {alpha} ")
        assert err.endswith(f", at {where}\n")

    @pytest.mark.parametrize("command", [("factorize",), ("simulate", "--shots", "10")])
    def test_large_alpha_still_solves(self, capsys, command):
        assert run_cli(*command, "--kind", "pb", "--p", "2", "--np", "2",
                       "--alpha", "1e5") == 0


class TestFileErrors:
    def test_out_that_is_a_directory_is_named_and_leaves_no_temp_file(self, tmp_path,
                                                                      capsys):
        out = tmp_path / "x.csv"
        out.mkdir()
        assert run_cli("study", "cutoff", "--alpha", "0.3", "--p", "1",
                       "--np-range", "1..2", "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{out}'\n"
        assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]

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
        assert f"No such file or directory: '{argv[-1]}'" in err  # the file given

    @pytest.mark.parametrize("argv", [
        ("simulate", "--kind", "pb", "--p", "2", "--np", "2", "--alpha", "0.3", "--shots", "10",
         "--out", "{tmp}/a.csv", "--shotset-out", "{tmp}/made"),
        ("simulate", "--kind", "pb", "--p", "2", "--np", "2", "--alpha", "0.3", "--shots", "10",
         "--out", "{tmp}/a.csv", "--shotset-out", "{tmp}/nodir/s.txt"),
        ("study", "pf-evolution", "--p", "2", "--times", "0.1", "--shots", "10",
         "--out", "{tmp}/a.csv", "--svg", "{tmp}/made"),
    ], ids=["shotset-is-a-directory", "shotset-in-no-directory", "svg-is-a-directory"])
    def test_an_output_that_fails_leaves_no_other_file(self, tmp_path, capsys, argv):
        (tmp_path / "made").mkdir()
        argv = [a.format(tmp=tmp_path) for a in argv]
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert err.endswith(f": '{argv[-1]}'\n")  # the file that failed
        assert [p.name for p in tmp_path.iterdir()] == ["made"]

    @pytest.mark.parametrize("argv", [
        ("simulate", "--kind", "pb", "--p", "2", "--np", "2", "--alpha", "0.3", "--shots", "10",
         "--out", "{tmp}/x.csv", "--shotset-out", "{tmp}/{name}"),
        ("study", "pf-evolution", "--p", "2", "--times", "0.5", "--shots", "10",
         "--out", "{tmp}/x.csv", "--svg", "{tmp}/./{name}"),
    ], ids=["simulate-shotset", "study-svg"])
    def test_two_outputs_that_name_one_file_are_one_line_and_no_file(self, tmp_path, capsys,
                                                                     monkeypatch, argv):
        # the later rename would win, and the first output would be lost unsaid;
        # it is refused before any point, so a long study is not run for nothing
        def fail(*args, **kwargs):
            raise AssertionError("a point was computed")

        monkeypatch.setattr(parasim.cli, "sample_points", fail)
        monkeypatch.setattr(parasim.cli, "run_pf_evolution", fail)
        twice = [a.format(tmp=tmp_path, name="x.csv") for a in argv]
        assert run_cli(*twice) == 2
        assert capsys.readouterr().err == f"error: two outputs name one file: {twice[-1]}\n"
        assert list(tmp_path.iterdir()) == []
        monkeypatch.undo()
        assert run_cli(*[a.format(tmp=tmp_path, name="y.out") for a in argv]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv", "y.out"]


def test_importing_the_cli_does_not_load_scipy():
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, parasim.cli; sys.exit('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()


def test_a_noisy_simulate_does_not_load_numpy_ma(tmp_path):
    # numpy.ma costs 10-18 ms to import, a cold noisy run's share of it
    noise = tmp_path / "noise.txt"
    noise.write_text("p_prep_flip 0.005\neps01 0.01\neps10 0.02\n"
                     "p_depol_1q 0.001\np_depol_2q 0.01\n")
    argv = ["simulate", "--kind", "pb", "--p", "2", "--np", "4", "--alpha", "0.6",
            "--shots", "500", "--noise", str(noise), "--spam-correct", "--postselect",
            "--seed", "1", "--out", str(tmp_path / "sim.csv")]
    code = ("import sys; from parasim.cli import main; code = main(sys.argv[1:]); "
            "sys.exit(code or 3 * ('numpy.ma' in sys.modules))")
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=src, capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    assert (tmp_path / "sim.csv").exists()


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

    def test_never_bootstraps(self, tmp_path, monkeypatch):
        # the CSV has no Mandel error column, so no series draws resamples
        def fail(*args, **kwargs):
            raise AssertionError("simulate ran the bootstrap")

        monkeypatch.setattr(parasim.experiments, "uncertainty", fail)
        noise = tmp_path / "noise.txt"
        noise.write_text("p_prep_flip 0.005\neps01 0.01\neps10 0.02\n")
        assert run_cli("simulate", "--kind", "pb", "--p", "2", "--np", "2", "--alpha", "0.6",
                       "--shots", "200", "--noise", str(noise), "--spam-correct",
                       "--postselect", "--out", str(tmp_path / "sim.csv")) == 0

    @pytest.mark.parametrize("shots", ["0", "-3"])
    def test_shots_below_one_is_one_line_and_no_file(self, tmp_path, capsys, shots):
        out, shotset = tmp_path / "sim.csv", tmp_path / "shots.txt"
        assert run_cli("simulate", "--kind", "pf", "--p", "2", "--alpha", "0.3",
                       "--shots", shots, "--out", str(out),
                       "--shotset-out", str(shotset)) == 2
        assert capsys.readouterr().err == f"error: --shots must be at least 1, not {shots}\n"
        assert list(tmp_path.iterdir()) == []

    def test_past_the_dense_limit_is_one_line_and_no_file(self, tmp_path, capsys):
        # Q = 25: the ideal pass would need a 2^25 state
        out = tmp_path / "sim.csv"
        assert run_cli("simulate", "--kind", "pb", "--p", "2", "--np", "24", "--alpha", "0.1",
                       "--shots", "10", "--out", str(out)) == 2
        assert capsys.readouterr().err == ("error: a dense 25-qubit state would hold "
                                           "more than 4^12 entries\n")
        assert list(tmp_path.iterdir()) == []

    # seeds at which 40 spam-first post-selected shots at Q = 7, with the
    # benchmark's noise, left levels with negative weight after the inversion
    # and wrote a negative <N> and <N^2>, before the weights were clipped
    @pytest.mark.parametrize("seed", [183, 351, 365, 366, 461, 710, 767, 811, 990])
    def test_post_selection_after_the_inversion_writes_physical_moments(self, tmp_path,
                                                                         seed):
        noise, out = tmp_path / "noise.txt", tmp_path / "sim.csv"
        noise.write_text("p_prep_flip 0.005\neps01 0.01\neps10 0.02\n"
                         "p_depol_1q 0.001\np_depol_2q 0.01\n")
        assert run_cli("simulate", "--kind", "pb", "--p", "2", "--np", "6", "--alpha", "0.6",
                       "--shots", "40", "--noise", str(noise), "--spam-correct",
                       "--postselect", "--seed", str(seed), "--out", str(out)) == 0
        rows = csv.DictReader(ln for ln in out.read_text().splitlines() if ln[0] != "#")
        (post,) = [row for row in rows if row["source"] == "shots_postselected"]
        mean, mean2 = float(post["mean_n"]), float(post["mean_n2"])
        assert 0.0 <= mean <= 6.0
        assert mean2 >= mean ** 2

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

    # a subnormal g makes the default times pi k / (24 g) overflow to inf
    @pytest.mark.parametrize("g", ["0", "-0", "nan", "inf", "1e-320", "5e-324"])
    def test_pf_evolution_rejects_a_zero_or_non_finite_g(self, capsys, g):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("study", "pf-evolution", "--p", "2", "--g", g,
                           "--shots", "10") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: --g ")

    def test_pf_evolution_runs_a_negative_g_at_given_times(self, tmp_path):
        out = tmp_path / "evolution.csv"
        assert run_cli("study", "pf-evolution", "--p", "2", "--g", "-0.02",
                       "--times", "1", "--shots", "10", "--out", str(out)) == 0
        assert "pf-evolution,-0.02,exact," in out.read_text()

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
        ("study", "pb-mandel", "--alpha", "inf", "--np", "2", "--p", "1", "--shots", "10"),
        ("study", "cutoff", "--alpha", "nan", "--p", "1", "--np-range", "1..2"),
        ("study", "cutoff", "--alpha=-0.3", "--p", "1..2", "--np-range", "1..2"),
        ("study", "pf-evolution", "--p", "2", "--shots", "-5", "--times", "0.1"),
        ("study", "pb-mandel", "--alpha", "0.3", "--np", "2", "--p", "1", "--shots", "-1"),
        ("study", "pf-evolution", "--p", "2", "--times", ",", "--shots", "10"),
        ("factorize", "--kind", "pf", "--p", "2", "--np", "0", "--alpha", "0.1"),
        ("study", "pb-mandel", "--alpha", "0.3", "--np", "2", "--p", "1", "--shots", "10",
         "--spam-correct"),
        ("study", "pf-evolution", "--p", "2", "--times", "0.1", "--shots", "10",
         "--spam-correct"),
    ])
    def test_invalid_configs_exit_2(self, argv):
        assert run_cli(*argv) == 2

    def test_cutoff_takes_no_shots(self, tmp_path):
        out = tmp_path / "cut.csv"
        assert run_cli("study", "cutoff", "--alpha", "0.3", "--p", "1..2",
                       "--np-range", "1..2", "--out", str(out)) == 0
        lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        rows = list(csv.DictReader(lines))
        assert len(rows) == 6 and {row["shots"] for row in rows} == {"0"}

    def test_cutoff_np_is_not_read_as_np_range(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("study", "cutoff", "--alpha", "0.3", "--p", "1", "--np", "2")
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --np 2" in capsys.readouterr().err

    def test_unknown_study_flag_prints_the_study_usage(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("study", "cutoff", "--np-r", "1..2")
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: parasim study cutoff ")
        assert "unrecognized arguments: --np-r 1..2" in err

    @pytest.mark.parametrize("argv", [
        ("pb-mandel", "--np", "1", "--p", "1", "--alpha", "0", "--shots", "5"),
        ("pb-mandel", "--np", "1", "--p", "1", "--alpha", "0", "--shots", "0"),
        ("cutoff", "--alpha", "0", "--p", "1..2", "--np-range", "1..2"),
    ], ids=["pb-mandel-shots", "pb-mandel-no-shots", "cutoff"])
    def test_svg_with_no_defined_point_writes_no_artifact(self, tmp_path, capsys, argv):
        out, svg = tmp_path / "y.csv", tmp_path / "y.svg"
        assert run_cli("study", *argv, "--svg", str(svg), "--out", str(out)) == 2
        assert capsys.readouterr().err == "error: --svg: no point has a defined Mandel Q\n"
        assert not out.exists() and not svg.exists()

    def test_empty_times_write_no_artifact(self, tmp_path, capsys):
        out, svg = tmp_path / "pf.csv", tmp_path / "pf.svg"
        assert run_cli("study", "pf-evolution", "--p", "2", "--times", ",", "--shots", "10",
                       "--out", str(out), "--svg", str(svg)) == 2
        assert capsys.readouterr().err == "error: --times ',' lists no time\n"
        assert not out.exists() and not svg.exists()

    def test_zero_shots_give_exact_rows_only(self, tmp_path):
        out = tmp_path / "pf.csv"
        assert run_cli("study", "pf-evolution", "--p", "2", "--times", "0.1",
                       "--shots", "0", "--out", str(out)) == 0
        lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert [row["source"] for row in csv.DictReader(lines)] == ["exact"]

    def test_pb_mandel_stderr_is_mandel_q_error_or_empty(self, tmp_path):
        # readout inversion drives the corrected <N> below zero, where Mandel
        # Q is undefined: its stderr is empty, not the error of <N>
        noise = tmp_path / "n.txt"
        noise.write_text("eps01 0.05\neps10 0.05\n")
        out = tmp_path / "pb.csv"
        assert run_cli("study", "pb-mandel", "--alpha", "0", "--np", "2", "--p", "1",
                       "--shots", "2000", "--seed", "1", "--noise", str(noise),
                       "--spam-correct", "--out", str(out)) == 0
        lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        rows = {row["source"]: row for row in csv.DictReader(lines)}
        assert rows["shots_spam"]["mandel_q"] == "" and rows["shots_spam"]["stderr"] == ""
        assert rows["exact"]["mandel_q"] == "" and rows["exact"]["stderr"] == ""
        assert float(rows["shots_raw"]["stderr"]) > 0

    def test_cutoff_at_zero_alpha_writes_undefined_rows(self, tmp_path):
        # as pb-mandel --alpha 0 and cutoff --alpha 1e-7 do: the point is kept
        out = tmp_path / "cut.csv"
        assert run_cli("study", "cutoff", "--alpha", "0", "--p", "1..2",
                       "--np-range", "1..2", "--out", str(out)) == 0
        body = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")][1:]
        assert body == [f"cutoff,{p},{label},0,0,,,1,0,0" for p in (1, 2)
                        for label in ("np1", "np2", "np8_ref")]

    def test_cutoff_stderr_is_empty_where_mandel_q_is_undefined(self, tmp_path):
        # alpha 1e-7 puts <N> below the floor of Mandel Q, at either cutoff
        rows = {}
        for alpha in ("1e-7", "0.3"):
            out = tmp_path / f"cut-{alpha}.csv"
            assert run_cli("study", "cutoff", "--alpha", alpha, "--p", "1",
                           "--np-range", "1..1", "--out", str(out)) == 0
            lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
            rows[alpha] = list(csv.DictReader(lines))
        assert [(r["mandel_q"], r["stderr"]) for r in rows["1e-7"]] == [("", "")] * 2
        assert [r["stderr"] for r in rows["0.3"]] == ["0"] * 2  # a defined Q is exact


def exit_code(*argv):
    """main's return value, or the code argparse exits with."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


# One valid command line per command, and each flag the command does not
# read or cannot combine with that line.
BASES = {
    "pf-evolution": ("study", "pf-evolution", "--p", "2", "--times", "0", "--shots", "10"),
    "pb-mandel": ("study", "pb-mandel", "--alpha", "0.3", "--np", "2", "--p", "1",
                  "--shots", "10"),
    "cutoff": ("study", "cutoff", "--alpha", "0.3", "--p", "1", "--np-range", "1..2"),
    "verify": ("verify", "--kind", "pf", "--p", "2"),
    "factorize": ("factorize", "--kind", "pf", "--p", "2", "--alpha", "0.5"),
    "compile": ("compile", "--kind", "pf", "--p", "2", "--alpha", "0.5"),
    "simulate": ("simulate", "--kind", "pf", "--p", "2", "--alpha", "0.5", "--shots", "10"),
    "compile-gammas": ("compile", "--gammas", "{tmp}/gammas.txt"),
}
UNREAD = [
    ("pf-evolution", ("--np", "2")),
    ("pf-evolution", ("--np-range", "1..2")),
    ("pf-evolution", ("--alpha", "0.3")),
    ("pb-mandel", ("--np-range", "1..2")),
    ("pb-mandel", ("--g", "0.02")),
    ("pb-mandel", ("--times", "0")),
    ("cutoff", ("--np", "2")),
    ("cutoff", ("--g", "5")),
    ("cutoff", ("--times", "0")),
    ("cutoff", ("--shots", "123")),
    ("cutoff", ("--noise", "{tmp}/noise.txt")),
    ("cutoff", ("--spam-correct",)),
    ("cutoff", ("--postselect",)),
    ("cutoff", ("--mitigation-order", "spam-first")),
    ("verify", ("--np", "7")),
    ("factorize", ("--np", "7")),
    ("compile", ("--np", "7")),
    ("simulate", ("--np", "7")),
    ("simulate", ("--mitigation-order", "spam-first")),
    ("compile-gammas", ("--kind", "pf")),
    ("compile-gammas", ("--p", "2")),
    ("compile-gammas", ("--np", "1")),
    ("compile-gammas", ("--alpha", "0.5")),
]


class TestEveryFlagIsRead:
    @pytest.fixture
    def inputs(self, tmp_path):
        (tmp_path / "noise.txt").write_text("eps01 0.02\neps10 0.03\n")
        assert run_cli("factorize", "--kind", "pf", "--p", "2", "--alpha", "0.5",
                       "--out", str(tmp_path / "gammas.txt")) == 0
        return tmp_path

    @pytest.mark.parametrize("command", BASES)
    def test_base_command_runs(self, inputs, command, capsys):
        assert exit_code(*[a.format(tmp=inputs) for a in BASES[command]]) == 0

    @pytest.mark.parametrize("command,flag", UNREAD,
                             ids=[f"{c}{' '.join(('',) + f)}" for c, f in UNREAD])
    def test_unread_flag_exits_2(self, inputs, command, flag, capsys):
        argv = [a.format(tmp=inputs) for a in BASES[command] + flag]
        assert exit_code(*argv) == 2


class TestProvenance:
    CUTOFF = ["study", "cutoff", "--alpha", "0.3", "--p", "1", "--np-range", "1..2"]

    def test_records_the_argv_main_parsed_not_the_host_process(self, tmp_path,
                                                               monkeypatch):
        monkeypatch.setattr(sys, "argv", ["host", "some-host-arg"])
        out = tmp_path / "cut.csv"
        argv = self.CUTOFF + ["--out", str(out)]
        assert main(argv) == 0
        assert out.read_text().splitlines()[:2] == ["# parasim " + " ".join(argv),
                                                     "# seed 0"]

    def test_simulate_records_its_argv(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["host", "some-host-arg"])
        out = tmp_path / "sim.csv"
        argv = ["simulate", "--kind", "pf", "--p", "2", "--alpha", "0.3",
                "--shots", "10", "--seed", "3", "--out", str(out)]
        assert main(argv) == 0
        assert out.read_text().splitlines()[0] == "# parasim " + " ".join(argv)

    def test_without_argv_main_reads_the_process_arguments(self, tmp_path, monkeypatch):
        out = tmp_path / "cut.csv"
        argv = self.CUTOFF + ["--out", str(out)]
        monkeypatch.setattr(sys, "argv", ["parasim", *argv])
        assert main() == 0
        assert out.read_text().splitlines()[0] == "# parasim " + " ".join(argv)


# Gamma documents made from a valid one: the key whose line goes (or None),
# and the line that takes its place.
GAMMA_DOCS = {
    "kind.txt": ("kind", "kind xx"),
    "two-gammas.txt": ("gammas", "gammas 0.1 0.2"),
    "residual.txt": ("residual_onehot", "residual_onehot -1"),
    "kind-twice.txt": (None, "kind pf"),
}
NOISE_DOCS = {
    "abc.txt": "p_prep_flip abc\n",
    "no-value.txt": "p_prep_flip\n",
    "twice.txt": "p_prep_flip 0.01\np_prep_flip=0.02\n",
    "unknown.txt": "# comment\nfrobnication 0.5\n",
    "range.txt": "eps01 1.5\n",
    "near-singular.txt": "eps01 0.5\neps10 0.4999999999999\n",
}
SIMULATE = ("simulate", "--kind", "pf", "--p", "2", "--alpha", "0.3", "--shots", "10")
# Each malformed input, and the start of the one error line it gives.
MALFORMED = [
    (("study", "cutoff", "--alpha", "0.3", "--p", "1..", "--np-range", "1..2"),
     "error: --p takes an integer or a range a..b, not '1..'"),
    (("study", "pb-mandel", "--alpha", "0.3", "--np", "2", "--p", "x", "--shots", "10"),
     "error: --p takes an integer or a range a..b, not 'x'"),
    (("study", "cutoff", "--alpha", "0.3", "--p", "1", "--np-range", "1..x"),
     "error: --np-range takes an integer or a range a..b, not '1..x'"),
    (("study", "pf-evolution", "--p", "2", "--times", "1,x", "--shots", "10"),
     "error: --times takes comma-separated finite numbers, not '1,x'"),
    (("study", "pf-evolution", "--p", "2", "--times", "1,inf", "--shots", "10"),
     "error: --times takes comma-separated finite numbers, not '1,inf'"),
    (("study", "pf-evolution", "--p", "2", "--g", "-0.02", "--shots", "10"),
     "error: --g -0.02 makes the default times pi k / (24 g) negative: "
     "give nonnegative --times"),
    (("study", "pf-evolution", "--p", "2", "--times", "1,-1", "--shots", "10"),
     "error: --times must be nonnegative, not -1.0"),
    (SIMULATE + ("--noise", "{tmp}/abc.txt"),
     "error: noise file {tmp}/abc.txt: cannot parse 'p_prep_flip abc'"),
    (SIMULATE + ("--noise", "{tmp}/no-value.txt"),
     "error: noise file {tmp}/no-value.txt: cannot parse 'p_prep_flip'"),
    (SIMULATE + ("--noise", "{tmp}/twice.txt"),
     "error: noise file {tmp}/twice.txt: key 'p_prep_flip' given twice"),
    (SIMULATE + ("--noise", "{tmp}/unknown.txt"),
     "error: noise file {tmp}/unknown.txt: unknown key 'frobnication'"),
    (SIMULATE + ("--noise", "{tmp}/range.txt"),
     "error: noise file {tmp}/range.txt: eps01=1.5 outside [0, 1)"),
    (("compile", "--gammas", "{tmp}/kind.txt"),
     "error: gamma document {tmp}/kind.txt: unknown para-particle kind 'xx'"),
    (("compile", "--gammas", "{tmp}/two-gammas.txt"),
     "error: gamma document {tmp}/two-gammas.txt: one gamma per product factor"),
    (("compile", "--gammas", "{tmp}/residual.txt"),
     "error: gamma document {tmp}/residual.txt: residual must be nonnegative"),
    (("compile", "--gammas", "{tmp}/kind-twice.txt"),
     "error: gamma document {tmp}/kind-twice.txt: key 'kind' given twice"),
    # within 1e-12 of singular: rejected by the reader, before any readout inversion
    (SIMULATE + ("--noise", "{tmp}/near-singular.txt", "--spam-correct"),
     "error: noise file {tmp}/near-singular.txt: confusion matrix is singular"),
]


@pytest.fixture
def documents(tmp_path):
    """tmp_path holding noise.txt, gammas.txt and the malformed documents."""
    (tmp_path / "noise.txt").write_text("eps01 0.02\neps10 0.03\n")
    for name, text in NOISE_DOCS.items():
        (tmp_path / name).write_text(text)
    gammas = tmp_path / "gammas.txt"
    assert run_cli("factorize", "--kind", "pf", "--p", "2", "--alpha", "0.5",
                   "--out", str(gammas)) == 0
    valid = gammas.read_text().splitlines()
    for name, (key, line) in GAMMA_DOCS.items():
        kept = [ln for ln in valid if key is None or not ln.startswith(key + " ")]
        (tmp_path / name).write_text("\n".join(kept + [line]) + "\n")
    return tmp_path


class TestMalformedInput:
    @pytest.mark.parametrize("argv,message", MALFORMED,
                             ids=[" ".join(argv[:2]) + f"-{i}"
                                  for i, (argv, _) in enumerate(MALFORMED)])
    def test_one_error_line_naming_the_flag_or_file(self, documents, capsys, argv,
                                                    message):
        assert run_cli(*[a.format(tmp=documents) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(message.format(tmp=documents))

    @pytest.mark.parametrize("study", ["pb-mandel", "pf-evolution"])
    @pytest.mark.parametrize("flags", [
        (), ("--postselect",), ("--spam-correct", "--noise", "{tmp}/noise.txt"),
    ], ids=["neither", "postselect-only", "spam-correct-only"])
    @pytest.mark.parametrize("order", MITIGATION_ORDERS)
    def test_mitigation_order_needs_both_mitigations(self, documents, capsys, study,
                                                     flags, order):
        argv = BASES[study] + flags + ("--mitigation-order", order)
        assert run_cli(*[a.format(tmp=documents) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: --mitigation-order ")

    @pytest.mark.parametrize("study", ["pb-mandel", "pf-evolution"])
    def test_mitigation_order_defaults_to_spam_first(self, documents, study):
        both = ("--noise", str(documents / "noise.txt"), "--spam-correct", "--postselect")
        bodies = {}
        for order in ((), ("--mitigation-order", "spam-first"),
                      ("--mitigation-order", "postselect-first")):
            out = documents / "out.csv"
            assert run_cli(*BASES[study], *both, *order, "--out", str(out)) == 0
            bodies[order[1:]] = out.read_text().split("\n", 1)[1]  # past the argv
        assert bodies[()] == bodies[("spam-first",)]

    @pytest.mark.parametrize("command", ["simulate", "pb-mandel", "pf-evolution"])
    def test_absurd_shots_are_one_line_naming_the_flag_and_no_file(self, tmp_path, capsys,
                                                                    command):
        # refused before the first draw: numpy could not allocate 10^15 shots anyway
        out = tmp_path / "out.csv"
        tracemalloc.start()
        try:
            code = run_cli(*BASES[command], "--shots", str(10 ** 15), "--out", str(out))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: --shots 1000000000000000 ")
        assert list(tmp_path.iterdir()) == []
        assert peak < 16 << 20

    def test_the_shot_budget_refuses_a_run_by_its_kick_events(self, tmp_path, capsys,
                                                              monkeypatch):
        # a budget of exactly the (shots, Q + 1) arrays of 10^5 shots at Q = 3:
        # the gate noise's kick events are what puts the run over it
        import parasim.engine
        monkeypatch.setattr(parasim.engine, "_SHOT_BYTES", 32 * 4 * 10 ** 5)
        noise, out = tmp_path / "noise.txt", tmp_path / "out.csv"
        noise.write_text("p_prep_flip 0.005\neps01 0.01\neps10 0.02\np_depol_1q 0.001\n"
                         "p_depol_2q 0.01\n")
        tracemalloc.start()
        try:
            code = run_cli("simulate", "--kind", "pf", "--p", "2", "--alpha", "0.5",
                           "--shots", str(10 ** 5), "--noise", str(noise), "--out", str(out))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: --shots 100000 at 3 qubits ")
        assert not out.exists()
        assert peak < 1 << 20

    @pytest.mark.parametrize("argv,top", [
        (("verify", "--kind", "pb", "--p", "2", "--np", "10000000"), "cutoff np 10000000"),
        (("factorize", "--kind", "pb", "--p", "2", "--np", "10000000", "--alpha", "0.5"),
         "cutoff np 10000000"),
        (("study", "cutoff", "--alpha", "0.3", "--p", "1", "--np-range", "9999001..10000000"),
         "cutoff np 10000006"),
        (("study", "cutoff", "--alpha", "0.3", "--p", "1", "--np-range",
          "9999999001..10000000000"), "cutoff np 10000000006"),
        (("study", "cutoff", "--alpha", "0.3", "--p", "1", "--np-range", "1..57"),
         "cutoff np 63"),
        (("verify", "--kind", "pf", "--p", "2..100"), "order p 100"),
    ], ids=["verify", "factorize", "cutoff", "cutoff-1e10", "cutoff-ref-63", "verify-pf"])
    def test_a_ladder_past_the_width_limit_is_refused_before_any_point(
            self, capsys, monkeypatch, argv, top):
        def computed(*args, **kwargs):
            raise AssertionError("a point was computed")
        for module, name in ((parasim.cli, "verify_truncation_identity"),
                             (parasim.cli, "solve_displacement"),
                             (parasim.experiments, "exact_number_stats")):
            monkeypatch.setattr(module, name, computed)
        start = time.perf_counter()
        tracemalloc.start()
        try:
            code = run_cli(*argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 2.0
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: para-") and f"{top} exceeds the limit of 62 " in err
        assert peak < 64 << 20

    @pytest.mark.parametrize("argv", [
        ("verify", "--kind", "pb", "--np", "2", "--p", "1..10000000000"),
        ("study", "pb-mandel", "--alpha", "0.3", "--np", "2", "--p", "1..10000000000"),
        ("study", "cutoff", "--alpha", "0.3", "--p", "1..10000000000"),
        ("study", "cutoff", "--alpha", "0.3", "--p", "1", "--np-range", "1..10000000000"),
    ], ids=["verify", "pb-mandel", "cutoff", "cutoff-np-range"])
    def test_a_range_past_the_point_limit_is_refused_before_any_point(
            self, tmp_path, capsys, monkeypatch, argv):
        # a para-Bose order has no width limit: without the point limit these
        # walk (or list) 10^10 orders, and here reach a point function
        def computed(*args, **kwargs):
            raise AssertionError("a point was computed")
        monkeypatch.setattr(parasim.cli, "verify_truncation_identity", computed)
        monkeypatch.setattr(parasim.experiments, "ParaSpec", computed)
        out = tmp_path / "out.csv"
        start = time.perf_counter()
        code = run_cli(*argv, "--out", str(out))
        assert time.perf_counter() - start < 2.0
        assert code == 2
        flag, text = argv[-2:]
        assert capsys.readouterr().err == (
            f"error: {flag} {text!r} holds 10000000000 points, over the limit of "
            f"{MAX_RANGE_POINTS} a range may hold\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["simulate", "pb-mandel", "pf-evolution", "cutoff",
                                         "factorize", "compile"])
    def test_a_negative_seed_is_one_line_naming_it_and_no_file(self, tmp_path, capsys,
                                                               command):
        out = tmp_path / "out.csv"
        assert run_cli(*BASES[command], "--seed", "-5", "--out", str(out)) == 2
        assert capsys.readouterr().err == "error: --seed must be nonnegative, not -5\n"
        assert list(tmp_path.iterdir()) == []


# no int or float (not even inf/nan) can be spelled from these characters
_GARBAGE = st.text(alphabet="bcdghjkmopqrsuvwz!?%@", min_size=1, max_size=4)
_NOISE_KEYS = ("p_prep_flip", "eps01", "eps10", "p_depol_1q", "p_depol_2q")
_GAMMA_KEYS = ("kind", "p", "np", "alpha", "labels", "gammas", "residual_onehot",
               "residual_full", "converged")


@st.composite
def malformed_noise_lines(draw):
    """Lines of a noise file that no noise model accepts."""
    key = draw(st.sampled_from(_NOISE_KEYS))
    damage = draw(st.sampled_from(["garble", "drop", "unknown", "twice", "range"]))
    if damage == "garble":
        return [f"{key}{draw(st.sampled_from([' ', '=']))}{draw(_GARBAGE)}"]
    if damage == "drop":
        return [key]
    if damage == "unknown":
        return [f"{draw(_GARBAGE)} 0.01"]
    if damage == "twice":
        return [f"{key} 0.01", f"{key}=0.01"]
    value = draw(st.one_of(st.floats(max_value=-1e-300), st.floats(min_value=1.0),
                           st.sampled_from([math.nan, math.inf])))
    return [f"{key} {value!r}"]


@st.composite
def malformed_gamma_lines(draw, valid):
    """A valid gamma document (a list of lines) with one key dropped,
    garbled, emptied or repeated, or one gamma made non-finite."""
    lines = list(valid)
    at = {ln.split()[0]: i for i, ln in enumerate(lines) if not ln.startswith("#")}
    key = draw(st.sampled_from(_GAMMA_KEYS))
    damage = draw(st.sampled_from(["drop", "garble", "empty", "twice", "gamma"]))
    if damage == "drop":
        del lines[at[key]]
    elif damage == "garble":
        lines[at[key]] = f"{key} {draw(_GARBAGE)}"
    elif damage == "empty":
        lines[at[key]] = key
    elif damage == "twice":
        lines.insert(draw(st.integers(0, len(lines))), lines[at[key]])
    else:
        gammas = lines[at["gammas"]].split()
        gammas[draw(st.integers(1, len(gammas) - 1))] = draw(
            st.sampled_from(["nan", "inf", "-inf"]))
        lines[at["gammas"]] = " ".join(gammas)
    return lines


def run_quietly(*argv):
    """(exit code, stderr) of main, with stdout thrown away."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


class TestMalformedFilesFuzzed:
    """Malformed noise files and gamma documents through main: one error
    line naming the file and exit 2, never a traceback."""

    @pytest.fixture(scope="class")
    def folder(self, tmp_path_factory):
        folder = tmp_path_factory.mktemp("documents")
        assert main(["factorize", "--kind", "pf", "--p", "2", "--alpha", "0.5",
                     "--out", str(folder / "valid.txt")]) == 0
        return folder

    @settings(max_examples=80, deadline=None)
    @given(lines=malformed_noise_lines(), before=st.lists(
        st.sampled_from(["# comment", "", "eps10 0.01"]), max_size=2))
    def test_noise_file(self, folder, lines, before):
        path = folder / "noise.txt"
        path.write_text("\n".join(before + lines) + "\n")
        code, err = run_quietly(*SIMULATE, "--noise", str(path))
        assert code == 2
        assert err.count("\n") == 1 and err.startswith(f"error: noise file {path}: ")

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_gamma_document(self, folder, data):
        valid = (folder / "valid.txt").read_text().splitlines()
        path = folder / "gammas.txt"
        path.write_text("\n".join(data.draw(malformed_gamma_lines(valid))) + "\n")
        code, err = run_quietly("compile", "--gammas", str(path))
        assert code == 2
        assert err.count("\n") == 1 and err.startswith(f"error: gamma document {path}: ")

    @settings(max_examples=80, deadline=None)
    @given(line=st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=24))
    def test_any_extra_line_runs_or_gives_one_error_line(self, folder, line):
        noise, gammas = folder / "noise-any.txt", folder / "gammas-any.txt"
        noise.write_text(f"eps01 0.01\n{line}\n")
        gammas.write_text((folder / "valid.txt").read_text() + line + "\n")
        for argv, named in ((SIMULATE + ("--noise", str(noise)), f"noise file {noise}"),
                            (("compile", "--gammas", str(gammas)),
                             f"gamma document {gammas}")):
            code, err = run_quietly(*argv)
            assert (code, err) == (0, "") or (
                code == 2 and err.count("\n") == 1 and err.startswith(f"error: {named}: "))
