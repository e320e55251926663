"""Tests of the benchmark's own arithmetic: span self times, the median and
quartile helpers, the Q = 3 oracle and the CSV checks.

    python -m pytest -q perfbench
"""
import json
import math
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span  # noqa: E402


def _span(id, parent, name, start, end, q=None):
    return Span(1, id, parent, name, start, end, q)


class TestSelfTimes:
    def test_nested_and_overlapping_children(self):
        tree = [
            _span(0, -1, "cli.main", 0, 100),
            _span(1, 0, "experiments.study", 10, 40),
            _span(2, 0, "engine.run", 30, 60),        # overlaps span 1
            _span(3, 1, "factorize.solve", 15, 20),
            _span(4, 0, "engine.spam", 90, 120),      # runs past its parent
        ]
        own = spans.self_times(tree)
        assert own == {0: 100 - 50 - 10, 1: 25, 2: 30, 3: 5, 4: 30}

    def test_self_times_partition_the_root(self):
        tree = [
            _span(0, -1, "cli.main", 0, 1000),
            _span(1, 0, "experiments.study", 100, 900),
            _span(2, 1, "engine.run", 200, 300),
            _span(3, 1, "engine.run", 400, 700),
            _span(4, 3, "engine.ideal", 450, 500),
        ]
        assert sum(spans.self_times(tree).values()) == 1000

    def test_layer_metrics_from_synthetic_pass(self):
        tree = [
            _span(0, -1, "cli.main", 0, 1_000_000_000),
            _span(1, 0, "experiments.study", 100_000_000, 900_000_000),
            _span(2, 1, "factorize.solve", 100_000_000, 400_000_000, q=7),
            _span(3, 1, "engine.run", 400_000_000, 800_000_000, q=7),
            _span(4, 3, "engine.ideal", 500_000_000, 600_000_000),
        ]
        counts = Counter({"engine.shots": 5000, "engine.shots.q7": 5000})
        m = spans.layer_metrics(tree, counts, wall_s=1.0)
        assert m["cli.self_s"] == pytest.approx(0.2)
        assert m["experiments.self_s"] == pytest.approx(0.1)
        assert m["factorize.solve_s"] == pytest.approx(0.3)
        assert m["factorize.solve_s.q7"] == pytest.approx(0.3)
        assert m["factorize.solve_s.q3"] == 0.0
        assert m["engine.run_s.q7"] == pytest.approx(0.4)
        assert m["engine.ideal_s"] == pytest.approx(0.1)
        assert m["engine.us_per_shot.q7"] == pytest.approx(80.0)
        assert m["trace.coverage_frac"] == pytest.approx(0.8)
        assert m["engine.retained_frac"] == 1.0


class TestSummaries:
    @pytest.mark.parametrize("values", [[3.0, 1.0, 2.0], [5.0, 1.0, 4.0, 2.0],
                                        [0.9, 1.1, 1.0, 1.3, 0.7, 1.2, 0.8, 1.05, 0.95, 1.15]])
    def test_median_and_quartiles_match_statistics(self, values):
        q1, _, q3 = statistics.quantiles(values, n=4)
        assert run.median(values) == statistics.median(values)
        assert run.quartiles(values) == (q1, q3)
        out = run.summary(values)
        assert (out["value"], out["q1"], out["q3"], out["n"]) == (
            statistics.median(values), q1, q3, len(values))

    def test_single_sample(self):
        assert run.quartiles([2.5]) == (2.5, 2.5)
        assert run.summary([2.5])["n"] == 1


def _three_level(a1, a2, alpha):
    """exp(i alpha (a + a+)) |0> on three levels, worked out by hand."""
    omega = math.hypot(a1, a2)
    theta = alpha * omega
    return np.array([(a2 ** 2 + a1 ** 2 * math.cos(theta)) / omega ** 2,
                     1j * a1 * math.sin(theta) / omega,
                     a1 * a2 * (math.cos(theta) - 1) / omega ** 2])


class TestOracle:
    @pytest.mark.parametrize("kind,p,np_cut,a1,a2", [
        ("pb", 1, 2, 1.0, math.sqrt(2)),     # the ordinary boson
        ("pb", 3, 2, math.sqrt(3), math.sqrt(2)),
        ("pb", 7, 2, math.sqrt(7), math.sqrt(2)),
        ("pf", 2, 0, math.sqrt(2), math.sqrt(2)),
    ])
    @pytest.mark.parametrize("alpha", [0.3, 1.7])
    def test_q3_moments_match_closed_form(self, kind, p, np_cut, a1, a2, alpha):
        probs = np.abs(_three_level(a1, a2, alpha)) ** 2
        mean, mean2, mandel = oracle.exact_moments(kind, p, np_cut, alpha)
        assert mean == pytest.approx(probs @ [0, 1, 2], abs=1e-13)
        assert mean2 == pytest.approx(probs @ [0, 1, 4], abs=1e-13)
        assert mandel == pytest.approx((mean2 - mean ** 2) / mean - 1, abs=1e-12)

    def test_vacuum_has_no_mandel_parameter(self):
        assert oracle.exact_moments("pb", 2, 2, 0.0) == (0.0, 0.0, None)

    def test_agrees_with_the_library(self):
        from parasim.algebra import ParaSpec
        from parasim.experiments import exact_number_stats

        for kind, p, np_cut in (("pb", 2, 6), ("pf", 6, 0), ("pb", 7, 11)):
            spec = ParaSpec(kind=kind, p=p, np=np_cut)
            lib = exact_number_stats(spec, 0.6)
            mean, mean2, mandel = oracle.exact_moments(kind, p, np_cut, 0.6)
            assert abs(lib.mean_n - mean) < 1e-12
            assert abs(lib.mean_n2 - mean2) < 1e-12
            assert abs(lib.mandel_q - mandel) < 1e-12


class TestNoisyOracle:
    QUIET = tuple((key, 0.0) for key, _ in workloads.NOISE)

    def test_pauli_channel_is_the_literal_sum(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = (a @ a.conj().T / np.trace(a @ a.conj().T)).reshape((2,) * 6)
        for qubits in ((1,), (2, 0)):
            words = (oracle._PAULIS if len(qubits) == 1 else
                     [np.kron(x, y) for x in oracle._PAULIS for y in oracle._PAULIS])
            kicked = sum(oracle._conjugate(rho, w, qubits, 3) for w in words[1:])
            literal = 0.7 * rho + 0.3 / (len(words) - 1) * kicked
            assert np.abs(oracle._pauli_channel(rho, 0.3, qubits, 3) - literal).max() < 1e-15

    @pytest.mark.parametrize("p,np_cut", [(2, 2), (2, 4)])
    def test_noiseless_circuit_gives_the_exact_mean(self, tmp_path, p, np_cut):
        text = workloads._circuit(tmp_path, p, np_cut, 0.6, 1)
        want = oracle.exact_moments("pb", p, np_cut, 0.6)[0]
        assert oracle.exact_raw_mean(text, self.QUIET) == pytest.approx(want, abs=1e-9)

    def test_agrees_with_the_sampler(self, tmp_path):
        from parasim.circuits import circuit_from_text
        from parasim.engine import NoiseModel, run_and_sample
        from parasim.experiments import number_stats

        text = workloads._circuit(tmp_path, 3, 2, 0.6, 1)
        shots = run_and_sample(circuit_from_text(text), 40000,
                               NoiseModel(**dict(workloads.NOISE)), seed=5)
        got = number_stats(shots, 3)
        want = oracle.exact_raw_mean(text, workloads.NOISE)
        assert abs(got.mean_n - want) < 5 * got.stderr_mean
        assert want > oracle.exact_raw_mean(text, self.QUIET) + 10 * got.stderr_mean

    def test_q7_raw_mean_exceeds_the_top_level(self, tmp_path):
        # Why the raw row is checked against its expectation, not [0, Q-1].
        text = workloads._circuit(tmp_path, 2, 6, 0.6, 1)
        assert oracle.exact_raw_mean(text, workloads.NOISE) > 6.0


class TestChecks:
    def _cutoff_csv(self):
        from parasim.experiments import cutoff_study, series_to_csv

        points = cutoff_study(0.3, [1, 2, 3], [1, 2])
        return series_to_csv(points, "cutoff", 0, 1, ["parasim study cutoff"])

    def test_cutoff_csv_passes(self):
        assert oracle.check_cutoff(self._cutoff_csv(), 0.3, [1, 2, 3], [1, 2]) == []

    def test_perturbed_exact_value_fails(self):
        text = self._cutoff_csv()
        rows = text.splitlines()
        fields = rows[3].split(",")
        fields[3] = repr(float(fields[3]) + 1e-9)
        rows[3] = ",".join(fields)
        errors = oracle.check_cutoff("\n".join(rows) + "\n", 0.3, [1, 2, 3], [1, 2])
        assert len(errors) == 1 and "mean_n" in errors[0]

    def test_missing_row_fails(self):
        text = "\n".join(self._cutoff_csv().splitlines()[:-1]) + "\n"
        errors = oracle.check_cutoff(text, 0.3, [1, 2, 3], [1, 2])
        assert any(e.startswith("missing row") for e in errors)

    def test_noisy_row_bounds(self):
        row = {"x": "0.6", "source": "shots_raw", "mean_n": "4.5", "mean_n2": "40",
               "mandel_q": "", "stderr": "0.1", "retained_fraction": "0"}
        assert len(oracle.check_noisy_row(row, 5, raw_mean=3.9)) == 2
        assert len(oracle.check_noisy_row(row, 5)) == 2     # no expectation given
        row.update(retained_fraction="0.45")
        assert oracle.check_noisy_row(row, 5, raw_mean=4.1) == []
        row.update(mean_n="5.45")                       # above Q - 1 is fine
        assert oracle.check_noisy_row(row, 5, raw_mean=5.5) == []
        row.update(source="shots_postselected", mean_n="4.0")
        assert oracle.check_noisy_row(row, 5) == []
        row.update(mean_n="-0.1")
        assert len(oracle.check_noisy_row(row, 5)) == 1
        row.update(source="shots_spam")                  # a quasi-distribution
        assert oracle.check_noisy_row(row, 5) == []
        row.update(mean_n="1.5", retained_fraction="0.9", stderr="nan")
        assert oracle.check_noisy_row(row, 5) == [
            "x=0.6 source=shots_spam: stderr is nan"]


class _WritesCsv:
    """Stands in for parasim.cli: exits 0 after writing the given text."""

    def __init__(self, path, text):
        self.path, self.text = path, text

    def main(self, argv):
        if self.text is not None:
            self.path.write_text(self.text)
        return 0


class TestPassRunner:
    def _runner(self, tmp_path, text):
        command = workloads.commands("noisy-sweep", 1, tmp_path)[0]
        out = Path(command.out)
        return run.PassRunner(_WritesCsv(out, text), [command])

    @pytest.mark.parametrize("text", [
        "x,source,mean_n\nnot-a-number,exact,1\n",   # float() of x raises
        "x,mean_n\n0.6,1\n",                         # no source column
        None,                                          # exit 0 and no CSV
    ])
    def test_malformed_or_missing_csv_is_one_failure(self, tmp_path, text):
        runner = self._runner(tmp_path, text)
        runner.run_pass()
        runner.check_outputs()
        assert (runner.attempted, runner.failed) == (1, 1)
        assert len(runner.errors) == 1

    def test_rejected_csv_fails_every_pass_that_wrote_it(self, tmp_path):
        runner = self._runner(tmp_path, "x,source\n")
        for _ in range(3):
            runner.run_pass()
        runner.check_outputs()
        assert (runner.attempted, runner.failed) == (3, 3)

    def test_measuring_process_does_not_load_scipy(self):
        code = ("import sys; sys.path[:0] = sys.argv[1:]; "
                "import workloads, run, spans, worker; "
                "sys.exit('scipy' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code, str(HERE)], timeout=120)
        assert proc.returncode == 0, "importing the benchmark's modules loaded scipy"


class TestTracer:
    def test_install_wraps_and_uninstall_restores(self):
        import parasim.engine as engine

        original = engine.apply_gate_batch
        tracer = spans.Tracer()
        tracer.install()
        try:
            assert engine.apply_gate_batch is not original
            assert engine.apply_gate_batch.__wrapped__ is original
        finally:
            tracer.uninstall()
        assert engine.apply_gate_batch is original

    def test_missing_target_fails_loudly(self, monkeypatch):
        import parasim.circuits as circuits
        import parasim.cli as cli

        original_main = cli.main
        monkeypatch.delattr(circuits, "optimize_cancel")
        with pytest.raises(spans.MissingTarget, match="optimize_cancel"):
            spans.Tracer().install()
        assert cli.main is original_main

    def test_expected_layer_without_spans_fails_loudly(self):
        spans.check_expected("noisy-sweep", ("engine.run", "engine.spam"),
                             {"engine.run", "engine.spam", "cli.main"})
        with pytest.raises(spans.MissingLayer, match="engine.spam"):
            spans.check_expected("noisy-sweep", ("engine.run", "engine.spam"),
                                 {"engine.run", "cli.main"})

    def test_benchmark_json_names_are_produced(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        produced = set(spans.layer_metrics([], Counter(), 1.0)) | {"trace.overhead_frac"}
        for metric in spec["per_layer"]:
            assert metric["name"] in produced
            assert metric["unit"] == spans.unit_of(metric["name"])
        for metric in spec["end_to_end"]:
            assert metric["unit"] == spans.unit_of(metric["name"])
