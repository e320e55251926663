"""Observable and study tests: number statistics, Mandel Q, bootstrap
uncertainty, the three studies and CSV emission."""
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from parasim.algebra import ParaSpec, build_fock_ops
from parasim.circuits import compile_displacement, gate_counts
from parasim.engine import NoiseModel, ShotSet
from parasim.experiments import (
    SOURCE_EXACT,
    SOURCE_POST,
    SOURCE_RAW,
    SOURCE_SPAM,
    EmptyShotSetError,
    cutoff_study,
    exact_number_stats,
    histogram,
    mandel_q,
    number_stats,
    postselect,
    run_pb_mandel_sweep,
    run_pf_evolution,
    series_to_csv,
    shot_sources,
    spam_correct,
    uncertainty,
    write_atomic,
)
from parasim.factorize import solve_displacement
from parasim.mapping import generator_family


def oracle_mandel(spec: ParaSpec, alpha: float) -> float:
    """Brute-force reference: build the ladder directly, exponentiate with
    scipy and read the level moments."""
    ops = build_fock_ops(spec)
    vac = np.zeros(spec.dim, dtype=complex)
    vac[0] = 1.0
    psi = expm(1j * alpha * (ops.a + ops.adag)) @ vac
    probs = np.abs(psi) ** 2
    levels = np.arange(spec.dim)
    mean = probs @ levels
    mean2 = probs @ levels ** 2
    return float((mean2 - mean ** 2) / mean - 1.0)


class TestNumberStats:
    def test_vacuum_counts(self):
        stats = number_stats(ShotSet({"100": 5000}, 5000, seed=0), 3)
        assert stats.mean_n == 0.0 and stats.mean_n2 == 0.0
        assert stats.stderr_mean == 0.0

    def test_level_two_counts(self):
        stats = number_stats(ShotSet({"001": 5000}, 5000, seed=0), 3)
        assert stats.mean_n == 2.0

    def test_even_mixture(self):
        stats = number_stats(ShotSet({"100": 2500, "010": 2500}, 5000, seed=0), 3)
        assert stats.mean_n == pytest.approx(0.5)
        assert stats.mean_n2 == pytest.approx(0.5)
        assert stats.stderr_mean == pytest.approx(0.5 / np.sqrt(5000))

    def test_non_onehot_strings_use_linear_form(self):
        # "110" contributes levels 0 and 1 in the per-shot linear estimator
        stats = number_stats(ShotSet({"110": 10}, 10, seed=0), 3)
        assert stats.mean_n == pytest.approx(1.0)
        assert stats.mean_n2 == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(EmptyShotSetError):
            number_stats(ShotSet({}, 0, seed=0), 3)


class TestMandelQ:
    def test_bimodal_is_poissonian(self):
        stats = number_stats(ShotSet({"100": 2500, "001": 2500}, 5000, seed=0), 3)
        assert mandel_q(stats) == pytest.approx(0.0)

    def test_number_state_is_maximally_sub_poissonian(self):
        stats = number_stats(ShotSet({"010": 5000}, 5000, seed=0), 3)
        assert mandel_q(stats) == pytest.approx(-1.0)

    def test_coherent_state_limit(self):
        stats = exact_number_stats(ParaSpec("pb", 1, np=6), 0.3)
        assert abs(mandel_q(stats)) <= 1e-4

    def test_undefined_at_zero_mean(self):
        stats = number_stats(ShotSet({"100": 100}, 100, seed=0), 3)
        with pytest.raises(ValueError):
            mandel_q(stats)
        assert np.isnan(stats.mandel_q)


class TestUncertainty:
    def test_degenerate_distribution_has_zero_spread(self):
        shots = ShotSet({"100": 5000}, 5000, seed=0)
        assert uncertainty(shots, "mean_n", resamples=50, seed=1) == 0.0

    def test_bootstrap_tracks_binomial_sigma(self):
        shots = ShotSet({"100": 2500, "010": 2500}, 5000, seed=0)
        est = uncertainty(shots, "mean_n", resamples=500, seed=1)
        analytic = 0.5 / np.sqrt(5000)
        assert abs(est - analytic) <= 0.2 * analytic

    def test_single_resample_rejected(self):
        shots = ShotSet({"100": 10, "010": 10}, 20, seed=0)
        with pytest.raises(ValueError):
            uncertainty(shots, "mean_n", resamples=1)

    def test_unknown_statistic_rejected(self):
        shots = ShotSet({"100": 10, "010": 10}, 20, seed=0)
        with pytest.raises(ValueError):
            uncertainty(shots, "variance")

    def test_no_defined_resample_gives_nan(self):
        # every resample has <N> = 0, so none defines Mandel Q
        assert np.isnan(uncertainty(ShotSet({"100": 5}, 5, seed=0), "mandel_q", 50))


def reference_weights(counts, source, spam, order):
    """One series' outcome weights from a (2^Q,) count vector, written out
    with a dense Kronecker confusion matrix."""
    q = counts.size.bit_length() - 1
    probs = counts / counts.sum()
    inv = None
    if spam is not None:
        one = np.array([[1 - spam.eps01, spam.eps10], [spam.eps01, 1 - spam.eps10]])
        dense = np.ones((1, 1))
        for _ in range(q):
            dense = np.kron(dense, one)
        inv = np.linalg.inv(dense)
    if source == SOURCE_RAW:
        return probs
    if source == SOURCE_SPAM:
        return inv @ probs
    if inv is not None and order == "spam-first":
        probs = inv @ probs
    onehot = np.array([bin(i).count("1") == 1 for i in range(2 ** q)])
    probs = np.where(onehot, probs, 0.0)
    with np.errstate(invalid="ignore"):   # NaN when nothing is one-hot
        probs = probs / probs.sum()
    if inv is not None and order == "postselect-first":
        probs = inv @ probs
    return probs


def reference_moments(weights):
    q = weights.size.bit_length() - 1
    bits = np.array([[(i >> (q - 1 - m)) & 1 for m in range(q)] for i in range(2 ** q)])
    mean = weights @ bits @ np.arange(q)
    mean2 = weights @ bits @ np.arange(q) ** 2
    return mean, mean2


def reference_bootstrap(shots, statistic, resamples, seed, source, spam, order):
    """One multinomial draw per resample over the sorted observed bitstrings,
    each pushed through the dense reference estimator."""
    keys = sorted(shots.counts)
    probs = np.array([shots.counts[k] for k in keys], dtype=float)
    probs /= probs.sum()
    rng = np.random.default_rng(seed)
    values = []
    for _ in range(resamples):
        counts = np.zeros(2 ** len(keys[0]))
        for key, count in zip(keys, rng.multinomial(shots.shots, probs)):
            counts[int(key, 2)] = count
        mean, mean2 = reference_moments(reference_weights(counts, source, spam, order))
        value = mean if statistic == "mean_n" else (
            (mean2 - mean ** 2) / mean - 1.0 if mean > 1e-12 else np.nan)
        if np.isfinite(value):
            values.append(value)
    return float(np.std(values, ddof=1))


SPAM = NoiseModel(eps01=0.04, eps10=0.06)
SERIES = [
    (SOURCE_RAW, None, "spam-first"),
    (SOURCE_SPAM, SPAM, "spam-first"),
    (SOURCE_POST, SPAM, "spam-first"),
    (SOURCE_POST, SPAM, "postselect-first"),
    (SOURCE_POST, None, "spam-first"),
]
SERIES_IDS = ["raw", "spam", "post-spam-first", "post-postselect-first", "post-only"]


class TestOnePipeline:
    SHOTS = ShotSet({"100": 310, "010": 420, "001": 150, "000": 40, "110": 50,
                     "011": 20, "111": 10}, 1000, seed=3)

    # Q = 5 with leaked outcomes; the one-hot outcome 00001 is never observed,
    # yet the readout inversion gives it weight (from 00000 and 00011)
    WIDE = ShotSet({"10000": 260, "01000": 310, "00100": 180, "00010": 90,
                    "00000": 45, "11000": 40, "00011": 30, "10100": 25,
                    "01110": 12, "11111": 8}, 1000, seed=4)

    @pytest.mark.parametrize("source,spam,order", SERIES, ids=SERIES_IDS)
    @pytest.mark.parametrize("shots", [SHOTS, WIDE], ids=["Q3", "Q5"])
    def test_point_estimate_matches_the_dense_reference(self, shots, source, spam, order):
        stats = number_stats(shots, len(next(iter(shots.counts))), source, spam, order)
        mean, mean2 = reference_moments(reference_weights(histogram(shots), source,
                                                          spam, order))
        assert stats.mean_n == pytest.approx(mean, rel=1e-12)
        assert stats.mean_n2 == pytest.approx(mean2, rel=1e-12)

    # stderr_mean and retained_fraction of each series of SHOTS, as the
    # per-series code paths that the pipeline replaced computed them, except
    # post-spam-first: its retained fraction is the one-hot share of the raw
    # counts, as in the other post-selected series, and its standard error
    # scales with that share
    PINNED = {
        "raw": (0.024503061033266844, 1.0),
        "spam": (0.03221072591851248, 1.0),
        "post-spam-first": (0.023609769536005666, 0.88),
        "post-postselect-first": (0.03381559064031966, 0.88),
        "post-only": (0.023589033986531345, 0.88),
    }

    @pytest.mark.parametrize("series", SERIES_IDS)
    def test_standard_error_and_retained_fraction_are_unchanged(self, series):
        stats = number_stats(self.SHOTS, 3, *SERIES[SERIES_IDS.index(series)])
        stderr, retained = self.PINNED[series]
        assert stats.stderr_mean == pytest.approx(stderr, rel=1e-12)
        assert stats.retained_fraction == pytest.approx(retained, rel=1e-12)

    @pytest.mark.parametrize("statistic", ["mean_n", "mandel_q"])
    @pytest.mark.parametrize("source,spam,order", SERIES, ids=SERIES_IDS)
    @pytest.mark.parametrize("shots", [SHOTS, WIDE], ids=["Q3", "Q5"])
    def test_bootstrap_matches_a_loop_of_single_draws(self, shots, source, spam, order,
                                                      statistic):
        got = uncertainty(shots, statistic, 200, 11, source, spam, order)
        want = reference_bootstrap(shots, statistic, 200, 11, source, spam, order)
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("order", ["spam-first", "postselect-first"])
    def test_sixteen_qubits_need_no_array_over_every_outcome(self, order):
        # the (200, 2^16) draw matrix of a dense bootstrap alone would be 105 MB
        one_hot = ["0" * m + "1" + "0" * (15 - m) for m in (0, 3, 15)]
        shots = ShotSet({one_hot[0]: 300, one_hot[1]: 100, one_hot[2]: 50,
                         "0" * 16: 30, "11" + "0" * 14: 20}, 500, seed=2)
        spam = NoiseModel(eps01=0.002, eps10=0.003)  # mild enough to leave <N> > 0
        tracemalloc.start()
        try:
            out = shot_sources(shots, 16, spam, True, order, 200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert set(out) == {SOURCE_RAW, SOURCE_SPAM, SOURCE_POST}
        assert all(np.isfinite(s.mandel_stderr) for s in out.values())
        assert peak < 20 * 2 ** 20

    def test_resamples_without_one_hot_shots_are_dropped(self):
        # 2 of 3 shots leak, so some resamples keep no one-hot shot at all
        shots = ShotSet({"100": 1, "010": 1, "110": 1}, 3, seed=0)
        got = uncertainty(shots, "mean_n", 200, 5, SOURCE_POST)
        want = reference_bootstrap(shots, "mean_n", 200, 5, SOURCE_POST, None,
                                   "spam-first")
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("order", ["spam-first", "postselect-first"])
    def test_retained_fraction_is_the_raw_one_hot_share(self, order):
        # readout inversion can move more than all the weight onto one-hot
        # outcomes; the share of shots kept is still that of the raw counts
        spam = NoiseModel(eps01=0.02, eps10=0.03)
        shots = ShotSet({"100": 950, "000": 20, "110": 30}, 1000, seed=0)
        assert spam_correct(histogram(shots) / 1000, spam)[[1, 2, 4]].sum() > 1
        stats = number_stats(shots, 3, SOURCE_POST, spam, order)
        assert stats.retained_fraction == pytest.approx(0.95, rel=1e-12)

    def test_post_selection_keeps_the_retained_fraction(self):
        stats = number_stats(self.SHOTS, 3, SOURCE_POST)
        assert stats.retained_fraction == pytest.approx(0.88)
        assert stats.mean_n == pytest.approx(number_stats(postselect(self.SHOTS), 3).mean_n,
                                             rel=1e-12)

    def test_no_one_hot_weight_left_rejected(self):
        with pytest.raises(EmptyShotSetError, match="no one-hot weight left"):
            number_stats(ShotSet({"110": 10}, 10, seed=0), 3, SOURCE_POST)

    def test_shot_sources_reject_a_post_selection_that_keeps_nothing(self):
        shots = ShotSet({"110": 10, "011": 5}, 15, seed=0)
        with pytest.raises(EmptyShotSetError, match="discarded every shot"):
            shot_sources(shots, 3, postselect_flag=True)

    def test_unknown_series_or_order_rejected(self):
        with pytest.raises(ValueError):
            number_stats(self.SHOTS, 3, "shots_other")
        with pytest.raises(ValueError):
            number_stats(self.SHOTS, 3, SOURCE_POST, SPAM, "backwards")
        with pytest.raises(ValueError):
            number_stats(self.SHOTS, 3, SOURCE_SPAM)


class TestPfEvolution:
    def test_exact_curve_is_single_frequency(self):
        g = 0.02
        gts = np.linspace(0.0, np.pi, 25)
        points = run_pf_evolution(2, g, list(gts / g), shots=0)
        for point, gt in zip(points, gts):
            assert point.stats[SOURCE_EXACT].mean_n == pytest.approx(
                1 - np.cos(2 * gt), abs=1e-9)

    def test_time_zero_all_sources_vanish(self):
        points = run_pf_evolution(2, 0.02, [0.0], shots=400, seed=3)
        stats = points[0].stats
        assert stats[SOURCE_EXACT].mean_n == pytest.approx(0.0, abs=1e-12)
        assert stats[SOURCE_RAW].mean_n == 0.0

    def test_sampled_estimate_within_3_sigma(self):
        gt = np.pi / 4
        points = run_pf_evolution(2, 0.02, [gt / 0.02], shots=5000, seed=7)
        raw = points[0].stats[SOURCE_RAW]
        sigma = np.sqrt(0.5 / 5000)  # exact per-shot variance at <N> = 1
        assert abs(raw.mean_n - 1.0) <= 3 * sigma

    def test_gate_counts_constant_across_times(self):
        # the template, with no cancellation pass, the evolution compiles;
        # includes t = 0, where optimization would empty the circuit
        spec, basis = ParaSpec(kind="pf", p=2), generator_family(3)
        counts = [gate_counts(compile_displacement(solve_displacement(spec, 0.02 * t),
                                                   basis, optimize=False))
                  for t in (0.0, 30.0, 78.5)]
        assert counts[0] == counts[1] == counts[2]

    def test_mitigated_sources_present(self):
        noise = NoiseModel(eps01=0.02, eps10=0.03, p_depol_2q=0.005)
        points = run_pf_evolution(2, 0.02, [20.0], shots=300, seed=5,
                                  noise=noise, spam=noise, postselect_flag=True)
        stats = points[0].stats
        assert {SOURCE_EXACT, SOURCE_RAW, SOURCE_SPAM, SOURCE_POST} <= set(stats)

    def test_negative_times_rejected(self):
        with pytest.raises(ValueError):
            run_pf_evolution(2, 0.02, [-1.0], shots=0)

    def test_odd_order_rejected(self):
        with pytest.raises(ValueError):
            run_pf_evolution(3, 0.02, [1.0], shots=0)


class TestPbMandelSweep:
    def test_p1_truncated_coherent_state_is_sub_poissonian(self):
        points = run_pb_mandel_sweep(0.3, [1], 2, shots=0)
        value = points[0].stats[SOURCE_EXACT].mandel_q
        assert value is not None and value < 0.0

    def test_exact_sweep_matches_brute_force_oracle(self):
        points = run_pb_mandel_sweep(0.3, range(1, 8), 2, shots=0)
        for point in points:
            expected = oracle_mandel(ParaSpec("pb", int(point.x), np=2), 0.3)
            assert point.stats[SOURCE_EXACT].mandel_q == pytest.approx(
                expected, abs=1e-12)

    def test_zero_alpha_leaves_mandel_undefined(self):
        points = run_pb_mandel_sweep(0.0, [1, 2], 2, shots=0)
        for point in points:
            assert np.isnan(point.stats[SOURCE_EXACT].mandel_q)

    def test_sampled_mandel_close_to_exact(self):
        points = run_pb_mandel_sweep(0.3, [4], 2, shots=5000, seed=11)
        stats = points[0].stats
        exact = stats[SOURCE_EXACT].mandel_q
        raw = stats[SOURCE_RAW]
        assert raw.mandel_q == pytest.approx(exact, abs=4 * raw.mandel_stderr)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            run_pb_mandel_sweep(-0.1, [1], 2, shots=0)


class TestCircuitVsOracle:
    @staticmethod
    def circuit_moments(spec, alpha):
        from parasim.circuits import compile_displacement
        from parasim.engine import apply_circuit
        from parasim.factorize import solve_displacement
        from parasim.mapping import generator_family, onehot_index
        gv = solve_displacement(spec, alpha, seed=0)
        circuit = compile_displacement(gv, generator_family(spec.num_qubits))
        amps = apply_circuit(circuit)
        probs = np.array([abs(amps[onehot_index(n, spec.num_qubits)]) ** 2
                          for n in range(spec.dim)])
        levels = np.arange(spec.dim)
        return float(probs @ levels), float(probs @ levels ** 2)

    @pytest.mark.parametrize("gt", [0.2, 0.9, 1.7, 2.8])
    def test_pf_study_points_agree_without_sampling(self, gt):
        spec = ParaSpec("pf", 2)
        mean, _ = self.circuit_moments(spec, gt)
        exact = exact_number_stats(spec, gt)
        assert abs(mean - exact.mean_n) <= 1e-8

    @pytest.mark.parametrize("p", [1, 4, 7])
    def test_pb_study_points_agree_without_sampling(self, p):
        spec = ParaSpec("pb", p, np=2)
        mean, mean2 = self.circuit_moments(spec, 0.3)
        exact = exact_number_stats(spec, 0.3)
        assert abs(mean - exact.mean_n) <= 1e-8
        circuit_q = (mean2 - mean ** 2) / mean - 1
        assert abs(circuit_q - exact.mandel_q) <= 1e-8


class TestShotErrorScaling:
    def test_quadrupling_shots_halves_the_standard_error(self):
        # one configuration at 1250 / 5000 / 20000 shots
        points = {
            shots: run_pf_evolution(2, 0.02, [np.pi / 4 / 0.02], shots=shots,
                                    seed=21)[0].stats[SOURCE_RAW]
            for shots in (1250, 5000, 20000)
        }
        r1 = points[1250].stderr_mean / points[5000].stderr_mean
        r2 = points[5000].stderr_mean / points[20000].stderr_mean
        assert r1 == pytest.approx(2.0, rel=0.25)
        assert r2 == pytest.approx(2.0, rel=0.25)


class TestCutoffStudy:
    def test_coherent_limit_at_large_cutoff(self):
        points = cutoff_study(0.3, [1], [1, 2, 3])
        ref = points[0].stats["np9_ref"].mandel_q
        assert abs(ref) <= 1e-6

    def test_cutoff_three_closer_than_one(self):
        points = cutoff_study(0.3, range(1, 8), [1, 2, 3])
        for point in points:
            ref = point.stats["np9_ref"].mandel_q
            d3 = abs(point.stats["np3"].mandel_q - ref)
            d1 = abs(point.stats["np1"].mandel_q - ref)
            assert d3 < d1, f"p={point.x}: {d3} >= {d1}"

    def test_zero_alpha_excluded(self):
        assert cutoff_study(0.0, [1, 2], [1, 2]) == []


class TestCsvEmission:
    def test_deterministic_and_sorted(self, tmp_path):
        points = run_pb_mandel_sweep(0.3, [2, 1], 2, shots=200, seed=3)
        first = series_to_csv(points, "pb-mandel", 200, 3, ["cmd line here"])
        second = series_to_csv(points, "pb-mandel", 200, 3, ["cmd line here"])
        assert first == second
        body = [ln for ln in first.splitlines() if not ln.startswith("#")]
        xs = [float(ln.split(",")[1]) for ln in body[1:]]
        assert xs == sorted(xs)
        assert body[0].startswith("study,x,source,mean_n")

    def test_atomic_write(self, tmp_path):
        target = tmp_path / "out.csv"
        write_atomic([(target, "hello\n")])
        assert target.read_text() == "hello\n"
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".parasim")]
        assert leftovers == []

    def test_empty_mandel_field(self):
        points = run_pf_evolution(2, 0.02, [0.0], shots=0)
        text = series_to_csv(points, "pf-evolution", 0, 0)
        row = [ln for ln in text.splitlines() if ln.startswith("pf-evolution")][0]
        assert row.split(",")[5] == ""  # mandel undefined at <N> = 0
