"""Simulator engine tests: the vacuum start, noiseless amplitudes, seeded
sampling with and without noise and the shot-set text format, plus the readout correction
and post-selection that turn its shots into mitigated counts."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parasim.algebra import ParaSpec, displaced_vacuum_exact
from parasim.circuits import Circuit, compile_displacement, rx, xx
from parasim.engine import (
    NoiseModel,
    ShotSet,
    apply_circuit,
    outcome_bits,
    run_and_sample,
    shotset_to_text,
)
from parasim.experiments import (
    EmptyShotSetError,
    histogram,
    number_stats,
    postselect,
    spam_correct,
)
from parasim.factorize import solve_displacement
from parasim.mapping import generator_family, onehot_index


def random_circuit(rng, q: int, gates: int) -> Circuit:
    """`gates` RX and XX gates with normal angles on random qubits; RX only
    on one qubit."""
    out = []
    for _ in range(gates):
        if q == 1 or rng.random() < 0.5:
            out.append(rx(rng.normal(), int(rng.integers(q))))
        else:
            a, b = rng.choice(q, size=2, replace=False)
            out.append(xx(rng.normal(), int(a), int(b)))
    return Circuit(q, out)


class TestNoiseModel:
    def test_probability_ranges_validated(self):
        with pytest.raises(ValueError):
            NoiseModel(p_depol_1q=1.0)
        with pytest.raises(ValueError):
            NoiseModel(eps01=-0.1)

    @pytest.mark.parametrize("eps01,eps10", [(0.6, 0.4), (0.5, 0.4999999999999)],
                             ids=["singular", "near-singular"])
    def test_singular_confusion_rejected(self, eps01, eps10):
        # the second is within 1e-12 of singular: its inverse would be no readout correction
        with pytest.raises(ValueError, match="confusion matrix is singular"):
            NoiseModel(eps01=eps01, eps10=eps10)


class TestVacuumStart:
    def test_ideal_three_qubits(self):
        expected = np.zeros(8)
        expected[int("100", 2)] = 1.0
        assert np.array_equal(apply_circuit(Circuit(3)), expected)

    def test_single_qubit(self):
        assert np.array_equal(apply_circuit(Circuit(1)), [0.0, 1.0])

    def test_certain_flips(self):
        # every preparation bit flips, then X on qubit 0: |000> -> |111> -> |011>
        noise = NoiseModel(p_prep_flip=0.999999999)
        shots = run_and_sample(Circuit(3), 50, noise, seed=0)
        assert shots.counts == {"011": 50}

    @pytest.mark.parametrize("q", [0, -2])
    def test_needs_a_qubit(self, q):
        with pytest.raises(ValueError, match="need at least one qubit"):
            Circuit(q)


class TestApplyCircuit:
    def test_compiled_displacement_matches_exact_reference(self):
        spec = ParaSpec("pf", 2)
        gv = solve_displacement(spec, np.pi / 4)
        circuit = compile_displacement(gv, generator_family(3))
        amps = apply_circuit(circuit)
        psi = displaced_vacuum_exact(spec, np.pi / 4)
        onehot_amps = np.array([amps[onehot_index(n, 3)] for n in range(3)])
        phase = onehot_amps[0] / psi[0]
        assert abs(abs(phase) - 1.0) < 1e-9
        assert np.max(np.abs(onehot_amps - phase * psi)) <= 1e-9

    def test_norm_preserved_across_random_circuit(self):
        amps = apply_circuit(random_circuit(np.random.default_rng(7), 4, 60))
        assert abs(np.linalg.norm(amps) - 1.0) < 1e-10

    def test_certain_two_qubit_depolarizing_is_a_pauli_kick(self):
        # with a kick after the gate for certain, each shot is drawn from one
        # of the 15 non-identity Pauli pairs applied to the clean state, picked
        # uniformly: the histogram is their equal-weight mixture
        noise = NoiseModel(p_depol_2q=0.999999999)
        circuit = Circuit(2, [xx(0.4, 0, 1)])
        clean = apply_circuit(circuit)
        paulis = [np.eye(2), np.array([[0, 1], [1, 0]]),
                  np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])]
        kicked = [np.abs(np.kron(a, b) @ clean) ** 2
                  for a in paulis for b in paulis][1:]
        expected = np.mean(kicked, axis=0)
        shots = 4000
        counts = run_and_sample(circuit, shots, noise, seed=3).counts
        observed = np.zeros(4)
        for bstr, count in counts.items():
            observed[int(bstr, 2)] = count
        sigma = np.sqrt(shots * expected * (1 - expected))
        assert np.all(np.abs(observed - shots * expected) <= 5 * sigma + 1e-9)
        # the kicks move most of the weight off the clean distribution
        assert np.max(np.abs(expected - np.abs(clean) ** 2)) > 0.1


class TestCleanShots:
    def test_deterministic_given_seed(self):
        circuit = Circuit(2, [rx(np.pi / 2, 0), rx(np.pi / 2, 1)])  # all four outcomes
        first = run_and_sample(circuit, 1000, seed=3)
        second = run_and_sample(circuit, 1000, seed=3)
        assert first.counts == second.counts
        assert len(first.counts) == 4

    def test_pure_state_concentrates(self):
        shots = run_and_sample(Circuit(3), 5000, seed=0)
        assert shots.counts == {"100": 5000}

    def test_equal_superposition_within_3_sigma(self):
        # XX(pi/2) on qubits 0, 1 takes |100> to (|100> - i|010>)/sqrt(2)
        circuit = Circuit(3, [xx(np.pi / 2, 0, 1)])
        shots = run_and_sample(circuit, 5000, seed=11)
        assert set(shots.counts) == {"100", "010"}
        sigma = np.sqrt(5000 * 0.25)
        for key in ("100", "010"):
            assert abs(shots.counts[key] - 2500) <= 3 * sigma

    def test_certain_readout_flips(self):
        noise = NoiseModel(eps01=0.999999999)  # every 0 reads 1, every 1 stays
        shots = run_and_sample(Circuit(3), 200, noise, seed=5)
        assert shots.counts == {"111": 200}

    def test_shots_validated(self):
        with pytest.raises(ValueError):
            run_and_sample(Circuit(2), 0)

    @staticmethod
    def choice_counts(amps, shots, seed, noise=None):
        """Reference sampler: Generator.choice over the normalized |amps|^2,
        then one uniform per read bit against the confusion rates."""
        q = int(np.log2(amps.size))
        rng = np.random.default_rng(seed)
        probs = np.abs(amps) ** 2
        picks = rng.choice(2 ** q, size=shots, p=probs / probs.sum())
        bits = (picks[:, None] >> np.arange(q - 1, -1, -1)) & 1
        if noise is not None:
            u = rng.random(bits.shape)
            bits = bits ^ np.where(bits == 0, u < noise.eps01, u < noise.eps10)
        values, counts = np.unique(bits @ (1 << np.arange(q - 1, -1, -1)), return_counts=True)
        return {format(v, f"0{q}b"): n for v, n in zip(values.tolist(), counts.tolist())}

    @pytest.mark.parametrize("q", range(1, 9))
    def test_level_rule_draws_what_generator_choice_draws(self, q):
        rng = np.random.default_rng(100 + q)
        noise = NoiseModel(eps01=0.1, eps10=0.2)
        for trial in range(4):
            # odd trials: no gate or one leaves at most two nonzero amplitudes,
            # and the exact zeros tie in the cumulative sum
            circuit = random_circuit(rng, q, trial // 2 if trial % 2 else 6 * q)
            amps = apply_circuit(circuit)
            if trial % 2:
                assert np.count_nonzero(amps) <= 2
            for seed in (0, 1, 7, 12345):
                assert run_and_sample(circuit, 3000, seed=seed).counts == \
                    self.choice_counts(amps, 3000, seed)
                assert run_and_sample(circuit, 3000, noise, seed=seed).counts == \
                    self.choice_counts(amps, 3000, seed, noise)


class TestRunAndSample:
    def test_ideal_compiled_sampling_stays_onehot(self):
        spec = ParaSpec("pb", 3, np=2)
        gv = solve_displacement(spec, 0.3)
        circuit = compile_displacement(gv, generator_family(3))
        shots = run_and_sample(circuit, 5000, seed=2)
        assert all(b.count("1") == 1 for b in shots.counts)

    def test_seed_determinism_with_noise(self):
        spec = ParaSpec("pf", 2)
        gv = solve_displacement(spec, 0.6)
        circuit = compile_displacement(gv, generator_family(3))
        noise = NoiseModel(p_depol_1q=0.002, p_depol_2q=0.02, eps01=0.01, eps10=0.01)
        first = run_and_sample(circuit, 500, noise, seed=9)
        second = run_and_sample(circuit, 500, noise, seed=9)
        assert first.counts == second.counts


def corrected_p1(shots: ShotSet, noise: NoiseModel) -> np.ndarray:
    """Per-qubit P(read 1) of a shot set after readout inversion."""
    corrected = spam_correct(histogram(shots) / shots.shots, noise)
    return corrected @ outcome_bits(len(next(iter(shots.counts))))


class TestSpamCorrection:
    def test_identity_confusion_is_a_no_op(self):
        shots = ShotSet({"10": 600, "01": 400}, 1000, seed=0)
        assert corrected_p1(shots, NoiseModel()) == pytest.approx([0.6, 0.4])

    def test_symmetric_fixed_point(self):
        shots = ShotSet({"1": 500, "0": 500}, 1000, seed=0)
        p1 = corrected_p1(shots, NoiseModel(eps01=0.05, eps10=0.05))
        assert p1[0] == pytest.approx(0.5)

    def test_inverse_of_known_confusion(self):
        shots = ShotSet({"1": 950, "0": 50}, 1000, seed=0)
        p1 = corrected_p1(shots, NoiseModel(eps01=0.05, eps10=0.05))
        assert p1[0] == pytest.approx(1.0)

    def test_out_of_range_not_clamped(self):
        shots = ShotSet({"1": 990, "0": 10}, 1000, seed=0)
        p1 = corrected_p1(shots, NoiseModel(eps01=0.05, eps10=0.05))
        assert p1[0] > 1.0

    def test_simulate_then_correct_recovers_ideal_marginals(self):
        # 4-sigma round trip at 5000 shots
        spec = ParaSpec("pf", 2)
        gv = solve_displacement(spec, np.pi / 4)
        circuit = compile_displacement(gv, generator_family(3))
        noise = NoiseModel(eps01=0.04, eps10=0.06)
        shots = run_and_sample(circuit, 5000, noise, seed=13)
        p1 = corrected_p1(shots, noise)
        psi = displaced_vacuum_exact(spec, np.pi / 4)
        ideal_p1 = np.abs(psi) ** 2
        for q in range(3):
            sigma = max(np.sqrt(ideal_p1[q] * (1 - ideal_p1[q]) / 5000)
                        / (1 - noise.eps01 - noise.eps10), 1e-4)
            assert abs(p1[q] - ideal_p1[q]) <= 4 * sigma

    def test_empty_counts_rejected(self):
        with pytest.raises(EmptyShotSetError):
            corrected_p1(ShotSet({}, 0, seed=0), NoiseModel())


class TestPostselect:
    def test_drops_out_of_subspace_strings(self):
        shots = ShotSet({"100": 4900, "110": 100}, 5000, seed=0)
        kept = postselect(shots)
        assert kept.counts == {"100": 4900}
        assert kept.shots == 4900

    def test_all_onehot_unchanged(self):
        shots = ShotSet({"100": 3000, "010": 2000}, 5000, seed=0)
        kept = postselect(shots)
        assert kept == shots

    def test_zero_retained_is_explicit(self):
        kept = postselect(ShotSet({"000": 10}, 10, seed=0))
        assert kept.counts == {}
        assert kept.shots == 0
        with pytest.raises(EmptyShotSetError):
            number_stats(kept, 3)

    def test_postselection_usually_beats_raw_under_depolarizing(self):
        # maximum displacement: the exact state is the pure top level, so
        # every leaked string biases the raw estimate
        spec = ParaSpec("pf", 2)
        alpha = np.pi / 2
        gv = solve_displacement(spec, alpha)
        circuit = compile_displacement(gv, generator_family(3))
        noise = NoiseModel(p_depol_1q=0.001, p_depol_2q=0.01)
        exact = 2.0  # 1 - cos(2 alpha) at alpha = pi/2
        wins = 0
        runs = 12
        for seed in range(runs):
            raw = run_and_sample(circuit, 2000, noise, seed=seed)
            err_raw = abs(number_stats(raw, 3).mean_n - exact)
            err_sel = abs(number_stats(postselect(raw), 3).mean_n - exact)
            wins += err_sel <= err_raw
        assert wins >= runs * 3 // 4


class TestShotSetText:
    def test_metadata_and_counts(self):
        shots = ShotSet({"010": 7, "100": 3}, 10, seed=4)
        text = shotset_to_text(shots, NoiseModel(eps01=0.01))
        assert "# seed 4" in text
        assert "# shots 10" in text
        assert "retained_fraction" not in text
        assert "eps01=0.01" in text
        assert text.index("010 7") < text.index("100 3")

    @pytest.mark.parametrize("noise,line", [
        (NoiseModel(p_prep_flip=0.005, eps01=0.01, eps10=0.02, p_depol_1q=0.001,
                    p_depol_2q=0.01),
         "# noise p_prep_flip=0.0050000000000000001 eps01=0.01 eps10=0.02 "
         "p_depol_1q=0.001 p_depol_2q=0.01"),
        (NoiseModel(), "# noise p_prep_flip=0 eps01=0 eps10=0 p_depol_1q=0 p_depol_2q=0"),
        (NoiseModel(eps01=1 / 3, p_depol_2q=0),
         "# noise p_prep_flip=0 eps01=0.33333333333333331 eps10=0 p_depol_1q=0 p_depol_2q=0"),
    ])
    def test_noise_line_bytes(self, noise, line):
        text = shotset_to_text(ShotSet({"1": 1}, 1, seed=0), noise)
        assert text.splitlines()[3] == line

    def test_round_trip(self, tmp_path):
        from parasim.engine import read_shotset
        shots = ShotSet({"010": 7, "100": 3}, 10, seed=4)
        path = tmp_path / "shots.txt"
        path.write_text(shotset_to_text(shots))
        loaded = read_shotset(path)
        assert loaded == shots

    @pytest.mark.parametrize("lines", [
        ["0a0 3"],
        ["010 3", "01 2"],
        ["010"],
        ["010 3 4"],
        ["010 -3"],
        ["010 2.5"],
    ])
    def test_malformed_lines_rejected(self, tmp_path, lines):
        from parasim.engine import read_shotset
        path = tmp_path / "shots.txt"
        path.write_text("# seed 4\n" + "\n".join(lines) + "\n")
        with pytest.raises(ValueError) as excinfo:
            read_shotset(path)
        assert str(excinfo.value).startswith(f"shot set {path}: ")
        assert repr(lines[-1]) in str(excinfo.value)

    @pytest.mark.parametrize("line", ["# seed abc", "# shots abc", "# shots 2.5"])
    def test_bad_header_value_names_the_line(self, tmp_path, line):
        from parasim.engine import read_shotset
        path = tmp_path / "shots.txt"
        path.write_text(f"{line}\n010 3\n")
        with pytest.raises(ValueError) as excinfo:
            read_shotset(path)
        assert str(excinfo.value).startswith(f"shot set {path}: bad header line {line!r}")

    def test_bitstring_given_twice_rejected(self, tmp_path):
        from parasim.engine import read_shotset
        path = tmp_path / "shots.txt"
        path.write_text("# seed 4\n010 3\n100 1\n010 5\n")
        with pytest.raises(ValueError) as excinfo:
            read_shotset(path)
        assert str(excinfo.value) == f"shot set {path}: bitstring '010' given twice"

    def test_truncated_shot_set_rejected(self, tmp_path):
        from parasim.engine import read_shotset
        path = tmp_path / "shots.txt"
        path.write_text("# seed 4\n# shots 10\n010 3\n")
        with pytest.raises(ValueError) as excinfo:
            read_shotset(path)
        assert str(excinfo.value) == (f"shot set {path}: counts sum to 3, "
                                      "not the 10 of '# shots'")


_SHOT_SETS = st.integers(1, 6).flatmap(lambda q: st.builds(
    lambda counts, seed: ShotSet(counts, sum(counts.values()), seed),
    st.dictionaries(st.text("01", min_size=q, max_size=q), st.integers(0, 10 ** 12),
                    max_size=8),
    st.integers(-2 ** 63, 2 ** 63)))
_NOISE = st.one_of(st.none(), st.builds(NoiseModel, eps01=st.floats(0.0, 0.4),
                                        p_depol_2q=st.floats(0.0, 0.9)))


class TestShotSetTextProperties:
    @settings(max_examples=80, deadline=None)
    @given(_SHOT_SETS, _NOISE)
    def test_round_trip_is_exact(self, tmp_path_factory, shots, noise):
        from parasim.engine import read_shotset
        path = tmp_path_factory.mktemp("shots") / "shots.txt"
        path.write_text(shotset_to_text(shots, noise))
        assert read_shotset(path) == shots


class TestCounts:
    def test_matches_a_loop(self):
        from parasim.engine import _counts
        bits = np.random.default_rng(3).integers(0, 2, size=(500, 4))
        expected: dict = {}
        for row in bits:
            key = "".join(str(b) for b in row)
            expected[key] = expected.get(key, 0) + 1
        counts = _counts(bits)
        assert counts == expected
        assert all(type(n) is int for n in counts.values())

    def test_histogram_indexes_counts_by_outcome(self):
        hist = histogram(ShotSet({"011": 4, "100": 2, "000": 1}, 7, seed=0))
        assert hist.tolist() == [1, 0, 0, 4, 2, 0, 0, 0]
        with pytest.raises(EmptyShotSetError):
            histogram(ShotSet({}, 0, seed=0))


def dense_confusion(noise: NoiseModel, num_qubits: int) -> np.ndarray:
    """Kronecker product of the per-qubit confusion P(read r | true t) at
    [r, t]; qubit 0 is the most significant bit."""
    one = np.array([[1 - noise.eps01, noise.eps10], [noise.eps01, 1 - noise.eps10]])
    out = np.ones((1, 1))
    for _ in range(num_qubits):
        out = np.kron(out, one)
    return out


class TestSpamInversionOracle:
    NOISE = NoiseModel(eps01=0.03, eps10=0.07)

    @pytest.mark.parametrize("q", range(1, 8))
    def test_undoes_the_dense_confusion(self, q):
        rng = np.random.default_rng(q)
        true = rng.dirichlet(np.ones(2 ** q), size=5)
        read = true @ dense_confusion(self.NOISE, q).T
        assert np.abs(spam_correct(read, self.NOISE) - true).max() < 1e-12
        assert np.abs(spam_correct(read[2], self.NOISE) - true[2]).max() < 1e-12
        counts = rng.integers(0, 50, size=(4, 2 ** q))   # integer counts, same map
        want = counts @ np.linalg.inv(dense_confusion(self.NOISE, q)).T
        assert np.abs(spam_correct(counts, self.NOISE) - want).max() < 1e-12 * counts.max()
