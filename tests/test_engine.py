"""Simulator engine tests: state preparation, noisy circuit execution,
seeded sampling, SPAM correction and post-selection."""
import numpy as np
import pytest

from parasim.algebra import ParaSpec, displaced_vacuum_exact
from parasim.circuits import Circuit, compile_displacement, rx, xx
from parasim.engine import (
    EmptyShotSetError,
    NoiseModel,
    ShotSet,
    StateVector,
    apply_circuit,
    postselect,
    prepare_initial,
    run_and_sample,
    sample_shots,
    shotset_to_text,
    spam_correct,
)
from parasim.experiments import number_stats
from parasim.factorize import solve_displacement
from parasim.mapping import generator_family, onehot_index


def make_state(amplitudes):
    amps = np.asarray(amplitudes, dtype=complex)
    return StateVector(int(np.log2(len(amps))), amps)


class TestNoiseModel:
    def test_probability_ranges_validated(self):
        with pytest.raises(ValueError):
            NoiseModel(p_depol_1q=1.0)
        with pytest.raises(ValueError):
            NoiseModel(eps01=-0.1)

    def test_singular_confusion_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel(eps01=0.6, eps10=0.4)


class TestPrepareInitial:
    def test_ideal_three_qubits(self):
        state = prepare_initial(3)
        expected = np.zeros(8)
        expected[int("100", 2)] = 1.0
        assert np.allclose(state.amps, expected)

    def test_single_qubit(self):
        state = prepare_initial(1)
        assert np.allclose(state.amps, [0.0, 1.0])

    def test_certain_flips(self):
        # every preparation bit flips, then X on qubit 0: |000> -> |111> -> |011>
        noise = NoiseModel(p_prep_flip=0.999999999)
        shots = run_and_sample(Circuit(3), 50, noise, seed=0)
        assert shots.counts == {"011": 50}

    def test_needs_a_qubit(self):
        with pytest.raises(ValueError):
            prepare_initial(0)


class TestApplyCircuit:
    def test_identity_circuit(self):
        state = prepare_initial(3)
        out = apply_circuit(state, Circuit(3))
        assert np.array_equal(out.amps, state.amps)

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            apply_circuit(prepare_initial(2), Circuit(3))

    def test_compiled_displacement_matches_exact_reference(self):
        spec = ParaSpec("pf", 2)
        gv = solve_displacement(spec, np.pi / 4)
        circuit = compile_displacement(gv, generator_family(3))
        out = apply_circuit(prepare_initial(3), circuit)
        psi = displaced_vacuum_exact(spec, np.pi / 4)
        onehot_amps = np.array([out.amps[onehot_index(n, 3)] for n in range(3)])
        phase = onehot_amps[0] / psi[0]
        assert abs(abs(phase) - 1.0) < 1e-9
        assert np.max(np.abs(onehot_amps - phase * psi)) <= 1e-9

    def test_norm_preserved_across_random_circuit(self):
        rng = np.random.default_rng(7)
        gates = []
        for _ in range(60):
            if rng.random() < 0.5:
                gates.append(rx(rng.normal(), int(rng.integers(4))))
            else:
                a, b = rng.choice(4, size=2, replace=False)
                gates.append(xx(rng.normal(), int(a), int(b)))
        out = apply_circuit(prepare_initial(4), Circuit(4, gates))
        assert abs(np.linalg.norm(out.amps) - 1.0) < 1e-10

    def test_certain_two_qubit_depolarizing_is_a_pauli_kick(self):
        # with a kick after the gate for certain, each shot is drawn from one
        # of the 15 non-identity Pauli pairs applied to the clean state, picked
        # uniformly: the histogram is their equal-weight mixture
        noise = NoiseModel(p_depol_2q=0.999999999)
        circuit = Circuit(2, [xx(0.4, 0, 1)])
        clean = apply_circuit(prepare_initial(2), circuit).amps
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


class TestSampleShots:
    def test_deterministic_given_seed(self):
        state = make_state(np.sqrt([0.25, 0.25, 0.25, 0.25]))
        first = sample_shots(state, 1000, seed=3)
        second = sample_shots(state, 1000, seed=3)
        assert first.counts == second.counts

    def test_pure_state_concentrates(self):
        state = prepare_initial(3)
        shots = sample_shots(state, 5000, seed=0)
        assert shots.counts == {"100": 5000}

    def test_equal_superposition_within_3_sigma(self):
        amps = np.zeros(8)
        amps[int("100", 2)] = amps[int("010", 2)] = 1 / np.sqrt(2)
        shots = sample_shots(make_state(amps), 5000, seed=11)
        sigma = np.sqrt(5000 * 0.25)
        for key in ("100", "010"):
            assert abs(shots.counts[key] - 2500) <= 3 * sigma

    def test_certain_readout_flips(self):
        state = make_state([1.0] + [0.0] * 7)  # |000>
        noise = NoiseModel(eps01=0.999999999)
        shots = sample_shots(state, 200, noise, seed=5)
        assert shots.counts == {"111": 200}

    def test_shots_validated(self):
        with pytest.raises(ValueError):
            sample_shots(prepare_initial(2), 0)


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


class TestSpamCorrection:
    def test_identity_confusion_is_a_no_op(self):
        shots = ShotSet({"10": 600, "01": 400}, 1000, seed=0)
        marg = spam_correct(shots, NoiseModel())
        assert marg.p1 == pytest.approx([0.6, 0.4])
        assert not marg.out_of_range

    def test_symmetric_fixed_point(self):
        shots = ShotSet({"1": 500, "0": 500}, 1000, seed=0)
        marg = spam_correct(shots, NoiseModel(eps01=0.05, eps10=0.05))
        assert marg.p1[0] == pytest.approx(0.5)

    def test_inverse_of_known_confusion(self):
        shots = ShotSet({"1": 950, "0": 50}, 1000, seed=0)
        marg = spam_correct(shots, NoiseModel(eps01=0.05, eps10=0.05))
        assert marg.p1[0] == pytest.approx(1.0)

    def test_out_of_range_flagged_not_clamped(self):
        shots = ShotSet({"1": 990, "0": 10}, 1000, seed=0)
        marg = spam_correct(shots, NoiseModel(eps01=0.05, eps10=0.05))
        assert marg.p1[0] > 1.0
        assert marg.out_of_range

    def test_simulate_then_correct_recovers_ideal_marginals(self):
        # 4-sigma round trip at 5000 shots
        spec = ParaSpec("pf", 2)
        gv = solve_displacement(spec, np.pi / 4)
        circuit = compile_displacement(gv, generator_family(3))
        noise = NoiseModel(eps01=0.04, eps10=0.06)
        shots = run_and_sample(circuit, 5000, noise, seed=13)
        marg = spam_correct(shots, noise)
        psi = displaced_vacuum_exact(spec, np.pi / 4)
        ideal_p1 = np.abs(psi) ** 2
        for q in range(3):
            sigma = max(np.sqrt(ideal_p1[q] * (1 - ideal_p1[q]) / 5000)
                        / (1 - noise.eps01 - noise.eps10), 1e-4)
            assert abs(marg.p1[q] - ideal_p1[q]) <= 4 * sigma

    def test_empty_counts_rejected(self):
        with pytest.raises(EmptyShotSetError):
            spam_correct(ShotSet({}, 0, seed=0), NoiseModel())


class TestPostselect:
    def test_drops_out_of_subspace_strings(self):
        shots = ShotSet({"100": 4900, "110": 100}, 5000, seed=0)
        kept = postselect(shots)
        assert kept.counts == {"100": 4900}
        assert kept.retained_fraction == pytest.approx(0.98)

    def test_all_onehot_unchanged(self):
        shots = ShotSet({"100": 3000, "010": 2000}, 5000, seed=0)
        kept = postselect(shots)
        assert kept.counts == shots.counts
        assert kept.retained_fraction == 1.0

    def test_zero_retained_is_explicit(self):
        kept = postselect(ShotSet({"000": 10}, 10, seed=0))
        assert kept.counts == {}
        assert kept.shots == 0
        assert kept.retained_fraction == 0.0
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
        shots = ShotSet({"010": 7, "100": 3}, 10, seed=4, retained_fraction=0.5)
        text = shotset_to_text(shots, NoiseModel(eps01=0.01))
        assert "# seed 4" in text
        assert "# retained_fraction 0.5" in text
        assert "eps01=0.01" in text
        assert text.index("010 7") < text.index("100 3")

    def test_round_trip(self, tmp_path):
        from parasim.engine import read_shotset, write_shotset
        shots = ShotSet({"010": 7, "100": 3}, 10, seed=4, retained_fraction=0.5)
        path = tmp_path / "shots.txt"
        write_shotset(path, shots)
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
        assert repr(lines[-1]) in str(excinfo.value)


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
        from parasim.engine import histogram
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

    def test_shot_set_marginals_use_the_same_inversion(self):
        shots = ShotSet({"100": 30, "010": 50, "011": 20}, 100, seed=0)
        marg = spam_correct(shots, self.NOISE)
        probs = np.zeros(8)
        probs[[4, 2, 3]] = [0.3, 0.5, 0.2]
        corrected = np.linalg.solve(dense_confusion(self.NOISE, 3), probs)
        assert np.abs(marg.histogram - corrected).max() < 1e-12
        bits = (np.arange(8)[:, None] >> np.array([2, 1, 0])) & 1
        assert np.abs(marg.p1 - corrected @ bits).max() < 1e-12
