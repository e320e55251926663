"""The fermionic-Gaussian trajectory engine against a dense trajectory replay.

`dense_run_and_sample` is a test-local reference: every dirty shot is
replayed gate by gate on its own 2^Q amplitude column, with its Pauli kicks
applied to the amplitudes, and measured by counting the cumulative
distribution's entries at or below its uniform.  It draws the same random
numbers in the same order as `run_and_sample`, so the two must agree on
every count.  `decompose` is checked against dense Majorana matrices.
"""
import itertools
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from parasim.algebra import ParaSpec
from parasim.circuits import (
    Circuit,
    circuit_from_text,
    circuit_to_text,
    compile_displacement,
    decompose,
    rx,
    xx,
)
from parasim.dense import apply_gate_batch, apply_word, circuit_unitary
import parasim.engine as engine
from parasim.engine import NoiseModel, _levels, run_and_sample
from parasim.factorize import solve_displacement
from parasim.mapping import _word, generator_family

_P1 = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
# the non-identity kicks on a gate's k qubits, in the order a uniform picks them
KICKS = {k: ["".join(w) for w in itertools.product("IXYZ", repeat=k)][1:] for k in (1, 2)}

NOISES = {
    "strong": NoiseModel(p_prep_flip=0.02, eps01=0.02, eps10=0.03,
                         p_depol_1q=0.01, p_depol_2q=0.03),
    "pinned": NoiseModel(p_prep_flip=0.005, eps01=0.01, eps10=0.02,
                         p_depol_1q=0.001, p_depol_2q=0.01),
    "gates": NoiseModel(p_depol_1q=0.02, p_depol_2q=0.05),
}


def counting_levels(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Level of each column of a (2^Q, n) cumulative distribution: the count
    of its entries <= u cdf[-1], capped at the last level."""
    return np.minimum((cdf <= u * cdf[-1]).sum(axis=0), cdf.shape[0] - 1)


def dense_run_and_sample(circuit: Circuit, shots: int, noise: NoiseModel, seed: int) -> dict:
    """Counts of the seeded noisy run, each dirty shot replayed densely."""
    q = circuit.num_qubits
    gates = circuit.gates
    rng = np.random.default_rng(seed)
    probs = np.array([noise.p_depol_1q if len(g.qubits) == 1 else noise.p_depol_2q
                      for g in gates])
    prep = rng.random((shots, q)) < noise.p_prep_flip
    # the gates of one rate, rates increasing: the kicks on their row-major
    # (shots, gates) grid sit at the running sums of geometric gaps, less one,
    # drawn in chunks of the mean count plus four deviations plus 16
    coins = np.zeros((shots, len(gates)), dtype=bool)
    for p in sorted(set(probs.tolist()) - {0.0}):
        columns = np.flatnonzero(probs == p)
        cells = shots * columns.size
        chunk = int(cells * p + 4 * np.sqrt(cells * p)) + 16
        at, end = [], -1
        while end < cells:
            for gap in rng.geometric(p, chunk).tolist():
                end += gap
                at.append(end)
        at = np.array([a for a in at if a < cells], dtype=int)
        coins[at // columns.size, columns[at % columns.size]] = True
    # then each kick's word, in (shot, gate) order
    picks = np.zeros((shots, len(gates)), dtype=int)
    picks[coins] = rng.integers([len(KICKS[len(gates[j].qubits)]) for j in np.nonzero(coins)[1]])
    meas_u = rng.random((shots, q))
    shot_u = rng.random(shots)

    weights = 1 << np.arange(q - 1, -1, -1)
    init = (prep @ weights) ^ (1 << (q - 1))
    amps = np.zeros((2 ** q, shots), dtype=complex)
    amps[init, np.arange(shots)] = 1.0
    clean = ~(prep.any(axis=1) | coins.any(axis=1))
    for j, gate in enumerate(gates):
        amps = apply_gate_batch(amps, gate)
        words = KICKS[len(gate.qubits)]
        for s in np.flatnonzero(coins[:, j]):
            amps[:, s] = apply_word(amps[:, s], _word(words[picks[s, j]], gate.qubits))
    ideal = np.zeros(2 ** q, dtype=complex)
    ideal[1 << (q - 1)] = 1.0
    for gate in gates:
        ideal = apply_gate_batch(ideal, gate)
    amps[:, clean] = ideal[:, None]
    levels = counting_levels(np.cumsum(np.abs(amps) ** 2, axis=0), shot_u)
    bits = (levels[:, None] >> np.arange(q - 1, -1, -1)) & 1
    bits = bits ^ np.where(bits == 0, meas_u < noise.eps01, meas_u < noise.eps10)
    values, counts = np.unique(bits @ weights, return_counts=True)
    return {format(v, f"0{q}b"): n for v, n in zip(values.tolist(), counts.tolist())}


def compiled(kind: str, q: int, alpha: float, optimize: bool = True) -> Circuit:
    spec = ParaSpec("pb", 2, np=q - 1) if kind == "pb" else ParaSpec("pf", q - 1)
    gammas = solve_displacement(spec, alpha)
    return compile_displacement(gammas, generator_family(q), optimize=optimize)


class TestLevels:
    """`_levels` by binary search draws the level the counting rule draws."""

    @pytest.mark.parametrize("q", [1, 3, 6])
    def test_random_distributions(self, q):
        rng = np.random.default_rng(q)
        for _ in range(20):
            cdf = np.cumsum(rng.random(2 ** q))
            u = rng.random(500)
            assert np.array_equal(_levels(cdf, u), counting_levels(cdf[:, None], u))

    @pytest.mark.parametrize("q", [2, 4, 7])
    def test_zero_weights_tie_in_the_cumulative_sum(self, q):
        rng = np.random.default_rng(10 + q)
        for _ in range(20):
            weights = rng.random(2 ** q)
            weights[rng.random(2 ** q) < 0.7] = 0.0
            weights[rng.integers(2 ** q)] = 1.0
            cdf = np.cumsum(weights)
            # uniforms on every tie, between them, and at both ends
            u = np.concatenate([cdf / cdf[-1], rng.random(200),
                                [0.0, np.nextafter(1.0, 0.0)]])
            assert np.array_equal(_levels(cdf, u), counting_levels(cdf[:, None], u))

    def test_ends(self):
        cdf = np.cumsum([0.0, 0.0, 0.5, 0.0, 0.5, 0.0])
        u = np.array([0.0, np.nextafter(1.0, 0.0)])
        assert _levels(cdf, u).tolist() == counting_levels(cdf[:, None], u).tolist() == [2, 4]


# (kind, Q, alpha, cancelled, circuit text round trip, noise, shots, seed)
CASES = [
    ("pb", 3, 0.0, True, False, "strong", 2000, 0),      # the empty circuit
    ("pb", 3, 0.0, False, False, "strong", 2000, 1),     # zero-angle template
    ("pb", 3, 1e-4, True, False, "pinned", 3000, 2),
    ("pb", 3, 2.9, False, True, "strong", 3000, 3),
    ("pf", 3, 0.6, True, True, "gates", 3000, 4),
    ("pb", 4, 0.6, False, False, "strong", 2000, 5),
    ("pb", 4, 1e-4, True, True, "gates", 2000, 6),
    ("pb", 5, 0.6, True, False, "pinned", 1500, 7),
    ("pf", 5, 2.9, True, True, "strong", 1000, 8),
    ("pf", 5, 1e-4, False, False, "gates", 1000, 9),
    ("pb", 6, 2.9, True, True, "pinned", 600, 10),
    ("pb", 6, 0.6, False, False, "gates", 300, 11),
    ("pb", 7, 0.6, True, False, "strong", 200, 12),
    ("pf", 7, 1e-4, True, True, "pinned", 200, 13),
    ("pb", 8, 0.6, True, True, "pinned", 120, 14),
    ("pb", 9, 2.9, True, False, "pinned", 60, 15),
]


@pytest.mark.parametrize("kind,q,alpha,cancelled,text,noise,shots,seed", CASES)
def test_counts_equal_the_dense_replay(kind, q, alpha, cancelled, text, noise, shots, seed):
    circuit = compiled(kind, q, alpha, cancelled)
    if text:
        circuit = circuit_from_text(circuit_to_text(circuit))
    expected = dense_run_and_sample(circuit, shots, NOISES[noise], seed)
    assert run_and_sample(circuit, shots, NOISES[noise], seed).counts == expected


@pytest.mark.parametrize("circuit,noise,shots,seed", [
    (compiled("pb", 3, 0.3), NOISES["pinned"], 5000, 10),
    (compiled("pf", 7, 0.5), NoiseModel(p_prep_flip=0.001, eps01=0.005, eps10=0.005,
                                        p_depol_1q=0.0001, p_depol_2q=0.001), 200, 7),
    (Circuit(3), NoiseModel(p_prep_flip=0.3, eps01=0.1), 1000, 3),
    (Circuit(3), NoiseModel(p_prep_flip=0.999999999), 50, 0),
    (Circuit(2, [xx(0.4, 0, 1)]), NoiseModel(p_depol_2q=0.999999999), 4000, 3),
    (Circuit(3, [xx(0.4, 1, 2), xx(-1.1, 0, 1)]), NOISES["strong"], 2000, 5),
    (compiled("pb", 4, 0.6), NOISES["strong"], 1, 2),
    (compiled("pb", 4, 0.6), NoiseModel(p_depol_1q=0.05, p_depol_2q=1e-30), 300, 4),
], ids=["pinned-q3", "pinned-q7", "empty", "certain-flips", "certain-kick", "adjacent-xx",
        "one-shot", "xx-rate-past-int64"])
def test_pinned_and_hand_built_circuits_equal_the_dense_replay(circuit, noise, shots, seed):
    assert run_and_sample(circuit, shots, noise, seed).counts == \
        dense_run_and_sample(circuit, shots, noise, seed)


class StubGaps:
    """A generator whose every geometric gap is 1 and every word pick 0."""

    def geometric(self, p, size):
        return np.ones(size, dtype=np.int64)

    def integers(self, high):
        return np.zeros_like(high)


class TestKicks:
    def test_chunks_run_until_the_grid_is_passed(self):
        # gaps of 1 kick every cell: 500 cells a rate, in 19-gap chunks at 0.001
        probs = np.array([0.01, 0.001, 0.0, 0.001, 0.01])
        shot_ev, gate_ev, word_ev = engine._kicks(StubGaps(), 250, probs, np.full(5, 3))
        shot, gate = np.nonzero(np.broadcast_to(probs > 0, (250, 5)))
        assert shot_ev.tolist() == shot.tolist() and gate_ev.tolist() == gate.tolist()
        assert not word_ev.any()

    def test_a_gap_past_the_grid_kicks_nothing(self):
        # at a rate of 1e-30 every gap is numpy's largest integer: clipped, not
        # summed past int64 into a negative position
        for seed in range(20):
            _, gate_ev, _ = engine._kicks(np.random.default_rng(seed), 1000,
                                          np.array([1e-30, 0.5, 1e-30]), np.full(3, 3))
            assert 400 < gate_ev.size < 600 and set(gate_ev.tolist()) == {1}

    def test_a_run_with_no_gate_noise_draws_no_kick(self, monkeypatch):
        # Q = 16: preparation flips alone draw (shots, Q) coins, no (shots, gates) grid
        circuit = compiled("pb", 16, 0.5)
        shots, gates = 2000, len(circuit.gates)
        draws, make = [], np.random.default_rng

        class Recording:
            def __init__(self, seed):
                self.rng = make(seed)

            def __getattr__(self, name):
                def draw(*args):
                    out = getattr(self.rng, name)(*args)
                    draws.append((name, np.size(out)))
                    return out
                return draw

        monkeypatch.setattr(engine.np.random, "default_rng", Recording)
        tracemalloc.start()
        try:
            run_and_sample(circuit, shots, NoiseModel(p_prep_flip=0.005), seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < shots * gates * 8
        assert [name for name, _ in draws if name != "random"] == ["integers"]
        assert max(size for _, size in draws) == shots * 16


@pytest.mark.parametrize("circuit,noise,shots,seed", [
    (compiled("pb", 6, 0.6), NOISES["strong"], 500, 31),
    (compiled("pf", 5, 2.9, optimize=False), NOISES["pinned"], 400, 32),
    (compiled("pb", 4, 0.6), NoiseModel(p_prep_flip=0.2), 300, 33),  # dirty rows with no kick
])
def test_one_shot_blocks_measure_the_same_trajectories(monkeypatch, circuit, noise, shots,
                                                       seed):
    whole = run_and_sample(circuit, shots, noise, seed).counts
    calls, gaussian_shots = [], engine._gaussian_shots
    monkeypatch.setattr(engine, "_GAUSSIAN_BYTES", 1)
    monkeypatch.setattr(engine, "_gaussian_shots",
                        lambda *args: calls.append(len(args[1])) or gaussian_shots(*args))
    assert run_and_sample(circuit, shots, noise, seed).counts == whole
    assert len(calls) > 1 and set(calls) == {1}


def test_the_descent_reads_a_tie_as_levels_does():
    # a uniform exactly at qubit 0's P(0) reads 1, as a uniform on a cumulative
    # sum's entry reads the level above it in `_levels` (side="right")
    dec = decompose(compiled("pb", 3, 0.6))
    init, none = np.array([[True, False, False]] * 2), np.empty(0, dtype=int)
    gamma, _ = engine.trajectory_covariances(dec, init[:1], none, none, none)
    p0 = (1.0 + gamma[0, 1, 0]) / 2
    assert 0.1 < p0 < 0.9
    u = np.array([np.nextafter(p0, 0.0), p0])
    assert engine._gaussian_shots(dec, init, none, none, none, u)[:, 0].tolist() == [0, 1]
    assert _levels(np.array([p0, 1.0]), u).tolist() == [0, 1]


def test_noisy_shots_at_twelve_qubits_hold_bounded_memory():
    # the dirty shots' covariances alone, in one block, would peak near 80 MiB
    circuit = compiled("pb", 12, 0.5)
    tracemalloc.start()
    try:
        shots = run_and_sample(circuit, 5000, NOISES["pinned"], seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert shots.shots == 5000
    assert peak < 32 * 2 ** 20


def majoranas(q: int) -> list:
    """Dense Jordan-Wigner Majoranas c_2k = Z..Z X_k, c_2k+1 = Z..Z Y_k."""
    def word(letters):
        return reduce(np.kron, [_P1[c] for c in letters])
    return [word("Z" * k + xy + "I" * (q - k - 1)) for k in range(q) for xy in "XY"]


class TestDecompose:
    @pytest.mark.parametrize("kind,q,cancelled", [
        ("pb", 3, True), ("pf", 3, False), ("pb", 4, True), ("pb", 4, False), ("pf", 5, True),
    ])
    def test_frame_and_centres_rebuild_the_circuit(self, kind, q, cancelled):
        """After each gate j the prefix is C_j times its centres' rotations
        exp(theta/2 c_a c_b); C_j pulls each kick w of gate j back to the
        Majorana product of the set `kick_sets` reads for the event (j, w),
        as the engine reads it, and the last frame pulls Z_k back to
        i c_a c_b for (a, b) = readout[k]."""
        circuit = compiled(kind, q, 0.7, cancelled)
        dec = decompose(circuit)
        c = majoranas(q)
        one = np.eye(2 ** q)
        prefix, centres, done = one.astype(complex), one.astype(complex), 0
        for j, gate in enumerate(circuit.gates):
            prefix = apply_gate_batch(prefix, gate)
            for theta, (a, b) in zip(dec.angles[dec.gates == j], dec.planes[dec.gates == j]):
                centres = (np.cos(theta / 2) * one + np.sin(theta / 2) * c[a] @ c[b]) @ centres
                done += 1
            frame = prefix @ centres.conj().T
            for w, letters in enumerate(KICKS[len(gate.qubits)]):
                kick = apply_word(one.astype(complex), _word(letters, gate.qubits))
                pulled = frame.conj().T @ kick @ frame
                kick_set, = dec.kick_sets(np.array([j]), np.array([w]))
                product = reduce(np.matmul, [c[a] for a in np.flatnonzero(kick_set)], one)
                overlap = np.trace(product.conj().T @ pulled) / 2 ** q
                assert abs(abs(overlap) - 1) < 1e-9
        assert done == len(dec.gates)
        for k, (a, b) in enumerate(dec.readout):
            z = apply_word(one.astype(complex), _word("Z", (k,)))
            assert np.allclose(frame.conj().T @ z @ frame, 1j * c[a] @ c[b], atol=1e-9)
        assert np.allclose(prefix, circuit_unitary(circuit))

    @pytest.mark.parametrize("kind,q", [("pb", 3), ("pf", 5), ("pb", 6), ("pb", 9)])
    def test_template_has_one_centre_per_word(self, kind, q):
        dec = decompose(compiled(kind, q, 0.7, optimize=False))
        assert len(dec.gates) == q * (q - 1)
        assert np.all(dec.planes[:, 0] < dec.planes[:, 1])
        assert np.all(dec.angles != 0)
        assert sorted(dec.readout.ravel().tolist()) == list(range(2 * q))

    @pytest.mark.parametrize("kind,q,cancelled", [
        ("pb", 3, True), ("pf", 5, False), ("pb", 8, True), ("pb", 8, False), ("pf", 9, True),
    ])
    def test_centres_keep_their_gates_full_angles(self, kind, q, cancelled):
        # the split rule: a gate is a centre with its whole angle, signed by
        # its plane's order, unless that angle is an exact multiple of pi/2
        circuit = compiled(kind, q, 0.7, cancelled)
        dec = decompose(circuit)
        angles = np.array([circuit.gates[j].angle for j in dec.gates])
        assert np.array_equal(np.abs(dec.angles), np.abs(angles))
        for j, gate in enumerate(circuit.gates):
            turns = gate.angle / (np.pi / 2)
            assert (turns != round(turns)) == (j in dec.gates)
        # every fold unfolds, so each qubit reads its own Majorana pair
        assert np.array_equal(np.sort(dec.readout, axis=1), np.arange(2 * q).reshape(q, 2))

    def test_text_round_trip_keeps_the_decomposition(self):
        circuit = compiled("pb", 5, 0.6)
        first, second = decompose(circuit), decompose(circuit_from_text(circuit_to_text(circuit)))
        for name in ("gates", "planes", "angles", "frames", "readout"):
            assert np.array_equal(getattr(first, name), getattr(second, name))

    def test_non_gaussian_circuit_raises_under_gate_noise_only(self):
        circuit = Circuit(3, [rx(0.3, 1)])
        with pytest.raises(ValueError) as info:
            decompose(circuit)
        assert "\n" not in str(info.value)
        assert "not fermionic-Gaussian" in str(info.value)
        with pytest.raises(ValueError, match="not fermionic-Gaussian"):
            run_and_sample(circuit, 100, NoiseModel(p_depol_1q=0.01), seed=1)
        shots = run_and_sample(circuit, 2000, NoiseModel(eps01=0.01), seed=1)
        assert shots.shots == 2000 and "110" in shots.counts
