"""Seeded noisy sampling against an exact density-matrix reference.

The reference evolves the full 2^Q density matrix with numpy and scipy
alone, without parasim.engine: preparation bit flips, each native gate as
the dense exponential of its Pauli generator followed by the gate's uniform
non-identity Pauli channel, then per-qubit readout confusion.  Seeded
run_and_sample histograms must pass a chi-square test against the exact
bitstring distribution, and two seeded runs are pinned to literal counts.
"""
import dataclasses
import itertools
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.stats import chi2

from parasim.algebra import ParaSpec
from parasim.circuits import Circuit, compile_displacement, read_circuit
from parasim.dense import outcome_bits
from parasim.engine import NoiseModel, run_and_sample
from parasim.experiments import spam_correct
from parasim.factorize import solve_displacement
from parasim.mapping import generator_family

PAULIS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# strong enough that most shots carry at least one error
NOISE = NoiseModel(p_prep_flip=0.02, eps01=0.02, eps10=0.03,
                   p_depol_1q=0.01, p_depol_2q=0.03)
SEEDS = (0, 1)
SHOTS = 20000


def embed(ops: dict, num_qubits: int) -> np.ndarray:
    """Kronecker product with ops[k] on qubit k (identity elsewhere); qubit 0
    is the most significant bit."""
    out = np.ones((1, 1), dtype=complex)
    for k in range(num_qubits):
        out = np.kron(out, ops.get(k, PAULIS["I"]))
    return out


def gate_unitary(gate, num_qubits: int) -> np.ndarray:
    """RX/RY/RZ(theta) = exp(-i theta P / 2), XX(chi) = exp(-i chi X.X / 2)."""
    if gate.kind == "XX":
        generator = embed(dict.fromkeys(gate.qubits, PAULIS["X"]), num_qubits)
    else:
        generator = embed({gate.qubits[0]: PAULIS[gate.kind[1]]}, num_qubits)
    return expm(-0.5j * gate.angle * generator)


def exact_distribution(circuit: Circuit, noise: NoiseModel) -> np.ndarray:
    """Exact probability of each read bitstring, indexed by its integer value."""
    q = circuit.num_qubits
    flip = np.diag([1 - noise.p_prep_flip, noise.p_prep_flip]).astype(complex)
    x0 = embed({0: PAULIS["X"]}, q)
    rho = x0 @ embed(dict.fromkeys(range(q), flip), q) @ x0
    for gate in circuit.gates:
        u = gate_unitary(gate, q)
        rho = u @ rho @ u.conj().T
        prob = noise.p_depol_1q if len(gate.qubits) == 1 else noise.p_depol_2q
        words = list(itertools.product("IXYZ", repeat=len(gate.qubits)))[1:]
        kicks = [embed({k: PAULIS[c] for k, c in zip(gate.qubits, word)}, q)
                 for word in words]
        rho = (1 - prob) * rho + prob / len(kicks) * sum(p @ rho @ p for p in kicks)
    true = np.real(np.diag(rho))
    confusion = np.array([[1 - noise.eps01, noise.eps10],
                          [noise.eps01, 1 - noise.eps10]])
    return np.real(embed(dict.fromkeys(range(q), confusion), q)) @ true


def chi_square(counts: dict, probs: np.ndarray, shots: int) -> tuple[float, int]:
    """Pearson statistic and degrees of freedom; bins expecting fewer than
    five shots are pooled into one."""
    observed = np.zeros(probs.size)
    for bstr, count in counts.items():
        observed[int(bstr, 2)] = count
    expected = shots * probs
    small = expected < 5
    if small.any():
        observed = np.append(observed[~small], observed[small].sum())
        expected = np.append(expected[~small], expected[small].sum())
    return float(((observed - expected) ** 2 / expected).sum()), observed.size - 1


def compiled(spec: ParaSpec, alpha: float) -> Circuit:
    gv = solve_displacement(spec, alpha)
    return compile_displacement(gv, generator_family(spec.num_qubits), optimize=True)


class TestReference:
    def test_noiseless_reference_is_the_ideal_one_hot_distribution(self):
        circuit = compiled(ParaSpec("pf", 2), np.pi / 4)
        probs = exact_distribution(circuit, NoiseModel())
        onehot = [int("100", 2), int("010", 2), int("001", 2)]
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert probs[onehot].sum() == pytest.approx(1.0, abs=1e-12)

    def test_certain_prep_flips_and_readout(self):
        # |000> flipped to |111>, X on qubit 0 gives |011>, and the 0 reads as 1
        # with probability eps01, 2e-12 short of 1 so the confusion stays invertible
        noise = NoiseModel(p_prep_flip=1 - 1e-15, eps01=1 - 2e-12, eps10=1e-15)
        probs = exact_distribution(Circuit(3), noise)
        assert probs[int("111", 2)] == pytest.approx(noise.eps01, abs=1e-12)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("spec,alpha", [
    (ParaSpec("pb", 2, np=2), 0.6),   # Q = 3
    (ParaSpec("pb", 2, np=3), 0.8),   # Q = 4
], ids=["q3", "q4"])
def test_seeded_histogram_passes_chi_square(spec, alpha, seed):
    circuit = compiled(spec, alpha)
    probs = exact_distribution(circuit, NOISE)
    shots = run_and_sample(circuit, SHOTS, NOISE, seed=seed)
    stat, dof = chi_square(shots.counts, probs, SHOTS)
    assert stat <= chi2.ppf(0.999, dof), (stat, dof)


def test_spam_inversion_recovers_the_exact_pre_readout_distribution():
    circuit = compiled(ParaSpec("pb", 2, np=2), 0.6)   # Q = 3
    read = exact_distribution(circuit, NOISE)
    true = exact_distribution(circuit, dataclasses.replace(NOISE, eps01=0.0, eps10=0.0))
    corrected = spam_correct(read, NOISE)
    assert np.abs(corrected - true).max() < 1e-12
    assert np.abs(corrected @ outcome_bits(3) - true @ outcome_bits(3)).max() < 1e-12


PIN_NOISE = NoiseModel(p_prep_flip=0.005, eps01=0.01, eps10=0.02,
                       p_depol_1q=0.001, p_depol_2q=0.01)
PIN_NOISE_LOW = NoiseModel(p_prep_flip=0.001, eps01=0.005, eps10=0.005,
                           p_depol_1q=0.0001, p_depol_2q=0.001)
FIXTURES = Path(__file__).resolve().parent / "fixtures"


class TestPinnedCounts:
    """Counts of two seeded noisy runs, kept fixed across engine changes.
    The circuits are checked-in compiler output, so that a change of the
    compiler's lowering leaves these engine pins as they are."""

    def test_three_qubits(self):
        circuit = read_circuit(FIXTURES / "circuit-pb-p2-np2-alpha0.3.txt")
        counts = run_and_sample(circuit, 5000, PIN_NOISE, seed=10).counts
        assert counts == {"000": 210, "001": 133, "010": 708, "011": 68,
                          "100": 3517, "101": 149, "110": 190, "111": 25}

    def test_seven_qubits(self):
        circuit = read_circuit(FIXTURES / "circuit-pf-p6-alpha0.5.txt")
        counts = run_and_sample(circuit, 200, PIN_NOISE_LOW, seed=7).counts
        assert counts == {
            "0000000": 4, "0000101": 1, "0000110": 1, "0001000": 6,
            "0001010": 1, "0001100": 1, "0010000": 18, "0010001": 1,
            "0100000": 115, "0100010": 2, "0100100": 3, "0100110": 2,
            "0101000": 2, "0101010": 1, "0110000": 4, "0110010": 2,
            "0110100": 1, "0111000": 1, "1000000": 19, "1000010": 1,
            "1000100": 2, "1001000": 2, "1010000": 5, "1010001": 1,
            "1100000": 1, "1100001": 1, "1101000": 2,
        }
