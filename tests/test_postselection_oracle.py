"""Each trajectory's exact one-hot probabilities: the reference for the
post-selected series.

For every trajectory s that a seeded run draws (its preparation flips and
Pauli kicks), `onehot_probabilities` forces each one-hot read e_m qubit by
qubit on the trajectory's Majorana covariance and returns P(e_m | s).  The
covariances come from `engine.trajectory_covariances` and each forced read
from `engine.condition`, the functions the sampler runs; nothing here
re-derives the kick push, the rotation or the conditioning update.

Two checks:
- (a) against the density matrix of `test_noise_oracle.py`, at Q = 3..5
  with gate and preparation noise and no readout error: the mean of
  P(e_m | s) over a run's trajectories lies within 5 sigma of the exact
  one-hot bins.  This covers the rotation, the kick push and the update.
- (b) at Q = 12 and 16, past the density matrix: a run's sampled one-hot
  counts lie within 5 sigma of the sum of P(e_m | s) over that run's own
  trajectories, with the Poisson-binomial variance sum p (1 - p).
The empty circuit and certain preparation flips, whose forced reads
include zero-probability branches, are cases of (a), without the readout
error their dense-replay cases have.
"""
import numpy as np
import pytest
from test_noise_oracle import exact_distribution

import parasim.engine as engine
from parasim.algebra import ParaSpec
from parasim.circuits import Circuit, compile_displacement, decompose
from parasim.engine import NoiseModel, condition, run_and_sample, trajectory_covariances
from parasim.factorize import solve_displacement
from parasim.mapping import generator_family

# gate and preparation noise, no readout error
NOISE = NoiseModel(p_prep_flip=0.02, p_depol_1q=0.01, p_depol_2q=0.03)
# weak enough that a fifth of the Q = 16 shots read one-hot, so the counts bite
WIDE_NOISE = NoiseModel(p_prep_flip=0.002, p_depol_1q=0.0002, p_depol_2q=0.0005)
SIGMAS = 5


def compiled(kind: str, q: int, alpha: float, optimize: bool = True) -> Circuit:
    spec = ParaSpec("pb", 2, np=q - 1) if kind == "pb" else ParaSpec("pf", q - 1)
    return compile_displacement(solve_displacement(spec, alpha), generator_family(q),
                                optimize=optimize)


def force(gamma: np.ndarray, flips: np.ndarray, k: int, read: int,
          weight: np.ndarray) -> np.ndarray:
    """weight (n,) times the probability that qubit k reads `read`, with
    gamma conditioned on that read in place; 0 wherever weight is 0, so a
    zero-probability branch stays 0 and never turns NaN."""
    lam = np.where(read ^ flips[:, k], -1.0, 1.0)  # the i c_2k c_2k+1 that reads `read`
    with np.errstate(divide="ignore", invalid="ignore"):
        p = (1.0 + lam * gamma[2 * k, 2 * k + 1]) / 2
        condition(gamma, k, lam)
        return np.where(weight > 0, weight * p, 0.0)


def onehot_probabilities(gamma: np.ndarray, flips: np.ndarray) -> np.ndarray:
    """P(e_m | s) (n, Q) of the trajectories whose covariances and read
    flips `trajectory_covariances` returns; gamma is used up.  The reads
    0..m-1 all 0 are shared by every e_m after them."""
    n, q = flips.shape
    probs = np.empty((n, q))
    zeros = np.ones(n)  # P(qubits 0..m-1 all read 0)
    for m in range(q):
        branch = gamma.copy()
        weight = force(branch, flips, m, 1, zeros)
        for k in range(m + 1, q):
            weight = force(branch, flips, k, 0, weight)
        probs[:, m] = weight
        zeros = force(gamma, flips, m, 0, zeros)
    return probs


def run_with_trajectories(monkeypatch, circuit: Circuit, shots: int, noise: NoiseModel,
                          seed: int):
    """The seeded run's counts and P(e_m | s) (shots, Q) of its trajectories:
    the dirty ones as `_gaussian_shots` received them, then the clean ones,
    which share the kick-free trajectory from |10..0>."""
    blocks, gaussian_shots = [], engine._gaussian_shots
    monkeypatch.setattr(engine, "_gaussian_shots",
                        lambda *args: blocks.append(args) or gaussian_shots(*args))
    counts = run_and_sample(circuit, shots, noise, seed).counts
    dec = decompose(circuit)
    start = np.zeros((1, circuit.num_qubits), dtype=bool)
    start[0, 0] = True
    none = np.zeros(0, dtype=int)
    clean = onehot_probabilities(*trajectory_covariances(dec, start, none, none, none))
    dirty = [onehot_probabilities(*trajectory_covariances(*args[:5])) for args in blocks]
    n_clean = shots - sum(len(args[1]) for args in blocks)
    return counts, np.concatenate(dirty + [np.repeat(clean, n_clean, axis=0)])


def onehot_counts(counts: dict, q: int) -> np.ndarray:
    """The counts of the one-hot reads e_0..e_{Q-1}."""
    return np.array([counts.get(format(1 << (q - 1 - m), f"0{q}b"), 0) for m in range(q)])


# para-Fermi orders are even, so their registers are odd
CASES = [(kind, q, cancelled) for q in (3, 4, 5) for kind in ("pb", "pf")
         for cancelled in (True, False) if kind == "pb" or q % 2]


@pytest.mark.parametrize("circuit,noise,shots,seed", [
    *[(compiled(kind, q, 0.6, cancelled), NOISE, 3000, 40 + i)
      for i, (kind, q, cancelled) in enumerate(CASES)],
    (Circuit(3), NoiseModel(p_prep_flip=0.3), 2000, 3),            # the empty circuit
    (Circuit(3), NoiseModel(p_prep_flip=0.999999999), 50, 0),      # certain flips
], ids=[f"{kind}-q{q}-{'cancelled' if cancelled else 'template'}"
        for kind, q, cancelled in CASES] + ["empty", "certain-flips"])
def test_mean_trajectory_probabilities_match_the_density_matrix(monkeypatch, circuit, noise,
                                                                shots, seed):
    q = circuit.num_qubits
    _, probs = run_with_trajectories(monkeypatch, circuit, shots, noise, seed)
    assert probs.shape == (shots, q)
    assert np.all(np.isfinite(probs)) and probs.min() >= -1e-12
    exact = exact_distribution(circuit, noise)[1 << np.arange(q - 1, -1, -1)]
    # a bin that no trajectory reaches has a sample variance of 0; its
    # resolution is then one trajectory in `shots`
    sigma = np.maximum(probs.std(axis=0, ddof=1) / np.sqrt(shots), 1.0 / shots)
    assert np.all(np.abs(probs.mean(axis=0) - exact) <= SIGMAS * sigma), \
        (probs.mean(axis=0), exact, sigma)


def test_zero_probability_branches_give_zero():
    # |000> flipped to |111>, then X on qubit 0 gives |011>: no one-hot read
    # can occur, and the empty circuit's covariances are exact +-1, so each
    # forced read of the wrong value divides by zero
    init = np.array([[False, True, True], [True, False, False]])
    none = np.zeros(0, dtype=int)
    gamma, flips = trajectory_covariances(decompose(Circuit(3)), init, none, none, none)
    probs = onehot_probabilities(gamma, flips)
    assert probs.tolist() == [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]


@pytest.mark.parametrize("q,shots,seed", [(12, 3000, 12), (16, 2000, 16)])
def test_sampled_onehot_counts_match_the_run_trajectories(monkeypatch, q, shots, seed):
    """This covers the sampled descent (the inverse CDF and its rescaled
    uniform) and the clean shots' frame path at any width.  It does not
    cover the rotation or the kick push, which it shares with the sampler:
    (a) and the dense replay of `test_trajectories.py` cover those."""
    circuit = compiled("pb", q, 0.5)
    counts, probs = run_with_trajectories(monkeypatch, circuit, shots, WIDE_NOISE, seed)
    assert np.all(np.isfinite(probs))
    expected = probs.sum(axis=0)
    sigma = np.sqrt((probs * (1.0 - probs)).sum(axis=0))
    observed = onehot_counts(counts, q)
    assert observed.sum() > shots / 10  # enough one-hot reads to bite
    assert np.all(np.abs(observed - expected) <= SIGMAS * np.maximum(sigma, 1.0)), \
        (observed, expected, sigma)
