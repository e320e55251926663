"""Dense state-vector execution with trajectory noise, seeded shot sampling,
confusion-matrix SPAM correction and one-hot post-selection.

Noise is stochastic (quantum-jump style): preparation bit flips, a uniform
non-identity Pauli after each gate with the depolarizing probability, and
classical readout bit flips.  Shots whose preparation and gate coins all
come up clean are drawn from the ideal state; the other trajectories are
replayed together as the columns of (2^Q, chunk) amplitude blocks, one
closed-form Pauli rotation per gate, with each Pauli kick applied to the
columns that drew it through the same strided view of its word.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

from .circuits import Circuit, apply_gate_batch
from .mapping import apply_pauli


class EmptyShotSetError(ValueError):
    """Raised when an observable is requested from zero retained shots."""


@dataclass(frozen=True)
class StateVector:
    num_qubits: int
    amps: np.ndarray

    def __post_init__(self):
        if self.amps.shape != (2 ** self.num_qubits,):
            raise ValueError("amplitude length does not match the qubit count")


@dataclass(frozen=True)
class NoiseModel:
    """Preparation flips, readout confusion and per-gate depolarizing rates."""

    p_prep_flip: float = 0.0
    eps01: float = 0.0  # P(read 1 | true 0)
    eps10: float = 0.0  # P(read 0 | true 1)
    p_depol_1q: float = 0.0
    p_depol_2q: float = 0.0

    def __post_init__(self):
        for name in ("p_prep_flip", "eps01", "eps10", "p_depol_1q", "p_depol_2q"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ValueError(f"{name}={v} outside [0, 1)")
        if self.eps01 + self.eps10 >= 1.0:
            raise ValueError("confusion matrix is singular (eps01 + eps10 >= 1)")

    @property
    def has_prep_noise(self) -> bool:
        return self.p_prep_flip > 0.0

    @property
    def has_gate_noise(self) -> bool:
        return self.p_depol_1q > 0.0 or self.p_depol_2q > 0.0

    @property
    def has_readout_noise(self) -> bool:
        return self.eps01 > 0.0 or self.eps10 > 0.0


@dataclass(frozen=True)
class ShotSet:
    """Seeded measurement outcomes as bitstring counts."""

    counts: dict
    shots: int
    seed: int
    retained_fraction: float = 1.0

    def __post_init__(self):
        if sum(self.counts.values()) != self.shots:
            raise ValueError("counts must sum to the shot total")
        if not 0.0 <= self.retained_fraction <= 1.0:
            raise ValueError("retained_fraction outside [0, 1]")


@dataclass(frozen=True)
class Marginals:
    """Per-qubit P(read 1) plus a (possibly quasi-) histogram.

    After confusion-matrix inversion the values may leave [0, 1]; they are
    flagged, never clamped, since the number observables stay well-defined
    linear functionals.
    """

    p1: np.ndarray
    histogram: dict
    shots: int
    stderr_p1: np.ndarray
    out_of_range: bool
    retained_fraction: float = 1.0

    @property
    def num_qubits(self) -> int:
        return len(self.p1)


def is_onehot(bitstring: str) -> bool:
    return bitstring.count("1") == 1


def prepare_initial(num_qubits: int) -> StateVector:
    """X on qubit 0 of |0..0>: the vacuum one-hot state |10..0>."""
    if num_qubits < 1:
        raise ValueError("need at least one qubit")
    amps = np.zeros(2 ** num_qubits, dtype=complex)
    amps[2 ** (num_qubits - 1)] = 1.0
    return StateVector(num_qubits, amps)


def apply_circuit(state: StateVector, circuit: Circuit) -> StateVector:
    """Run the noiseless circuit gate by gate."""
    if state.num_qubits != circuit.num_qubits:
        raise ValueError("state and circuit widths differ")
    q = state.num_qubits
    amps = state.amps.copy()
    for gate in circuit.gates:
        amps = apply_gate_batch(amps, gate, q)
    return StateVector(q, amps)


def _counts(bits: np.ndarray) -> dict:
    """Bitstring counts of (shots, Q) read bits, keyed in first-seen order
    so that sums over the counts add in shot order.  Nothing is sorted:
    np.unique would page in about 0.4 MiB of numpy's sort code."""
    q = bits.shape[1]
    outcomes = bits @ (1 << np.arange(q - 1, -1, -1))
    shot = np.arange(outcomes.size)
    first = np.full(1 << q, outcomes.size)
    np.minimum.at(first, outcomes, shot)
    tally = np.bincount(outcomes).tolist()
    return {format(v, f"0{q}b"): tally[v] for v in outcomes[first[outcomes] == shot].tolist()}


def sample_shots(state: StateVector, shots: int, noise: NoiseModel | None = None,
                 seed: int = 0) -> ShotSet:
    """Sample bitstrings from |amps|^2, flipping each read bit with the
    confusion rates when a noise model is given.  Fixed-state sampling; use
    run_and_sample for per-shot trajectories under gate noise."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    q = state.num_qubits
    rng = np.random.default_rng(seed)
    probs = np.abs(state.amps) ** 2
    probs = probs / probs.sum()
    levels = rng.choice(2 ** q, size=shots, p=probs)
    bits = (levels[:, None] >> np.arange(q - 1, -1, -1)) & 1
    if noise is not None and noise.has_readout_noise:
        bits = _readout_flip(bits, noise, rng.random(bits.shape))
    return ShotSet(counts=_counts(bits), shots=shots, seed=seed)


def _readout_flip(bits: np.ndarray, noise: NoiseModel, u: np.ndarray) -> np.ndarray:
    """Flip each read bit whose uniform draw falls under its confusion rate."""
    return bits ^ np.where(bits == 0, u < noise.eps01, u < noise.eps10)


# Amplitude bytes of one trajectory block: the dirty shots are replayed
# together in chunks of as many (2^Q,) complex columns as fit.
_BLOCK_BYTES = 1 << 24


def _levels(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Measured level of each column of a (2^Q, n) cumulative distribution
    (or of one broadcast (2^Q, 1) column): the count of entries <= u cdf[-1]."""
    return np.minimum((cdf <= u * cdf[-1]).sum(axis=0), cdf.shape[0] - 1)


# The 4^k - 1 non-identity Pauli words on a gate's k qubits, in the order a
# uniform draw picks them (base-4 digits 'IXYZ', the gate's first qubit most
# significant).
_KICKS = {k: ["".join(w) for w in product("IXYZ", repeat=k)][1:] for k in (1, 2)}


def _replay(circuit: Circuit, shots: np.ndarray, init: np.ndarray,
            coins: np.ndarray, pauli_u: np.ndarray) -> np.ndarray:
    """Final amplitudes of a block of trajectories, column c replaying shot
    s = shots[c].

    The column starts on basis state init[s]; after gate j, where
    coins[s, j] is set, it takes the Pauli word that pauli_u[s, j] picks
    uniformly.
    """
    q = circuit.num_qubits
    amps = np.zeros((2 ** q, shots.size), dtype=complex)
    amps[init[shots], np.arange(shots.size)] = 1.0
    hit_gate, hit_col = np.nonzero(coins[shots].T)  # sorted by gate
    bounds = np.searchsorted(hit_gate, np.arange(len(circuit.gates) + 1))
    for j, gate in enumerate(circuit.gates):
        amps = apply_gate_batch(amps, gate, q)
        cols = hit_col[bounds[j]:bounds[j + 1]]
        if cols.size == 0:
            continue
        words = _KICKS[len(gate.qubits)]
        u = pauli_u[shots[cols], j]
        choice = np.minimum((u * len(words)).astype(int), len(words) - 1)
        for pick in set(choice.tolist()):
            hit = cols[choice == pick]
            amps[:, hit] = apply_pauli(amps[:, hit], words[pick], gate.qubits)
    return amps


def run_and_sample(circuit: Circuit, shots: int, noise: NoiseModel | None = None,
                   seed: int = 0) -> ShotSet:
    """Prepare |10..0>, run the circuit and measure `shots` times.

    With preparation or gate noise every shot is its own trajectory.  All
    stochastic decisions are drawn up front from one seeded generator, so
    results are reproducible.  Shots whose error coins all come up clean
    sample the ideal state; the others are replayed together, gate by gate,
    as the columns of (2^Q, chunk) amplitude blocks.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    q = circuit.num_qubits
    ideal = apply_circuit(prepare_initial(q), circuit)
    if noise is None or not (noise.has_prep_noise or noise.has_gate_noise):
        return sample_shots(ideal, shots, noise, seed)

    rng = np.random.default_rng(seed)
    gate_probs = np.array([noise.p_depol_1q if len(g.qubits) == 1 else noise.p_depol_2q
                           for g in circuit.gates])
    prep_coins = rng.random((shots, q)) < noise.p_prep_flip
    gate_coins = rng.random((shots, len(circuit.gates))) < gate_probs
    pauli_u = rng.random((shots, len(circuit.gates)))
    meas_u = rng.random((shots, q))
    shot_u = rng.random(shots)

    bit_shift = np.arange(q - 1, -1, -1)
    init = (prep_coins @ (1 << bit_shift)) ^ (1 << (q - 1))
    # every shot is measured on the ideal state first; the dirty ones are
    # then replayed and measured again on their own trajectories
    levels = _levels(np.cumsum(np.abs(ideal.amps) ** 2)[:, None], shot_u)
    dirty = np.flatnonzero(prep_coins.any(axis=1) | gate_coins.any(axis=1))
    chunk = max(1, _BLOCK_BYTES // (16 << q))
    for start in range(0, dirty.size, chunk):
        block = dirty[start:start + chunk]
        amps = _replay(circuit, block, init, gate_coins, pauli_u)
        levels[block] = _levels(np.cumsum(np.abs(amps) ** 2, axis=0), shot_u[block])
    bits = (levels[:, None] >> bit_shift) & 1
    if noise.has_readout_noise:
        bits = _readout_flip(bits, noise, meas_u)
    return ShotSet(counts=_counts(bits), shots=shots, seed=seed)


def _confusion(noise: NoiseModel) -> np.ndarray:
    return np.array([[1 - noise.eps01, noise.eps10],
                     [noise.eps01, 1 - noise.eps10]])


def spam_correct(shotset: ShotSet, noise: NoiseModel) -> Marginals:
    """Invert the tensor product of per-qubit confusion matrices on the
    empirical distribution.  Out-of-range values are flagged, not clamped."""
    if not shotset.counts:
        raise EmptyShotSetError("cannot correct an empty shot set")
    q = len(next(iter(shotset.counts)))
    conf = _confusion(noise)
    if abs(np.linalg.det(conf)) < 1e-12:
        raise ValueError("confusion matrix is singular")
    inv = np.linalg.inv(conf)
    probs = np.zeros(2 ** q)
    for bstr, count in shotset.counts.items():
        probs[int(bstr, 2)] = count / shotset.shots
    tensor = probs.reshape([2] * q)
    for axis in range(q):
        tensor = np.tensordot(inv, np.moveaxis(tensor, axis, 0), axes=([1], [0]))
        tensor = np.moveaxis(tensor, 0, axis)
    corrected = tensor.reshape(-1)
    hist = {format(i, f"0{q}b"): float(w) for i, w in enumerate(corrected)
            if abs(w) > 1e-15}
    masks = (np.arange(2 ** q)[:, None] >> np.arange(q - 1, -1, -1)) & 1
    p1 = corrected @ masks
    # raw marginal error, scaled by the per-qubit inversion factor
    raw_p1 = probs @ masks
    denom = 1.0 - noise.eps01 - noise.eps10
    stderr = np.sqrt(np.clip(raw_p1 * (1 - raw_p1), 0.0, None) / shotset.shots) / abs(denom)
    flagged = bool(np.any(p1 < -1e-12) or np.any(p1 > 1 + 1e-12))
    return Marginals(p1=p1, histogram=hist, shots=shotset.shots,
                     stderr_p1=stderr, out_of_range=flagged,
                     retained_fraction=shotset.retained_fraction)


def postselect(shotset: ShotSet) -> ShotSet:
    """Keep only one-hot bitstrings; retained counts stay raw and the kept
    fraction is recorded.  Zero retained shots yield an explicitly empty set."""
    kept = {b: c for b, c in shotset.counts.items() if is_onehot(b)}
    total = sum(kept.values())
    fraction = total / shotset.shots if shotset.shots else 0.0
    return ShotSet(counts=kept, shots=total, seed=shotset.seed,
                   retained_fraction=fraction)


# --- plain-text shot set format ----------------------------------------------

def shotset_to_text(shotset: ShotSet, noise: NoiseModel | None = None) -> str:
    lines = [
        "# parasim shot set",
        f"# seed {shotset.seed}",
        f"# shots {shotset.shots}",
        f"# retained_fraction {shotset.retained_fraction:.17g}",
    ]
    if noise is not None:
        lines.append(
            "# noise p_prep_flip=%.17g eps01=%.17g eps10=%.17g p_depol_1q=%.17g p_depol_2q=%.17g"
            % (noise.p_prep_flip, noise.eps01, noise.eps10,
               noise.p_depol_1q, noise.p_depol_2q))
    for bstr in sorted(shotset.counts):
        lines.append(f"{bstr} {shotset.counts[bstr]}")
    return "\n".join(lines) + "\n"


def write_shotset(path, shotset: ShotSet, noise: NoiseModel | None = None) -> None:
    Path(path).write_text(shotset_to_text(shotset, noise))


_SHOT_LINE = re.compile(r"([01]+)\s+([0-9]+)")


def read_shotset(path) -> ShotSet:
    seed, retained = 0, 1.0
    counts: dict = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split()
            if len(parts) == 2 and parts[0] == "seed":
                seed = int(parts[1])
            elif len(parts) == 2 and parts[0] == "retained_fraction":
                retained = float(parts[1])
            continue
        match = _SHOT_LINE.fullmatch(line)
        if match is None or len(match[1]) != len(next(iter(counts), match[1])):
            raise ValueError(f"bad shot line {line!r}: want '<bits> <count>' with "
                             "bits of 0/1, as many as on the first line")
        counts[match[1]] = int(match[2])
    return ShotSet(counts=counts, shots=sum(counts.values()), seed=seed,
                   retained_fraction=retained)
