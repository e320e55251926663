"""Dense state-vector execution with trajectory noise, seeded shot sampling,
confusion-matrix SPAM correction and one-hot post-selection.

Shot sets keep bitstring counts, as in their text format; analysis reads
them as a (2^Q,) outcome array (`histogram`), and readout correction acts
on the last axis of any (..., 2^Q) array of outcome weights.

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
from functools import lru_cache
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
    """Per-qubit P(read 1) plus the (possibly quasi-) outcome distribution.

    After confusion-matrix inversion the values may leave [0, 1]; they are
    flagged, never clamped, since the number observables stay well-defined
    linear functionals.
    """

    p1: np.ndarray
    histogram: np.ndarray  # (2^Q,) weights indexed by outcome
    shots: int
    out_of_range: bool
    retained_fraction: float = 1.0


@lru_cache(maxsize=None)
def outcome_bits(num_qubits: int) -> np.ndarray:
    """(2^Q, Q) read-only bits of every outcome, qubit 0 the most significant."""
    bits = (np.arange(1 << num_qubits)[:, None] >> np.arange(num_qubits - 1, -1, -1)) & 1
    bits.flags.writeable = False
    return bits


def histogram(shotset: ShotSet) -> np.ndarray:
    """The counts as a (2^Q,) integer array indexed by outcome."""
    if shotset.shots == 0:
        raise EmptyShotSetError("no shots to analyze")
    out = np.zeros(1 << len(next(iter(shotset.counts))), dtype=np.int64)
    out[[int(b, 2) for b in shotset.counts]] = list(shotset.counts.values())
    return out


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
    """Bitstring counts of (shots, Q) read bits, keyed in outcome order."""
    q = bits.shape[1]
    tally = np.bincount(bits @ (1 << np.arange(q - 1, -1, -1)), minlength=1 << q)
    seen = np.flatnonzero(tally)
    return {format(v, f"0{q}b"): n for v, n in zip(seen.tolist(), tally[seen].tolist())}


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
    bits = outcome_bits(q)[rng.choice(2 ** q, size=shots, p=probs)]
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

    init = (prep_coins @ (1 << np.arange(q - 1, -1, -1))) ^ (1 << (q - 1))
    # every shot is measured on the ideal state first; the dirty ones are
    # then replayed and measured again on their own trajectories
    levels = _levels(np.cumsum(np.abs(ideal.amps) ** 2)[:, None], shot_u)
    dirty = np.flatnonzero(prep_coins.any(axis=1) | gate_coins.any(axis=1))
    chunk = max(1, _BLOCK_BYTES // (16 << q))
    for start in range(0, dirty.size, chunk):
        block = dirty[start:start + chunk]
        amps = _replay(circuit, block, init, gate_coins, pauli_u)
        levels[block] = _levels(np.cumsum(np.abs(amps) ** 2, axis=0), shot_u[block])
    bits = outcome_bits(q)[levels]
    if noise.has_readout_noise:
        bits = _readout_flip(bits, noise, meas_u)
    return ShotSet(counts=_counts(bits), shots=shots, seed=seed)


def spam_correct(data, noise: NoiseModel):
    """Invert the per-qubit readout confusion of `noise`.

    An array of outcome weights (..., 2^Q) (counts, a distribution or a
    matrix of bootstrap draws) is corrected along its last axis, one 2x2
    inverse per qubit on a strided view, and returned as a new array of the
    same shape; entries may turn negative.  A ShotSet gives its Marginals,
    whose out-of-range values are flagged, not clamped.
    """
    if isinstance(data, ShotSet):
        corrected = spam_correct(histogram(data) / data.shots, noise)
        p1 = corrected @ outcome_bits(corrected.size.bit_length() - 1)
        return Marginals(p1=p1, histogram=corrected, shots=data.shots,
                         out_of_range=bool(np.any(p1 < -1e-12) or np.any(p1 > 1 + 1e-12)),
                         retained_fraction=data.retained_fraction)
    if abs(1.0 - noise.eps01 - noise.eps10) < 1e-12:
        raise ValueError("confusion matrix is singular")
    inv = np.linalg.inv([[1 - noise.eps01, noise.eps10], [noise.eps01, 1 - noise.eps10]])
    out = np.asarray(data, dtype=float)
    lead = out.shape[:-1]
    for k in range(out.shape[-1].bit_length() - 1):
        out = inv @ out.reshape(*lead, 1 << k, 2, -1)  # qubit k on the second last axis
    return out.reshape(*lead, -1)


def postselect(shotset: ShotSet) -> ShotSet:
    """Keep only one-hot bitstrings; retained counts stay raw and the kept
    fraction is recorded.  Zero retained shots yield an explicitly empty set."""
    kept = {b: c for b, c in shotset.counts.items() if b.count("1") == 1}
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
