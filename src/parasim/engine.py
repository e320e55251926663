"""Seeded shot sampling with trajectory noise, and the plain-text
shot-set format.

Shot sets keep bitstring counts, as in their text format; how counts
become numbers (readout inversion, post-selection, statistics) is decided
in `experiments`.

`run_and_sample` is the one sampler.  Noise is stochastic (quantum-jump
style): preparation bit flips, a uniform non-identity Pauli after each gate
with the depolarizing probability, and classical readout bit flips.  Shots
whose preparation and gate coins all come up clean share one state, whose
amplitudes `apply_circuit` returns; `_ideal_bits` reads them, one binary
search per shot.  Every compiled circuit is fermionic linear optics:
`circuits.decompose` reads it as Givens rotations of the Jordan-Wigner
Majoranas on a Clifford frame.  A Pauli kick passes through the frame as a
Pauli, so each dirty trajectory is the same rotations with some angles
negated and some read bits flipped, and is measured from its own 2Q x 2Q
Majorana covariance, with no 2^Q array.  Every shot is measured by the
inverse CDF of one uniform draw, qubit 0 the most significant bit.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, fields
from functools import lru_cache
from pathlib import Path

import numpy as np

from .circuits import Circuit, Decomposition, apply_gate_batch, decompose


@dataclass(frozen=True)
class NoiseModel:
    """Preparation flips, readout confusion and per-gate depolarizing rates."""

    p_prep_flip: float = 0.0
    eps01: float = 0.0  # P(read 1 | true 0)
    eps10: float = 0.0  # P(read 0 | true 1)
    p_depol_1q: float = 0.0
    p_depol_2q: float = 0.0

    def __post_init__(self):
        for field in fields(self):
            v = getattr(self, field.name)
            if not 0.0 <= v < 1.0:
                raise ValueError(f"{field.name}={v} outside [0, 1)")
        if 1.0 - self.eps01 - self.eps10 < 1e-12:
            raise ValueError("confusion matrix is singular: 1 - eps01 - eps10 = "
                             f"{1.0 - self.eps01 - self.eps10:.3g} is below 1e-12")

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

    def __post_init__(self):
        if sum(self.counts.values()) != self.shots:
            raise ValueError("counts must sum to the shot total")


@lru_cache(maxsize=None)
def outcome_bits(num_qubits: int) -> np.ndarray:
    """(2^Q, Q) read-only bits of every outcome, qubit 0 the most significant."""
    bits = (np.arange(1 << num_qubits)[:, None] >> np.arange(num_qubits - 1, -1, -1)) & 1
    bits.flags.writeable = False
    return bits


def apply_circuit(circuit: Circuit) -> np.ndarray:
    """Amplitudes (2^Q,) of the noiseless circuit run gate by gate on the
    vacuum one-hot state |10..0>, X on qubit 0 of |0..0>."""
    amps = np.zeros(2 ** circuit.num_qubits, dtype=complex)
    amps[2 ** (circuit.num_qubits - 1)] = 1.0
    for gate in circuit.gates:
        amps = apply_gate_batch(amps, gate)
    return amps


def _counts(bits: np.ndarray) -> dict:
    """Bitstring counts of (shots, Q) read bits, keyed in outcome order."""
    q = bits.shape[1]
    tally = np.bincount(bits @ (1 << np.arange(q - 1, -1, -1)), minlength=1 << q)
    seen = np.flatnonzero(tally)
    return {format(v, f"0{q}b"): n for v, n in zip(seen.tolist(), tally[seen].tolist())}


def _levels(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Measured level of each uniform draw u against a (2^Q,) cumulative
    distribution: the count of entries <= u cdf[-1], as
    Generator.choice(2^Q, p=...) picks for the same draw."""
    return np.minimum(np.searchsorted(cdf, u * cdf[-1], side="right"), cdf.size - 1)


def _read_out(bits: np.ndarray, noise: NoiseModel | None, meas_u: np.ndarray,
              seed: int) -> ShotSet:
    """Shot set of the measured bits (shots, Q), each flipped where its
    draw in meas_u falls under its confusion rate."""
    if noise is not None and noise.has_readout_noise:
        bits = bits ^ np.where(bits == 0, meas_u < noise.eps01, meas_u < noise.eps10)
    return ShotSet(counts=_counts(bits), shots=len(bits), seed=seed)


def _ideal_bits(circuit: Circuit, u: np.ndarray) -> np.ndarray:
    """Read bits (shots, Q) of the noiseless circuit, one shot for each
    uniform draw in u, by the level rule against its cumulative |amps|^2."""
    cdf = np.cumsum(np.abs(apply_circuit(circuit)) ** 2)
    return outcome_bits(circuit.num_qubits)[_levels(cdf, u)]


def _gaussian_shots(dec: Decomposition, init: np.ndarray, shot_ev: np.ndarray,
                    gate_ev: np.ndarray, word_ev: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Read bits (n, Q) of n trajectories on a fermionic-Gaussian circuit.

    Trajectory s starts on basis state init[s] (n, Q) and takes kick word
    word_ev[e] after gate gate_ev[e] for each event e with shot_ev[e] = s
    (sorted).  Pushed to the end of the circuit, a kick negates every later
    centre whose plane its Majorana set meets in one index and flips the
    read of every qubit whose pulled-back Z it meets in one index.  The
    Majorana covariance Gamma_ab = i<c_a c_b> of each trajectory then goes
    through one Givens rotation per centre and is measured qubit by qubit,
    qubit 0 first, by the inverse CDF of the shot's uniform u.
    """
    n, q = init.shape
    # relabel the Majoranas so that qubit k reads i c_2k c_2k+1
    order = dec.readout.ravel()
    label = np.argsort(order)
    sets = dec.kicks[gate_ev, word_ev][:, order]         # (events, 2Q)
    a, b = label[dec.planes.T]
    hits = (sets[:, a] ^ sets[:, b]) & (dec.gates > gate_ev[:, None])
    shot, first = np.unique(shot_ev, return_index=True)
    negated = np.zeros((n, a.size), dtype=bool)
    negated[shot] = np.bitwise_xor.reduceat(hits, first)
    total = np.zeros((n, 2 * q), dtype=bool)
    total[shot] = np.bitwise_xor.reduceat(sets, first)
    flips = total[:, 0::2] ^ total[:, 1::2]              # (n, Q)
    # the initial basis state, Gamma = +-1 on each qubit's Majorana pair
    gamma = np.zeros((2 * q, 2 * q, n))
    gamma[label[0::2], label[1::2]] = np.where(init.T, 1.0, -1.0)
    gamma[label[1::2], label[0::2]] = np.where(init.T, -1.0, 1.0)
    sines = np.where(negated, -1.0, 1.0).T * np.sin(dec.angles)[:, None]
    for i, j, c, s in zip(a, b, np.cos(dec.angles), sines):
        for rows in (gamma, gamma.transpose(1, 0, 2)):  # rows, then columns
            gi, gj = rows[i], rows[j]
            gi_s = s * gi
            gi *= c
            gi += s * gj
            gj *= c
            gj -= gi_s
    bits = np.empty((n, q), dtype=int)
    for k in range(q):
        i, rest = 2 * k, slice(2 * k + 2, None)
        p0 = (1.0 + gamma[i, i + 1]) / 2                 # P(Z_k = +1)
        p0 = np.where(flips[:, k], 1.0 - p0, p0)
        bit = u >= p0
        u = np.where(bit, u - p0, u) / np.where(bit, 1.0 - p0, p0)
        lam = np.where(bit ^ flips[:, k], -1.0, 1.0)     # the measured i c_2k c_2k+1
        ga, gb = gamma[i, rest], gamma[i + 1, rest]
        gamma[rest, rest] += lam / (1.0 + lam * gamma[i, i + 1]) * (
            gb[:, None] * ga[None] - ga[:, None] * gb[None])
        bits[:, k] = bit
    return bits


_DRAW_BYTES = 4 << 20  # most bytes of (shots, gates) uniforms held at once


def _row_blocks(rng: np.random.Generator, rows: int, cols: int):
    """(first row, block) of a (rows, cols) draw of uniforms, made in blocks
    of rows within _DRAW_BYTES.  Generator.random fills in row order, so
    the blocks hold the numbers of one draw."""
    step = max(1, _DRAW_BYTES // (8 * max(cols, 1)))
    for start in range(0, rows, step):
        yield start, rng.random((min(step, rows - start), cols))


def _kicks(rng: np.random.Generator, shots: int, gate_probs: np.ndarray):
    """Shot and gate of every kick, sorted, with the uniform that picks its
    word: a (shots, gates) draw of coins against gate_probs, then one of
    word uniforms, of which only the entries at kicks are kept."""
    events = [(start, *np.nonzero(block < gate_probs))
              for start, block in _row_blocks(rng, shots, gate_probs.size)]
    shot_ev = np.concatenate([start + s for start, s, _ in events])
    gate_ev = np.concatenate([g for _, _, g in events])
    word_u = np.empty(shot_ev.size)
    for start, block in _row_blocks(rng, shots, gate_probs.size):
        lo, hi = np.searchsorted(shot_ev, (start, start + len(block)))
        word_u[lo:hi] = block[shot_ev[lo:hi] - start, gate_ev[lo:hi]]
    return shot_ev, gate_ev, word_u


def run_and_sample(circuit: Circuit, shots: int, noise: NoiseModel | None = None,
                   seed: int = 0) -> ShotSet:
    """Prepare |10..0>, run the circuit and measure `shots` times.

    With preparation or gate noise every shot is its own trajectory.  All
    stochastic decisions are drawn up front from one seeded generator, so
    results are reproducible.  Shots whose error coins all come up clean
    are measured on the ideal state (`_ideal_bits`); the others on their own
    Majorana covariances (`_gaussian_shots`) by the same inverse CDF.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    q = circuit.num_qubits
    rng = np.random.default_rng(seed)
    if noise is None or not (noise.has_prep_noise or noise.has_gate_noise):
        bits = _ideal_bits(circuit, rng.random(shots))
        return _read_out(bits, noise, rng.random((shots, q)), seed)

    dec = decompose(circuit)
    width = np.array([len(g.qubits) for g in circuit.gates], dtype=int)
    gate_probs = np.where(width == 1, noise.p_depol_1q, noise.p_depol_2q)
    words = 4 ** width - 1  # kick words per gate, circuits.KICK_WORDS
    prep_coins = rng.random((shots, q)) < noise.p_prep_flip
    shot_ev, gate_ev, word_u = _kicks(rng, shots, gate_probs)
    word_ev = np.minimum((word_u * words[gate_ev]).astype(int), words[gate_ev] - 1)
    meas_u = rng.random((shots, q))
    shot_u = rng.random(shots)

    # every shot reads the ideal state; the dirty ones are then read again
    # on their own trajectories, from the prepared |10..0> with its flips
    bits = _ideal_bits(circuit, shot_u)
    dirty = prep_coins.any(axis=1)
    dirty[shot_ev] = True
    rows = np.flatnonzero(dirty)
    init = prep_coins[rows]
    init[:, 0] ^= True
    bits[rows] = _gaussian_shots(dec, init, np.searchsorted(rows, shot_ev), gate_ev,
                                 word_ev, shot_u[rows])
    return _read_out(bits, noise, meas_u, seed)


# --- plain-text shot set format ----------------------------------------------

def shotset_to_text(shotset: ShotSet, noise: NoiseModel | None = None) -> str:
    lines = [
        "# parasim shot set",
        f"# seed {shotset.seed}",
        f"# shots {shotset.shots}",
    ]
    if noise is not None:
        lines.append("# noise " + " ".join(f"{f.name}={getattr(noise, f.name):.17g}"
                                           for f in fields(noise)))
    for bstr in sorted(shotset.counts):
        lines.append(f"{bstr} {shotset.counts[bstr]}")
    return "\n".join(lines) + "\n"


_SHOT_LINE = re.compile(r"([01]+)\s+([0-9]+)")


def read_shotset(path) -> ShotSet:
    """The shot set of a file in the text format, each bitstring at most
    once and the counts summing to the `# shots` total when the file gives
    one; a ValueError names the file."""
    header: dict = {}
    counts: dict = {}
    try:
        for line in Path(path).read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line[1:].split()
                if len(parts) == 2 and parts[0] in ("seed", "shots"):
                    try:
                        header[parts[0]] = int(parts[1])
                    except ValueError:
                        raise ValueError(f"bad header line {line!r}: want "
                                         f"'# {parts[0]} <integer>'") from None
                continue
            match = _SHOT_LINE.fullmatch(line)
            if match is None or len(match[1]) != len(next(iter(counts), match[1])):
                raise ValueError(f"bad shot line {line!r}: want '<bits> <count>' with "
                                 "bits of 0/1, as many as on the first line")
            if match[1] in counts:
                raise ValueError(f"bitstring {match[1]!r} given twice")
            counts[match[1]] = int(match[2])
        shots = sum(counts.values())
        if header.get("shots", shots) != shots:
            raise ValueError(f"counts sum to {shots}, not the {header['shots']} of '# shots'")
    except ValueError as exc:
        raise ValueError(f"shot set {path}: {exc}") from None
    return ShotSet(counts=counts, shots=shots, seed=header.get("seed", 0))
