"""Seeded shot sampling with trajectory noise, the noise-file reader and
the plain-text shot-set format.

Shot sets keep bitstring counts, as in their text format; how counts
become numbers (readout inversion, post-selection, statistics) is decided
in `experiments`.

`run_and_sample` is the one sampler.  Noise is stochastic (quantum-jump
style): preparation bit flips, a uniform non-identity Pauli after each gate
with the depolarizing probability, drawn as rare events (`_kicks`), and
classical readout bit flips.  Shots with no preparation flip and no kick
share one state, whose amplitudes `apply_circuit` returns, up to a global
phase, as a dense rotation per centre of the circuit's Clifford frame: the
centres every compiled circuit carries, else those of one walk of its
gates when that walk ends on the identity frame, else the gates replayed
one by one; `_ideal_bits` reads their weights |amps|^2, one binary search
per shot.  Every compiled circuit is fermionic linear optics:
`circuits.decompose` reads it as Givens rotations of the Jordan-Wigner
Majoranas on a Clifford frame, keeping the Majorana sets of each gate's
frame images.  A Pauli kick passes through the frame as a
Pauli, whose set is the GF(2) sum of its gate's images for its word, read
only for the kicks drawn (`Decomposition.kick_sets`), so each dirty
trajectory is the same rotations with some angles negated and some read
bits flipped, and is measured from its own 2Q x 2Q Majorana covariance,
with no 2^Q array.  Every shot is measured by the inverse CDF of one
uniform draw, qubit 0 the most significant bit.

The covariance kernel is two functions: `rotate_covariances`, the Givens
pass with each trajectory's own sines, and `condition`, the rank-2 update
on one qubit's outcome.  `_gaussian_shots` is `trajectory_covariances` and
a sampled descent on `condition`; the tests' post-selection oracle forces
each one-hot read with the same two, for each trajectory's exact one-hot
probabilities.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .circuits import Circuit, Decomposition, Frame, decompose
from .dense import apply_gate_batch, dense_identity, rotate
from .textfile import keyed, read_file


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


def read_noise_file(path) -> NoiseModel:
    """Lines `key value` or `key=value`, each key of NoiseModel at most once;
    a ValueError names the file."""
    def parse(lines):
        values = keyed(ln if len(ln.split()) > 1 else ln.replace("=", " ", 1)
                       for ln in lines if ln[0] != "#")
        for key, value in values.items():
            if key not in {field.name for field in fields(NoiseModel)}:
                raise ValueError(f"unknown key {key!r}")
            try:
                values[key] = float(value)
            except ValueError:
                raise ValueError(f"cannot parse {f'{key} {value}'.rstrip()!r}: "
                                 "want '<key> <number>'") from None
        return NoiseModel(**values)

    return read_file(path, "noise file", parse)


@dataclass(frozen=True)
class ShotSet:
    """Seeded measurement outcomes as bitstring counts."""

    counts: dict
    shots: int
    seed: int

    def __post_init__(self):
        if sum(self.counts.values()) != self.shots:
            raise ValueError("counts must sum to the shot total")


def apply_circuit(circuit: Circuit) -> np.ndarray:
    """Amplitudes (2^Q,) of the noiseless circuit run on the vacuum one-hot
    state |10..0>, within the limit of dense_identity; equal to the
    gate-by-gate amplitudes up to a global phase.

    Each centre (gate index, word) is one dense rotation about its word
    pulled back through the circuit's Clifford frame, whose net Clifford is
    the identity.  Every circuit the compiler returns, cancelled or not,
    carries its centres (Circuit.centres), so no gate is walked.  Any other
    circuit finds its centres in one walk of its Frame; when that walk does
    not end on the identity frame, the circuit replays its gates instead.
    """
    q = circuit.num_qubits
    amps = dense_identity(q, 1 << q - 1)
    centres = circuit.centres
    if centres is None:
        frame, identity = Frame(q), Frame(q)
        centres = [(j, word) for j, gate in enumerate(circuit.gates)
                   if (word := frame.step(gate)) is not None]
        if (frame.xs, frame.zs) != (identity.xs, identity.zs):
            for gate in circuit.gates:
                amps = apply_gate_batch(amps, gate)
            return amps
    for j, word in centres:
        amps = rotate(amps, word, circuit.gates[j].angle)
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


def _misreads(noise: NoiseModel | None) -> bool:
    """Whether the readout flips any bit."""
    return noise is not None and bool(noise.eps01 or noise.eps10)


def _read_out(bits: np.ndarray, noise: NoiseModel | None, meas_u: np.ndarray | None,
              seed: int) -> ShotSet:
    """Shot set of the measured bits (shots, Q), each flipped where its
    draw in meas_u falls under its confusion rate; meas_u is read only
    where the readout misreads."""
    if _misreads(noise):
        bits = bits ^ np.where(bits == 0, meas_u < noise.eps01, meas_u < noise.eps10)
    return ShotSet(counts=_counts(bits), shots=len(bits), seed=seed)


def _ideal_bits(circuit: Circuit, u: np.ndarray) -> np.ndarray:
    """Read bits (shots, Q) of the noiseless circuit, one shot for each
    uniform draw in u: its level against the cumulative |amps|^2, shifted."""
    cdf = np.cumsum(np.abs(apply_circuit(circuit)) ** 2)
    bits = _levels(cdf, u)[:, None] >> np.arange(circuit.num_qubits - 1, -1, -1)
    bits &= 1
    return bits


def rotate_covariances(gamma: np.ndarray, a: np.ndarray, b: np.ndarray,
                       cosines: np.ndarray, sines: np.ndarray) -> None:
    """Turn each covariance gamma[:, :, s] (2Q, 2Q, n) in place by one Givens
    rotation per centre j, in the plane (a[j], b[j]) by cosines[j] and the
    trajectory's own sine sines[j, s]: its rows, then its columns, centre by
    centre."""
    for i, j, c, s in zip(a, b, cosines, sines):
        for rows in (gamma, gamma.transpose(1, 0, 2)):  # rows, then columns
            gi, gj = rows[i], rows[j]
            gi_s = s * gi
            gi *= c
            gi += s * gj
            gj *= c
            gj -= gi_s


def condition(gamma: np.ndarray, k: int, lam: np.ndarray) -> None:
    """Condition each covariance gamma[:, :, s] (2Q, 2Q, n) in place on the
    outcome lam[s] = +-1 of qubit k's i c_2k c_2k+1, in the Majoranas that
    `trajectory_covariances` relabels: the rank-2 update of the later
    qubits' block, all that a later read needs.  An outcome of probability
    (1 + lam gamma[2k, 2k+1]) / 2 = 0 divides by zero."""
    i, rest = 2 * k, slice(2 * k + 2, None)
    x = gamma[i + 1, rest][:, None] * gamma[i, rest][None]
    x -= x.transpose(1, 0, 2)
    x *= lam / (1.0 + lam * gamma[i, i + 1])
    gamma[rest, rest] += x


def trajectory_covariances(dec: Decomposition, init: np.ndarray, shot_ev: np.ndarray,
                           gate_ev: np.ndarray, word_ev: np.ndarray):
    """Majorana covariances (2Q, 2Q, n) and read flips (n, Q) of n
    trajectories on a fermionic-Gaussian circuit.

    Trajectory s starts on basis state init[s] (n, Q) and takes kick word
    word_ev[e] after gate gate_ev[e] for each event e with shot_ev[e] = s
    (sorted).  Pushed to the end of the circuit, a kick negates every later
    centre whose plane its Majorana set meets in one index and flips the
    read of every qubit whose pulled-back Z it meets in one index.  The
    Majoranas are relabelled so that qubit k reads i c_2k c_2k+1, and each
    trajectory's covariance Gamma_ab = i<c_a c_b> goes through one Givens
    rotation per centre (`rotate_covariances`).
    """
    n, q = init.shape
    order = dec.readout.ravel()
    label = np.argsort(order)
    sets = dec.kick_sets(gate_ev, word_ev)[:, order]     # (events, 2Q)
    a, b = label[dec.planes.T]
    hits = (sets[:, a] ^ sets[:, b]) & (dec.gates > gate_ev[:, None])
    shot, first = np.unique(shot_ev, return_index=True)
    negated = np.zeros((n, a.size), dtype=bool)
    negated[shot] = np.bitwise_xor.reduceat(hits, first)
    total = np.zeros((n, 2 * q), dtype=bool)
    total[shot] = np.bitwise_xor.reduceat(sets, first)
    # the initial basis state, Gamma = +-1 on each qubit's Majorana pair
    gamma = np.zeros((2 * q, 2 * q, n))
    gamma[label[0::2], label[1::2]] = np.where(init.T, 1.0, -1.0)
    gamma[label[1::2], label[0::2]] = np.where(init.T, -1.0, 1.0)
    sines = np.where(negated, -1.0, 1.0).T * np.sin(dec.angles)[:, None]
    rotate_covariances(gamma, a, b, np.cos(dec.angles), sines)
    return gamma, total[:, 0::2] ^ total[:, 1::2]


def _gaussian_shots(dec: Decomposition, init: np.ndarray, shot_ev: np.ndarray,
                    gate_ev: np.ndarray, word_ev: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Read bits (n, Q) of the n trajectories of `trajectory_covariances`,
    each measured qubit by qubit, qubit 0 first, by the inverse CDF of the
    shot's uniform u, and conditioned on each outcome (`condition`)."""
    gamma, flips = trajectory_covariances(dec, init, shot_ev, gate_ev, word_ev)
    bits = np.empty(flips.shape, dtype=int)
    for k in range(flips.shape[1]):
        p0 = (1.0 + gamma[2 * k, 2 * k + 1]) / 2         # P(Z_k = +1)
        p0 = np.where(flips[:, k], 1.0 - p0, p0)
        bit = u >= p0
        u = np.where(bit, u - p0, u) / np.where(bit, 1.0 - p0, p0)
        condition(gamma, k, np.where(bit ^ flips[:, k], -1.0, 1.0))  # the measured i c_2k c_2k+1
        bits[:, k] = bit
    return bits


_SHOT_BYTES = 1 << 30  # most bytes of the shot-sized arrays a run holds at once
_GAUSSIAN_BYTES = 16 << 20  # most bytes of dirty-shot covariances and their temporaries


def _kicks(rng: np.random.Generator, shots: int, gate_probs: np.ndarray, words: np.ndarray):
    """Shot, gate and word of every kick, sorted by (shot, gate).  The kicks
    on the gates of one nonzero rate p, read row-major as a (shots, gates)
    grid, are a Bernoulli process: their gaps are geometric, drawn in chunks
    of about the expected count until their running sum passes the grid,
    rates increasing.  Each kick's word is then uniform over its gate's
    `words`, 4^k - 1 for k qubits (circuits.KICK_WORDS)."""
    found = [np.empty(0, dtype=np.int64)]
    # np.unique's index-free path imports numpy.ma (np.ma.is_masked), 10-18 ms
    for p in sorted(set(gate_probs.tolist()) - {0.0}):
        cols = np.flatnonzero(gate_probs == p)
        size = shots * cols.size
        pos, chunk = np.array([-1]), int(size * p + 4 * np.sqrt(size * p)) + 16
        while pos[-1] < size:
            # a gap past the grid ends it, so clipping it there keeps the sum in int64
            gaps = np.minimum(rng.geometric(p, chunk), size + 1)
            pos = np.append(pos, pos[-1] + np.cumsum(gaps))
        pos = pos[1:np.searchsorted(pos, size)]
        found.append(pos // cols.size * gate_probs.size + cols[pos % cols.size])
    shot_ev, gate_ev = np.divmod(np.sort(np.concatenate(found)), gate_probs.size)
    return shot_ev, gate_ev, rng.integers(words[gate_ev])


def run_and_sample(circuit: Circuit, shots: int, noise: NoiseModel | None = None,
                   seed: int = 0) -> ShotSet:
    """Prepare |10..0>, run the circuit and measure `shots` times.

    With preparation or gate noise every shot is its own trajectory.  All
    stochastic decisions are drawn up front from one seeded generator, so
    results are reproducible, the kicks as rare events (`_kicks`).  Shots
    with no preparation flip and no kick are measured on the ideal state
    (`_ideal_bits`); the others on their own Majorana covariances
    (`_gaussian_shots`) by the same inverse CDF.  A run whose shot arrays
    would pass _SHOT_BYTES is refused before any draw.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    q = circuit.num_qubits
    noisy = noise is not None and bool(noise.p_prep_flip or noise.p_depol_1q
                                       or noise.p_depol_2q)
    if noisy:
        width = np.array([len(g.qubits) for g in circuit.gates], dtype=int)
        gate_probs = np.where(width == 1, noise.p_depol_1q, noise.p_depol_2q)
    # four (shots, Q + 1) arrays of 8-byte numbers, and some 40 bytes a kick event
    need = shots * (32 * (q + 1) + 40 * (gate_probs.sum() if noisy else 0.0))
    if need > _SHOT_BYTES:
        raise ValueError(f"--shots {shots} at {q} qubits would hold {need / 2**30:.3g} GiB "
                         f"of shot arrays, over the {_SHOT_BYTES >> 30} GiB a run may hold")
    rng = np.random.default_rng(seed)
    if not noisy:
        # the readout draw is the last, so a clean readout may skip it
        bits = _ideal_bits(circuit, rng.random(shots))
        return _read_out(bits, noise, rng.random((shots, q)) if _misreads(noise) else None,
                         seed)

    dec = decompose(circuit)
    prep_coins = rng.random((shots, q)) < noise.p_prep_flip
    shot_ev, gate_ev, word_ev = _kicks(rng, shots, gate_probs, 4 ** width - 1)
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
    row_ev = np.searchsorted(rows, shot_ev)
    # each shot's arithmetic is its own, so blocks of rows read the same bits;
    # a row holds its (2Q, 2Q) covariance and the measurement's outer products
    step = max(1, _GAUSSIAN_BYTES // (48 * (2 * q) ** 2))
    for lo in range(0, rows.size, step):
        block = rows[lo:lo + step]
        ev = slice(*np.searchsorted(row_ev, (lo, lo + step)))
        bits[block] = _gaussian_shots(dec, init[lo:lo + step], row_ev[ev] - lo,
                                      gate_ev[ev], word_ev[ev], shot_u[block])
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


def read_shotset(path) -> ShotSet:
    """The shot set of a file in the text format, each bitstring and each
    `# seed` or `# shots` header at most once and the counts summing to the
    `# shots` total when the file gives one; a ValueError names the file."""
    def parse(lines):
        header = keyed((ln[1:] for ln in lines if ln[0] == "#"), "header '# {}'",
                       ("seed", "shots"))
        for key, value in header.items():
            try:
                header[key] = int(value)
            except ValueError:
                raise ValueError(f"bad header line {f'# {key} {value}'.rstrip()!r}: "
                                 f"want '# {key} <integer>'") from None
        counts = keyed((ln for ln in lines if ln[0] != "#"), "bitstring {!r}")
        for bits, count in counts.items():
            if not (set(bits) <= {"0", "1"} and count.isascii() and count.isdigit()
                    and len(bits) == len(next(iter(counts)))):
                raise ValueError(f"bad shot line {f'{bits} {count}'.rstrip()!r}: want '<bits> "
                                 "<count>' with bits of 0/1, as many as on the first line")
            counts[bits] = int(count)
        shots = sum(counts.values())
        if header.get("shots", shots) != shots:
            raise ValueError(f"counts sum to {shots}, not the {header['shots']} of '# shots'")
        return ShotSet(counts=counts, shots=shots, seed=header.get("seed", 0))

    return read_file(path, "shot set", parse)
