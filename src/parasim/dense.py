"""Every 2^Q object of parasim, qubit 0 the most significant: amplitudes
and matrices over all outcomes of a register, each built from
`dense_identity`, which refuses one past 4^MAX_DENSE_QUBITS entries.  A
native gate is a rotation about a Pauli word P, applied in closed form,
cos(theta/2) psi - i sin(theta/2) P psi (`rotate`), with P psi a phase
times a reversed strided view of psi (`apply_word`).  The engine's ideal
pass is the one run path here; the rest is what the tests check against.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .circuits import _WORDS, Circuit, Gate
from .factorize import GammaVector, restricted_generators
from .mapping import _I_POWERS, GeneratorBasis, PauliSum, _word

MAX_DENSE_QUBITS = 12

# one pair of slices, shared by every cached view
_KEEP, _REVERSE = slice(None), slice(None, None, -1)
_Z_SIGNS = np.array([1.0, -1.0])


@lru_cache(maxsize=None)
def pauli_view(x: int, z: int) -> tuple[tuple[int, ...], tuple[slice, ...], tuple[int, ...]]:
    """The word X^x Z^z, qubit 0 most significant, as (shape, flip,
    sign_shape) for psi of shape (2^Q,) or (2^Q, batch): each qubit of the
    word gets a length-2 axis of psi.reshape(shape) and the qubits between
    them one axis (the batch folds into the last); flip reverses the X
    axes, and the Z axes' signs broadcast from sign_shape.  The view holds
    no array: a word's phase has 2^k entries for its k Z qubits, and is
    made for each call (apply_word).
    """
    shape, flip, sign_shape, edge = [], [], [], 0
    for qubit in (k for k in range((x | z).bit_length()) if (x | z) >> k & 1):
        shape += [2 ** (qubit - edge), 2]
        flip += [_KEEP, _REVERSE if x >> qubit & 1 else _KEEP]
        sign_shape += [1, 2 if z >> qubit & 1 else 1]
        edge = qubit + 1
    return (*shape, -1), tuple(flip), (*sign_shape, 1)


def apply_word(amps: np.ndarray, word: tuple, scale: complex = 1.0) -> np.ndarray:
    """scale * P amps for the Pauli word P = (x, z, r, m), as a new array: a
    phase times the reversed strided view of amps (pauli_view).  As
    X^x Z^z = (-1)^|x & z| Z^z X^x, row b of the flipped amplitudes takes the
    sign (-1)^|z & b|, the outer product of (1, -1) over the Z axes."""
    x, z, r, _ = word
    shape, flip, sign_shape = pauli_view(x, z)
    phase = np.full((), scale * _I_POWERS[(r + 2 * (x & z).bit_count()) % 4], dtype=complex)
    for _ in range(z.bit_count()):
        phase = np.multiply.outer(phase, _Z_SIGNS)
    return (phase.reshape(sign_shape) * amps.reshape(shape)[flip]).reshape(amps.shape)


def dense_identity(num_qubits: int, column: int | None = None) -> np.ndarray:
    """The 2^Q x 2^Q identity, or its column `column` as (2^Q,) amplitudes: the
    one constructor of a 2^Q object.  ValueError, naming the width, past
    4^MAX_DENSE_QUBITS entries, so a 12-qubit matrix or a 24-qubit state."""
    rows, kind = (1 << num_qubits, "matrix") if column is None else (1, "state")
    if rows << num_qubits > 4 ** MAX_DENSE_QUBITS:  # its entries
        raise ValueError(f"a dense {num_qubits}-qubit {kind} would hold more than "
                         f"4^{MAX_DENSE_QUBITS} entries")
    eye = np.eye(rows, 1 << num_qubits, column or 0, dtype=complex)
    return eye if column is None else eye[0]


def onehot_index(n: int, num_qubits: int) -> int:
    """Position of the one-hot level-n state in the 2^Q amplitude vector."""
    if not 0 <= n < num_qubits:
        raise ValueError(f"level {n} does not fit in {num_qubits} qubits")
    return 1 << (num_qubits - 1 - n)


def pauli_sum_to_matrix(h: PauliSum) -> np.ndarray:
    """Dense 2^Q x 2^Q matrix of a PauliSum (qubit 0 most significant)."""
    eye = dense_identity(h.num_qubits)
    return sum(apply_word(eye, t.word, t.coeff) for t in h.terms)


def restrict_to_onehot(op: np.ndarray, num_qubits: int) -> np.ndarray:
    """Q x Q block <onehot(i)| op |onehot(j)> with levels ordered 0..Q-1."""
    if op.shape != (2 ** num_qubits, 2 ** num_qubits):
        raise ValueError(f"operator shape {op.shape} does not match {num_qubits} qubits")
    idx = [onehot_index(i, num_qubits) for i in range(num_qubits)]
    return op[np.ix_(idx, idx)]


def rotate(amps: np.ndarray, word: tuple, theta: float) -> np.ndarray:
    """exp(-i theta W / 2) amps for the Pauli word W = (x, z, r, m), amps of
    shape (2**Q,) or (2**Q, batch), in closed form: cos(theta/2) amps -
    i sin(theta/2) W amps, with W amps a phase times a reversed strided view
    of amps (apply_word).  No matrix is built and nothing is gathered.
    Returns a new array."""
    out = apply_word(amps, word, -1j * math.sin(theta / 2))
    out += math.cos(theta / 2) * amps
    return out


def apply_gate_batch(amps: np.ndarray, gate: Gate) -> np.ndarray:
    """Apply one gate to amplitudes of shape (2**Q,) or (2**Q, batch): the
    rotation about its Pauli word.  Returns a new array."""
    return rotate(amps, _word(_WORDS[gate.kind], gate.qubits), gate.angle)


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Full 2^Q unitary of the circuit (gates applied in list order)."""
    u = dense_identity(circuit.num_qubits)
    for gate in circuit.gates:
        u = apply_gate_batch(u, gate)
    return u


def product_unitary(gammas, basis: GeneratorBasis, space: str = "onehot") -> np.ndarray:
    """Ordered product prod_j exp(i gamma_j G_j) on the one-hot block or the
    full register (leftmost factor applied last), the reference the Givens
    solve is checked against.  G_j has eigenvalues {-2, 0, 2} on both, so a
    factor is 1 + i sin(2 gamma)/2 G + (cos(2 gamma) - 1)/4 G^2; on the full
    register G acts on the partial product word by word (apply_word)."""
    gam = np.asarray(gammas.gammas if isinstance(gammas, GammaVector) else gammas,
                     dtype=float)
    if len(gam) != len(basis):
        raise ValueError("gamma count does not match the basis")
    if space not in ("onehot", "full"):
        raise ValueError(f"unknown space {space!r}")
    q = basis.num_qubits
    if space == "onehot":
        actions = [lambda m, b=b: b @ m for b in restricted_generators(basis)]
        out = np.eye(q, dtype=complex)
    else:
        actions = [lambda m, h=h: sum(apply_word(m, t.word, t.coeff) for t in h.terms)
                   for h in basis.generators]
        out = dense_identity(q)
    for g, act in zip(gam[::-1], actions[::-1]):
        once = act(out)
        out = out + 1j * np.sin(2 * g) / 2 * once + (np.cos(2 * g) - 1) / 4 * act(once)
    return out


def outcome_bits(num_qubits: int) -> np.ndarray:
    """(2^Q, Q) bits of every outcome, qubit 0 the most significant: the
    dense reference that the checks read, not the run path."""
    return (np.arange(1 << num_qubits)[:, None] >> np.arange(num_qubits - 1, -1, -1)) & 1


def histogram(shotset) -> np.ndarray:
    """The counts of an engine.ShotSet as a (2^Q,) integer array indexed by outcome."""
    from .experiments import EmptyShotSetError  # experiments imports engine, which imports this
    if shotset.shots == 0:
        raise EmptyShotSetError("no shots to analyze")
    out = np.zeros(1 << len(next(iter(shotset.counts))), dtype=np.int64)
    out[[int(b, 2) for b in shotset.counts]] = list(shotset.counts.values())
    return out
