"""One-hot qubit encoding of Fock levels and the XY-model image of the
driven para-particle oscillator.

Level n maps to the register basis state with qubit n flipped (qubit 0
is the leftmost / most significant position).  The hopping Hamiltonian
and the whole u/v/w/a generator family preserve that single-excitation
subspace; `restrict_to_onehot` extracts the block that carries the Fock
dynamics.  A Pauli word acts on amplitudes as a phase times a reversed
strided view (`pauli_view`), with no matrix and no gather.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import ParaSpec, ladder_amplitude

MAX_DENSE_QUBITS = 12

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# the nonzero in each row of a letter, (P[0, f], P[1, 1 - f]), f = 1 for X/Y
_PAULI_ROWS = {c: m[[0, 1], [int(c in "XY"), int(c not in "XY")]]
               for c, m in _PAULI.items()}

# span-k generators are labeled u (2 qubits), v (3), w (4), a (5); wider
# spans continue alphabetically from b.
_SPAN_LETTER = {2: "u", 3: "v", 4: "w", 5: "a"}


def _span_letter(k: int) -> str:
    return _SPAN_LETTER.get(k) or chr(ord("b") + k - 6)


@lru_cache(maxsize=None)
def pauli_view(letters: str, qubits: tuple[int, ...] | None = None
               ) -> tuple[tuple[int, ...], tuple[slice, ...], np.ndarray]:
    """The Pauli word P with letters[i] on qubit qubits[i] (by default on
    qubit i), qubit 0 most significant, as (shape, flip, phase) with
    P psi = phase * psi.reshape(shape)[flip] for psi of shape (2^Q,) or
    (2^Q, batch).  Each non-identity letter gets a length-2 axis and the
    qubits between them one axis (the batch folds into the last); flip
    reverses the X/Y axes, and phase broadcasts the nonzero in each row of
    each letter (_PAULI_ROWS).
    """
    shape, flip, phase, edge = [], [], np.ones((), dtype=complex), 0
    for qubit, c in sorted(zip(range(len(letters)) if qubits is None else qubits, letters)):
        if c == "I":
            continue
        shape += [2 ** (qubit - edge), 2]
        flip += [slice(None), slice(None, None, -1 if c in "XY" else 1)]
        phase = np.multiply.outer(phase, _PAULI_ROWS[c])
        edge = qubit + 1
    phase = phase.reshape([1, 2] * phase.ndim + [1])
    phase.flags.writeable = False  # cached and shared by every caller
    return (*shape, -1), tuple(flip), phase


def apply_pauli(amps: np.ndarray, letters: str, qubits: tuple[int, ...] | None = None,
                scale: complex = 1.0) -> np.ndarray:
    """scale * P amps for the Pauli word of pauli_view, as a new array."""
    shape, flip, phase = pauli_view(letters, qubits)
    return ((scale * phase) * amps.reshape(shape)[flip]).reshape(amps.shape)


@dataclass(frozen=True)
class PauliString:
    """One real-weighted Pauli word over Q qubits, e.g. 0.5 * 'XZY'."""

    coeff: float
    letters: str

    def __post_init__(self):
        if len(self.letters) < 1:
            raise ValueError("empty Pauli string")
        bad = set(self.letters) - set("IXYZ")
        if bad:
            raise ValueError(f"invalid Pauli letters {bad}")
        if not np.isfinite(self.coeff):
            raise ValueError("non-finite coefficient")

    @property
    def num_qubits(self) -> int:
        return len(self.letters)

    def matrix(self) -> np.ndarray:
        n = 2 ** self.num_qubits
        shape, flip, _ = pauli_view(self.letters)
        m = np.zeros((n, n), dtype=complex)
        # row y holds the word's one nonzero, in column y XOR (its X/Y mask)
        m[np.arange(n), np.arange(n).reshape(shape)[flip].ravel()] = apply_pauli(
            np.ones(n, dtype=complex), self.letters, scale=self.coeff)
        return m


@dataclass(frozen=True)
class PauliSum:
    """Sum of PauliStrings over a common register; Hermitian by construction."""

    terms: tuple[PauliString, ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("PauliSum needs at least one term")
        widths = {t.num_qubits for t in self.terms}
        if len(widths) != 1:
            raise ValueError(f"mixed register widths {widths}")
        object.__setattr__(self, "terms", tuple(self.terms))

    @property
    def num_qubits(self) -> int:
        return self.terms[0].num_qubits


@dataclass(frozen=True)
class GeneratorBasis:
    """The ordered multi-qubit generator family used to factor displacements."""

    generators: tuple[PauliSum, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.generators) != len(self.labels):
            raise ValueError("labels do not match generators")

    @property
    def num_qubits(self) -> int:
        return self.generators[0].num_qubits

    def __len__(self) -> int:
        return len(self.generators)


def encode_fock(n: int, num_qubits: int) -> str:
    """Bitstring for level n: the nth qubit flipped, e.g. (0, 3) -> '100'."""
    if not 0 <= n < num_qubits:
        raise ValueError(f"level {n} does not fit in {num_qubits} qubits")
    return "".join("1" if q == n else "0" for q in range(num_qubits))


def onehot_index(n: int, num_qubits: int) -> int:
    """Position of the one-hot level-n state in the 2^Q amplitude vector."""
    if not 0 <= n < num_qubits:
        raise ValueError(f"level {n} does not fit in {num_qubits} qubits")
    return 1 << (num_qubits - 1 - n)


def build_xy_hamiltonian(spec: ParaSpec, g: float) -> PauliSum:
    """H = g sum_m c(m)/2 (X_m X_m+1 + Y_m Y_m+1), with bond weights
    c(m) = ladder_amplitude(spec, m+1); restricts to g(a + adag) on the
    one-hot subspace with no rescaling."""
    q = spec.num_qubits
    terms = []
    for m in range(q - 1):
        c = g * ladder_amplitude(spec, m + 1) / 2
        for xy in "XY":
            letters = "I" * m + xy + xy + "I" * (q - m - 2)
            terms.append(PauliString(c, letters))
    return PauliSum(tuple(terms))


def _generator(num_qubits: int, anchor: int, span: int) -> PauliSum:
    """Two-term generator with X/Y ends and interior Z letters.

    Even spans pair XZ..ZX + YZ..ZY; odd spans pair XZ..ZY - YZ..ZX (the
    relative minus is forced by the five-qubit commutator table and matches
    the printed three-qubit v generator).
    """
    inner = "Z" * (span - 2)
    pre = "I" * anchor
    post = "I" * (num_qubits - anchor - span)
    if span % 2 == 0:
        first = PauliString(1.0, pre + "X" + inner + "X" + post)
        second = PauliString(1.0, pre + "Y" + inner + "Y" + post)
    else:
        first = PauliString(1.0, pre + "X" + inner + "Y" + post)
        second = PauliString(-1.0, pre + "Y" + inner + "X" + post)
    return PauliSum((first, second))


@lru_cache(maxsize=None)
def generator_family(num_qubits: int) -> GeneratorBasis:
    """All Q(Q-1)/2 span-k generators, ordered by their rightmost qubit and
    then by growing span (u0, u1, v0, u2, v1, w0, ...); built once per width
    and shared, as GeneratorBasis is immutable."""
    if num_qubits < 2:
        raise ValueError("generator family needs at least 2 qubits")
    gens, labels = [], []
    for right in range(1, num_qubits):
        for span in range(2, right + 2):
            anchor = right - span + 1
            gens.append(_generator(num_qubits, anchor, span))
            labels.append(f"{_span_letter(span)}{anchor}")
    return GeneratorBasis(tuple(gens), tuple(labels))


def pauli_sum_to_matrix(h: PauliSum) -> np.ndarray:
    """Dense 2^Q x 2^Q matrix of a PauliSum (qubit 0 most significant)."""
    q = h.num_qubits
    if q > MAX_DENSE_QUBITS:
        raise ValueError(f"refusing dense matrix for {q} > {MAX_DENSE_QUBITS} qubits")
    out = np.zeros((2 ** q, 2 ** q), dtype=complex)
    for term in h.terms:
        out += term.matrix()
    return out


def restrict_to_onehot(op: np.ndarray, num_qubits: int) -> np.ndarray:
    """Q x Q block <onehot(i)| op |onehot(j)> with levels ordered 0..Q-1."""
    if op.shape != (2 ** num_qubits, 2 ** num_qubits):
        raise ValueError(f"operator shape {op.shape} does not match {num_qubits} qubits")
    idx = [onehot_index(i, num_qubits) for i in range(num_qubits)]
    return op[np.ix_(idx, idx)]


def onehot_block(h: PauliSum) -> np.ndarray:
    """restrict_to_onehot(pauli_sum_to_matrix(h)) without the 2^Q matrix.

    Entry (i, j) of a word is the product over qubits k of its letter's
    entry <[k == i]| P_k |[k == j]>.
    """
    q = h.num_qubits
    bits = np.eye(q, dtype=int)
    out = np.zeros((q, q), dtype=complex)
    for term in h.terms:
        table = np.stack([_PAULI[c] for c in term.letters])
        out += term.coeff * table[np.arange(q)[:, None, None], bits[:, :, None],
                                  bits[:, None, :]].prod(axis=0)
    return out


def commutator_table(basis: GeneratorBasis, tol: float = 1e-12):
    """Structure constants of the generator family.

    Returns {(label_i, label_j): None | (sign, label_k)} meaning
    [G_i, G_j] = 0 or sign * 2i * G_k.  Any commutator outside that span
    signals a generator-construction bug and raises.
    """
    mats = [pauli_sum_to_matrix(g) for g in basis.generators]
    labels = basis.labels
    table = {}
    for i, gi in enumerate(mats):
        for j, gj in enumerate(mats):
            comm = gi @ gj - gj @ gi
            if np.max(np.abs(comm)) <= tol:
                table[(labels[i], labels[j])] = None
                continue
            hit = None
            for k, gk in enumerate(mats):
                for sign in (1, -1):
                    if np.max(np.abs(comm - sign * 2j * gk)) <= tol:
                        hit = (sign, labels[k])
                        break
                if hit:
                    break
            if hit is None:
                raise ValueError(
                    f"[{labels[i]}, {labels[j]}] is not 0 or +-2i times a basis element"
                )
            table[(labels[i], labels[j])] = hit
    return table


def check_jacobi(basis: GeneratorBasis, tol: float = 1e-12) -> bool:
    """True iff [A,[B,C]] + [B,[C,A]] + [C,[A,B]] vanishes for all triples."""
    mats = [pauli_sum_to_matrix(g) for g in basis.generators]

    def comm(a, b):
        return a @ b - b @ a

    n = len(mats)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                total = comm(mats[i], comm(mats[j], mats[k])) \
                    + comm(mats[j], comm(mats[k], mats[i])) \
                    + comm(mats[k], comm(mats[i], mats[j]))
                if np.max(np.abs(total)) > tol:
                    return False
    return True
