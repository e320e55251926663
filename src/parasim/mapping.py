"""One-hot qubit encoding of Fock levels, the XY-model image of the
driven para-particle oscillator, and the Pauli word.

Level n maps to the register basis state with qubit n flipped (qubit 0
is the leftmost / most significant position).  The hopping Hamiltonian
and the whole u/v/w/a generator family preserve that single-excitation
subspace; `onehot_block` reads the block that carries the Fock dynamics.

A Pauli word is the int tuple (x, z, r, m): the operator i^r X^x Z^z with
bit q of x and z for qubit q, and m its set of Jordan-Wigner Majoranas
(bit a for c_a; c_2q = Z_0..Z_q-1 X_q, c_2q+1 = Z_0..Z_q-1 Y_q), set when
the word is built and carried through products by XOR.  The generator
algebra and the one-hot block are read from the bits.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .algebra import ParaSpec, ladder_amplitude

_I_POWERS = (1, 1j, -1, -1j)


def _word(letters: str, qubits: tuple[int, ...] | None = None) -> tuple:
    """The word with letters[i] ('IXYZ') on qubit qubits[i], by default on qubit i."""
    x = z = r = m = 0
    for qubit, c in zip(range(len(letters)) if qubits is None else qubits, letters):
        if c in "XY":
            x, m = x | 1 << qubit, m ^ (2 << 2 * qubit) - 1
        if c in "YZ":
            z, m = z | 1 << qubit, m ^ 3 << 2 * qubit
        r += c == "Y"
    return (x, z, r % 4, m)


def _times(p: tuple, q: tuple, r: int = 0) -> tuple:
    """The product i^r p q of two words."""
    return (p[0] ^ q[0], p[1] ^ q[1], (p[2] + q[2] + r + 2 * (p[1] & q[0]).bit_count()) % 4,
            p[3] ^ q[3])


def _majorana(a: int) -> tuple:
    q, y = divmod(a, 2)
    return (1 << q, (1 << q) - 1 | y << q, y, 1 << a)


def _pair(word: tuple, what: str) -> tuple[int, int]:
    """(a, b) with word = i c_a c_b, or ValueError if it is not quadratic."""
    m = word[3]
    if m.bit_count() != 2:
        raise ValueError(f"circuit is not fermionic-Gaussian: {what} pulls back to a "
                         f"product of {m.bit_count()} Majoranas, not 2")
    a, b = (m & -m).bit_length() - 1, m.bit_length() - 1
    same = _times(_majorana(a), _majorana(b), 1)[2] == word[2]
    return (a, b) if same else (b, a)


# span-k generators are labeled u (2 qubits), v (3), w (4), a (5); spans 6-24
# continue alphabetically from b to t, and wider spans k are x<k>_, so that
# no two spans share a name and the anchor that follows stays readable.
_SPAN_LETTER = {2: "u", 3: "v", 4: "w", 5: "a"}


def _span_letter(k: int) -> str:
    return _SPAN_LETTER.get(k) or (chr(ord("b") + k - 6) if k <= 24 else f"x{k}_")


@dataclass(frozen=True)
class PauliString:
    """One real-weighted Pauli word over Q qubits, e.g. 0.5 * 'XZY'."""

    coeff: float
    letters: str
    word: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.letters) < 1:
            raise ValueError("empty Pauli string")
        bad = set(self.letters) - set("IXYZ")
        if bad:
            raise ValueError(f"invalid Pauli letters {bad}")
        if not np.isfinite(self.coeff):
            raise ValueError("non-finite coefficient")
        object.__setattr__(self, "word", _word(self.letters))

    @property
    def num_qubits(self) -> int:
        return len(self.letters)


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


def onehot_block(h: PauliSum) -> np.ndarray:
    """restrict_to_onehot(pauli_sum_to_matrix(h)) without the 2^Q matrix.

    Entry (i, j) of a word i^r X^x Z^z is i^r (-1)^(z_j) when x flips
    exactly qubits i and j (no qubit when i == j), and 0 otherwise.
    """
    q = h.num_qubits
    out = np.zeros((q, q), dtype=complex)
    for term in h.terms:
        x, z, r, _ = term.word
        i, j = (x & -x).bit_length() - 1, x.bit_length() - 1
        for a, b in ([(k, k) for k in range(q)] if x == 0 else
                     [(i, j), (j, i)] if x.bit_count() == 2 else []):
            out[a, b] += term.coeff * _I_POWERS[r] * (-1) ** (z >> b & 1)
    return out


def _linear(terms) -> dict:
    """The sum of c * word over (c, word) pairs as {(x, z): coefficient of X^x Z^z}."""
    out: dict = {}
    for c, (x, z, r, _) in terms:
        out[x, z] = out.get((x, z), 0) + c * _I_POWERS[r]
    return out


def commutator_table(basis: GeneratorBasis, tol: float = 1e-12):
    """Structure constants of the generator family, read from the words:
    [P, Q] = 2 P Q for words that anticommute, 0 for words that commute.

    Returns {(label_i, label_j): None | (sign, label_k)} meaning
    [G_i, G_j] = 0 or sign * 2i * G_k.  Any commutator outside that span
    signals a generator-construction bug and raises.
    """
    sums = [_linear((t.coeff, t.word) for t in g.terms) for g in basis.generators]
    owners: dict = {}  # (x, z) -> the generators holding that word
    for k, terms in enumerate(sums):
        for key in terms:
            owners.setdefault(key, []).append(k)
    labels, table = basis.labels, {}
    for i, gi in enumerate(basis.generators):
        for j, gj in enumerate(basis.generators):
            comm = _linear((2 * p.coeff * q.coeff, _times(p.word, q.word))
                           for p in gi.terms for q in gj.terms
                           if (p.word[0] & q.word[1] ^ p.word[1] & q.word[0]).bit_count() % 2)
            comm = {key: c for key, c in comm.items() if abs(c) > tol}
            hits = [(sign, labels[k]) for k in owners.get(next(iter(comm), None), ())
                    for sign in (1, -1)
                    if all(abs(comm.get(key, 0) - sign * 2j * sums[k].get(key, 0)) <= tol
                           for key in comm.keys() | sums[k].keys())]
            if comm and not hits:
                raise ValueError(f"[{labels[i]}, {labels[j]}] is not 0 or +-2i times a "
                                 "basis element")
            table[(labels[i], labels[j])] = hits[0] if comm else None
    return table


def check_jacobi(basis: GeneratorBasis, tol: float = 1e-12) -> bool:
    """True iff the structure constants of commutator_table (which raises if
    the family does not close) satisfy [A,[B,C]] + [B,[C,A]] + [C,[A,B]] = 0
    for all triples.  With [G_a, G_b] = 2i s[a, b] G_t[a, b], the term
    [G_a, [G_b, G_c]] is -4 s[b, c] s[a, t[b, c]] G_t[a, t[b, c]]."""
    index = {label: k for k, label in enumerate(basis.labels)}
    t, s = np.zeros((2, len(basis), len(basis)), dtype=int)
    for (a, b), hit in commutator_table(basis, tol).items():
        if hit:
            s[index[a], index[b]], t[index[a], index[b]] = hit[0], index[hit[1]]
    pairs = np.array(np.triu_indices(len(s), 1))
    for a in range(len(s)):  # every triple a < b < c
        b, c = pairs[:, pairs[0] > a]
        terms = [(t[x, t[y, z]], s[y, z] * s[x, t[y, z]])
                 for x, y, z in ((a, b, c), (b, c, a), (c, a, b))]
        for at, _ in terms:  # the summed coefficient of each generator a term hits
            if np.any(4 * np.abs(sum(coeff * (at2 == at) for at2, coeff in terms)) > tol):
                return False
    return True
