"""Lowering of factorized displacement products to the native trapped-ion
gate set: single-qubit rotations plus two-qubit XX entanglers.

Conventions (pinned once): RX/RY/RZ(theta) = exp(-i theta P / 2) and
XX(chi) = exp(-i chi X.X / 2), so exp(i gamma X.X) compiles to a single
XX(-2 gamma).  CNOT and CZ exist internally as macros over that set.

Every native gate is thus a rotation about a Pauli word P.  One
walk of a gate list, `Frame`, splits it by one rule: gates whose angle is
an exact multiple of pi/2 join a Clifford frame, and every other gate is
a centre, a rotation by its full angle about its Pauli pulled back
through the frame.  The engine's ideal pass applies only the centres
densely, on a frame whose net Clifford is the identity; `decompose` reads
the same walk as Givens rotations of the Jordan-Wigner Majoranas, the
form in which the engine runs noisy trajectories.  A compiled circuit
needs no walk: each of its terms is a scaffold, a centre and the
scaffold's exact inverse, so its frame is the identity between terms,
and each centre pulls back to its term's own word, which the compiler
records on every circuit it returns (`Circuit.centres`), cancelled or
not.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import NamedTuple

import numpy as np

from .mapping import GeneratorBasis, PauliString, _pair, _times, _word
from .textfile import keyed, read_file, text_lines

_RX = "RX"
_RY = "RY"
_RZ = "RZ"
_XX = "XX"
# the Pauli word of each gate, one letter per gate qubit: the gate is
# exp(-i theta P / 2)
_WORDS = {_RX: "X", _RY: "Y", _RZ: "Z", _XX: "XX"}


@dataclass(frozen=True)
class Gate:
    """One native gate: RX/RY/RZ(theta, q) or XX(chi, q1, q2)."""

    kind: str
    qubits: tuple[int, ...]
    angle: float

    def __post_init__(self):
        if type(self.qubits) is not tuple:
            object.__setattr__(self, "qubits", tuple(self.qubits))
        if self.kind not in _WORDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        width = len(_WORDS[self.kind])
        if len(self.qubits) != width or len(set(self.qubits)) != width:
            raise ValueError(f"{self.kind} acts on exactly {width} distinct qubit(s)")
        if not math.isfinite(self.angle):
            raise ValueError(f"{self.kind} angle must be finite, not {self.angle!r}")


def rx(theta: float, q: int) -> Gate:
    return Gate(_RX, (q,), theta)


def ry(theta: float, q: int) -> Gate:
    return Gate(_RY, (q,), theta)


def rz(theta: float, q: int) -> Gate:
    return Gate(_RZ, (q,), theta)


def xx(chi: float, q1: int, q2: int) -> Gate:
    return Gate(_XX, (q1, q2), chi)


@dataclass(frozen=True)
class Circuit:
    """A gate list on num_qubits qubits.

    `centres` is set on every circuit the compiler returns: each term's
    (gate index, word), the term's own word, which its centre gate pulls
    back to through the Clifford frame before it, the identity at every
    term boundary.  A centre whose angle is an exact multiple of pi/2 is
    then rotated, not absorbed into the frame: the same unitary.  Every
    other circuit (read from text, built by hand, dataclasses.replace, or
    optimize_cancel) gets None, and the ideal pass finds its centres in
    one walk of its Frame, or replays its gates when that walk does not
    end on the identity frame."""

    num_qubits: int
    gates: tuple[Gate, ...] = ()
    centres: tuple[tuple[int, tuple], ...] | None = field(
        default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError("need at least one qubit")
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            for q in g.qubits:
                if not 0 <= q < self.num_qubits:
                    raise ValueError(f"qubit {q} outside the {self.num_qubits}-qubit register")

    def __len__(self) -> int:
        return len(self.gates)


def _inverse(gate: Gate) -> Gate:
    return Gate(gate.kind, gate.qubits, -gate.angle)


def _cnot(control: int, target: int) -> list[Gate]:
    """CNOT from one XX(pi/2) plus four rotations (exact up to global phase)."""
    return [
        ry(-np.pi / 2, control),
        rx(np.pi / 2, target),
        rx(-np.pi / 2, control),
        xx(np.pi / 2, control, target),
        ry(np.pi / 2, control),
    ]


def _hadamard(q: int) -> list[Gate]:
    return [rz(np.pi, q), ry(np.pi / 2, q)]


def _cz(a: int, b: int) -> list[Gate]:
    return _hadamard(b) + _cnot(a, b) + _hadamard(b)


@lru_cache(maxsize=None)
def _scaffold(letters: str) -> tuple[tuple[Gate, ...], str, tuple[int, ...], tuple[Gate, ...]]:
    """The angle-free lowering of exp(i gamma P) for the word P of these
    letters: (gates before, centre kind, centre qubits, gates after), the
    centre a rotation by -2 gamma c for P's coefficient c.  Built once per
    word and shared, as Gate is frozen."""
    support = [i for i, c in enumerate(letters) if c != "I"]
    if len(support) < 2:
        raise ValueError("need at least two non-identity letters")
    if support != list(range(support[0], support[-1] + 1)):
        raise ValueError("support must be contiguous")
    first, last = support[0], support[-1]
    interior = support[1:-1]
    if any(letters[i] != "Z" for i in interior):
        raise ValueError("interior letters must be Z")
    ends = (letters[first], letters[last])
    if any(e not in "XY" for e in ends):
        raise ValueError("end letters must be X or Y")

    if len(support) == 2 and ends == ("X", "X"):
        return (), _XX, (first, last), ()
    if len(support) == 2 and ends == ("Y", "Y"):
        return ((rz(-np.pi / 2, first), rz(-np.pi / 2, last)), _XX, (first, last),
                (rz(np.pi / 2, first), rz(np.pi / 2, last)))

    pre: list[Gate] = []
    for i in (first, last):
        if letters[i] == "Y":
            pre.append(rz(-np.pi / 2, i))
    fold = _cnot(first, last)
    for j in interior:
        fold += _cz(first, j)
    unfold = [_inverse(g) for g in reversed(fold)]
    post = [_inverse(g) for g in reversed(pre)]
    return tuple(pre + fold), _RX, (first,), tuple(unfold + post)


def compile_pauli_exp(gamma: float, string: PauliString) -> Circuit:
    """Circuit for exp(i gamma * string), exact up to global phase.

    Plain XX is one native entangler; YY conjugates it with z rotations;
    longer words (X/Y ends, contiguous interior Z) rotate Y ends onto X,
    fold the X Z..Z X core onto the anchor qubit with CNOT/CZ macros, apply
    the central RX(-2 gamma) and uncompute.
    """
    before, kind, qubits, after = _scaffold(string.letters)
    circuit = Circuit(string.num_qubits,
                      before + (Gate(kind, qubits, -2 * (gamma * string.coeff)),) + after)
    object.__setattr__(circuit, "centres", ((len(before), string.word),))
    return circuit


def compile_displacement(gammas, basis: GeneratorBasis, optimize: bool = True) -> Circuit:
    """Lower a factored displacement to native gates.

    Each generator contributes its two commuting Pauli words as separate
    exponential factors (2 * Q(Q-1)/2 factors in total); the factor for the
    leftmost matrix in the product is emitted last, each as its word's
    scaffold around one new centre gate (compile_pauli_exp).  Runs the
    cancellation pass unless a fixed circuit template is wanted (e.g.
    constant gate counts across evolution times).  Either carries its
    terms' centres (Circuit.centres), less those the pass drops at angle 0.
    """
    gam = list(gammas.gammas) if hasattr(gammas, "gammas") else list(gammas)
    if len(gam) != len(basis):
        raise ValueError("gamma count does not match the basis")
    gates: list[Gate] = []
    centres = []
    for g, term_sum in reversed(list(zip(gam, basis.generators))):
        for term in term_sum.terms:
            before, kind, qubits, after = _scaffold(term.letters)
            gates += before
            centres.append((len(gates), term.word))
            gates.append(Gate(kind, qubits, -2 * (g * term.coeff)))
            gates += after
    circuit = Circuit(basis.num_qubits, gates)
    if optimize:
        # The pass keeps each nonzero centre Gate as it is (a merged one is a
        # KeyError here): it merges a gate only with the latest kept gate on
        # its qubits, about the same axis.  An RX centre sits between its
        # fold's ry(pi/2) and unfold's ry(-pi/2), and an XX centre meets only
        # single-qubit gates on its pair: every other term starts and ends on
        # each qubit with one, and one generator alone spans an adjacent pair.
        circuit = optimize_cancel(circuit)
        index = {id(gate): j for j, gate in enumerate(circuit.gates)}
        centres = [(index[id(gates[j])], word) for j, word in centres
                   if not _is_zero_angle(gates[j].angle)]
    object.__setattr__(circuit, "centres", tuple(centres))
    return circuit


def _is_zero_angle(angle: float, tol: float = 1e-12) -> bool:
    """Zero mod 2 pi; dropping such a gate changes at most the global phase."""
    return abs(math.remainder(angle, 2 * math.pi)) < tol


def optimize_cancel(circuit: Circuit) -> Circuit:
    """Merge same-axis same-qubit rotations (summing angles) and drop
    zero-angle gates (mod 2 pi, valid up to global phase).  A merge partner
    may sit behind gates with disjoint support, which commute trivially, so
    conjugation scaffolding around zero-angle centers telescopes away
    completely.  One pass reaches the fixed point: every gate kept after a
    partner shares no qubit with it, so removing or replacing the partner
    opens no new merge."""
    kept: list[Gate | None] = []  # in circuit order, None where a merge cancelled
    # positions in kept per qubit, the latest last, on a -1 that stands for none
    stacks = [[-1] for _ in range(circuit.num_qubits)]
    for g in circuit.gates:
        if _is_zero_angle(g.angle):
            continue
        qubits = g.qubits
        # the only possible partner: the latest kept gate on any of g's qubits
        first, second = stacks[qubits[0]][-1], stacks[qubits[-1]][-1]
        last = first if first > second else second
        partner = kept[last] if last >= 0 else None
        if partner is not None and partner.kind == g.kind and (
                partner.qubits == qubits or partner.qubits[::-1] == qubits):
            angle = partner.angle + g.angle
            if _is_zero_angle(angle):
                kept[last] = None
                for q in qubits:
                    stacks[q].pop()
            else:
                kept[last] = Gate(g.kind, partner.qubits, angle)
            continue
        for q in qubits:
            stacks[q].append(len(kept))
        kept.append(g)
    return Circuit(circuit.num_qubits, [g for g in kept if g is not None])


def gate_counts(circuit: Circuit) -> dict:
    one = sum(1 for g in circuit.gates if len(g.qubits) == 1)
    two = sum(1 for g in circuit.gates if len(g.qubits) == 2)
    return {"one_qubit": one, "two_qubit": two}


# --- Clifford frame and Majorana rotation centres --------------------------
#
# Frame images, centres and kicks are Pauli words (x, z, r, m) of
# `parasim.mapping`, where m is the Jordan-Wigner Majorana set of the word.

_QUARTER = np.pi / 2


class Frame:
    """The Clifford frame C of a gate-list prefix, walked one gate at a time:
    xs[k] and zs[k] are the words C^dag X_k C and C^dag Z_k C.

    The one split rule: a gate whose angle is an exact multiple of pi/2 is
    Clifford and joins the frame; any other gate is a centre, the rotation
    exp(-i theta W / 2) by its full angle about its Pauli W pulled back
    through the frame before it.  A prefix is then C prod_k exp(-i theta_k
    W_k / 2), the first centre rightmost, and C is the product of the gates
    that joined the frame.
    """

    def __init__(self, num_qubits: int):
        self.xs = [_word("X", (k,)) for k in range(num_qubits)]
        self.zs = [_word("Z", (k,)) for k in range(num_qubits)]

    def step(self, gate: Gate) -> tuple | None:
        """Walk one gate: its pulled-back word W if it is a centre, None if
        it joined the frame."""
        xs, zs, k = self.xs, self.zs, gate.qubits[0]
        if gate.kind == _XX:
            word, flipped = _times(xs[k], xs[gate.qubits[1]]), ((zs, k), (zs, gate.qubits[1]))
        elif gate.kind == _RX:
            word, flipped = xs[k], ((zs, k),)
        elif gate.kind == _RZ:
            word, flipped = zs[k], ((xs, k),)
        else:
            word, flipped = _times(xs[k], zs[k], 1), ((xs, k), (zs, k))
        turns = round(gate.angle / _QUARTER)
        if gate.angle != turns * _QUARTER:
            return word
        # the images of the generators the gate's Pauli P anticommutes with
        # become -g (half turn) or +-i P g (quarter turn)
        turns %= 4
        for images, i in flipped if turns else ():
            g = images[i]
            images[i] = (g[0], g[1], g[2] ^ 2, g[3]) if turns == 2 else _times(word, g, turns)
        return None


# The 4^k - 1 non-identity Pauli kicks on a gate's k qubits, in the order a
# uniform draw picks them (base-4 digits 'IXYZ', the gate's first qubit most
# significant).
KICK_WORDS = {k: ["".join(w) for w in product("IXYZ", repeat=k)][1:] for k in (1, 2)}
# each two-qubit kick as a GF(2) sum of the frame images of X and Z on the
# gate's first and second qubit; a one-qubit gate's qubit sits second, so
# its kicks are the first three rows
_KICK_SUMS = np.array([[c in "XY", c in "YZ", d in "XY", d in "YZ"]
                       for c, d in KICK_WORDS[2]], dtype=np.uint8)


class Decomposition(NamedTuple):
    """A circuit as rotation centres on a Clifford frame (see `decompose`)."""

    gates: np.ndarray    # (n,) gate index of each centre
    planes: np.ndarray   # (n, 2) its Majorana plane a < b
    angles: np.ndarray   # (n,) its gate's full angle, signed by the plane:
                         # the centre is exp(theta/2 c_a c_b)
    frames: np.ndarray   # (gates, 4, 2Q) uint8 bits: the Majorana sets of the
                         # frame images of X and Z on each gate's first and
                         # second qubit, after it; a one-qubit gate's first
                         # two are empty
    readout: np.ndarray  # (Q, 2) pairs (a, b): Z_k pulls back to i c_a c_b

    def kick_sets(self, gate_ev: np.ndarray, word_ev: np.ndarray) -> np.ndarray:
        """(events, 2Q) bool Majorana set of each kick event e, word
        KICK_WORDS[k][word_ev[e]] after gate gate_ev[e] pulled back through
        the frame after that gate: the GF(2) sum of its frame images."""
        sums = _KICK_SUMS[word_ev][:, None] @ self.frames[gate_ev]
        return (sums[:, 0] & 1).astype(bool)


def decompose(circuit: Circuit) -> Decomposition:
    """The circuit as C prod_k exp(-i theta_k W_k / 2), read from its gate
    list in one walk of its Frame.

    Each centre's word W, pulled back through the frame before it, is
    W = +-i c_a c_b, a Givens rotation of the Majorana covariance by the
    gate's angle.  `frames[j]` holds the Majorana sets of the four frame
    images after gate j, read from their words' m ints, from which
    `kick_sets` forms the set of any kick on gate j; `readout[k]` is the
    pulled-back Z_k.  Raises ValueError when a centre or a Z_k does not
    pull back to a quadratic word, i.e. the circuit is not fermionic linear
    optics.
    """
    q = circuit.num_qubits
    frame = Frame(q)
    xs, zs = frame.xs, frame.zs  # each step updates these lists in place
    centres, sets = [], []  # sets: the Majorana set m of each frame image
    for j, gate in enumerate(circuit.gates):
        word = frame.step(gate)
        if word is not None:
            a, b = _pair(word, f"gate {j} ({gate.kind} {' '.join(map(str, gate.qubits))})")
            centres.append((j, min(a, b), max(a, b), gate.angle if a < b else -gate.angle))
        k, last = gate.qubits[0], gate.qubits[-1]
        sets += (xs[k][3], zs[k][3]) if gate.kind == _XX else (0, 0)
        sets += (xs[last][3], zs[last][3])
    nbytes = (2 * q + 7) // 8
    raw = b"".join([m.to_bytes(nbytes, "little") for m in sets])
    readout = [_pair(zs[k], f"Z on qubit {k}") for k in range(q)]
    gates, a, b, angles = zip(*centres) if centres else ((), (), (), ())
    return Decomposition(
        gates=np.array(gates, dtype=int),
        planes=np.array([a, b], dtype=int).reshape(2, -1).T,
        angles=np.array(angles, dtype=float),
        frames=np.unpackbits(np.frombuffer(raw, dtype=np.uint8).reshape(-1, 4, nbytes),
                             axis=-1, count=2 * q, bitorder="little"),
        readout=np.array(readout, dtype=int).reshape(q, 2))


# --- plain-text circuit format ----------------------------------------------

def circuit_to_text(circuit: Circuit) -> str:
    lines = [f"qubits {circuit.num_qubits}", f"# gates {len(circuit.gates)}"]
    for g in circuit.gates:
        lines.append(f"{g.kind} {' '.join(map(str, g.qubits))} {g.angle:.17g}")
    return "\n".join(lines) + "\n"


def circuit_from_text(text: str) -> Circuit:
    return _circuit(text_lines(text))


def read_circuit(path) -> Circuit:
    """The circuit of a file in the text format, with its `# gates N` line,
    as circuit_to_text writes it, at most once; a ValueError names the file."""
    return read_file(path, "circuit", _circuit)


def _circuit(lines) -> Circuit:
    stated = keyed((ln[1:] for ln in lines if ln[0] == "#"), "header '# {}'", ("gates",))
    lines = [ln for ln in lines if ln[0] != "#"]
    if not lines or not lines[0].startswith("qubits "):
        raise ValueError("circuit text must start with a 'qubits Q' header")
    _, q = lines[0].split(maxsplit=1)
    if not q.isdecimal() or int(q) < 1:
        raise ValueError(f"bad header line {lines[0]!r}: want 'qubits Q' with Q >= 1")
    gates = []
    for ln in lines[1:]:
        kind, *args = ln.split()
        try:
            if kind not in _WORDS:
                raise ValueError(f"unknown gate kind {kind!r}")
            width = len(_WORDS[kind])  # the qubits, then the angle
            if len(args) != width + 1:
                raise ValueError(f"{kind} takes {width + 1} fields")
            gate = Gate(kind, tuple(int(a) for a in args[:width]), float(args[width]))
            Circuit(int(q), (gate,))  # the register check, on this line's gate
            gates.append(gate)
        except ValueError as exc:
            raise ValueError(f"bad gate line {ln!r}: {exc}") from None
    if stated.get("gates", str(len(gates))) != str(len(gates)):  # a cut file, or not a count
        raise ValueError(f"bad header line {('# gates ' + stated['gates']).rstrip()!r}: "
                         f"{len(gates)} gate lines follow")
    return Circuit(int(q), gates)
