"""Independent check of the CSVs the workloads write.

The exact displaced-vacuum moments are recomputed here without
``parasim.algebra``: the ladder matrix is built from the textbook
(Green-representation) amplitudes and exponentiated densely with
``scipy.linalg.expm``.  The expected raw ⟨N⟩ of a noisy run is recomputed without
``parasim.engine``: the density matrix of the compiled circuit is evolved
gate by gate under the noise model's channels.  Every check returns a list
of error strings; an empty list means the CSV passed.
"""
from __future__ import annotations

import csv
import io
import math
from functools import lru_cache

import numpy as np
from scipy.linalg import expm

EXACT_TOL = 1e-10      # every exact row and cutoff value
SIGMAS = 5.0           # shot means within this many stderr of their expectation
MEAN_FLOOR = 1e-12     # below this <N> the Mandel parameter is undefined


def ladder_amplitudes(kind: str, p: int, np_cut: int = 0) -> np.ndarray:
    """<n|a+|n-1> for n = 1..dim-1.

    Para-Fermi of even order p (levels 0..p): sqrt(n) for even n and
    sqrt(p + 1 - n) for odd n.  Para-Bose of order p truncated to levels
    0..np: sqrt(n) for even n and sqrt(n + p - 1) for odd n.
    """
    if kind == "pf":
        top = p
        odd = lambda n: p + 1 - n  # noqa: E731
    elif kind == "pb":
        top = np_cut
        odd = lambda n: n + p - 1  # noqa: E731
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return np.sqrt([float(n if n % 2 == 0 else odd(n)) for n in range(1, top + 1)])


def exact_moments(kind: str, p: int, np_cut: int, alpha: float):
    """(<N>, <N^2>, Mandel Q or None) of exp(i alpha (a + a+)) |0>."""
    amps = ladder_amplitudes(kind, p, np_cut)
    dim = len(amps) + 1
    ladder = np.zeros((dim, dim))
    ladder[np.arange(dim - 1), np.arange(1, dim)] = amps
    psi = expm(1j * alpha * (ladder + ladder.T))[:, 0]
    probs = np.abs(psi) ** 2
    levels = np.arange(dim, dtype=float)
    mean = float(probs @ levels)
    mean2 = float(probs @ levels ** 2)
    mandel = None if mean <= MEAN_FLOOR else (mean2 - mean * mean) / mean - 1.0
    return mean, mean2, mandel


def read_rows(text: str) -> list[dict]:
    """Data rows of a study CSV (comment lines skipped)."""
    body = "\n".join(line for line in text.splitlines() if not line.startswith("#"))
    return list(csv.DictReader(io.StringIO(body)))


def _float(row: dict, key: str):
    value = row.get(key, "")
    return None if value in ("", None) else float(value)


def _where(row: dict) -> str:
    return f"x={row.get('x')} source={row.get('source')}"


def check_exact_row(row: dict, kind: str, p: int, np_cut: int, alpha: float) -> list[str]:
    """mean_n, mean_n2 and mandel_q of one row against the oracle."""
    mean, mean2, mandel = exact_moments(kind, p, np_cut, alpha)
    errors = []
    for key, want in (("mean_n", mean), ("mean_n2", mean2), ("mandel_q", mandel)):
        got = _float(row, key)
        if want is None or got is None:
            if (want is None) != (got is None):
                errors.append(f"{_where(row)}: {key} {got} but oracle {want}")
        elif not abs(got - want) <= EXACT_TOL:
            errors.append(f"{_where(row)}: {key} {got!r} differs from oracle "
                          f"{want!r} by {abs(got - want):.3e}")
    return errors


_PAULIS = (np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
           np.diag([1.0, -1.0]))
_GENERATORS = {"RX": _PAULIS[1], "RY": _PAULIS[2], "RZ": _PAULIS[3],
               "XX": np.kron(_PAULIS[1], _PAULIS[1])}


def parse_circuit(text: str) -> tuple[int, list]:
    """(Q, [(kind, qubits, angle)]) from the text ``parasim compile`` writes:
    a ``qubits Q`` header, then ``X q``, ``XX q1 q2 chi`` or ``R? q theta``."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines or lines[0][0] != "qubits":
        raise ValueError("circuit text has no 'qubits Q' header")
    gates = []
    for kind, *args in lines[1:]:
        if kind == "X":
            gates.append((kind, (int(args[0]),), 0.0))
        elif kind == "XX":
            gates.append((kind, (int(args[0]), int(args[1])), float(args[2])))
        elif kind in _GENERATORS:
            gates.append((kind, (int(args[0]),), float(args[1])))
        else:
            raise ValueError(f"unknown gate {kind!r}")
    return int(lines[0][1]), gates


def _gate_matrix(kind: str, angle: float) -> np.ndarray:
    """X, or exp(-i angle G / 2) = cos(angle / 2) - i sin(angle / 2) G for
    the gate's Pauli generator G (G^2 = 1)."""
    if kind == "X":
        return _PAULIS[1]
    gen = _GENERATORS[kind]
    return math.cos(angle / 2) * np.eye(len(gen)) - 1j * math.sin(angle / 2) * gen


def _conjugate(rho: np.ndarray, op: np.ndarray, qubits, q: int) -> np.ndarray:
    """op rho op^dagger for op acting on `qubits`; rho has 2 Q axes of size 2,
    the row index of qubit i on axis i and its column index on axis Q + i."""
    k = len(qubits)
    tensor = op.reshape((2,) * 2 * k)
    for axes, factor in ((list(qubits), tensor), ([q + i for i in qubits], tensor.conj())):
        rho = np.tensordot(factor, rho, axes=(list(range(k, 2 * k)), axes))
        rho = np.moveaxis(rho, list(range(k)), axes)
    return rho


def _pauli_channel(rho: np.ndarray, prob: float, qubits, q: int) -> np.ndarray:
    """With probability `prob`, a uniformly drawn non-identity Pauli on the
    k = len(qubits) qubits.  The sum of P rho P over all 4^k Paulis P is
    2^k I (x) Tr_qubits(rho), so the non-identity ones sum to that minus rho."""
    k = len(qubits)
    axes = list(qubits) + [q + i for i in qubits]
    moved = np.moveaxis(rho, axes, list(range(2 * k)))
    block = moved.reshape(2 ** k, 2 ** k, -1)
    everything = 2 ** k * np.eye(2 ** k)[:, :, None] * np.einsum("iir->r", block)
    kicked = (everything - block) / (4 ** k - 1)
    mixed = ((1.0 - prob) * block + prob * kicked).reshape(moved.shape)
    return np.moveaxis(mixed, list(range(2 * k)), axes)


@lru_cache(maxsize=64)
def exact_raw_mean(circuit_text: str, noise: tuple) -> float:
    """Expectation of the raw shot estimate sum_m m [bit m reads 1] for the
    circuit under `noise` ((key, value) pairs of the noise file): the
    register starts in |10..0> with each qubit flipped with p_prep_flip,
    every gate is followed by its Pauli channel (p_depol_1q or p_depol_2q),
    and each bit reads flipped with eps01 (0 -> 1) or eps10 (1 -> 0)."""
    rates = dict(noise)
    q, gates = parse_circuit(circuit_text)
    flip = rates["p_prep_flip"]
    rho = np.ones(1)
    for bit in range(q):
        p_one = 1.0 - flip if bit == 0 else flip
        rho = np.kron(rho, [1.0 - p_one, p_one])
    rho = np.diag(rho).astype(complex).reshape((2,) * 2 * q)
    for kind, qubits, angle in gates:
        rho = _conjugate(rho, _gate_matrix(kind, angle), qubits, q)
        prob = rates["p_depol_1q" if len(qubits) == 1 else "p_depol_2q"]
        if prob:
            rho = _pauli_channel(rho, prob, qubits, q)
    probs = np.real(np.diagonal(rho.reshape(2 ** q, 2 ** q))).reshape((2,) * q)
    p_one = np.array([probs.sum(axis=tuple(a for a in range(q) if a != m))[1]
                      for m in range(q)])
    p_read = p_one * (1.0 - rates["eps10"]) + (1.0 - p_one) * rates["eps01"]
    return float(np.arange(q) @ p_read)


def check_noisy_row(row: dict, num_qubits: int, raw_mean: float | None = None) -> list[str]:
    """Finite values and a retained fraction in (0, 1]; a raw ⟨N⟩ within
    SIGMAS stderr of its exact expectation `raw_mean` (exact_raw_mean); a
    post-selected ⟨N⟩ in [0, Q-1], the levels the register encodes.

    Raw shots that leave the one-hot subspace add the index of every set
    bit, so a raw ⟨N⟩ is bounded by Q(Q-1)/2, not Q-1, and under heavy gate
    noise it tends to Q(Q-1)/4; it is checked against its expectation
    instead of a range.  SPAM-corrected rows are quasi-distributions and
    get no range check.
    """
    errors = []
    for key in ("mean_n", "mean_n2", "mandel_q", "stderr", "retained_fraction"):
        value = _float(row, key)
        if value is not None and not math.isfinite(value):
            errors.append(f"{_where(row)}: {key} is {value}")
    mean = _float(row, "mean_n")
    if row["source"] == "shots_raw":
        stderr = _float(row, "stderr")
        if raw_mean is None:
            errors.append(f"{_where(row)}: no exact raw <N> to compare with")
        elif not (mean is not None and stderr is not None
                  and abs(mean - raw_mean) <= SIGMAS * stderr + 1e-12):
            errors.append(f"{_where(row)}: raw <N> {mean!r} is more than {SIGMAS:g} "
                          f"stderr ({stderr!r}) from the exact noisy {raw_mean!r}")
    if row["source"] == "shots_postselected" and not (
            mean is not None and 0.0 <= mean <= num_qubits - 1):
        errors.append(f"{_where(row)}: <N> {mean} outside [0, {num_qubits - 1}]")
    kept = _float(row, "retained_fraction")
    if not (kept is not None and 0.0 < kept <= 1.0):
        errors.append(f"{_where(row)}: retained fraction {kept} outside (0, 1]")
    return errors


def _index(rows: list[dict], xs, sources) -> tuple[dict, list[str]]:
    """Rows keyed by (x position, source), plus errors for missing or extra rows."""
    found, errors = {}, []
    for row in rows:
        x = float(row["x"])
        match = [i for i, want in enumerate(xs) if abs(x - want) <= 1e-12 * max(1.0, abs(want))]
        if not match or row["source"] not in sources:
            errors.append(f"unexpected row {_where(row)}")
            continue
        found[(match[0], row["source"])] = row
    for i, x in enumerate(xs):
        for source in sources:
            if (i, source) not in found:
                errors.append(f"missing row x={x!r} source={source}")
    return found, errors


def check_evolution(text: str, p: int, xs) -> list[str]:
    """pf-evolution without noise: exact rows to 1e-10, ideal shot means
    within SIGMAS stderr of the exact value."""
    found, errors = _index(read_rows(text), xs, ("exact", "shots_raw"))
    for i, alpha in enumerate(xs):
        if (i, "exact") in found:
            errors += check_exact_row(found[(i, "exact")], "pf", p, 0, alpha)
        row = found.get((i, "shots_raw"))
        if row is not None:
            want = exact_moments("pf", p, 0, alpha)[0]
            got, stderr = _float(row, "mean_n"), _float(row, "stderr")
            if not abs(got - want) <= SIGMAS * stderr + 1e-12:
                errors.append(f"{_where(row)}: ideal <N> {got!r} is more than "
                              f"{SIGMAS:g} stderr ({stderr!r}) from {want!r}")
    return errors


def check_mandel(text: str, alpha: float, np_cut: int, p_values, noise: tuple,
                 circuit_of) -> list[str]:
    """pb-mandel with noise and both mitigations; circuit_of(i) is the text
    of the circuit the study ran at its i-th order."""
    sources = ("exact", "shots_raw", "shots_spam", "shots_postselected")
    found, errors = _index(read_rows(text), [float(p) for p in p_values], sources)
    for (i, source), row in found.items():
        if source == "exact":
            errors += check_exact_row(row, "pb", p_values[i], np_cut, alpha)
        else:
            raw_mean = exact_raw_mean(circuit_of(i), noise) if source == "shots_raw" else None
            errors += check_noisy_row(row, np_cut + 1, raw_mean)
    return errors


def check_cutoff(text: str, alpha: float, p_values, np_values) -> list[str]:
    """Cutoff study: every (p, np) value, the reference column included."""
    np_ref = max(np_values) + 6
    labels = {f"np{n}": n for n in np_values}
    labels[f"np{np_ref}_ref"] = np_ref
    found, errors = _index(read_rows(text), [float(p) for p in p_values], tuple(labels))
    for (i, source), row in found.items():
        errors += check_exact_row(row, "pb", p_values[i], labels[source], alpha)
    return errors


def check_simulate(text: str, p: int, np_cut: int, alpha: float, noise: tuple,
                   circuit) -> list[str]:
    """simulate with noise and both mitigations: one point at x = alpha;
    circuit() is the text of the circuit it ran."""
    sources = ("exact", "shots_raw", "shots_spam", "shots_postselected")
    found, errors = _index(read_rows(text), [alpha], sources)
    for (_, source), row in found.items():
        if source == "exact":
            errors += check_exact_row(row, "pb", p, np_cut, alpha)
        else:
            raw_mean = exact_raw_mean(circuit(), noise) if source == "shots_raw" else None
            errors += check_noisy_row(row, np_cut + 1, raw_mean)
    return errors
