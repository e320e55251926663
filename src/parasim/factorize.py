"""Factorization of the displacement propagator exp(i alpha (adag + a))
into an ordered product of single-generator exponentials, in closed form
for every register width Q >= 2.

Gauge.  The one-hot block G_j of each generator is nonzero only at (a, r)
and (r, a), a < r.  Under D = diag(i^k) it becomes
D^-1 G_j D = i s_j (E_ar - E_ra) with s_j = +-2, so exp(i gamma_j G_j) is
the plane rotation by theta_j = -s_j gamma_j in (a, r), and the target
exp(i alpha (a + adag)) becomes a real matrix in SO(Q).

Solve.  The family's order (by right qubit r, then growing span) makes the
product a generalized Euler-angle (Givens) decomposition of SO(Q)
(Hoffman, Raffenetti & Ruedenberg, J. Math. Phys. 13, 528 (1972); Reck et
al., PRL 73, 58 (1994)).  For r = Q-1 .. 1 the rotations (r-1, r), ...,
(0, r) are peeled off row r of the gauged target, rightmost factor first;
atan2 fixes each angle so that it zeroes entry (r, a) and leaves
(r, r) >= 0.  No optimizer or seed is involved.

Branch.  gamma_j = -theta_j / s_j is reported in (-pi/2, pi/2].  Every
generator has eigenvalues in {-2, 0, 2} on the full register, so gamma and
gamma + pi give the same unitary.

Full register.  Under Jordan-Wigner the generators and the XY target are
number-conserving quadratic fermion operators with no constant term (Lieb,
Schultz & Mattis, Ann. Phys. 16, 407 (1961)): on the popcount-k sector U
and T are the k-th exterior powers of their one-hot blocks, in any diagonal
gauge.  So ||U - T||_F^2 is the sum over the 2^Q subsets S of {0..Q-1} of
4 sin^2(phi_S / 2), phi_S = sum_{j in S} phi_j, with e^{i phi_j} the
eigenvalues of t^T u for the gauged blocks t, u in SO(Q).  As
sum_S e^{i phi_S} = prod_j (1 + e^{i phi_j}), that sum is, in O(Q),
2^(Q+1) (1 - prod_j cos(phi_j / 2) cos(Phi / 2)) with Phi = sum_j phi_j,
its bracket summed as two nonnegative terms: 2^(Q+1) - 2 Re det(I + t^T u),
the same value, cancels to nothing below about 1e-7.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from .algebra import ParaSpec, gauge, restricted_target
from .mapping import (MAX_DENSE_QUBITS, GeneratorBasis, apply_pauli, generator_family,
                      onehot_block)


class FactorizationError(RuntimeError):
    """Raised when a factorization misses the requested one-hot residual."""


@dataclass(frozen=True)
class GammaVector:
    """Solved product angles plus the achieved residuals."""

    gammas: tuple[float, ...]
    residual: float
    converged: bool
    labels: tuple[str, ...]
    residual_full: float = float("nan")

    def __post_init__(self):
        if len(self.gammas) != len(self.labels):
            raise ValueError("one gamma per product factor required")
        if self.residual < 0:
            raise ValueError("residual must be nonnegative")


def restricted_generators(basis: GeneratorBasis) -> list[np.ndarray]:
    return [onehot_block(g) for g in basis.generators]


@lru_cache(maxsize=None)
def _planes(basis: GeneratorBasis) -> tuple[tuple[int, int, float], ...]:
    """(a, r, s) per generator: the upper nonzero (a, r) of its one-hot block
    and the sign s of its gauged block i s (E_ar - E_ra)."""
    planes = []
    for block in restricted_generators(basis):
        (a, r), = np.argwhere(np.triu(block))
        planes.append((int(a), int(r), float(gauge(block)[a, r].imag)))
    return tuple(planes)


def _rotate_columns(m: np.ndarray, a: int, r: int, theta: float) -> None:
    """m <- m R(theta) in place, R = exp(theta (E_ar - E_ra))."""
    c, s = np.cos(theta), np.sin(theta)
    m[:, [a, r]] = m[:, [a, r]] @ np.array([[c, s], [-s, c]])


def _givens_product(gammas, basis: GeneratorBasis) -> np.ndarray:
    """The gauged one-hot block of prod_j exp(i gamma_j G_j), in SO(Q)."""
    product = np.eye(basis.num_qubits)
    for gamma, (a, r, s) in zip(gammas, _planes(basis)):
        _rotate_columns(product, a, r, -s * gamma)
    return product


def factor_onehot(target: np.ndarray, basis: GeneratorBasis,
                  tol: float = 1e-9) -> GammaVector:
    """Gammas with prod_j exp(i gamma_j G_j) = target on the one-hot block,
    for any target whose gauged form lies in SO(Q) (see the module
    docstring).  The residual is that of the product of the Givens factors
    the returned gammas define; FactorizationError if it exceeds tol."""
    planes = _planes(basis)
    gauged = gauge(target)
    rest = gauged.real.copy()
    gammas = np.empty(len(planes))
    for j in reversed(range(len(planes))):
        a, r, s = planes[j]
        theta = np.arctan2(-rest[r, a], rest[r, r])
        _rotate_columns(rest, a, r, -theta)
        gammas[j] = -theta / s
    # theta in [-pi, pi] puts gamma in [-pi/2, pi/2]; + 0.0 turns -0.0 into 0.0
    gammas = np.where(gammas <= -np.pi / 2, gammas + np.pi, gammas) + 0.0
    residual = float(np.linalg.norm(_givens_product(gammas, basis) - gauged))
    if residual > tol:
        raise FactorizationError(
            f"factorization residual {residual:.3e} exceeds tol {tol:.1e}")
    return GammaVector(gammas=tuple(float(g) for g in gammas), residual=residual,
                       converged=True, labels=basis.labels)


def product_unitary(gammas, basis: GeneratorBasis, space: str = "onehot") -> np.ndarray:
    """Ordered product prod_j exp(i gamma_j G_j) on the one-hot block or the
    full register (leftmost factor applied last), the reference the Givens
    solve is checked against.  G_j has eigenvalues {-2, 0, 2} on both, so a
    factor is 1 + i sin(2 gamma)/2 G + (cos(2 gamma) - 1)/4 G^2; on the full
    register G acts on the partial product word by word (apply_pauli)."""
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
        if q > MAX_DENSE_QUBITS:
            raise ValueError(f"refusing dense matrix for {q} > {MAX_DENSE_QUBITS} qubits")
        actions = [lambda m, h=h: sum(apply_pauli(m, t.letters, scale=t.coeff) for t in h.terms)
                   for h in basis.generators]
        out = np.eye(2 ** q, dtype=complex)
    for g, act in zip(gam[::-1], actions[::-1]):
        once = act(out)
        out = out + 1j * np.sin(2 * g) / 2 * once + (np.cos(2 * g) - 1) / 4 * act(once)
    return out


def full_space_residual(gammas, basis: GeneratorBasis, spec: ParaSpec,
                        alpha: float) -> float:
    """Frobenius mismatch of the product against the full-register
    exponential of the XY target; reported for transparency, not enforced.
    Its square is the product form of the module docstring, the bracket
    -expm1(L) + e^L 2 sin^2(Phi / 4), L = sum_j log1p(-2 sin^2(phi_j / 4))."""
    if len(gammas) != len(basis):
        raise ValueError("gamma count does not match the basis")
    target = gauge(restricted_target(spec, alpha)).real
    phases = np.angle(np.linalg.eigvals(target.T @ _givens_product(gammas, basis)))
    with np.errstate(divide="ignore"):  # a half turn phi_j = pi may give log1p(-1)
        log_prod = np.sum(np.log1p(-2 * np.sin(phases / 4) ** 2))
    bracket = -np.expm1(log_prod) + np.exp(log_prod) * 2 * np.sin(np.sum(phases) / 4) ** 2
    return float(np.sqrt(2.0 ** (len(phases) + 1) * bracket))


def solve_displacement(spec: ParaSpec, alpha: float, tol: float = 1e-9,
                       seed: int = 0) -> GammaVector:
    """Factor exp(i alpha (a + adag)) for the given spec in closed form, with
    the full-register residual attached.  The solve is deterministic: seed
    is accepted for the callers that pass one and does not change the
    result.  ValueError, naming alpha, if restricted_target rejects it;
    FactorizationError if the one-hot residual exceeds tol."""
    basis = generator_family(spec.num_qubits)
    gv = factor_onehot(restricted_target(spec, alpha), basis, tol)
    return replace(gv, residual_full=full_space_residual(gv.gammas, basis, spec, alpha))


def write_gamma_document(path, gv: GammaVector, spec: ParaSpec, alpha: float) -> None:
    """Structured-text dump of a factorization (lossless float round-trip)."""
    lines = [
        "# parasim displacement factorization",
        f"kind {spec.kind}",
        f"p {spec.p}",
        f"np {spec.np}",
        f"alpha {alpha:.17g}",
        f"labels {' '.join(gv.labels)}",
        f"gammas {' '.join(f'{g:.17g}' for g in gv.gammas)}",
        f"factors {2 * len(gv.labels)}",
        f"residual_onehot {gv.residual:.17g}",
        f"residual_full {gv.residual_full:.17g}",
        f"converged {str(gv.converged).lower()}",
    ]
    Path(path).write_text("\n".join(lines) + "\n")


def _parse_bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(text)
    return text == "true"


def read_gamma_document(path):
    """Inverse of write_gamma_document; returns (GammaVector, ParaSpec, alpha).
    A repeated, missing or unparsable key, a non-finite gamma, labels other
    than the register's generator labels, or any value ParaSpec or
    GammaVector rejects raise ValueError naming the document."""
    try:
        return _parse_gamma_document(Path(path).read_text())
    except ValueError as exc:
        raise ValueError(f"gamma document {path}: {exc}") from None


def _parse_gamma_document(text: str):
    fields = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition(" ")
        if key in fields:
            raise ValueError(f"key {key!r} given twice")
        fields[key] = value

    def field(key, parse):
        if key not in fields:
            raise ValueError(f"missing key {key!r}")
        try:
            return parse(fields[key])
        except ValueError:
            raise ValueError(f"cannot parse {key} {fields[key]!r}") from None

    def floats(text):
        return tuple(float(x) for x in text.split())

    spec = ParaSpec(kind=field("kind", str), p=field("p", int), np=field("np", int))
    gv = GammaVector(
        gammas=field("gammas", floats),
        residual=field("residual_onehot", float),
        converged=field("converged", _parse_bool),
        labels=field("labels", lambda text: tuple(text.split())),
        residual_full=field("residual_full", float),
    )
    if not np.all(np.isfinite(gv.gammas)):
        raise ValueError(f"gammas must be finite, not {fields['gammas']!r}")
    q = spec.num_qubits  # count first: a wrong wide document builds no family
    if len(gv.labels) != q * (q - 1) // 2 or gv.labels != generator_family(q).labels:
        raise ValueError(f"labels {fields['labels']!r} are not the {q}-qubit generator labels")
    return gv, spec, field("alpha", float)
