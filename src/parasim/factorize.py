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
2^(Q+1) (1 - prod_j cos(phi_j / 2) cos(Phi / 2)) with Phi = sum_j phi_j.
t^T u is a real rotation: its phases are conjugate pairs, which cancel in
Phi, and half turns, where the product is 0, so the bracket is -expm1(L),
L = sum_j log1p(-2 sin^2(phi_j / 4)).  2^(Q+1) - 2 Re det(I + t^T u), the
same value, cancels to nothing below about 1e-7.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .algebra import ParaSpec, gauge, restricted_target
from .mapping import GeneratorBasis, generator_family, onehot_block
from .textfile import keyed, read_file


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
    return _factor_gauged(gauge(target), basis, tol)[0]


def _factor_gauged(gauged: np.ndarray, basis: GeneratorBasis,
                   tol: float) -> tuple[GammaVector, np.ndarray]:
    """factor_onehot of a gauged target, with the Givens product of the
    returned gammas that its residual reads."""
    planes = _planes(basis)
    rest = gauged.real.copy()
    gammas = np.empty(len(planes))
    for j in reversed(range(len(planes))):
        a, r, s = planes[j]
        theta = np.arctan2(-rest[r, a], rest[r, r])
        _rotate_columns(rest, a, r, -theta)
        gammas[j] = -theta / s
    # theta in [-pi, pi] puts gamma in [-pi/2, pi/2]; + 0.0 turns -0.0 into 0.0
    gammas = np.where(gammas <= -np.pi / 2, gammas + np.pi, gammas) + 0.0
    product = _givens_product(gammas, basis)
    residual = float(np.linalg.norm(product - gauged))
    if residual > tol:
        raise FactorizationError(
            f"factorization residual {residual:.3e} exceeds tol {tol:.1e}")
    return GammaVector(gammas=tuple(float(g) for g in gammas), residual=residual,
                       converged=True, labels=basis.labels), product


def full_space_residual(gammas, basis: GeneratorBasis, spec: ParaSpec,
                        alpha: float) -> float:
    """Frobenius mismatch of the product against the full-register
    exponential of the XY target; reported for transparency, not enforced.
    Its square is the product form of the module docstring."""
    if len(gammas) != len(basis):
        raise ValueError("gamma count does not match the basis")
    return _full_residual(gauge(restricted_target(spec, alpha)).real,
                          _givens_product(gammas, basis))


def _full_residual(target: np.ndarray, product: np.ndarray) -> float:
    """full_space_residual from the gauged one-hot blocks of the target and
    of the product, both in SO(Q)."""
    phases = np.angle(np.linalg.eigvals(target.T @ product))
    with np.errstate(divide="ignore"):  # a half turn phi_j = pi may give log1p(-1)
        log_prod = np.sum(np.log1p(-2 * np.sin(phases / 4) ** 2))
    # 0.0 - x, not -x, so that an exact product, L = 0, reads 0 and not -0
    return float(np.sqrt(2.0 ** (len(phases) + 1) * (0.0 - np.expm1(log_prod))))


def solve_displacement(spec: ParaSpec, alpha: float, tol: float = 1e-9) -> GammaVector:
    """Factor exp(i alpha (a + adag)) for the given spec in closed form, with
    the full-register residual attached, both residuals read from one
    target and one Givens product.  ValueError, naming alpha, if
    restricted_target rejects it; FactorizationError if the one-hot
    residual exceeds tol."""
    gauged = gauge(restricted_target(spec, alpha))
    gv, product = _factor_gauged(gauged, generator_family(spec.num_qubits), tol)
    return replace(gv, residual_full=_full_residual(gauged.real, product))


def gamma_document_text(gv: GammaVector, spec: ParaSpec, alpha: float) -> str:
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
    return "\n".join(lines) + "\n"


def _parse_bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(text)
    return text == "true"


def read_gamma_document(path):
    """Inverse of gamma_document_text; returns (GammaVector, ParaSpec, alpha).
    A repeated, missing or unparsable key, a non-finite gamma, labels other
    than the register's generator labels, or any value ParaSpec or
    GammaVector rejects raise ValueError naming the document."""
    return read_file(path, "gamma document", _parse_gamma_document)


def _parse_gamma_document(lines):
    fields = keyed(ln for ln in lines if ln[0] != "#")

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
    q = spec.num_qubits
    if gv.labels != generator_family(q).labels:
        raise ValueError(f"labels {fields['labels']!r} are not the {q}-qubit generator labels")
    return gv, spec, field("alpha", float)
