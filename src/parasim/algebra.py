"""Exact finite-dimensional representations of para-particle ladder algebras.

Para-fermions of even order p live on p+1 levels and close their
commutation relation exactly.  Para-bosons of any order p >= 1 are
truncated to levels 0..N_p, which deforms the commutator by a boundary
term with coefficient beta; both identities are verified numerically
by `verify_truncation_identity`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PARA_FERMI = "pf"
PARA_BOSE = "pb"


@dataclass(frozen=True)
class ParaSpec:
    """Para-particle family, order p and cutoff; fixes the ladder dimension.

    kind: "pf" (para-fermion, p even, dimension p+1) or "pb" (para-boson,
    truncated to levels 0..np, dimension np+1).  One qubit is used per
    level, so num_qubits == dim.
    """

    kind: str
    p: int
    np: int = 0

    def __post_init__(self):
        if self.kind not in (PARA_FERMI, PARA_BOSE):
            raise ValueError(f"unknown para-particle kind {self.kind!r}")
        if self.kind == PARA_FERMI:
            if self.p < 2 or self.p % 2 != 0:
                raise ValueError("para-fermions require even order p >= 2")
            half = self.p // 2
            if self.np == 0:
                object.__setattr__(self, "np", half)
            elif self.np != half:
                raise ValueError(f"para-fermion cutoff must be p/2 = {half}")
        else:
            if self.p < 1:
                raise ValueError("para-bosons require order p >= 1")
            if self.np < 1:
                raise ValueError("para-boson cutoff np must be >= 1")

    @property
    def dim(self) -> int:
        return self.p + 1 if self.kind == PARA_FERMI else self.np + 1

    @property
    def num_qubits(self) -> int:
        return self.dim


@dataclass(frozen=True)
class FockOperatorSet:
    """Dense annihilation/creation/number/parity matrices for one ParaSpec."""

    a: np.ndarray
    adag: np.ndarray
    num: np.ndarray
    parity: np.ndarray


@dataclass(frozen=True)
class TruncationReport:
    beta: float
    residual_norm: float
    passes: bool


def double_factorial(x: int) -> float:
    """x!! with the conventions (-1)!! = 0!! = 1."""
    if x <= 0:
        return 1.0
    r = 1.0
    while x > 0:
        r *= x
        x -= 2
    return r


def ladder_amplitude(spec: ParaSpec, n: int) -> float:
    """Coupling into level n: adag|n-1> = ladder_amplitude(spec, n)|n>.

    Para-bosons: zeta(p, n-1) = sqrt(2k+p) below even levels and
    sqrt(2k+2) below odd ones.  Para-fermions: phi(p, n), fixed by
    phi(p,0) = 0 and the diagonal of the defining commutator,
    phi(p,n)^2 - phi(p,n-1)^2 = (p - 2(n-1)) (-1)^(n-1).
    """
    if not 1 <= n <= spec.dim - 1:
        raise ValueError(f"level index n={n} outside 1..{spec.dim - 1}")
    if spec.kind == PARA_FERMI:
        amp_sq = (spec.p + 1) / 2 + (2 * n - spec.p - 1) * (-1) ** n / 2
        return float(np.sqrt(max(amp_sq, 0.0)))
    m = n - 1
    return float(np.sqrt(m + (1 + spec.p) / 2 - (-1) ** m * (1 - spec.p) / 2))


def build_fock_ops(spec: ParaSpec) -> FockOperatorSet:
    """Assemble a, adag, number and parity matrices on the spec's levels."""
    dim = spec.dim
    a = np.zeros((dim, dim), dtype=complex)
    for n in range(1, dim):
        a[n - 1, n] = ladder_amplitude(spec, n)
    num = np.diag(np.arange(dim)).astype(complex)
    parity = np.diag([(-1.0) ** n for n in range(dim)]).astype(complex)
    return FockOperatorSet(a=a, adag=a.conj().T, num=num, parity=parity)


def beta_constant(np_cutoff: int, p: int) -> float:
    """Coefficient of the cutoff correction term in the truncated para-Bose
    commutator; vanishes as the cutoff grows."""
    if np_cutoff < 1 or p < 1:
        raise ValueError("beta_constant requires np >= 1 and p >= 1")
    if np_cutoff % 2 == 1:
        return (np_cutoff + 1) / double_factorial(np_cutoff - 1) \
            * double_factorial(p - 2) / double_factorial(np_cutoff + p - 1)
    return (np_cutoff + p) / double_factorial(np_cutoff) \
        * double_factorial(p - 2) / double_factorial(np_cutoff + p - 2)


def verify_truncation_identity(spec: ParaSpec, tol: float = 1e-12) -> TruncationReport:
    """Check the defining commutator of the representation.

    Para-bosons: [a, adag] = 1 + (p-1) R - beta adag^np a^np on the
    truncated space.  Para-fermions: [a, adag] = 2 (p/2 - N) R with no
    correction term (the representation is naturally finite).
    """
    ops = build_fock_ops(spec)
    comm = ops.a @ ops.adag - ops.adag @ ops.a
    if spec.kind == PARA_FERMI:
        rhs = 2 * (spec.p / 2 * np.eye(spec.dim) - ops.num) @ ops.parity
        beta = 0.0
    else:
        beta = beta_constant(spec.np, spec.p)
        boundary = np.linalg.matrix_power(ops.adag, spec.np) \
            @ np.linalg.matrix_power(ops.a, spec.np)
        rhs = np.eye(spec.dim) + (spec.p - 1) * ops.parity - beta * boundary
    residual = float(np.max(np.abs(comm - rhs)))
    return TruncationReport(beta=beta, residual_norm=residual, passes=residual <= tol)


# Most the gauged target may miss SO(Q) by, in its imaginary part or in
# ||Re^T Re - I||; its phases lose precision from alpha near 1e6 on
_REPRESENTABLE = 1e-9


def gauge(block: np.ndarray) -> np.ndarray:
    """D^-1 block D with D = diag(i^k) (see factorize)."""
    d = np.array([1, 1j, -1, -1j])[np.arange(block.shape[0]) % 4]
    return d.conj()[:, None] * block * d


def restricted_target(spec: ParaSpec, alpha: float) -> np.ndarray:
    """exp(i alpha (a + adag)) as a dense dim x dim unitary, from the
    eigendecomposition of a + adag: the one-hot block a displacement
    factorization must reproduce; at alpha = 0 exactly 1, free of the eigh
    round-off that would leave entries of order 1e-17.  ValueError, naming
    alpha, if the gauged target misses SO(Q) by more than _REPRESENTABLE (a
    NaN one, from phases alpha * w that overflow, does): the one such rule."""
    if alpha == 0:
        return np.eye(spec.dim, dtype=complex)
    ops = build_fock_ops(spec)
    w, v = np.linalg.eigh(ops.a + ops.adag)
    with np.errstate(over="ignore", invalid="ignore"):
        target = (v * np.exp(1j * (alpha * w))) @ v.conj().T
        gauged = gauge(target)
        defect = np.max([np.linalg.norm(gauged.imag),
                         np.linalg.norm(gauged.real.T @ gauged.real - np.eye(spec.dim))])
    if not defect <= _REPRESENTABLE:
        raise ValueError(f"alpha {alpha!r} is too large: its gauged target misses a "
                         f"real rotation by more than {_REPRESENTABLE:.0e}")
    return target


def displaced_vacuum_exact(spec: ParaSpec, alpha: float) -> np.ndarray:
    """Apply exp(i alpha (a + adag)) to the vacuum level; the dense reference
    against which every circuit-based result is checked."""
    vac = np.zeros(spec.dim, dtype=complex)
    vac[0] = 1.0
    psi = restricted_target(spec, alpha) @ vac
    norm = np.linalg.norm(psi)
    assert abs(norm - 1.0) < 1e-12, "displaced vacuum lost normalization"
    return psi
