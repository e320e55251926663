"""Displacement factorization tests: target coefficients, the closed-form
Givens solve on every register width and product unitaries, all checked
against dense matrix-exponential oracles built in the tests."""
import re
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.linalg import expm

from parasim.algebra import ParaSpec, build_fock_ops, displaced_vacuum_exact
from parasim.factorize import (
    FactorizationError,
    GammaVector,
    factor_onehot,
    full_space_residual,
    product_unitary,
    read_gamma_document,
    restricted_generators,
    restricted_target,
    solve_displacement,
    write_gamma_document,
)
from parasim.mapping import (
    build_xy_hamiltonian,
    generator_family,
    onehot_index,
    pauli_sum_to_matrix,
    restrict_to_onehot,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def dense_generators(basis):
    return [restrict_to_onehot(pauli_sum_to_matrix(g), basis.num_qubits)
            for g in basis.generators]


def bond_target(coefs):
    """Oracle exp(i sum_m c(m)/2 (XX + YY)_m) on the one-hot block, for any
    bond coefficients; the u generators are the (XX + YY)_m bonds."""
    basis = generator_family(len(coefs) + 1)
    gens = dict(zip(basis.labels, dense_generators(basis)))
    return expm(1j * sum(c / 2 * gens[f"u{m}"] for m, c in enumerate(coefs)))


def assert_factors(target, tol=1e-10):
    basis = generator_family(len(target))
    gv = factor_onehot(target, basis)
    assert np.linalg.norm(product_unitary(gv, basis) - target) <= tol
    assert gv.residual <= tol and gv.converged
    assert all(-np.pi / 2 < g <= np.pi / 2 for g in gv.gammas)
    return gv


def target_coefficients(spec, alpha):
    """Per-bond weights c(m) of the displacement target: twice the XX
    coefficient of bond m in build_xy_hamiltonian(spec, alpha)."""
    return [2 * term.coeff for term in build_xy_hamiltonian(spec, alpha).terms[::2]]


class TestTargetCoefficients:
    def test_pf2(self):
        coefs = target_coefficients(ParaSpec("pf", 2), 0.5)
        assert coefs == pytest.approx([0.5 * np.sqrt(2), 0.5 * np.sqrt(2)])

    def test_pb3(self):
        coefs = target_coefficients(ParaSpec("pb", 3, np=2), 1.0)
        assert coefs == pytest.approx([np.sqrt(3), np.sqrt(2)])

    def test_zero_alpha(self):
        assert target_coefficients(ParaSpec("pb", 5, np=4), 0.0) == [0.0] * 4


class TestThreeQubitAnalytic:
    """exp(i(a u0 + b u1)), bond coefficients (2a, 2b), through the Givens
    peel, which is the Euler-angle solve on three qubits."""

    def test_single_generator_targets(self):
        for theta in (0.4, -1.2):
            gv = assert_factors(bond_target([2 * theta, 0.0]))
            assert gv.gammas == pytest.approx((theta, 0.0, 0.0), abs=1e-12)
            gv = assert_factors(bond_target([0.0, 2 * theta]))
            if abs(theta) < np.pi / 4:
                assert gv.gammas == pytest.approx((0.0, theta, 0.0), abs=1e-12)
            # beyond pi/4 the u1 rotation turns entry (2, 2) negative, and the
            # peel, which keeps it >= 0, takes an equivalent branch through v0

    def test_generic_target_against_expm_oracle(self):
        gv = assert_factors(bond_target([0.6, 1.4]))
        gens = dense_generators(generator_family(3))
        oracle = expm(1j * gv.gammas[0] * gens[0]) @ expm(1j * gv.gammas[1] * gens[1]) \
            @ expm(1j * gv.gammas[2] * gens[2])
        assert np.linalg.norm(oracle - bond_target([0.6, 1.4])) <= 1e-10

    @pytest.mark.parametrize("a,b", [
        (0.0, 0.0), (np.pi, 0.0), (np.pi / 2, np.pi / 2),
        (2.2, -3.9), (-1.7, 0.4), (5.0, 5.0),
    ])
    def test_hard_targets_still_exact(self, a, b):
        assert_factors(bond_target([2 * a, 2 * b]))

    def test_random_targets_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            a, b = rng.uniform(-6, 6, size=2)
            assert_factors(bond_target([2 * a, 2 * b]))

    def test_su2_relations_validate_the_surrogate(self):
        # [u0,u1]=2i v0, [u1,v0]=2i u0, [v0,u0]=2i u1: the three-qubit family
        # closes like the Pauli matrices, so its product is an Euler-angle
        # decomposition
        basis = generator_family(3)
        u0, u1, v0 = (pauli_sum_to_matrix(g) for g in basis.generators)
        assert np.max(np.abs(u0 @ u1 - u1 @ u0 - 2j * v0)) < 1e-13
        assert np.max(np.abs(u1 @ v0 - v0 @ u1 - 2j * u0)) < 1e-13
        assert np.max(np.abs(v0 @ u0 - u0 @ v0 - 2j * u1)) < 1e-13
        assert np.max(np.abs(SX @ SY - SY @ SX - 2j * SZ)) == 0.0


class TestNumericSolver:
    """solve_displacement's contract, which the numeric solver used to hold
    for Q >= 4 and the closed form now holds for every width."""

    def test_zero_alpha_gives_zero_gammas(self):
        gv = solve_displacement(ParaSpec("pb", 3, np=3), 0.0)
        assert np.allclose(gv.gammas, 0.0, atol=1e-12)
        assert gv.residual <= 1e-12

    def test_five_qubit_convergence(self):
        gv = solve_displacement(ParaSpec("pf", 4), 0.5, tol=1e-8, seed=0)
        assert gv.converged and gv.residual <= 1e-8
        assert np.isfinite(gv.residual_full)

    def test_determinism(self):
        spec = ParaSpec("pf", 4)
        first = solve_displacement(spec, 0.7, seed=42)
        assert solve_displacement(spec, 0.7, seed=42) == first
        assert solve_displacement(spec, 0.7, seed=7).gammas == first.gammas

    @pytest.mark.parametrize("alpha", [1e9, 1e17, 1e300, -1e7])
    def test_unrepresentable_alpha_is_a_value_error_naming_it(self, alpha):
        with pytest.raises(ValueError, match=re.escape(f"alpha {alpha!r} is too large")):
            solve_displacement(ParaSpec("pb", 2, np=2), alpha)

    def test_nonconvergence_raises_with_best_residual(self):
        with pytest.raises(FactorizationError, match="exceeds tol"):
            solve_displacement(ParaSpec("pf", 4), 0.5, tol=1e-300)


SPECS = [ParaSpec("pb", 1, np=1)] + [
    spec for q in range(3, 10)
    for spec in ([ParaSpec("pf", q - 1)] if q % 2 else []) + [ParaSpec("pb", 3, np=q - 1)]
]


class TestGivensSolve:
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kind}{s.p}-q{s.dim}")
    def test_exact_on_every_width(self, spec):
        basis = generator_family(spec.num_qubits)
        ops = build_fock_ops(spec)
        for alpha in (0.0, 0.1, -0.1, 0.5, 1.0, 2.0, 5.0):
            gv = solve_displacement(spec, alpha)
            oracle = expm(1j * alpha * (ops.a + ops.adag))
            assert np.linalg.norm(product_unitary(gv, basis) - oracle) <= 1e-12
            assert gv.residual <= 1e-12
            assert all(-np.pi / 2 < g <= np.pi / 2 for g in gv.gammas)

    @pytest.mark.parametrize("q", [4, 5, 7, 9])
    def test_random_bond_coefficients(self, q):
        # zeros and |c| up to 10 on wider registers
        rng = np.random.default_rng(q)
        for _ in range(10):
            coefs = rng.uniform(-10, 10, size=q - 1)
            coefs[rng.random(q - 1) < 0.3] = 0.0
            assert_factors(bond_target(coefs))

    def test_target_outside_the_product_group_raises(self):
        target = np.diag(np.exp(1j * np.array([0.0, 0.3, -0.2, 0.1])))
        with pytest.raises(FactorizationError):
            factor_onehot(target, generator_family(4))

    @pytest.mark.parametrize("q", [3, 4, 5, 6, 7])
    def test_generators_built_directly_match_dense_restriction(self, q):
        basis = generator_family(q)
        for direct, dense in zip(restricted_generators(basis), dense_generators(basis)):
            assert np.array_equal(direct, dense)
            assert np.count_nonzero(direct) == 2

    @pytest.mark.parametrize("spec", [ParaSpec("pb", 2, np=1), ParaSpec("pf", 2),
                                      ParaSpec("pb", 3, np=3), ParaSpec("pf", 4),
                                      ParaSpec("pb", 2, np=5)])
    def test_full_residual_matches_dense_formula(self, spec):
        basis = generator_family(spec.num_qubits)
        target = expm(1j * pauli_sum_to_matrix(build_xy_hamiltonian(spec, 0.8)))
        rng = np.random.default_rng(spec.dim)
        for gammas in (rng.normal(size=len(basis)), solve_displacement(spec, 0.8).gammas):
            dense = np.linalg.norm(product_unitary(gammas, basis, space="full") - target)
            assert full_space_residual(gammas, basis, spec, 0.8) == pytest.approx(dense, abs=1e-10)


@lru_cache(maxsize=None)
def sparse_generators(q):
    """(G, G^2) per generator of the width-q family, as sparse matrices."""
    mats = [sparse.csr_matrix(pauli_sum_to_matrix(g)) for g in generator_family(q).generators]
    return tuple((m, m @ m) for m in mats)


def full_product(gammas, basis):
    """prod_j exp(i gamma_j G_j) on the full register.  Every G_j has
    eigenvalues in {-2, 0, 2}, so exp(i g G) = 1 + i sin(2g)/2 G +
    (cos(2g) - 1)/4 G^2, a sparse factor built here from the dense Pauli
    matrices, independently of product_unitary's word-by-word action."""
    dim = 2 ** basis.num_qubits
    one = sparse.identity(dim, format="csr")
    out = np.eye(dim, dtype=complex)
    for g, (m, m2) in zip(gammas, sparse_generators(basis.num_qubits)):
        out = np.asarray(out @ (one + 1j * np.sin(2 * g) / 2 * m + (np.cos(2 * g) - 1) / 4 * m2))
    return out


ORACLE_SPECS = [
    spec for q in range(3, 10)
    for spec in ([ParaSpec("pf", q - 1)] if q % 2 else []) + [ParaSpec("pb", 2, np=q - 1)]
]


class TestFullSpaceResidual:
    """The closed-form residual (a sum over the subsets of the eigenphases
    of t^T u) against its dense definition, the Frobenius norm of the
    full-register product minus scipy's expm of the 2^Q x 2^Q XY matrix."""

    @pytest.mark.parametrize("q", [3, 4, 5, 6, 7, 8, 9])
    def test_oracle_product_is_product_unitary(self, q):
        basis = generator_family(q)
        gammas = np.random.default_rng(q).uniform(-np.pi, np.pi, len(basis))
        dense = product_unitary(gammas, basis, space="full")
        assert np.max(np.abs(full_product(gammas, basis) - dense)) <= 1e-12

    @pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: f"{s.kind}{s.p}-q{s.dim}")
    @pytest.mark.filterwarnings("error")
    def test_matches_the_dense_definition(self, spec):
        basis = generator_family(spec.num_qubits)
        rng = np.random.default_rng(spec.dim)
        uniform = rng.uniform(-np.pi / 2, np.pi / 2, len(basis))
        uniform_product = full_product(uniform, basis)
        # turns one plane by pi: at alpha = 0 an eigenphase pi, whose cos(phi / 2) is 0
        half_turn = np.pi / 2 * (np.arange(len(basis)) == 0)
        half_turn_product = full_product(half_turn, basis)
        largest = 0.0
        for alpha in (0.0, 0.3, 0.8, 2.0, -1.1):
            target = expm(1j * pauli_sum_to_matrix(build_xy_hamiltonian(spec, alpha)))
            solved = np.array(solve_displacement(spec, alpha).gammas)
            noisy = solved + 1e-6 * rng.standard_normal(len(basis))
            for gammas, product in ((solved, full_product(solved, basis)),
                                    (noisy, full_product(noisy, basis)),
                                    (uniform, uniform_product),
                                    (half_turn, half_turn_product)):
                dense = float(np.linalg.norm(product - target))
                closed = full_space_residual(tuple(gammas), basis, spec, alpha)
                assert closed == pytest.approx(dense, rel=0, abs=1e-12)
                largest = max(largest, dense)
        assert largest > 1.0  # the uniform gammas are far from the target

    def test_gamma_count_must_match_the_basis(self):
        spec = ParaSpec("pf", 2)
        basis = generator_family(3)
        for gammas in ([0.1], [0.1] * 7):
            with pytest.raises(ValueError, match="gamma count"):
                full_space_residual(gammas, basis, spec, 0.5)

    @pytest.mark.parametrize("q,peak_mib,bound", [(12, 8, 1e-12), (24, 16, 1e-11)])
    def test_twelve_qubits_build_no_register_matrix(self, q, peak_mib, bound):
        # one 2^12 x 2^12 complex matrix alone is 256 MiB, and the 2^24
        # subset sums of the eigenphases at Q = 24 are 128 MiB
        tracemalloc.start()
        try:
            gv = solve_displacement(ParaSpec("pb", 2, np=q - 1), 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < peak_mib * 2 ** 20
        assert gv.residual_full <= bound


class TestProductUnitary:
    def test_zero_gammas_identity(self):
        basis = generator_family(4)
        prod = product_unitary([0.0] * len(basis), basis, space="onehot")
        assert np.allclose(prod, np.eye(4))
        prod = product_unitary([0.0] * len(basis), basis, space="full")
        assert np.allclose(prod, np.eye(16))

    def test_analytic_gammas_reproduce_restricted_target(self):
        spec = ParaSpec("pb", 2, np=2)
        basis = generator_family(3)
        gv = solve_displacement(spec, 0.6)
        block = product_unitary(gv, basis, space="onehot")
        assert np.linalg.norm(block - restricted_target(spec, 0.6)) <= 1e-10

    def test_full_space_product_displaces_the_vacuum(self):
        spec = ParaSpec("pf", 2)
        basis = generator_family(3)
        gv = solve_displacement(spec, 0.9)
        full = product_unitary(gv, basis, space="full")
        state = np.zeros(8, dtype=complex)
        state[onehot_index(0, 3)] = 1.0
        out = full @ state
        psi = displaced_vacuum_exact(spec, 0.9)
        embedded = np.zeros(8, dtype=complex)
        for n in range(3):
            embedded[onehot_index(n, 3)] = psi[n]
        assert np.max(np.abs(out - embedded)) <= 1e-10

    @pytest.mark.parametrize("spec,alphas", [
        (ParaSpec("pf", 2), (0.1, 0.3, 0.5, 1.0, 2.0)),
        (ParaSpec("pb", 4, np=2), (0.1, 0.3, 0.5, 1.0, 2.0)),
    ])
    def test_exactness_does_not_degrade_with_alpha(self, spec, alphas):
        # no Trotter-style error growth: residual stays at solver tolerance
        residuals = []
        for alpha in alphas:
            gv = solve_displacement(spec, alpha)
            block = product_unitary(gv, generator_family(spec.num_qubits), "onehot")
            residuals.append(np.linalg.norm(block - restricted_target(spec, alpha)))
        assert max(residuals) <= 1e-8

    @pytest.mark.parametrize("q", [3, 4, 5])
    def test_unitarity(self, q):
        basis = generator_family(q)
        rng = np.random.default_rng(1)
        gam = rng.normal(size=len(basis))
        for space, dim in (("onehot", q), ("full", 2 ** q)):
            prod = product_unitary(gam, basis, space=space)
            assert np.max(np.abs(prod @ prod.conj().T - np.eye(dim))) < 1e-12

    def test_length_mismatch_rejected(self):
        basis = generator_family(3)
        with pytest.raises(ValueError):
            product_unitary([0.1], basis)


class TestGammaDocument:
    def test_round_trip(self, tmp_path):
        from parasim.factorize import write_gamma_document
        spec = ParaSpec("pf", 4)
        gv = solve_displacement(spec, 0.5, seed=0)
        path = tmp_path / "gammas.txt"
        write_gamma_document(path, gv, spec, 0.5)
        loaded, spec2, alpha2 = read_gamma_document(path)
        assert spec2 == spec
        assert alpha2 == 0.5
        assert loaded.gammas == gv.gammas
        assert loaded.labels == gv.labels
        assert loaded.residual == gv.residual
        text = path.read_text()
        assert "factors 20" in text

    @pytest.mark.parametrize("key", ["kind", "np", "alpha", "gammas", "converged"])
    def test_missing_key_named(self, tmp_path, key):
        from parasim.factorize import write_gamma_document
        path = tmp_path / "gammas.txt"
        write_gamma_document(path, solve_displacement(ParaSpec("pf", 2), 0.3),
                             ParaSpec("pf", 2), 0.3)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(ln for ln in lines if not ln.startswith(key + " ")))
        with pytest.raises(ValueError, match=f"missing key '{key}'"):
            read_gamma_document(path)

    def test_wide_register_with_too_few_labels_builds_no_family(self, tmp_path,
                                                                monkeypatch):
        import parasim.factorize
        path = tmp_path / "gammas.txt"
        spec = ParaSpec("pb", 2, np=2)
        write_gamma_document(path, solve_displacement(spec, 0.3), spec, 0.3)
        path.write_text(path.read_text().replace("np 2\n", "np 100000\n"))
        monkeypatch.setattr(parasim.factorize, "generator_family", None)  # not called
        with pytest.raises(ValueError, match="are not the 100001-qubit generator labels"):
            read_gamma_document(path)


_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def gamma_documents(draw):
    """(GammaVector, ParaSpec, alpha) of any width up to 7 qubits, with any
    finite gammas and alpha and any residuals the format admits."""
    spec = draw(st.one_of(
        st.builds(lambda p, n: ParaSpec("pb", p, np=n), st.integers(1, 50), st.integers(1, 6)),
        st.builds(lambda h: ParaSpec("pf", 2 * h), st.integers(1, 3))))
    labels = generator_family(spec.num_qubits).labels
    gv = GammaVector(
        gammas=tuple(draw(st.lists(_FLOATS, min_size=len(labels), max_size=len(labels)))),
        residual=draw(st.floats(min_value=0.0, allow_infinity=False)),
        converged=draw(st.booleans()),
        labels=labels,
        residual_full=draw(st.floats()),
    )
    return gv, spec, draw(_FLOATS)


class TestGammaDocumentProperties:
    @settings(max_examples=60, deadline=None)
    @given(gamma_documents())
    def test_round_trip_is_exact(self, tmp_path_factory, document):
        path = tmp_path_factory.mktemp("gammas") / "gammas.txt"
        write_gamma_document(path, *document)
        # repr keeps the sign of zero and compares NaN residuals
        assert repr(read_gamma_document(path)) == repr(document)
