"""Ladder algebra tests: amplitudes, commutators, truncation constant and
the dense displacement oracle."""
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from parasim import algebra
from parasim.algebra import (
    MAX_LEVEL,
    ParaSpec,
    beta_constant,
    build_fock_ops,
    displaced_vacuum_exact,
    ladder_amplitude,
    verify_truncation_identity,
)


def pf_amplitude_oracle(p, n):
    """Independent recurrence oracle: phi(p,0)=0 and
    phi^2(p,k) - phi^2(p,k-1) = (p - 2(k-1)) (-1)^(k-1)."""
    total = 0.0
    for k in range(n):
        total += (p - 2 * k) * (-1) ** k
    return np.sqrt(total)


class TestParaSpec:
    def test_pf_dimension_is_p_plus_one(self):
        spec = ParaSpec("pf", 4)
        assert spec.dim == 5 and spec.np == 2 and spec.num_qubits == 5

    def test_pb_dimension_is_cutoff_plus_one(self):
        spec = ParaSpec("pb", 3, np=2)
        assert spec.dim == 3 and spec.num_qubits == 3

    def test_odd_pf_order_rejected(self):
        with pytest.raises(ValueError):
            ParaSpec("pf", 3)

    def test_pb_requires_cutoff(self):
        with pytest.raises(ValueError):
            ParaSpec("pb", 2)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ParaSpec("boson", 1, np=2)

    def test_top_level_up_to_the_limit(self):
        assert MAX_LEVEL == 62
        assert ParaSpec("pb", 2, np=MAX_LEVEL).num_qubits == 63
        assert ParaSpec("pf", MAX_LEVEL).num_qubits == 63

    @pytest.mark.parametrize("kind,p,np_cut,top", [
        ("pb", 2, 63, "para-boson cutoff np 63"),
        ("pb", 1, 10 ** 10, "para-boson cutoff np 10000000000"),
        ("pf", 64, 0, "para-fermion order p 64"),
    ])
    def test_a_wider_ladder_is_refused_naming_its_top_and_the_limit(self, kind, p,
                                                                    np_cut, top):
        with pytest.raises(ValueError, match=f"^{top} exceeds the limit of 62 levels "):
            ParaSpec(kind, p, np=np_cut)


class TestLadderAmplitude:
    def test_pb_first_coupling_is_sqrt_p(self):
        assert ladder_amplitude(ParaSpec("pb", 3, np=3), 1) == pytest.approx(np.sqrt(3))

    def test_pb_order_one_is_standard_boson(self):
        spec = ParaSpec("pb", 1, np=2)
        assert ladder_amplitude(spec, 1) == pytest.approx(1.0)
        assert ladder_amplitude(spec, 2) == pytest.approx(np.sqrt(2))

    @pytest.mark.parametrize("p,expected", [
        (2, [np.sqrt(2), np.sqrt(2)]),
        (4, [2.0, np.sqrt(2), np.sqrt(2), 2.0]),
    ])
    def test_pf_amplitudes_match_recurrence_oracle(self, p, expected):
        spec = ParaSpec("pf", p)
        for n, value in enumerate(expected, start=1):
            assert ladder_amplitude(spec, n) == pytest.approx(value)
            assert ladder_amplitude(spec, n) == pytest.approx(pf_amplitude_oracle(p, n))

    @pytest.mark.parametrize("p", [2, 4, 6, 8])
    def test_pf_closed_form_equals_recurrence_everywhere(self, p):
        spec = ParaSpec("pf", p)
        for n in range(1, spec.dim):
            assert ladder_amplitude(spec, n) == pytest.approx(
                pf_amplitude_oracle(p, n), abs=1e-12)

    @pytest.mark.parametrize("p", [2, 4, 6, 8])
    def test_pf_ladder_closes_at_the_top(self, p):
        # the coupling out of the highest level vanishes by the closed form
        amp_sq = (p + 1) / 2 + (2 * (p + 1) - p - 1) * (-1) ** (p + 1) / 2
        assert amp_sq == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("p", range(1, 9))
    @pytest.mark.parametrize("np_cut", range(1, 9))
    def test_pb_amplitudes_match_action_rules(self, p, np_cut):
        # oracle: sqrt(2k+p) out of even levels, sqrt(2k+2) out of odd ones
        spec = ParaSpec("pb", p, np=np_cut)
        for n in range(1, spec.dim):
            m = n - 1
            expected = np.sqrt(m + p) if m % 2 == 0 else np.sqrt(m + 1)
            assert ladder_amplitude(spec, n) == pytest.approx(expected, abs=1e-12)

    def test_out_of_range_level_rejected(self):
        spec = ParaSpec("pf", 2)
        for n in (0, 3, -1):
            with pytest.raises(ValueError):
                ladder_amplitude(spec, n)


class TestFockOperators:
    def test_pf2_commutator_diagonal(self):
        ops = build_fock_ops(ParaSpec("pf", 2))
        comm = ops.a @ ops.adag - ops.adag @ ops.a
        assert np.allclose(comm, np.diag([2.0, 0.0, -2.0]), atol=1e-14)

    def test_pb_standard_boson_structure(self):
        ops = build_fock_ops(ParaSpec("pb", 1, np=2))
        assert ops.a[0, 1] == pytest.approx(1.0)
        assert ops.a[1, 2] == pytest.approx(np.sqrt(2))
        assert np.allclose(ops.parity, np.diag([1, -1, 1]))

    def test_pb2_truncated_commutator(self):
        # couplings sqrt(2), sqrt(2): commutator diag (2, 0, -2); subtracting
        # 1 + (p-1)R leaves the boundary residual diag (0, 0, -4) = -beta a+^2 a^2
        ops = build_fock_ops(ParaSpec("pb", 2, np=2))
        comm = ops.a @ ops.adag - ops.adag @ ops.a
        assert np.allclose(comm, np.diag([2.0, 0.0, -2.0]), atol=1e-14)
        residual = comm - np.eye(3) - 1.0 * ops.parity
        assert np.allclose(residual, np.diag([0.0, 0.0, -4.0]), atol=1e-14)

    def test_adag_is_conjugate_transpose(self):
        ops = build_fock_ops(ParaSpec("pb", 3, np=4))
        assert np.array_equal(ops.adag, ops.a.conj().T)

    @pytest.mark.parametrize("spec", [
        ParaSpec("pf", 2), ParaSpec("pf", 6),
        ParaSpec("pb", 1, np=3), ParaSpec("pb", 5, np=4),
    ])
    def test_parity_anticommutes_and_squares_to_identity(self, spec):
        ops = build_fock_ops(spec)
        assert np.max(np.abs(ops.parity @ ops.a + ops.a @ ops.parity)) == 0.0
        assert np.max(np.abs(ops.parity @ ops.adag + ops.adag @ ops.parity)) == 0.0
        assert np.array_equal(ops.parity @ ops.parity, np.eye(spec.dim))
        assert np.array_equal(ops.num @ ops.parity, ops.parity @ ops.num)

    def test_annihilator_kills_vacuum(self):
        ops = build_fock_ops(ParaSpec("pb", 4, np=5))
        vac = np.zeros(6)
        vac[0] = 1.0
        assert np.max(np.abs(ops.a @ vac)) == 0.0

    def test_number_operator_is_level_index(self):
        ops = build_fock_ops(ParaSpec("pf", 4))
        assert np.allclose(ops.num, np.diag([0, 1, 2, 3, 4]))


def exact_beta(np_cut, p):
    """beta from exact double factorials, (-1)!! = 0!! = 1."""
    def df(x):
        return math.prod(range(x, 0, -2))
    if np_cut % 2:
        return Fraction((np_cut + 1) * df(p - 2), df(np_cut - 1) * df(np_cut + p - 1))
    return Fraction((np_cut + p) * df(p - 2), df(np_cut) * df(np_cut + p - 2))


class TestBetaConstant:
    @pytest.mark.parametrize("p", [*range(1, 13), 99, 100, 301, 400, 1001, 9999, 10000])
    def test_matches_exact_double_factorials(self, p):
        # the double factorials themselves overflow a float from about p = 300
        for np_cut in range(1, 62):
            assert beta_constant(np_cut, p) == pytest.approx(float(exact_beta(np_cut, p)),
                                                             rel=1e-13, abs=0)

    def test_spot_values(self):
        assert beta_constant(2, 2) == pytest.approx(1.0)
        assert beta_constant(3, 1) == pytest.approx(2 / 3)
        assert beta_constant(1, 4) == pytest.approx(0.5)

    @pytest.mark.parametrize("p", range(1, 5))
    def test_beta_vanishes_with_growing_cutoff(self, p):
        values = [beta_constant(np_cut, p) for np_cut in (4, 8, 16, 24)]
        assert values[-1] < 1e-6
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            beta_constant(0, 2)
        with pytest.raises(ValueError):
            beta_constant(2, 0)


class TestTruncationIdentity:
    @pytest.mark.parametrize("p", range(1, 7))
    @pytest.mark.parametrize("np_cut", range(1, 7))
    def test_pb_identity_holds_everywhere(self, p, np_cut):
        report = verify_truncation_identity(ParaSpec("pb", p, np=np_cut), tol=1e-12)
        assert report.passes, (p, np_cut, report.residual_norm)

    def test_pb_identity_direct_oracle(self):
        # independent arithmetic for p=1, np=3: residual (0,0,0,-4) = -beta diag(0,0,0,6)
        spec = ParaSpec("pb", 1, np=3)
        ops = build_fock_ops(spec)
        comm = ops.a @ ops.adag - ops.adag @ ops.a
        residual = comm - np.eye(4)  # p=1: parity term vanishes
        assert np.allclose(residual, np.diag([0, 0, 0, -4.0]), atol=1e-13)
        report = verify_truncation_identity(spec)
        assert report.beta == pytest.approx(2 / 3)
        assert report.passes

    @pytest.mark.parametrize("p", [2, 4, 6])
    def test_pf_identity_exact(self, p):
        report = verify_truncation_identity(ParaSpec("pf", p), tol=1e-12)
        assert report.passes
        assert report.beta == 0.0

    @pytest.mark.parametrize("p", [300, 400, 1000])
    @pytest.mark.parametrize("np_cut", [2, 3, 10])
    def test_pb_identity_holds_at_high_order(self, p, np_cut):
        report = verify_truncation_identity(ParaSpec("pb", p, np=np_cut), tol=1e-12)
        assert report.passes, (p, np_cut, report.residual_norm, report.beta)
        assert report.beta > 0

    def test_failure_reported_not_thrown(self):
        report = verify_truncation_identity(ParaSpec("pb", 2, np=2), tol=1e-30)
        assert not report.passes

    def test_tolerance_grows_with_the_entries(self, monkeypatch):
        # at p = 10^4 the commutator's entries are about 10^4 and their rounding
        # 1.8e-12, past an absolute 1e-12 though beta is exact
        spec = ParaSpec("pb", 10000, np=3)
        report = verify_truncation_identity(spec)
        assert report.passes and report.residual_norm > 1e-12
        exact = algebra.beta_constant
        monkeypatch.setattr(algebra, "beta_constant", lambda n, p: exact(n, p) * (1 + 1e-6))
        assert not verify_truncation_identity(spec).passes


class TestDisplacedVacuum:
    def test_zero_displacement_is_vacuum(self):
        psi = displaced_vacuum_exact(ParaSpec("pb", 3, np=4), 0.0)
        assert np.allclose(psi, np.eye(5)[0])

    @pytest.mark.parametrize("alpha,expected", [(np.pi / 4, 1.0), (np.pi / 2, 2.0)])
    def test_pf2_number_closed_form(self, alpha, expected):
        # p=2 is a driven three-level ladder: <N>(alpha) = 1 - cos(2 alpha)
        psi = displaced_vacuum_exact(ParaSpec("pf", 2), alpha)
        mean = float(np.abs(psi) ** 2 @ np.arange(3))
        assert mean == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("spec", [
        ParaSpec("pf", 2), ParaSpec("pf", 4), ParaSpec("pb", 2, np=5),
    ])
    @pytest.mark.parametrize("alpha", [0.1, 0.7, 2.3, -1.1])
    def test_matches_scipy_expm_oracle(self, spec, alpha):
        ops = build_fock_ops(spec)
        vac = np.zeros(spec.dim, dtype=complex)
        vac[0] = 1.0
        reference = expm(1j * alpha * (ops.a + ops.adag)) @ vac
        psi = displaced_vacuum_exact(spec, alpha)
        assert np.max(np.abs(psi - reference)) < 1e-12

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 1.9, 11.0])
    def test_norm_and_real_mean(self, alpha):
        spec = ParaSpec("pb", 4, np=6)
        psi = displaced_vacuum_exact(spec, alpha)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
        ops = build_fock_ops(spec)
        mean = psi.conj() @ ops.num @ psi
        assert abs(mean.imag) < 1e-12
