"""Qubit mapping tests: one-hot encoding, XY Hamiltonian, generator family,
commutator table (including the full five-qubit table), Jacobi closure and
the dense limit."""
import tracemalloc

import numpy as np
import pytest

import parasim.dense
from parasim.algebra import MAX_LEVEL, ParaSpec, build_fock_ops
from parasim.circuits import Circuit
from parasim.dense import (
    apply_word,
    circuit_unitary,
    dense_identity,
    onehot_index,
    pauli_sum_to_matrix,
    product_unitary,
    restrict_to_onehot,
)
from parasim.engine import apply_circuit, run_and_sample
from parasim.mapping import (
    GeneratorBasis,
    PauliString,
    PauliSum,
    _word,
    build_xy_hamiltonian,
    check_jacobi,
    commutator_table,
    encode_fock,
    generator_family,
    onehot_block,
)

from reference_tables import FIVE_QUBIT_TABLE


def number_words(q):
    """The diagonal number observable sum_m m/2 (1 - Z_m) as Pauli words,
    with a flipped qubit reading 1."""
    terms = [PauliString(sum(m / 2 for m in range(q)), "I" * q)]
    terms += [PauliString(-m / 2, "I" * m + "Z" + "I" * (q - m - 1)) for m in range(1, q)]
    return PauliSum(tuple(terms))


class TestEncodeFock:
    def test_level_zero(self):
        assert encode_fock(0, 3) == "100"

    def test_level_two(self):
        assert encode_fock(2, 3) == "001"

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            encode_fock(3, 3)

    def test_index_matches_string(self):
        for q in (2, 4, 5):
            for n in range(q):
                assert onehot_index(n, q) == int(encode_fock(n, q), 2)


class TestPauliTypes:
    def test_mixed_widths_rejected(self):
        with pytest.raises(ValueError):
            PauliSum((PauliString(1.0, "XX"), PauliString(1.0, "XXX")))

    def test_bad_letters_rejected(self):
        with pytest.raises(ValueError):
            PauliString(1.0, "XQ")


class TestXYHamiltonian:
    def test_pb1_bond_coefficients(self):
        ham = build_xy_hamiltonian(ParaSpec("pb", 1, np=2), g=1.0)
        got = {(t.letters, round(t.coeff, 12)) for t in ham.terms}
        expected = {
            ("XXI", 0.5), ("YYI", 0.5),
            ("IXX", round(np.sqrt(2) / 2, 12)), ("IYY", round(np.sqrt(2) / 2, 12)),
        }
        assert got == expected

    def test_pf2_bond_coefficients(self):
        ham = build_xy_hamiltonian(ParaSpec("pf", 2), g=0.02)
        for term in ham.terms:
            assert term.coeff == pytest.approx(0.02 * np.sqrt(2) / 2)

    def test_zero_coupling(self):
        ham = build_xy_hamiltonian(ParaSpec("pb", 3, np=3), g=0.0)
        assert all(t.coeff == 0.0 for t in ham.terms)


class TestGeneratorFamily:
    def test_three_qubits(self):
        basis = generator_family(3)
        assert basis.labels == ("u0", "u1", "v0")

    def test_five_qubits_table_order(self):
        basis = generator_family(5)
        assert basis.labels == ("u0", "u1", "v0", "u2", "v1", "w0",
                                "u3", "v2", "w1", "a0")

    def test_two_qubits_single_bond(self):
        assert generator_family(2).labels == ("u0",)

    @pytest.mark.parametrize("q", range(2, 9))
    def test_generator_count(self, q):
        basis = generator_family(q)
        assert len(basis) == q * (q - 1) // 2
        # each generator splits into two commuting exponential factors
        assert 2 * len(basis) == q * (q - 1)

    def test_too_few_qubits(self):
        with pytest.raises(ValueError):
            generator_family(1)

    def test_labels_are_distinct_at_every_width_up_to_the_limit(self):
        # uncached, so the session keeps none of these 61 families
        build = generator_family.__wrapped__
        for q in range(2, MAX_LEVEL + 2):
            labels = build(q).labels
            assert len(set(labels)) == len(labels), q
            assert all(label.isprintable() and " " not in label for label in labels)

    def test_spans_past_twenty_four_get_names_of_their_own(self):
        # the last qubit's generators, by growing span: ..., s3, t2, then spans 25 and 26
        assert generator_family(26).labels[-4:] == ("s3", "t2", "x25_1", "x26_0")

    def test_built_once_per_width(self):
        assert generator_family(7) is generator_family(7)
        assert generator_family(7) == generator_family.__wrapped__(7)

    @pytest.mark.parametrize("q", [3, 4, 5, 6])
    def test_two_term_split_commutes(self, q):
        for gen in generator_family(q).generators:
            first, second = (pauli_sum_to_matrix(PauliSum((t,))) for t in gen.terms)
            assert np.max(np.abs(first @ second - second @ first)) < 1e-14


class TestDenseMatrices:
    def test_single_z(self):
        mat = pauli_sum_to_matrix(PauliSum((PauliString(1.0, "Z"),)))
        assert np.allclose(mat, np.diag([1.0, -1.0]))

    def test_xx_antidiagonal(self):
        mat = pauli_sum_to_matrix(PauliSum((PauliString(1.0, "XX"),)))
        assert np.allclose(mat, np.fliplr(np.eye(4)))

    def test_u0_hops_between_onehot_states(self):
        basis = generator_family(3)
        u0 = pauli_sum_to_matrix(basis.generators[0])
        state = np.zeros(8)
        state[int("100", 2)] = 1.0
        out = u0 @ state
        expected = np.zeros(8)
        expected[int("010", 2)] = 2.0
        assert np.allclose(out, expected)

    def test_width_limit(self):
        with pytest.raises(ValueError):
            pauli_sum_to_matrix(PauliSum((PauliString(1.0, "X" * 13),)))

    @pytest.mark.parametrize("q", [1, 2, 4, 6])
    def test_words_match_kronecker_products(self, q):
        # oracle: the word as a Kronecker product of matrices written out here
        single = {"I": np.eye(2), "X": np.array([[0, 1], [1, 0]]),
                  "Y": np.array([[0, -1j], [1j, 0]]), "Z": np.diag([1, -1])}
        rng = np.random.default_rng(q)
        for _ in range(25):
            letters = "".join(rng.choice(list("IXYZ"), size=q))
            kron = np.ones((1, 1))
            for c in letters:
                kron = np.kron(kron, single[c])
            assert np.array_equal(pauli_sum_to_matrix(PauliSum((PauliString(-0.5, letters),))),
                                  -0.5 * kron)
            # the same word given letter by letter on shuffled qubits
            qubits = tuple(int(k) for k in rng.permutation(q))
            shuffled = "".join(letters[k] for k in qubits)
            for shape in ((2 ** q,), (2 ** q, 3)):
                m = rng.normal(size=shape)
                assert np.array_equal(apply_word(m, _word(letters)), kron @ m)
                assert np.array_equal(apply_word(m, _word(shuffled, qubits)), kron @ m)


class TestDenseLimit:
    """dense_identity builds every 2^Q state and 2^Q x 2^Q matrix, and
    refuses one of more than 4^MAX_DENSE_QUBITS entries."""

    @pytest.mark.parametrize("build", [
        lambda: pauli_sum_to_matrix(PauliSum((PauliString(1.0, "X" * 13),))),
        lambda: product_unitary(np.zeros(78), generator_family(13), space="full"),
        lambda: circuit_unitary(Circuit(13)),
    ], ids=["pauli_sum_to_matrix", "product_unitary", "circuit_unitary"])
    def test_a_13_qubit_matrix_is_one_error(self, build):
        with pytest.raises(ValueError) as excinfo:
            build()
        assert str(excinfo.value) == "a dense 13-qubit matrix would hold more than 4^12 entries"

    def test_the_ideal_pass_refuses_a_25_qubit_state_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"^a dense 25-qubit state would hold "
                                                 r"more than 4\^12 entries$"):
                run_and_sample(Circuit(25), 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_every_caller_reads_the_one_limit(self, monkeypatch):
        monkeypatch.setattr(parasim.dense, "MAX_DENSE_QUBITS", 3)
        assert np.array_equal(dense_identity(3), np.eye(8))
        assert np.array_equal(dense_identity(6, 5), np.eye(64)[5])
        assert np.array_equal(circuit_unitary(Circuit(3)), np.eye(8))
        assert np.array_equal(apply_circuit(Circuit(6)), np.eye(64)[32])
        for build in (lambda: dense_identity(4), lambda: dense_identity(7, 0),
                      lambda: circuit_unitary(Circuit(4)), lambda: apply_circuit(Circuit(7)),
                      lambda: pauli_sum_to_matrix(PauliSum((PauliString(1.0, "ZZZZ"),)))):
            with pytest.raises(ValueError, match=r"more than 4\^3 entries$"):
                build()


class TestOnehotRestriction:
    def test_u0_restriction(self):
        basis = generator_family(3)
        block = restrict_to_onehot(pauli_sum_to_matrix(basis.generators[0]), 3)
        expected = np.zeros((3, 3))
        expected[0, 1] = expected[1, 0] = 2.0
        assert np.allclose(block, expected)

    def test_v0_restriction(self):
        basis = generator_family(3)
        block = restrict_to_onehot(pauli_sum_to_matrix(basis.generators[2]), 3)
        assert block[0, 2] == pytest.approx(-2j)
        assert block[2, 0] == pytest.approx(2j)
        block[0, 2] = block[2, 0] = 0.0
        assert np.max(np.abs(block)) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            restrict_to_onehot(np.eye(7), 3)

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 6, 7])
    def test_onehot_block_matches_dense_restriction(self, q):
        sums = list(generator_family(q).generators)
        sums += [build_xy_hamiltonian(ParaSpec("pb", 3, np=q - 1), 0.7),
                 number_words(q)]
        for h in sums:
            assert np.array_equal(onehot_block(h), restrict_to_onehot(pauli_sum_to_matrix(h), q))

    @pytest.mark.parametrize("spec", [
        ParaSpec("pf", 2), ParaSpec("pf", 4), ParaSpec("pf", 6),
        ParaSpec("pb", 1, np=2), ParaSpec("pb", 2, np=3),
        ParaSpec("pb", 3, np=5), ParaSpec("pb", 7, np=7),
    ])
    @pytest.mark.parametrize("g", [1.0, 0.02])
    def test_xy_restriction_equals_fock_hamiltonian(self, spec, g):
        ham = pauli_sum_to_matrix(build_xy_hamiltonian(spec, g))
        block = restrict_to_onehot(ham, spec.num_qubits)
        ops = build_fock_ops(spec)
        assert np.max(np.abs(block - g * (ops.a + ops.adag))) < 1e-12

    def test_number_operator_restricts_to_level_index(self):
        for q in (2, 3, 5):
            mat = pauli_sum_to_matrix(number_words(q))
            block = restrict_to_onehot(mat, q)
            assert np.allclose(block, np.diag(np.arange(q)), atol=1e-12)

    @pytest.mark.parametrize("q", [3, 4, 5, 6])
    def test_generators_preserve_onehot_subspace(self, q):
        idx = [onehot_index(n, q) for n in range(q)]
        outside = np.setdiff1d(np.arange(2 ** q), idx)
        for gen in generator_family(q).generators:
            mat = pauli_sum_to_matrix(gen)
            for i in idx:
                column = mat[:, i]
                assert np.max(np.abs(column[outside])) <= 1e-14


def dense_commutator_table(basis, tol=1e-12):
    """The structure constants from 2^Q x 2^Q matrix commutators, in the
    format of commutator_table: the reference the word algebra replaces."""
    mats = [pauli_sum_to_matrix(g) for g in basis.generators]
    labels = basis.labels
    table = {}
    for i, gi in enumerate(mats):
        for j, gj in enumerate(mats):
            comm = gi @ gj - gj @ gi
            table[(labels[i], labels[j])] = None if np.max(np.abs(comm)) <= tol else next(
                (sign, labels[k]) for k, gk in enumerate(mats) for sign in (1, -1)
                if np.max(np.abs(comm - sign * 2j * gk)) <= tol)
    return table


class TestCommutatorTable:
    def test_three_qubit_relations(self):
        table = commutator_table(generator_family(3))
        assert table[("u0", "u1")] == (1, "v0")
        assert table[("u1", "v0")] == (1, "u0")
        assert table[("v0", "u0")] == (1, "u1")

    def test_five_qubit_table_matches_reference(self):
        table = commutator_table(generator_family(5))
        for (row, col), expected in FIVE_QUBIT_TABLE.items():
            got = table[(row, col)]
            if expected == "0":
                assert got is None, (row, col, got)
            else:
                sign = 1 if expected[0] == "+" else -1
                assert got == (sign, expected[1:]), (row, col, got, expected)

    def test_antisymmetry(self):
        table = commutator_table(generator_family(5))
        for (row, col), value in table.items():
            mirrored = table[(col, row)]
            if value is None:
                assert mirrored is None
            else:
                assert mirrored == (-value[0], value[1])

    def test_diagonal_vanishes(self):
        table = commutator_table(generator_family(4))
        for label in generator_family(4).labels:
            assert table[(label, label)] is None

    def test_malformed_basis_detected(self):
        # breaking the odd-span sign pushes commutators out of the span, also
        # at Q = 9, where a dense check would build 512 x 512 matrices
        for q in (5, 9):
            good = generator_family(q)
            pad = "I" * (q - 3)
            broken_v0 = PauliSum((PauliString(1.0, "XZY" + pad), PauliString(1.0, "YZX" + pad)))
            gens = list(good.generators)
            gens[2] = broken_v0
            with pytest.raises(ValueError):
                commutator_table(GeneratorBasis(tuple(gens), good.labels))

    @pytest.mark.parametrize("q", [3, 4, 5, 6])
    def test_equals_dense_matrix_commutators(self, q):
        assert commutator_table(generator_family(q)) == dense_commutator_table(
            generator_family(q))


class TestJacobi:
    def test_three_qubits(self):
        assert check_jacobi(generator_family(3))

    def test_five_qubits_all_triples(self):
        assert check_jacobi(generator_family(5))

    def test_two_qubits_vacuous(self):
        assert check_jacobi(generator_family(2))

    def test_one_wrong_structure_constant_detected(self, monkeypatch):
        # [u1, v0] = +2i u0; flipped in both orders the table stays antisymmetric
        import parasim.mapping as mapping
        table = mapping.commutator_table(generator_family(4))
        table[("u1", "v0")], table[("v0", "u1")] = (-1, "u0"), (1, "u0")
        monkeypatch.setattr(mapping, "commutator_table", lambda basis, tol: table)
        assert not check_jacobi(generator_family(4))
