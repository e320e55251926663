"""Gate compilation tests: Pauli-exponential lowering, displacement circuits,
cancellation optimization and the text format, all against dense unitary
oracles assembled independently in the tests."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from parasim.algebra import ParaSpec
from parasim.circuits import (
    Circuit,
    Gate,
    circuit_from_text,
    circuit_to_text,
    compile_displacement,
    compile_pauli_exp,
    gate_counts,
    optimize_cancel,
    read_circuit,
    rx,
    ry,
    rz,
    xx,
)
from parasim.dense import apply_gate_batch, circuit_unitary, onehot_index, product_unitary
from parasim.factorize import solve_displacement
from parasim.mapping import PauliString, generator_family

_P1 = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_oracle(letters):
    out = np.array([[1.0 + 0j]])
    for c in letters:
        out = np.kron(out, _P1[c])
    return out


def phase_distance(a, b):
    """Frobenius distance after aligning global phase."""
    overlap = np.trace(a.conj().T @ b)
    phase = overlap / abs(overlap) if abs(overlap) > 1e-14 else 1.0
    return float(np.linalg.norm(a * phase - b))


class TestCompilePauliExp:
    def test_plain_xx_is_one_native_gate(self):
        circuit = compile_pauli_exp(0.37, PauliString(1.0, "XX"))
        assert len(circuit) == 1
        gate = circuit.gates[0]
        assert gate.kind == "XX" and gate.angle == pytest.approx(-0.74)

    def test_yy_uses_four_rotations_and_one_entangler(self):
        gamma = -0.52
        circuit = compile_pauli_exp(gamma, PauliString(1.0, "YY"))
        counts = gate_counts(circuit)
        assert counts == {"one_qubit": 4, "two_qubit": 1}
        oracle = expm(1j * gamma * kron_oracle("YY"))
        assert phase_distance(circuit_unitary(circuit), oracle) <= 1e-10

    @pytest.mark.parametrize("letters", [
        "XZY", "YZX", "XZX", "YZY", "XZZX", "YZZY", "XZZY",
        "XZZZY", "YZZZX", "IXZYI", "IIXY", "XY", "YX",
    ])
    @pytest.mark.parametrize("gamma", [0.713, -1.9])
    def test_general_strings_match_expm_oracle(self, letters, gamma):
        circuit = compile_pauli_exp(gamma, PauliString(1.0, letters))
        oracle = expm(1j * gamma * kron_oracle(letters))
        assert phase_distance(circuit_unitary(circuit), oracle) <= 1e-10

    def test_coefficient_is_folded_into_the_angle(self):
        circuit = compile_pauli_exp(0.4, PauliString(-1.0, "YZX"))
        oracle = expm(1j * 0.4 * -kron_oracle("YZX"))
        assert phase_distance(circuit_unitary(circuit), oracle) <= 1e-10

    @pytest.mark.parametrize("letters", ["XIX", "XZZ", "ZZX", "X", "IXI", "XXX"])
    def test_unsupported_shapes_rejected(self, letters):
        with pytest.raises(ValueError):
            compile_pauli_exp(0.3, PauliString(1.0, letters))


class TestCompileDisplacement:
    def test_zero_gammas_empty_circuit(self):
        basis = generator_family(3)
        circuit = compile_displacement([0.0, 0.0, 0.0], basis)
        assert len(circuit) == 0
        assert np.allclose(circuit_unitary(circuit), np.eye(8))

    def test_three_qubit_displacement_matches_product(self):
        spec = ParaSpec("pf", 2)
        basis = generator_family(3)
        gv = solve_displacement(spec, 0.5)
        circuit = compile_displacement(gv, basis)
        oracle = product_unitary(gv, basis, space="full")
        assert phase_distance(circuit_unitary(circuit), oracle) <= 1e-9

    @pytest.mark.parametrize("alpha", [0.15, 0.5, 1.3])
    def test_three_qubit_two_qubit_count_bounded(self, alpha):
        spec = ParaSpec("pb", 3, np=2)
        basis = generator_family(3)
        gv = solve_displacement(spec, alpha)
        circuit = compile_displacement(gv, basis, optimize=True)
        assert gate_counts(circuit)["two_qubit"] <= 12

    def test_five_qubit_displacement_matches_product(self):
        spec = ParaSpec("pf", 4)
        basis = generator_family(5)
        gv = solve_displacement(spec, 0.5)
        circuit = compile_displacement(gv, basis)
        oracle = product_unitary(gv, basis, space="full")
        assert phase_distance(circuit_unitary(circuit), oracle) <= 1e-9

    @pytest.mark.parametrize("q,spec", [
        (3, ParaSpec("pf", 2)),
        (4, ParaSpec("pb", 2, np=3)),
        (5, ParaSpec("pf", 4)),
        (6, ParaSpec("pb", 1, np=5)),
    ])
    def test_onehot_leakage_is_negligible(self, q, spec):
        basis = generator_family(q)
        gv = solve_displacement(spec, 0.4)
        unitary = circuit_unitary(compile_displacement(gv, basis))
        idx = [onehot_index(n, q) for n in range(q)]
        outside = np.setdiff1d(np.arange(2 ** q), idx)
        for i in idx:
            leak = np.sum(np.abs(unitary[outside, i]) ** 2)
            assert leak <= 1e-10

    def test_gamma_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compile_displacement([0.1], generator_family(3))

    @pytest.mark.parametrize("q,spec", [
        (3, ParaSpec("pb", 2, np=2)), (5, ParaSpec("pf", 4)), (8, ParaSpec("pb", 3, np=7)),
    ])
    def test_template_is_each_words_lowering_in_turn(self, q, spec):
        # the cached scaffolds splice to the gates compile_pauli_exp emits word
        # by word, the leftmost generator's words last, at every point
        basis = generator_family(q)
        for alpha in (0.0, 0.4, 2.9):
            gammas = solve_displacement(spec, alpha).gammas
            words = [compile_pauli_exp(g, term).gates
                     for g, h in reversed(list(zip(gammas, basis.generators)))
                     for term in h.terms]
            template = compile_displacement(gammas, basis, optimize=False)
            assert template.gates == tuple(g for gates in words for g in gates)
            assert compile_displacement(gammas, basis) == optimize_cancel(template)


def backward_scan_cancel(circuit):
    """Reference cancellation pass: for each gate, scan back through the kept
    gates past those with disjoint support to a same-axis partner."""
    def zero(angle):
        r = abs(angle) % (2 * np.pi)
        return min(r, 2 * np.pi - r) < 1e-12

    out = []
    for g in circuit.gates:
        if zero(g.angle):
            continue
        partner = None
        for k in range(len(out) - 1, -1, -1):
            prev = out[k]
            if prev.kind == g.kind and set(prev.qubits) == set(g.qubits):
                partner = k
                break
            if set(g.qubits) & set(prev.qubits):
                break
        if partner is None:
            out.append(g)
            continue
        prev = out.pop(partner)
        if not zero(prev.angle + g.angle):
            out.insert(partner, Gate(g.kind, prev.qubits, prev.angle + g.angle))
    return Circuit(circuit.num_qubits, out)


class TestOptimizeCancel:
    def test_inverse_rotations_cancel(self):
        circuit = Circuit(1, [rx(0.3, 0), rx(-0.3, 0)])
        assert len(optimize_cancel(circuit)) == 0

    def test_same_axis_rotations_merge(self):
        circuit = Circuit(2, [rz(0.25, 1), rz(0.5, 1)])
        out = optimize_cancel(circuit)
        assert len(out) == 1
        assert out.gates[0].angle == pytest.approx(0.75)

    def test_xx_same_pair_merges(self):
        circuit = Circuit(2, [xx(0.3, 0, 1), xx(-0.3, 1, 0)])
        assert len(optimize_cancel(circuit)) == 0

    def test_full_turn_rotations_dropped(self):
        circuit = Circuit(1, [rz(2 * np.pi, 0)])
        assert len(optimize_cancel(circuit)) == 0

    def test_preserves_unitary_and_shrinks_compiled_circuit(self):
        spec = ParaSpec("pb", 2, np=2)
        basis = generator_family(3)
        gv = solve_displacement(spec, 0.8)
        raw = compile_displacement(gv, basis, optimize=False)
        slim = optimize_cancel(raw)
        assert len(slim) <= len(raw)
        assert phase_distance(circuit_unitary(slim), circuit_unitary(raw)) <= 1e-12

    @pytest.mark.parametrize("q", range(2, 10))
    def test_idempotent(self, q):
        """One pass reaches the fixed point: on the compiled templates of
        width q and on a seeded batch of random 1-3 qubit gate lists whose
        angles merge to zero, quarter and full turns."""
        basis = generator_family(q)
        specs = [ParaSpec("pb", 2, np=q - 1)] + ([ParaSpec("pf", q - 1)] if q % 2 else [])
        circuits = [compile_displacement(solve_displacement(spec, 0.8), basis, optimize=False)
                    for spec in specs]
        rng = np.random.default_rng(q)
        angles = (np.pi / 2, -np.pi / 2, np.pi, 0.3, -0.3, 2 * np.pi, 0.0)
        for _ in range(200):
            width = int(rng.integers(1, 4))
            gates = []
            for _ in range(int(rng.integers(1, 16))):
                angle = angles[rng.integers(len(angles))]
                kind = int(rng.integers(4 if width > 1 else 3))
                if kind == 3:
                    a, b = rng.choice(width, 2, replace=False)
                    gates.append(xx(angle, int(a), int(b)))
                else:
                    gates.append((rx, ry, rz)[kind](angle, int(rng.integers(width))))
            circuits.append(Circuit(width, gates))
        for circuit in circuits:
            once = optimize_cancel(circuit)
            twice = optimize_cancel(once)
            assert twice.gates == once.gates


    @pytest.mark.parametrize("spec", [ParaSpec("pb", 2, np=n) for n in range(2, 9)]
                             + [ParaSpec("pf", p) for p in (2, 4, 6, 8)], ids=repr)
    @pytest.mark.parametrize("alpha", [0.0, 1e-4, 0.3, 2.9])
    def test_matches_the_backward_scan_on_compiled_templates(self, spec, alpha):
        raw = compile_displacement(solve_displacement(spec, alpha),
                                   generator_family(spec.num_qubits), optimize=False)
        assert optimize_cancel(raw).gates == backward_scan_cancel(raw).gates


class TestCircuitUnitary:
    def test_empty_is_identity(self):
        assert np.allclose(circuit_unitary(Circuit(2)), np.eye(4))

    def test_xx_pi_is_xkronx_up_to_phase(self):
        unitary = circuit_unitary(Circuit(2, [xx(np.pi, 0, 1)]))
        assert phase_distance(unitary, kron_oracle("XX")) <= 1e-12

    def test_gate_order_is_application_order(self):
        circuit = Circuit(1, [ry(np.pi / 2, 0), rz(np.pi / 2, 0)])
        oracle = expm(-1j * np.pi / 4 * _P1["Z"]) @ expm(-1j * np.pi / 4 * _P1["Y"])
        assert np.max(np.abs(circuit_unitary(circuit) - oracle)) < 1e-12

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_unitarity(self, q):
        rng = np.random.default_rng(0)
        gates = []
        for _ in range(30):
            kind = rng.integers(3)
            if kind == 0:
                gates.append(rx(rng.normal(), int(rng.integers(q))))
            elif kind == 1:
                gates.append(rz(rng.normal(), int(rng.integers(q))))
            else:
                a, b = rng.choice(q, size=2, replace=False)
                gates.append(xx(rng.normal(), int(a), int(b)))
        unitary = circuit_unitary(Circuit(q, gates))
        assert np.max(np.abs(unitary @ unitary.conj().T - np.eye(2 ** q))) < 1e-12


_ANGLES = (0.0, 0.37, -1.1, np.pi, 2 * np.pi)


def _word(q, letters):
    """Kronecker product of the {qubit: letter} Pauli word on q qubits."""
    return kron_oracle("".join(letters.get(i, "I") for i in range(q)))


def _gates_with_oracles(q):
    """Every native gate on q qubits, with its unitary from scipy expm."""
    for qubit in range(q):
        for kind, letter in (("RX", "X"), ("RY", "Y"), ("RZ", "Z")):
            for theta in _ANGLES:
                yield (Gate(kind, (qubit,), theta),
                       expm(-0.5j * theta * _word(q, {qubit: letter})))
    for a in range(q):
        for b in range(q):
            if a != b:
                for theta in _ANGLES:
                    yield xx(theta, a, b), expm(-0.5j * theta * _word(q, {a: "X", b: "X"}))


class TestApplyGateBatch:
    @pytest.mark.parametrize("q", range(1, 7))
    def test_every_gate_matches_expm_oracle(self, q):
        rng = np.random.default_rng(q)
        for gate, oracle in _gates_with_oracles(q):
            for shape in ((2 ** q,), (2 ** q, 1), (2 ** q, 3)):
                amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
                before = amps.copy()
                out = apply_gate_batch(amps, gate)
                assert out.shape == shape
                np.testing.assert_allclose(out, oracle @ amps, rtol=0, atol=1e-12,
                                           err_msg=f"{gate} on {shape}")
                np.testing.assert_array_equal(amps, before)

    def test_qubits_given_as_a_list(self):
        gate = Gate("XX", [0, 2], 0.3)
        assert gate == xx(0.3, 0, 2)
        amps = np.arange(8, dtype=complex)
        assert np.array_equal(apply_gate_batch(amps, gate),
                              apply_gate_batch(amps, xx(0.3, 0, 2)))


class TestGateCounts:
    def test_empty(self):
        assert gate_counts(Circuit(3)) == {"one_qubit": 0, "two_qubit": 0}

    def test_mixed(self):
        circuit = Circuit(2, [rx(0.1, 0), xx(0.2, 0, 1), rx(0.3, 1)])
        assert gate_counts(circuit) == {"one_qubit": 2, "two_qubit": 1}

    @pytest.mark.parametrize("q", [3, 4, 5, 6])
    def test_factor_count_scaling(self, q):
        # Q(Q-1) exponential factors for Q = N_p + 1: each of the Q(Q-1)/2
        # generators contributes its two commuting Pauli words
        basis = generator_family(q)
        assert 2 * len(basis) == q * (q - 1)


class TestCircuitText:
    def test_round_trip_lossless(self):
        spec = ParaSpec("pf", 2)
        basis = generator_family(3)
        gv = solve_displacement(spec, 0.123456789)
        circuit = compile_displacement(gv, basis)
        text = circuit_to_text(circuit)
        loaded = circuit_from_text(text)
        assert loaded.num_qubits == circuit.num_qubits
        assert loaded.gates == circuit.gates

    def test_header_required(self):
        with pytest.raises(ValueError):
            circuit_from_text("RX 0 0.5\n")

    @pytest.mark.parametrize("text,message", [
        ("qubits abc\n", "bad header line 'qubits abc'"),
        ("qubits 0\n", "bad header line 'qubits 0'"),
        ("qubits 3 4\n", "bad header line 'qubits 3 4'"),
        ("qubits 3\nRX 0 zz\n", "bad gate line 'RX 0 zz'"),
        ("qubits 3\nRX 0 0.5\nRX 5 0.5\n",
         "bad gate line 'RX 5 0.5': qubit 5 outside the 3-qubit register"),
        ("qubits 3\n# gates two\nRX 0 0.5\n",
         "bad header line '# gates two': 1 gate lines follow"),
        ("qubits 3\n# gates 2\nRX 0 0.5\n",
         "bad header line '# gates 2': 1 gate lines follow"),
    ])
    def test_read_errors_name_the_file_and_the_line(self, tmp_path, text, message):
        path = tmp_path / "circuit.txt"
        path.write_text(text)
        with pytest.raises(ValueError) as excinfo:
            read_circuit(path)
        assert str(excinfo.value).startswith(f"circuit {path}: {message}")

    def test_a_file_cut_at_a_line_is_one_error_naming_the_file(self, tmp_path):
        gv = solve_displacement(ParaSpec("pb", 2, 2), 0.3)
        text = circuit_to_text(compile_displacement(gv, generator_family(3)))
        path = tmp_path / "cut.txt"
        path.write_text("".join(text.splitlines(keepends=True)[:20]))
        with pytest.raises(ValueError) as excinfo:
            read_circuit(path)
        assert str(excinfo.value) == (f"circuit {path}: bad header line '# gates 52': "
                                      "18 gate lines follow")
        # text without the line, as written before it existed, reads as it stands
        path.write_text(text.replace("# gates 52\n", ""))
        assert read_circuit(path).gates == circuit_from_text(text).gates

    def test_format_shape(self):
        text = circuit_to_text(Circuit(2, [rx(0.5, 0), xx(1.25, 0, 1)]))
        lines = text.splitlines()
        assert lines[0] == "qubits 2"
        assert lines[1] == "# gates 2"
        assert lines[2] == "RX 0 0.5"
        assert lines[3] == "XX 0 1 1.25"

    @pytest.mark.parametrize("line", ["RX 0 nan", "RY 1 inf", "XX 0 2 -inf"])
    def test_non_finite_angle_rejected(self, line):
        with pytest.raises(ValueError, match="bad gate line.*angle must be finite"):
            circuit_from_text(f"qubits 3\n{line}\n")
        kind, *fields = line.split()
        with pytest.raises(ValueError, match="angle must be finite"):
            Gate(kind, tuple(int(f) for f in fields[:-1]), float(fields[-1]))


@st.composite
def circuits(draw, angle=st.floats(-20, 20, allow_nan=False)):
    q = draw(st.integers(1, 4))
    qubit = st.integers(0, q - 1)
    one = st.builds(lambda kind, a, t: Gate(kind, (a,), t),
                    st.sampled_from(["RX", "RY", "RZ"]), qubit, angle)
    options = [one]
    if q > 1:
        pair = st.lists(qubit, min_size=2, max_size=2, unique=True)
        options.append(st.builds(lambda ab, t: xx(t, *ab), pair, angle))
    return Circuit(q, draw(st.lists(st.one_of(options), max_size=8)))


# no int or float (not even inf/nan) can be spelled from these characters
_GARBAGE = st.text(alphabet="bcdghjkmopqrsuvwz!?%@", min_size=1, max_size=4)


@st.composite
def garbled_gate_lines(draw):
    """A valid gate line with fields dropped, one field garbled or a field
    added; never a valid line."""
    gate = draw(circuits().filter(lambda c: len(c) > 0)).gates[0]
    kind, *fields = circuit_to_text(Circuit(4, [gate])).splitlines()[-1].split()
    damage = draw(st.sampled_from(["truncate", "garble", "extend"]))
    if damage == "truncate":
        fields = fields[:draw(st.integers(0, len(fields) - 1))]
    elif damage == "garble":
        at = draw(st.integers(0, len(fields) - 1))
        is_qubit = at < (2 if kind == "XX" else 1)
        fields[at] = draw(st.one_of(_GARBAGE, st.just("0.5")) if is_qubit else _GARBAGE)
    else:
        fields.append(draw(st.sampled_from(["0", "1.5", "x"])))
    return " ".join([kind, *fields])


# angles whose sums reach zero and full turns, so merges also delete gates
_TURNS = st.sampled_from([0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi, 2 * np.pi, 0.3, -0.3])


class TestOptimizeCancelProperties:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(circuits(), circuits(angle=_TURNS)))
    def test_matches_the_backward_scan(self, circuit):
        assert optimize_cancel(circuit).gates == backward_scan_cancel(circuit).gates


class TestCircuitTextProperties:
    @settings(max_examples=60, deadline=None)
    @given(circuits())
    def test_round_trip_preserves_gates_and_unitary(self, circuit):
        loaded = circuit_from_text(circuit_to_text(circuit))
        assert loaded.num_qubits == circuit.num_qubits
        assert loaded.gates == circuit.gates
        np.testing.assert_array_equal(circuit_unitary(loaded), circuit_unitary(circuit))

    @settings(max_examples=100, deadline=None)
    @given(garbled_gate_lines())
    def test_garbled_gate_line_is_a_value_error_naming_it(self, line):
        with pytest.raises(ValueError) as excinfo:
            circuit_from_text(f"qubits 4\nRX 0 0.5\n{line}\n")
        assert repr(line) in str(excinfo.value)

    @pytest.mark.parametrize("line", ["XX 0", "RX 0", "XX 0 1", "X", "RZ", "X 0 0.5"])
    def test_truncated_or_padded_lines(self, line):
        with pytest.raises(ValueError, match="bad gate line"):
            circuit_from_text(f"qubits 3\n{line}\n")
