#!/usr/bin/env python3
"""One-hot encoding and the XY-model image of the driven oscillator.

Shows the level <-> bitstring map, verifies that the XY Hamiltonian
restricted to the single-excitation subspace reproduces the ladder
Hamiltonian exactly, prints the five-qubit commutator table of the
u/v/w/a generator family and checks the Jacobi identity for all triples.
"""
import numpy as np

from parasim import (
    ParaSpec,
    build_fock_ops,
    build_xy_hamiltonian,
    check_jacobi,
    commutator_table,
    encode_fock,
    generator_family,
)
from parasim.dense import pauli_sum_to_matrix, restrict_to_onehot

print("One-hot encoding on 5 qubits:")
for level in range(5):
    print(f"  level {level} -> |{encode_fock(level, 5)}>")

print()
spec = ParaSpec("pf", 4)
ham = build_xy_hamiltonian(spec, g=0.02)
print(f"XY Hamiltonian for order p=4, g=0.02 ({len(ham.terms)} Pauli terms):")
for term in ham.terms:
    print(f"  {term.coeff:+.6f} * {term.letters}")

block = restrict_to_onehot(pauli_sum_to_matrix(ham), spec.num_qubits)
ops = build_fock_ops(spec)
mismatch = np.max(np.abs(block - 0.02 * (ops.a + ops.adag)))
print(f"one-hot restriction vs g(a + a+): max |diff| = {mismatch:.2e}")

print()
basis = generator_family(5)
print("Five-qubit generator family:", " ".join(basis.labels))
table = commutator_table(basis)
width = 8
header = " " * 5 + "".join(f"{lab:>{width}}" for lab in basis.labels)
print(header)
for row in basis.labels:
    cells = []
    for col in basis.labels:
        entry = table[(row, col)]
        cells.append("0" if entry is None
                     else f"{'+' if entry[0] > 0 else '-'}2i {entry[1]}")
    print(f"{row:>4} " + "".join(f"{c:>{width}}" for c in cells))

print()
print("Jacobi identity over all 120 generator triples:",
      "holds" if check_jacobi(basis) else "BROKEN")
