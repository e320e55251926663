#!/usr/bin/env python3
"""Lower a factored displacement to the native gate set (R + XX).

Every product factor exp(i gamma P) for a two-term generator word P becomes
single-qubit rotations around one XX entangler (or, for longer words, a
CNOT/CZ scaffold folded onto the anchor qubit with a central RX).  The
compiled circuit is compared against the exact product unitary, and the
cancellation pass is shown to shrink the gate count without changing it.
"""
import numpy as np

from parasim import (
    ParaSpec,
    compile_displacement,
    compile_pauli_exp,
    gate_counts,
    generator_family,
    optimize_cancel,
    solve_displacement,
)
from parasim.circuits import circuit_to_text
from parasim.dense import circuit_unitary, product_unitary
from parasim.mapping import PauliString


def phase_distance(a, b):
    tr = np.trace(a.conj().T @ b)
    phase = tr / abs(tr) if abs(tr) > 1e-14 else 1.0
    return np.linalg.norm(a * phase - b)


print("Single Pauli-word exponentials:")
for letters in ("XX", "YY", "XZY", "XZZX", "YZZZX"):
    circuit = compile_pauli_exp(0.43, PauliString(1.0, letters))
    counts = gate_counts(circuit)
    print(f"  exp(i 0.43 {letters}): {counts['one_qubit']} single-qubit + "
          f"{counts['two_qubit']} XX gates")

print()
spec = ParaSpec("pf", 2)
basis = generator_family(3)
gv = solve_displacement(spec, 0.3)
raw = compile_displacement(gv, basis, optimize=False)
slim = optimize_cancel(raw)
print(f"Three-qubit displacement (alpha = 0.3):")
print(f"  unoptimized: {gate_counts(raw)}")
print(f"  optimized:   {gate_counts(slim)}")
oracle = product_unitary(gv, basis, space="full")
print(f"  circuit vs product unitary (up to global phase): "
      f"{phase_distance(circuit_unitary(slim), oracle):.2e}")

print()
print("First lines of the circuit text format:")
for line in circuit_to_text(slim).splitlines()[:8]:
    print("  " + line)
print("  ...")

print()
spec = ParaSpec("pf", 4)
basis = generator_family(5)
gv = solve_displacement(spec, 0.5)
circuit = compile_displacement(gv, basis)
counts = gate_counts(circuit)
print(f"Five-qubit displacement: {2 * len(basis)} exponential factors "
      f"(= Np(Np+1) with Np = 4) compile to {counts['one_qubit']} + "
      f"{counts['two_qubit']} gates")
oracle = product_unitary(gv, basis, space="full")
print(f"  circuit vs product unitary: "
      f"{phase_distance(circuit_unitary(circuit), oracle):.2e}")
