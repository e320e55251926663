#!/usr/bin/env python3
"""Noisy execution, readout correction and one-hot post-selection.

Runs the compiled displacement with preparation flips, depolarizing gate
noise and readout confusion; then shows the two mitigation layers.  Leaked
bitstrings (anything not one-hot) can only come from errors, so discarding
them sharpens the number estimate; confusion-matrix inversion undoes the
readout bias in expectation.
"""
import numpy as np

from parasim import (
    NoiseModel,
    ParaSpec,
    compile_displacement,
    displaced_vacuum_exact,
    generator_family,
    number_stats,
    postselect,
    run_and_sample,
    solve_displacement,
    spam_correct,
)
from parasim.dense import histogram, outcome_bits

spec = ParaSpec("pf", 2)
alpha = np.pi / 2
gv = solve_displacement(spec, alpha)
circuit = compile_displacement(gv, generator_family(3))
exact = float(np.abs(displaced_vacuum_exact(spec, alpha)) ** 2 @ np.arange(3))
print(f"Driven three-level system at alpha = pi/2: exact <N> = {exact}")

noise = NoiseModel(p_prep_flip=0.005, eps01=0.03, eps10=0.05,
                   p_depol_1q=0.001, p_depol_2q=0.01)
shots = run_and_sample(circuit, 5000, noise, seed=42)
print(f"\n5000 noisy shots; distinct bitstrings = {len(shots.counts)}")
leaked = {b: c for b, c in shots.counts.items() if b.count('1') != 1}
print(f"out-of-subspace strings: {dict(sorted(leaked.items()))}")

raw = number_stats(shots, 3)
print(f"\nraw estimate:            <N> = {raw.mean_n:.4f} "
      f"(+/- {raw.stderr_mean:.4f})")

# readout inversion acts on outcome weights; inverted values are not clamped
p1 = spam_correct(histogram(shots) / shots.shots, noise) @ outcome_bits(3)
corrected = number_stats(shots, 3, source="shots_spam", spam=noise)
print(f"readout-corrected:       <N> = {corrected.mean_n:.4f} "
      f"(P(bit reads 1) = {np.round(p1, 4).tolist()})")

kept = number_stats(shots, 3, source="shots_postselected")
print(f"post-selected:           <N> = {kept.mean_n:.4f} "
      f"(retained fraction {kept.retained_fraction:.3f}, "
      f"{postselect(shots).shots} of {shots.shots} shots)")

print(f"\n|error| raw / corrected / post-selected: "
      f"{abs(raw.mean_n - exact):.4f} / {abs(corrected.mean_n - exact):.4f} / "
      f"{abs(kept.mean_n - exact):.4f}")
