#!/usr/bin/env python3
"""Full driven para-fermion study: number evolution over one period.

For each time the displacement is factored, compiled and executed, and the
sampled number expectation is compared with the dense reference curve
1 - cos(2 g t) for order 2.  The circuit template is identical at every
time (only rotation angles change), so the depth never grows with t.
Writes a CSV table and an SVG plot next to this script.
"""
from pathlib import Path

import numpy as np

from parasim import run_pf_evolution
from parasim.experiments import (SOURCE_EXACT, SOURCE_RAW, series_to_csv, study_series,
                                 write_atomic)
from parasim.svgplot import line_plot

g = 0.02
gts = np.linspace(0.0, np.pi, 25)
points = run_pf_evolution(2, g, list(gts / g), shots=5000, seed=7)

print(f"{'g t':>8} {'exact <N>':>12} {'sampled <N>':>12} {'stderr':>10}")
for point in points[::4]:
    exact = point.stats[SOURCE_EXACT]
    raw = point.stats[SOURCE_RAW]
    print(f"{point.x:>8.4f} {exact.mean_n:>12.6f} {raw.mean_n:>12.4f} "
          f"{raw.stderr_mean:>10.4f}")

here = Path(__file__).resolve().parent
csv_path = here / "parafermi_evolution.csv"
write_atomic([(csv_path, series_to_csv(points, "pf-evolution", 5000, 7,
                                       ["demo 06_parafermi_evolution.py", "seed 7"]))])
print(f"\nwrote {csv_path}")

svg_path = here / "parafermi_evolution.svg"
write_atomic([(svg_path, line_plot(study_series(points, "pf-evolution"), "g t", "<N>",
                                   "driven para-fermion number, order 2"))])
print(f"wrote {svg_path}")
