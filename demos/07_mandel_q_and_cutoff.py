#!/usr/bin/env python3
"""Para-boson number statistics: Mandel Q versus order, and the cutoff error.

Sweeps the order p at fixed displacement on a three-qubit register (cutoff
np = 2), comparing sampled circuit estimates against the dense reference,
then tabulates how the truncation error in Q shrinks as the cutoff grows.
At this small displacement the displaced vacuum is sub-Poissonian for every
order, and more strongly so as p grows; the sampled estimates track the
exact values within their bootstrap error bars.
"""
from pathlib import Path

from parasim import cutoff_study, run_pb_mandel_sweep
from parasim.experiments import (SOURCE_EXACT, SOURCE_RAW, series_to_csv, study_series,
                                 write_atomic)
from parasim.svgplot import line_plot

alpha = 0.3
points = run_pb_mandel_sweep(alpha, range(1, 8), 2, shots=5000, seed=7)

print(f"Mandel Q at alpha = {alpha}, cutoff np = 2")
print(f"{'p':>3} {'exact Q':>10} {'sampled Q':>10} {'bootstrap':>10}")
for point in points:
    exact = point.stats[SOURCE_EXACT].mandel_q
    raw = point.stats[SOURCE_RAW]
    print(f"{int(point.x):>3} {exact:>10.4f} {raw.mandel_q:>10.4f} "
          f"{raw.mandel_stderr:>10.4f}")

here = Path(__file__).resolve().parent
csv_path = here / "mandel_q_sweep.csv"
write_atomic([(csv_path, series_to_csv(points, "pb-mandel", 5000, 7,
                                       ["demo 07_mandel_q_and_cutoff.py", "seed 7"]))])
print(f"\nwrote {csv_path}")

svg_path = here / "mandel_q_sweep.svg"
write_atomic([(svg_path, line_plot(study_series(points, "pb-mandel"), "order p", "Mandel Q",
                                   f"displaced para-boson statistics, alpha={alpha}"))])
print(f"wrote {svg_path}")

print("\nCutoff study: |Q(np) - Q(reference)| by order")
table = cutoff_study(alpha, range(1, 8), [1, 2, 3])
ref_label = "np9_ref"
print(f"{'p':>3} {'np=1':>10} {'np=2':>10} {'np=3':>10} {'reference':>10}")
for point in table:
    ref = point.stats[ref_label].mandel_q
    diffs = [abs(point.stats[f"np{n}"].mandel_q - ref) for n in (1, 2, 3)]
    print(f"{int(point.x):>3} {diffs[0]:>10.5f} {diffs[1]:>10.5f} "
          f"{diffs[2]:>10.5f} {ref:>10.5f}")
print("a cutoff of np = 3 is already close to the large-cutoff reference "
      "for every order at this displacement")
