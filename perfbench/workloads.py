"""The three benchmark workloads: the CLI commands each one runs, the inputs
they read, the oracle check applied to every CSV they write, and the layers
the traced run must see.

See README.md in this directory for why each workload was chosen.  The
workload seed reaches the program only as the CLI's ``--seed``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

# Gate rates of the ROADMAP baseline plus state-preparation and readout
# errors, so SPAM inversion and post-selection have work to do.
NOISE = (
    ("p_prep_flip", 0.005),
    ("eps01", 0.01),
    ("eps10", 0.02),
    ("p_depol_1q", 0.001),
    ("p_depol_2q", 0.01),
)
NOISE_FILE = "noise.txt"

EVOLUTION_P = 6            # para-Fermi order 6 -> Q = 7
EVOLUTION_G = 0.02
EVOLUTION_POINTS = 7       # g t evenly spaced over [0, pi]
EVOLUTION_SHOTS = 5000

MANDEL_ALPHA = 0.3
MANDEL_NP = 2              # Q = 3 at every order
MANDEL_P = (1, 7)          # inclusive order range
MANDEL_SHOTS = 5000
CUTOFF_NP = (1, 5)

SWEEP_P = 2
SWEEP_ALPHA = 0.6
SWEEP = ((4, 1000), (5, 1000), (6, 40))    # (para-Bose cutoff np, shots); Q = np + 1

# Span names (see spans.TARGETS) each workload must record at least once in
# a traced pass; a zero count means the wrapper no longer sees the layer.
EXPECTED_SPANS = {
    "evolution-q7": ("cli.main", "factorize.solve", "circuits.compile",
                     "engine.run", "engine.ideal", "experiments.bootstrap",
                     "experiments.stats", "algebra.exact", "mapping.family"),
    "mandel-mitigated": ("cli.main", "factorize.solve", "circuits.compile",
                         "circuits.cancel", "engine.run", "engine.spam",
                         "engine.postselect", "experiments.bootstrap",
                         "experiments.stats", "algebra.exact",
                         "mapping.family"),
    "noisy-sweep": ("cli.main", "factorize.solve", "circuits.compile",
                    "circuits.cancel", "engine.run", "engine.ideal",
                    "engine.spam", "engine.postselect", "experiments.stats",
                    "algebra.exact", "mapping.family"),
}


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the oracle check for the CSV it writes."""

    argv: tuple[str, ...]
    out: str
    check: Callable[[str], list[str]]


def _oracle(check: str, text: str, **kwargs) -> list[str]:
    """Run oracle.<check> on a CSV's text.  The oracle loads scipy, so it is
    imported on first use, after the measuring: set-up and the cold pass
    then pay only for what parasim itself imports."""
    import oracle

    return getattr(oracle, check)(text, **kwargs)


def _circuit(run_dir: Path, p: int, np_cut: int, alpha: float, seed: int) -> str:
    """Text of the circuit ``parasim compile`` writes for a para-Bose
    displacement: the circuit ``simulate`` and the pb-mandel study run with
    the same arguments and seed.  Called by the checks only, after the
    measuring."""
    import contextlib
    import io

    import parasim.cli as cli

    path = run_dir / f"circuit-p{p}-np{np_cut}-s{seed}.txt"
    if not path.exists():
        argv = ["compile", "--kind", "pb", "--p", str(p), "--np", str(np_cut),
                "--alpha", repr(alpha), "--seed", str(seed), "--out", str(path)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"parasim {' '.join(argv)} exited {code}")
    return path.read_text()


def _range(bounds: tuple[int, int]) -> str:
    return f"{bounds[0]}..{bounds[1]}"


def evolution_times() -> list[float]:
    """Evolution times t with g t evenly spaced over [0, pi]."""
    return [float(x) for x in np.linspace(0.0, np.pi, EVOLUTION_POINTS) / EVOLUTION_G]


def shot_sizes(name: str) -> dict:
    """Shot counts of a workload, keyed by register width Q, for provenance."""
    if name == "evolution-q7":
        return {"7": EVOLUTION_SHOTS}
    if name == "mandel-mitigated":
        return {"3": MANDEL_SHOTS}
    if name == "noisy-sweep":
        return {str(np_cut + 1): shots for np_cut, shots in SWEEP}
    raise ValueError(f"unknown workload {name!r}")


def write_inputs(name: str, run_dir: Path) -> None:
    """Write the files the workload's commands read into run_dir."""
    if name in ("mandel-mitigated", "noisy-sweep"):
        text = "".join(f"{key} {value!r}\n" for key, value in NOISE)
        (run_dir / NOISE_FILE).write_text(text)


def commands(name: str, seed: int, run_dir: Path) -> list[Command]:
    """The workload's CLI commands, reading and writing under run_dir."""
    noise = str(run_dir / NOISE_FILE)
    mitigation = ["--noise", noise, "--spam-correct", "--postselect"]
    if name == "evolution-q7":
        out = str(run_dir / "evolution.csv")
        times = ",".join(repr(t) for t in evolution_times())
        argv = ["study", "pf-evolution", "--p", str(EVOLUTION_P),
                "--g", repr(EVOLUTION_G), "--times", times,
                "--shots", str(EVOLUTION_SHOTS), "--seed", str(seed), "--out", out]
        xs = [EVOLUTION_G * t for t in evolution_times()]
        return [Command(tuple(argv), out,
                        partial(_oracle, "check_evolution", p=EVOLUTION_P, xs=xs))]
    if name == "mandel-mitigated":
        p_values = list(range(MANDEL_P[0], MANDEL_P[1] + 1))
        np_values = list(range(CUTOFF_NP[0], CUTOFF_NP[1] + 1))
        mandel_out = str(run_dir / "mandel.csv")
        cutoff_out = str(run_dir / "cutoff.csv")
        mandel = ["study", "pb-mandel", "--alpha", repr(MANDEL_ALPHA),
                  "--np", str(MANDEL_NP), "--p", _range(MANDEL_P),
                  "--shots", str(MANDEL_SHOTS), *mitigation,
                  "--seed", str(seed), "--out", mandel_out]
        cutoff = ["study", "cutoff", "--alpha", repr(MANDEL_ALPHA),
                  "--p", _range(MANDEL_P), "--np-range", _range(CUTOFF_NP),
                  "--seed", str(seed), "--out", cutoff_out]
        return [
            Command(tuple(mandel), mandel_out,
                    partial(_oracle, "check_mandel", alpha=MANDEL_ALPHA,
                            np_cut=MANDEL_NP, p_values=p_values, noise=NOISE,
                            circuit_of=lambda i: _circuit(run_dir, p_values[i], MANDEL_NP,
                                                          MANDEL_ALPHA, seed + i))),
            Command(tuple(cutoff), cutoff_out,
                    partial(_oracle, "check_cutoff", alpha=MANDEL_ALPHA,
                            p_values=p_values, np_values=np_values)),
        ]
    if name == "noisy-sweep":
        out = []
        for np_cut, shots in SWEEP:
            path = str(run_dir / f"simulate-np{np_cut}.csv")
            argv = ["simulate", "--kind", "pb", "--p", str(SWEEP_P),
                    "--np", str(np_cut), "--alpha", repr(SWEEP_ALPHA),
                    "--shots", str(shots), *mitigation,
                    "--seed", str(seed), "--out", path]
            out.append(Command(tuple(argv), path,
                               partial(_oracle, "check_simulate", p=SWEEP_P,
                                       np_cut=np_cut, alpha=SWEEP_ALPHA, noise=NOISE,
                                       circuit=partial(_circuit, run_dir, SWEEP_P, np_cut,
                                                       SWEEP_ALPHA, seed))))
        return out
    raise ValueError(f"unknown workload {name!r}")
