"""Seeded outputs against the golden files in tests/golden/.

Each case runs its commands through `parasim.cli.main` and compares the
data rows they print or write (comment lines, such as the provenance,
dropped) with the case's golden file.  The cases are the benchmark
workloads' commands at seeds 1, 5 and 9, the shot studies' other modes, a
Q = 8 shot set, a noiseless Q = 16 shot set, shots with preparation noise
only, the `--svg` text of the three studies, `verify` at Q = 3 and Q = 20
and the gate counts of `compile` at Q = 3..9.  Keys and integers (counts, shots, seeds,
bitstrings) compare exactly; floats at 1e-12 relative, with a 1e-13
absolute floor so that round-off residuals such as `verify`'s may differ
between BLAS builds.

`python tests/golden/regen.py` rewrites the files; a change that moves
them says what and why.
"""
import contextlib
import io
import math
import re
from pathlib import Path

import pytest

from parasim.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

NOISE = "p_prep_flip 0.005\neps01 0.01\neps10 0.02\np_depol_1q 0.001\np_depol_2q 0.01\n"
PREP_NOISE = "p_prep_flip 0.005\n"  # no gate can kick
NOISE_FILES = {"noise.txt": NOISE, "prep-noise.txt": PREP_NOISE}
MITIGATION = ("--noise", "{dir}/noise.txt", "--spam-correct", "--postselect")
# g t evenly spaced over [0, pi] at g = 0.02
TIMES = ("0.0,26.17993877991494,52.35987755982988,78.53981633974483,"
         "104.71975511965977,130.8996938995747,157.07963267948966")
EVOLUTION = ("study", "pf-evolution", "--p", "6", "--g", "0.02", "--times", TIMES)
MANDEL = ("study", "pb-mandel", "--alpha", "0.3", "--np", "2", "--p", "1..7")

CASES = {}
for _seed in ("1", "5", "9"):
    CASES[f"evolution-q7-s{_seed}"] = [(*EVOLUTION, "--shots", "5000", "--seed", _seed)]
    CASES[f"mandel-mitigated-s{_seed}"] = [
        (*MANDEL, "--shots", "5000", *MITIGATION, "--seed", _seed),
        ("study", "cutoff", "--alpha", "0.3", "--p", "1..7", "--np-range", "1..5",
         "--seed", _seed),
    ]
    CASES[f"noisy-sweep-s{_seed}"] = [
        ("simulate", "--kind", "pb", "--p", "2", "--np", np_cut, "--alpha", "0.6",
         "--shots", shots, *MITIGATION, "--seed", _seed)
        for np_cut, shots in (("4", "1000"), ("5", "1000"), ("6", "40"))]
CASES.update({
    "pb-mandel-postselect-first": [(*MANDEL, "--shots", "5000", *MITIGATION,
                                    "--mitigation-order", "postselect-first", "--seed", "1")],
    "pb-mandel-no-shots": [(*MANDEL, "--shots", "0")],
    "pf-evolution-no-shots": [(*EVOLUTION, "--shots", "0")],
    "simulate-q8-shotset": [("simulate", "--kind", "pb", "--p", "2", "--np", "7",
                             "--alpha", "0.6", "--shots", "2000", *MITIGATION, "--seed", "1",
                             "--shotset-out", "{dir}/q8-shots.txt")],
    "simulate-q16-ideal": [("simulate", "--kind", "pb", "--p", "2", "--np", "15",
                            "--alpha", "0.5", "--shots", "5000", "--seed", "1",
                            "--shotset-out", "{dir}/q16-shots.txt")],
    "simulate-prep-only": [("simulate", "--kind", "pb", "--p", "2", "--np", np_cut,
                            "--alpha", "0.6", "--shots", "5000", "--noise",
                            "{dir}/prep-noise.txt", "--postselect", "--seed", "1",
                            "--shotset-out", f"{{dir}}/np{np_cut}-shots.txt")
                           for np_cut in ("2", "6")],
    "study-figures": [(*EVOLUTION, "--shots", "5000", "--seed", "1",
                       "--svg", "{dir}/pf-evolution.svg"),
                      (*MANDEL, "--shots", "5000", *MITIGATION, "--seed", "1",
                       "--svg", "{dir}/pb-mandel.svg"),
                      ("study", "cutoff", "--alpha", "0.3", "--p", "1..7",
                       "--np-range", "1..5", "--svg", "{dir}/cutoff.svg")],
    "verify-q3": [("verify", "--kind", "pb", "--p", "1..3", "--np", "2")],
    "verify-q20": [("verify", "--kind", "pb", "--p", "2", "--np", "19")],
    "compile-q3-q9": [("compile", "--kind", "pb", "--p", "2", "--np", str(q - 1),
                       "--alpha", "0.5") for q in range(3, 10)],
})


def run_case(name: str, directory) -> list[str]:
    """The data rows of a case: what its commands print, then the files they
    write into `directory`, in name order, without comment lines."""
    directory = Path(directory)
    for file_name, text in NOISE_FILES.items():
        (directory / file_name).write_text(text)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        for argv in CASES[name]:
            argv = [arg.format(dir=directory) for arg in argv]
            code = main(argv)
            if code != 0:
                raise RuntimeError(f"parasim {' '.join(argv)} exited {code}")
    written = sorted(p for p in directory.iterdir() if p.name not in NOISE_FILES)
    text = printed.getvalue() + "".join(p.read_text() for p in written)
    return [line for line in text.splitlines() if not line.startswith("#")]


_INTEGER = re.compile(r"[+-]?[0-9]+")


def _same(got: str, want: str) -> bool:
    if got == want:
        return True
    if _INTEGER.fullmatch(got) or _INTEGER.fullmatch(want):
        return False
    try:
        return math.isclose(float(got), float(want), rel_tol=1e-12, abs_tol=1e-13)
    except ValueError:
        return False


def _tokens(line: str) -> list[str]:
    return re.split(r"[,= ]", line)


@pytest.mark.parametrize("name", sorted(CASES))
def test_seeded_outputs_match_the_golden_rows(name, tmp_path):
    got = run_case(name, tmp_path)
    want = (GOLDEN / f"{name}.txt").read_text().splitlines()
    assert len(got) == len(want), f"{len(got)} rows, golden has {len(want)}"
    differ = [(g, w) for g, w in zip(got, want)
              if len(_tokens(g)) != len(_tokens(w))
              or not all(map(_same, _tokens(g), _tokens(w)))]
    assert not differ, "rows differ from the golden (got, golden):\n" + "\n".join(
        f"{g}\n{w}" for g, w in differ[:5])
