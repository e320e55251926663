"""Number-operator observables, Mandel Q statistics and the three headline
studies: the driven para-Fermi number evolution, the para-Bose Mandel Q
sweep over the order p, and the cutoff study of the truncation error.

The para-particle number is identified per shot from the one-hot readout:
<N> = sum_m m P(bit m reads 1) and <N^2> = sum_m m^2 P(bit m reads 1),
which are the exact moments on the one-hot subspace.
"""
from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, replace

import numpy as np

from .algebra import ParaSpec, displaced_vacuum_exact
from .circuits import Circuit, compile_displacement, gate_counts
from .engine import (
    EmptyShotSetError,
    Marginals,
    NoiseModel,
    ShotSet,
    postselect,
    run_and_sample,
    spam_correct,
)
from .factorize import solve_displacement
from .mapping import generator_family

SOURCE_EXACT = "exact"
SOURCE_RAW = "shots_raw"
SOURCE_SPAM = "shots_spam"
SOURCE_POST = "shots_postselected"


@dataclass(frozen=True)
class NumberStats:
    mean_n: float
    mean_n2: float
    mandel_q: float | None
    stderr_mean: float
    source: str
    mandel_stderr: float = float("nan")
    retained_fraction: float = 1.0


@dataclass(frozen=True)
class SeriesPoint:
    x: float
    stats: dict  # label -> NumberStats

    def __post_init__(self):
        if not np.isfinite(self.x):
            raise ValueError("series abscissa must be finite")


_MEAN_FLOOR = 1e-12  # below this <N> the Mandel parameter is undefined


def _mandel_from_moments(mean_n: float, mean_n2: float) -> float | None:
    if mean_n <= _MEAN_FLOOR:
        return None
    return (mean_n2 - mean_n * mean_n) / mean_n - 1.0


def number_stats(data: ShotSet | Marginals, num_qubits: int,
                 source: str = SOURCE_RAW) -> NumberStats:
    """Number moments from shot counts or (possibly corrected) marginals."""
    weights = np.arange(num_qubits, dtype=float)
    if isinstance(data, ShotSet):
        if not data.counts or data.shots == 0:
            raise EmptyShotSetError("no shots to analyze")
        values, values2, counts = [], [], []
        for bstr, count in data.counts.items():
            bits = np.array([int(c) for c in bstr], dtype=float)
            values.append(float(bits @ weights))
            values2.append(float(bits @ weights ** 2))
            counts.append(count)
        values = np.array(values)
        values2 = np.array(values2)
        counts = np.array(counts, dtype=float)
        total = counts.sum()
        mean = float(values @ counts / total)
        mean2 = float(values2 @ counts / total)
        var_per_shot = float((values - mean) ** 2 @ counts / total)
        stderr = float(np.sqrt(var_per_shot / total))
        return NumberStats(mean_n=mean, mean_n2=mean2,
                           mandel_q=_mandel_from_moments(mean, mean2),
                           stderr_mean=stderr, source=source,
                           retained_fraction=data.retained_fraction)
    mean = float(weights @ data.p1)
    mean2 = float(weights ** 2 @ data.p1)
    stderr = float(np.sqrt(weights ** 2 @ data.stderr_p1 ** 2))
    return NumberStats(mean_n=mean, mean_n2=mean2,
                       mandel_q=_mandel_from_moments(mean, mean2),
                       stderr_mean=stderr, source=source,
                       retained_fraction=data.retained_fraction)


def exact_number_stats(spec: ParaSpec, alpha: float) -> NumberStats:
    """Moments of the dense displaced vacuum; the reference for every study."""
    probs = np.abs(displaced_vacuum_exact(spec, alpha)) ** 2
    levels = np.arange(spec.dim, dtype=float)
    mean = float(probs @ levels)
    mean2 = float(probs @ levels ** 2)
    return NumberStats(mean_n=mean, mean_n2=mean2,
                       mandel_q=_mandel_from_moments(mean, mean2),
                       stderr_mean=0.0, source=SOURCE_EXACT)


def mandel_q(stats: NumberStats) -> float:
    """(variance - mean)/mean of the number distribution; sign separates
    sub- from super-Poissonian statistics.  Undefined at zero mean."""
    value = _mandel_from_moments(stats.mean_n, stats.mean_n2)
    if value is None:
        raise ValueError("Mandel Q is undefined at <N> = 0")
    return value


def uncertainty(shotset: ShotSet, statistic: str, resamples: int = 500,
                seed: int = 0, pipeline=None) -> float:
    """Bootstrap standard deviation of mean_n or mandel_q over multinomially
    resampled histograms; `pipeline` optionally re-applies a mitigation step
    (ShotSet -> NumberStats) to every bootstrap draw."""
    if shotset.shots < 2:
        raise ValueError("bootstrap needs at least 2 shots")
    if resamples < 2:
        raise ValueError("bootstrap needs at least 2 resamples")
    if statistic not in ("mean_n", "mandel_q"):
        raise ValueError(f"unknown statistic {statistic!r}")
    rng = np.random.default_rng(seed)
    keys = sorted(shotset.counts)
    probs = np.array([shotset.counts[k] for k in keys], dtype=float)
    probs /= probs.sum()
    q = len(keys[0])
    samples = []
    for _ in range(resamples):
        draw = rng.multinomial(shotset.shots, probs)
        counts = {k: int(c) for k, c in zip(keys, draw) if c > 0}
        resampled = ShotSet(counts=counts, shots=int(draw.sum()), seed=shotset.seed,
                            retained_fraction=shotset.retained_fraction)
        try:
            stats = pipeline(resampled) if pipeline else number_stats(resampled, q)
            value = getattr(stats, statistic)
        except (EmptyShotSetError, ValueError):
            continue
        if value is not None and np.isfinite(value):
            samples.append(value)
    if len(samples) < 2:
        raise ValueError("bootstrap produced fewer than 2 valid resamples")
    return float(np.std(samples, ddof=1))


def _shot_sources(circuit: Circuit, spec: ParaSpec, shots: int,
                  noise: NoiseModel | None, seed: int, spam: bool,
                  postselect_flag: bool, mitigation_order: str,
                  resamples: int) -> dict:
    """Raw, SPAM-corrected and post-selected series for one study point."""
    q = spec.num_qubits
    raw = run_and_sample(circuit, shots, noise, seed)
    out = {SOURCE_RAW: number_stats(raw, q, SOURCE_RAW)}
    if spam:
        if noise is None:
            raise ValueError("SPAM correction requires a noise model")
        out[SOURCE_SPAM] = number_stats(spam_correct(raw, noise), q, SOURCE_SPAM)
    if postselect_flag:
        if spam and mitigation_order == "spam-first":
            stats = _postselect_corrected(spam_correct(raw, noise), q)
        elif spam:  # postselect-first
            stats = number_stats(spam_correct(postselect(raw), noise), q, SOURCE_POST)
        else:
            selected = postselect(raw)
            if selected.shots == 0:
                raise EmptyShotSetError("post-selection discarded every shot")
            stats = number_stats(selected, q, SOURCE_POST)
        out[SOURCE_POST] = stats
    # attach bootstrap spread on the Mandel parameter where it exists
    for label, stats in list(out.items()):
        if stats.mandel_q is None or shots < 2:
            continue
        try:
            spread = uncertainty(raw, "mandel_q", resamples=resamples, seed=seed,
                                 pipeline=_mandel_pipeline(label, noise, q))
        except ValueError:
            continue
        out[label] = replace(stats, mandel_stderr=spread)
    return out


def _mandel_pipeline(label: str, noise: NoiseModel | None, q: int):
    if label == SOURCE_SPAM:
        return lambda s: number_stats(spam_correct(s, noise), q, label)
    if label == SOURCE_POST:
        return lambda s: number_stats(postselect(s), q, label)
    return lambda s: number_stats(s, q, label)


def _postselect_corrected(marg: Marginals, q: int) -> NumberStats:
    """Post-selection applied to the corrected quasi-histogram: keep one-hot
    weights, renormalize, and read the level distribution directly."""
    weights = {b: w for b, w in marg.histogram.items() if b.count("1") == 1}
    total = sum(weights.values())
    if total <= 0:
        raise EmptyShotSetError("no one-hot weight left after correction")
    levels = np.arange(q, dtype=float)
    p_level = np.zeros(q)
    for bstr, w in weights.items():
        p_level[bstr.index("1")] = w / total
    mean = float(p_level @ levels)
    mean2 = float(p_level @ levels ** 2)
    kept = total * marg.shots / max(sum(marg.histogram.values()), 1e-300)
    stderr = float(np.sqrt(max(mean2 - mean * mean, 0.0) / max(kept, 1.0)))
    return NumberStats(mean_n=mean, mean_n2=mean2,
                       mandel_q=_mandel_from_moments(mean, mean2),
                       stderr_mean=stderr, source=SOURCE_POST,
                       retained_fraction=float(total))


def _study_circuit(spec: ParaSpec, alpha: float, seed: int,
                   optimize: bool) -> Circuit:
    basis = generator_family(spec.num_qubits)
    gv = solve_displacement(spec, alpha, seed=seed)
    return compile_displacement(gv, basis, optimize=optimize)


def run_pf_evolution(p: int, g: float, times, shots: int = 5000,
                     noise: NoiseModel | None = None, seed: int = 0,
                     spam: bool = False, postselect_flag: bool = False,
                     mitigation_order: str = "spam-first",
                     optimize: bool = False, resamples: int = 200) -> list[SeriesPoint]:
    """Driven para-Fermi number evolution: one point per time, x = g t.

    Circuits are compiled from the same unoptimized template so the gate
    counts are identical at every evolution time (asserted); only the
    rotation angles change.
    """
    spec = ParaSpec(kind="pf", p=p)
    points = []
    counts_seen = None
    for index, t in enumerate(times):
        if t < 0:
            raise ValueError("evolution times must be nonnegative")
        alpha = g * t
        point_seed = seed + index
        circuit = _study_circuit(spec, alpha, point_seed, optimize)
        counts = gate_counts(circuit)
        if counts_seen is None:
            counts_seen = counts
        elif counts != counts_seen:
            raise AssertionError("circuit gate counts changed across times")
        stats = {SOURCE_EXACT: exact_number_stats(spec, alpha)}
        if shots > 0:
            stats.update(_shot_sources(circuit, spec, shots, noise, point_seed,
                                       spam, postselect_flag, mitigation_order,
                                       resamples))
        points.append(SeriesPoint(x=float(g * t), stats=stats))
    return points


def run_pb_mandel_sweep(alpha: float, p_values, np_cutoff: int,
                        shots: int = 5000, noise: NoiseModel | None = None,
                        seed: int = 0, spam: bool = False,
                        postselect_flag: bool = False,
                        mitigation_order: str = "spam-first",
                        optimize: bool = True, resamples: int = 200) -> list[SeriesPoint]:
    """Mandel Q of the displaced para-Bose vacuum versus the order p."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    points = []
    for index, p in enumerate(p_values):
        spec = ParaSpec(kind="pb", p=p, np=np_cutoff)
        point_seed = seed + index
        stats = {SOURCE_EXACT: exact_number_stats(spec, alpha)}
        if shots > 0:
            circuit = _study_circuit(spec, alpha, point_seed, optimize)
            stats.update(_shot_sources(circuit, spec, shots, noise, point_seed,
                                       spam, postselect_flag, mitigation_order,
                                       resamples))
        points.append(SeriesPoint(x=float(p), stats=stats))
    return points


def cutoff_study(alpha: float, p_values, np_values) -> list[SeriesPoint]:
    """Exact Mandel Q over (p, np) pairs plus a large-cutoff reference column
    (np_ref = max(np_values) + 6) standing in for the untruncated values.
    Undefined points (alpha = 0) are excluded."""
    if alpha <= 0:
        return []
    np_ref = max(np_values) + 6
    points = []
    for p in p_values:
        stats = {}
        for np_cut in list(np_values) + [np_ref]:
            spec = ParaSpec(kind="pb", p=p, np=np_cut)
            label = f"np{np_cut}_ref" if np_cut == np_ref else f"np{np_cut}"
            stats[label] = exact_number_stats(spec, alpha)
        points.append(SeriesPoint(x=float(p), stats=stats))
    return points


# --- CSV emission -------------------------------------------------------------

CSV_COLUMNS = ("study", "x", "source", "mean_n", "mean_n2", "mandel_q",
               "stderr", "retained_fraction", "shots", "seed")


def series_to_csv(points, study: str, shots: int, seed: int,
                  provenance=()) -> str:
    """Deterministic CSV (rows sorted by x then source) with provenance
    comment lines, so identical invocations yield identical bytes."""
    lines = [f"# {line}" for line in provenance]
    lines.append(",".join(CSV_COLUMNS))
    rows = []
    for point in points:
        for label in sorted(point.stats):
            s = point.stats[label]
            mandel = "" if s.mandel_q is None else f"{s.mandel_q:.17g}"
            stderr = s.stderr_mean
            if study == "pb-mandel" and not np.isnan(s.mandel_stderr):
                stderr = s.mandel_stderr
            rows.append((point.x, label,
                         f"{study},{point.x:.17g},{label},{s.mean_n:.17g},"
                         f"{s.mean_n2:.17g},{mandel},{stderr:.17g},"
                         f"{s.retained_fraction:.17g},{shots},{seed}"))
    rows.sort(key=lambda r: (r[0], r[1]))
    lines.extend(r[2] for r in rows)
    return "\n".join(lines) + "\n"


def write_atomic(path, text: str) -> None:
    """Write via a sibling temp file and rename, so failures never leave a
    partial artifact behind."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".parasim-tmp-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
