"""Number-operator observables, Mandel Q statistics and the three headline
studies: the driven para-Fermi number evolution, the para-Bose Mandel Q
sweep over the order p, and the cutoff study of the truncation error.

The para-particle number is identified per shot from the one-hot readout:
<N> = sum_m m P(bit m reads 1) and <N^2> = sum_m m^2 P(bit m reads 1),
which are the exact moments on the one-hot subspace.

Each shot series (raw, readout-corrected, post-selected) is one estimator,
`mitigate`, on (..., 2^Q) outcome counts, applied alike to the histogram
and to the bootstrap's matrix of resampled histograms; `simulate` and the
studies share it through `shot_sources`.
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
    NoiseModel,
    ShotSet,
    histogram,
    outcome_bits,
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
MITIGATION_ORDERS = ("spam-first", "postselect-first")


def _mandel(mean, mean2):
    """(variance - mean)/mean of the level distribution, elementwise; NaN
    where <N> is at or below the floor."""
    mean = np.asarray(mean, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(mean > _MEAN_FLOOR, (mean2 - mean * mean) / mean - 1.0, np.nan)


def _mandel_from_moments(mean: float, mean2: float) -> float | None:
    value = float(_mandel(mean, mean2))
    return None if np.isnan(value) else value


def _level_sums(num_qubits: int):
    """Per outcome, the sum of the indices m of its set bits and the sum of
    their squares m^2: the level and its square on one-hot outcomes."""
    bits = outcome_bits(num_qubits)
    levels = np.arange(num_qubits, dtype=float)
    return bits @ levels, bits @ levels ** 2


def mitigation_steps(source: str, spam: NoiseModel | None = None,
                     order: str = "spam-first") -> tuple[str, ...]:
    """The steps that build the shot series `source` from raw counts, in the
    order they apply: "spam" inverts the readout confusion of `spam` and
    "postselect" keeps the one-hot outcomes.  shots_spam needs `spam`;
    shots_postselected also inverts the confusion when `spam` is given,
    before or after post-selection as `order` says."""
    steps = {SOURCE_RAW: (), SOURCE_SPAM: ("spam",), SOURCE_POST: ("postselect",)}
    if source not in steps or order not in MITIGATION_ORDERS:
        raise ValueError(f"unknown shot series {source!r} or mitigation order {order!r}")
    if source == SOURCE_SPAM and spam is None:
        raise ValueError("SPAM correction requires a noise model")
    if source == SOURCE_POST and spam is not None:
        return ("spam", "postselect") if order == "spam-first" else ("postselect", "spam")
    return steps[source]


def mitigate(counts: np.ndarray, steps, spam: NoiseModel | None = None):
    """Outcome weights (..., 2^Q) of a shot series from outcome counts
    (..., 2^Q), each row summing to one, and the share (...) of the counts
    the series keeps; rows that keep nothing have NaN weights.

    Point estimates pass one histogram and the bootstrap one matrix of
    multinomial draws, so a value and its error bar share the estimator.
    """
    weights = counts / counts.sum(axis=-1, keepdims=True)
    kept = np.ones(weights.shape[:-1])
    for step in steps:
        if step == "spam":
            weights = spam_correct(weights, spam)
        else:
            onehot = outcome_bits(weights.shape[-1].bit_length() - 1).sum(axis=1) == 1
            weights = np.where(onehot, weights, 0.0)
            kept = weights.sum(axis=-1)
            weights = weights / np.where(kept > 0, kept, np.nan)[..., None]
    return weights, kept


def number_stats(shots: ShotSet, num_qubits: int, source: str = SOURCE_RAW,
                 spam: NoiseModel | None = None,
                 order: str = "spam-first") -> NumberStats:
    """Number moments of the shot series `source` (see mitigation_steps).

    The standard error of <N> is the spread of the per-shot value over the
    shots the series keeps.  Where the readout inversion is the last step it
    is the binomial error of each bit marginal before the inversion, scaled
    by the per-qubit inversion factor.
    """
    counts = histogram(shots)
    steps = mitigation_steps(source, spam, order)
    weights, kept = mitigate(counts, steps, spam)
    kept = float(kept)
    if not kept > 0:
        raise EmptyShotSetError(f"no one-hot weight left in {source}")
    level, level2 = _level_sums(num_qubits)
    mean, mean2 = float(weights @ level), float(weights @ level2)
    if steps[-1:] == ("spam",):
        p1 = mitigate(counts, steps[:-1])[0] @ outcome_bits(num_qubits)
        var = (np.arange(num_qubits) ** 2 @ np.clip(p1 * (1 - p1), 0.0, None)
               / (1.0 - spam.eps01 - spam.eps10) ** 2)
    else:
        var = max(float(weights @ (level - mean) ** 2), 0.0)
    return NumberStats(mean_n=mean, mean_n2=mean2, mandel_q=_mandel_from_moments(mean, mean2),
                       stderr_mean=float(np.sqrt(var / max(kept * shots.shots, 1.0))),
                       source=source, retained_fraction=shots.retained_fraction * kept)


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
                seed: int = 0, source: str = SOURCE_RAW,
                spam: NoiseModel | None = None, order: str = "spam-first") -> float:
    """Bootstrap standard deviation of mean_n or mandel_q of the shot series
    `source` (see number_stats).  One seeded multinomial call draws every
    resampled histogram, and the matrix of draws goes through the same
    estimator as the point value; resamples where the statistic is
    undefined are dropped."""
    if shotset.shots < 2:
        raise ValueError("bootstrap needs at least 2 shots")
    if resamples < 2:
        raise ValueError("bootstrap needs at least 2 resamples")
    if statistic not in ("mean_n", "mandel_q"):
        raise ValueError(f"unknown statistic {statistic!r}")
    steps = mitigation_steps(source, spam, order)
    counts = histogram(shotset)
    seen = np.flatnonzero(counts)
    draws = np.zeros((resamples, counts.size))
    draws[:, seen] = np.random.default_rng(seed).multinomial(
        shotset.shots, counts[seen] / counts[seen].sum(), size=resamples)
    weights, _ = mitigate(draws, steps, spam)
    level, level2 = _level_sums(counts.size.bit_length() - 1)
    mean = weights @ level
    values = mean if statistic == "mean_n" else _mandel(mean, weights @ level2)
    values = values[np.isfinite(values)]
    if values.size < 2:
        raise ValueError("bootstrap produced fewer than 2 valid resamples")
    return float(np.std(values, ddof=1))


def shot_sources(raw: ShotSet, num_qubits: int, noise: NoiseModel | None = None,
                 spam: bool = False, postselect_flag: bool = False,
                 mitigation_order: str = "spam-first", resamples: int = 200) -> dict:
    """The raw series of one point's shots, plus the readout-corrected and
    the post-selected series when asked (see mitigation_steps).  Each
    defined Mandel Q carries the bootstrap spread of its own estimator,
    seeded with the shot set's seed; resamples=0 skips the bootstrap."""
    if postselect_flag and postselect(raw).shots == 0:
        raise EmptyShotSetError("post-selection discarded every shot")
    spam_noise = noise if spam else None
    out = {}
    for label in [SOURCE_RAW] + [SOURCE_SPAM] * spam + [SOURCE_POST] * postselect_flag:
        stats = number_stats(raw, num_qubits, label, spam_noise, mitigation_order)
        if resamples and raw.shots >= 2 and stats.mandel_q is not None:
            try:
                stats = replace(stats, mandel_stderr=uncertainty(
                    raw, "mandel_q", resamples, raw.seed, label, spam_noise, mitigation_order))
            except ValueError:  # too few resamples with a defined Q: no error bar
                pass
        out[label] = stats
    return out


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
            raw = run_and_sample(circuit, shots, noise, point_seed)
            stats.update(shot_sources(raw, spec.num_qubits, noise, spam,
                                      postselect_flag, mitigation_order, resamples))
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
            raw = run_and_sample(circuit, shots, noise, point_seed)
            stats.update(shot_sources(raw, spec.num_qubits, noise, spam,
                                      postselect_flag, mitigation_order, resamples))
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
