"""Number-operator observables, Mandel Q statistics and the three headline
studies: the driven para-Fermi number evolution, the para-Bose Mandel Q
sweep over the order p, and the cutoff study of the truncation error.

The para-particle number is identified per shot from the one-hot readout:
<N> = sum_m m P(bit m reads 1) and <N^2> = sum_m m^2 P(bit m reads 1),
which are the exact moments on the one-hot subspace.

Each shot series (raw, readout-corrected, post-selected) is one estimator,
`mitigate`, on the outcomes a shot set holds, never on all 2^Q: applied alike
to their counts and to the bootstrap's draws over them, it serves `simulate`
and the studies through `shot_sources`.  Its two steps, readout inversion
(`spam_correct`) and one-hot post-selection, live here with it.
"""
from __future__ import annotations

import errno
import os
import tempfile
from dataclasses import dataclass, replace

import numpy as np

from .algebra import ParaSpec, displaced_vacuum_exact
from .circuits import compile_displacement
from .engine import NoiseModel, ShotSet, run_and_sample
from .factorize import solve_displacement
from .mapping import generator_family

SOURCE_EXACT = "exact"
SOURCE_RAW = "shots_raw"
SOURCE_SPAM = "shots_spam"
SOURCE_POST = "shots_postselected"


class EmptyShotSetError(ValueError):
    """Raised when an observable is requested from zero retained shots."""


@dataclass(frozen=True)
class NumberStats:
    mean_n: float
    mean_n2: float
    mandel_q: float  # NaN where undefined, as are the errors
    stderr_mean: float
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


def _observed(shotset: ShotSet):
    """Counts (n,) and bits (n, Q) of the outcomes held at a positive count, sorted."""
    if shotset.shots == 0:
        raise EmptyShotSetError("no shots to analyze")
    keys = sorted(b for b, c in shotset.counts.items() if c)
    bits = np.frombuffer("".join(keys).encode(), dtype=np.uint8).reshape(len(keys), -1)
    return np.array([shotset.counts[b] for b in keys]), (bits == ord("1")).astype(int)


def histogram(shotset: ShotSet) -> np.ndarray:
    """The counts as a (2^Q,) integer array indexed by outcome."""
    if shotset.shots == 0:
        raise EmptyShotSetError("no shots to analyze")
    out = np.zeros(1 << len(next(iter(shotset.counts))), dtype=np.int64)
    out[[int(b, 2) for b in shotset.counts]] = list(shotset.counts.values())
    return out


def spam_correct(data, noise: NoiseModel) -> np.ndarray:
    """Invert the per-qubit readout confusion of `noise` on an array of
    outcome weights (..., 2^Q): counts, a distribution, or one bit's two
    outcomes (Q = 1), as `mitigate` applies it.  The last axis is corrected, one 2x2 inverse per qubit
    on a strided view, into a new array of the same shape; entries may turn
    negative and are not clamped.  NoiseModel keeps the matrix invertible."""
    inv = np.linalg.inv([[1 - noise.eps01, noise.eps10], [noise.eps01, 1 - noise.eps10]])
    out = np.asarray(data, dtype=float)
    lead = out.shape[:-1]
    for k in range(out.shape[-1].bit_length() - 1):
        out = inv @ out.reshape(*lead, 1 << k, 2, -1)  # qubit k on the second last axis
    return out.reshape(*lead, -1)


def postselect(shotset: ShotSet) -> ShotSet:
    """The one-hot counts of a shot set, raw; zero retained shots yield an
    explicitly empty set."""
    kept = {b: c for b, c in shotset.counts.items() if b.count("1") == 1}
    return ShotSet(counts=kept, shots=sum(kept.values()), seed=shotset.seed)


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


def mitigate(counts: np.ndarray, bits: np.ndarray, steps, spam: NoiseModel | None = None):
    """Weights (..., rows) of a shot series and their outcome rows (rows, Q),
    from counts (..., n) of the observed outcomes `bits` (n, Q): one count
    vector for a point value, a matrix of multinomial draws for its
    bootstrap.  The readout inversion acts per bit, and its inverse's
    columns sum to one, so it leaves the Q one-hot rows: the corrected bit
    marginals as the last step, else each one-hot outcome's corrected weight
    (a product over the bits), observed or not.  Post-selection keeps the
    one-hot rows, rescaled to sum to one, or NaN where no weight is left.
    """
    weights = counts / counts.sum(axis=-1, keepdims=True)
    for step in steps:
        if step == "spam":
            inv = spam_correct(np.stack([1 - bits, bits], axis=-1), spam)  # [x, k]: inv[:, x_k]
            bits = np.eye(bits.shape[1], dtype=int)  # the one-hot rows e_m from here on
            weights = weights @ (inv[..., 1] if step == steps[-1]  # [x, m]: inv[1, x_m]
                                 else inv[:, range(len(bits)), bits].prod(axis=-1))
        else:
            weights = np.where(bits.sum(axis=1) == 1, weights, 0.0)
            total = weights.sum(axis=-1)
            weights = weights / np.where(total > 0, total, np.nan)[..., None]
    return weights, bits


def number_stats(shots: ShotSet, num_qubits: int, source: str = SOURCE_RAW,
                 spam: NoiseModel | None = None,
                 order: str = "spam-first") -> NumberStats:
    """Number moments of the shot series `source` (see mitigation_steps).

    The retained fraction is the raw counts' one-hot share if the series
    post-selects, else 1.  The standard error of <N> is the spread of the
    per-shot value over the shots kept; where the readout inversion is the
    last step it is the binomial error of each bit marginal before the
    inversion, scaled by the per-qubit inversion factor.
    """
    counts, bits = _observed(shots)
    steps = mitigation_steps(source, spam, order)
    weights, rows = mitigate(counts, bits, steps, spam)
    kept = (float((counts / shots.shots)[bits.sum(axis=1) == 1].sum())
            if "postselect" in steps else 1.0)
    if np.isnan(weights).any():
        raise EmptyShotSetError(f"no one-hot weight left in {source}")
    levels = np.arange(num_qubits, dtype=float)
    mean, mean2 = float(weights @ rows @ levels), float(weights @ rows @ levels ** 2)
    if steps[-1:] == ("spam",):
        p1 = mitigate(counts, bits, steps[:-1])[0] @ bits  # still the observed rows
        var = (levels ** 2 @ np.clip(p1 * (1 - p1), 0.0, None)
               / (1.0 - spam.eps01 - spam.eps10) ** 2)
    else:
        var = max(float(weights @ (rows @ levels - mean) ** 2), 0.0)
    return NumberStats(mean_n=mean, mean_n2=mean2, mandel_q=float(_mandel(mean, mean2)),
                       stderr_mean=float(np.sqrt(var / max(kept * shots.shots, 1.0))),
                       retained_fraction=kept)


def exact_number_stats(spec: ParaSpec, alpha: float) -> NumberStats:
    """Moments of the dense displaced vacuum, with no error: every study's reference."""
    probs = np.abs(displaced_vacuum_exact(spec, alpha)) ** 2
    levels = np.arange(spec.dim, dtype=float)
    mean, mean2 = float(probs @ levels), float(probs @ levels ** 2)
    q = float(_mandel(mean, mean2))
    return NumberStats(mean_n=mean, mean_n2=mean2, mandel_q=q, stderr_mean=0.0,
                       mandel_stderr=0.0 if np.isfinite(q) else float("nan"))


def mandel_q(stats: NumberStats) -> float:
    """(variance - mean)/mean of the number distribution; sign separates
    sub- from super-Poissonian statistics.  Undefined at zero mean."""
    value = float(_mandel(stats.mean_n, stats.mean_n2))
    if np.isnan(value):
        raise ValueError("Mandel Q is undefined at <N> = 0")
    return value


def uncertainty(shotset: ShotSet, statistic: str, resamples: int = 500,
                seed: int = 0, source: str = SOURCE_RAW,
                spam: NoiseModel | None = None, order: str = "spam-first") -> float:
    """Bootstrap standard deviation of mean_n or mandel_q of the shot series
    `source` (see number_stats).  One seeded multinomial call over the
    observed outcomes draws every resample, and the draws go through the
    same estimator as the point value; resamples where the statistic is
    undefined are dropped, and NaN is returned when fewer than 2 remain."""
    if shotset.shots < 2:
        raise ValueError("bootstrap needs at least 2 shots")
    if resamples < 2:
        raise ValueError("bootstrap needs at least 2 resamples")
    if statistic not in ("mean_n", "mandel_q"):
        raise ValueError(f"unknown statistic {statistic!r}")
    steps = mitigation_steps(source, spam, order)
    counts, bits = _observed(shotset)
    draws = np.random.default_rng(seed).multinomial(
        shotset.shots, counts / counts.sum(), size=resamples)
    weights, rows = mitigate(draws, bits, steps, spam)
    levels = np.arange(bits.shape[1], dtype=float)
    mean = weights @ rows @ levels
    values = mean if statistic == "mean_n" else _mandel(mean, weights @ rows @ levels ** 2)
    values = values[np.isfinite(values)]
    return float(np.std(values, ddof=1)) if values.size >= 2 else float("nan")


def shot_sources(raw: ShotSet, num_qubits: int, spam: NoiseModel | None = None,
                 postselect_flag: bool = False, mitigation_order: str = "spam-first",
                 resamples: int = 200) -> dict:
    """The raw series of one point's shots, plus the series corrected for
    the readout confusion of `spam` when it is given and the post-selected
    series when asked (see mitigation_steps).  Each defined Mandel Q carries
    the bootstrap spread of its own estimator, seeded with the shot set's
    seed; resamples=0 skips the bootstrap."""
    if postselect_flag and postselect(raw).shots == 0:
        raise EmptyShotSetError("post-selection discarded every shot")
    out = {}
    labels = [SOURCE_RAW] + [SOURCE_SPAM] * (spam is not None) + [SOURCE_POST] * postselect_flag
    for label in labels:
        stats = number_stats(raw, num_qubits, label, spam, mitigation_order)
        if resamples and raw.shots >= 2 and not np.isnan(stats.mandel_q):
            stats = replace(stats, mandel_stderr=uncertainty(
                raw, "mandel_q", resamples, raw.seed, label, spam, mitigation_order))
        out[label] = stats
    return out


def _sample_points(points, shots: int, noise: NoiseModel | None, seed: int,
                   spam: NoiseModel | None, postselect_flag: bool,
                   mitigation_order: str, optimize: bool) -> list[SeriesPoint]:
    """The series of a shot study: for each point (x, spec, alpha, where),
    the factored displacement compiled to native gates, its exact moments
    and, when shots > 0, the mitigated series of its shots, sampled with
    seed + its index.  An alpha the solve rejects is named with `where`."""
    series = []
    for index, (x, spec, alpha, where) in enumerate(points):
        try:
            gammas = solve_displacement(spec, alpha)
        except ValueError as exc:
            raise ValueError(f"{exc}{where}") from None
        circuit = compile_displacement(gammas, generator_family(spec.num_qubits),
                                       optimize=optimize)
        stats = {SOURCE_EXACT: exact_number_stats(spec, alpha)}
        if shots > 0:
            raw = run_and_sample(circuit, shots, noise, seed + index)
            stats.update(shot_sources(raw, spec.num_qubits, spam, postselect_flag,
                                      mitigation_order))
        series.append(SeriesPoint(x=x, stats=stats))
    return series


def run_pf_evolution(p: int, g: float, times, shots: int = 5000,
                     noise: NoiseModel | None = None, seed: int = 0,
                     spam: NoiseModel | None = None, postselect_flag: bool = False,
                     mitigation_order: str = "spam-first") -> list[SeriesPoint]:
    """Driven para-Fermi number evolution: one point per time, x = g t.

    Circuits are compiled from the same fixed template, without the
    cancellation pass, so the gate counts are identical at every evolution
    time; only the rotation angles change.  Defined Mandel Q values carry a
    200-resample bootstrap error.  `spam` is the readout model to invert,
    or None.
    """
    spec = ParaSpec(kind="pf", p=p)
    times = [float(t) for t in times]
    if any(t < 0 for t in times):
        raise ValueError("evolution times must be nonnegative")
    points = [(g * t, spec, g * t, f", at time {t!r} and g {g!r}") for t in times]
    return _sample_points(points, shots, noise, seed, spam, postselect_flag,
                          mitigation_order, optimize=False)


def run_pb_mandel_sweep(alpha: float, p_values, np_cutoff: int,
                        shots: int = 5000, noise: NoiseModel | None = None,
                        seed: int = 0, spam: NoiseModel | None = None,
                        postselect_flag: bool = False,
                        mitigation_order: str = "spam-first") -> list[SeriesPoint]:
    """Mandel Q of the displaced para-Bose vacuum versus the order p, from
    cancelled circuits; defined Q values carry a 200-resample bootstrap
    error."""
    if not np.isfinite(alpha) or alpha < 0:
        raise ValueError(f"alpha must be finite and nonnegative, not {alpha!r}")
    points = [(float(p), ParaSpec(kind="pb", p=p, np=np_cutoff), alpha, f", at order p {p}")
              for p in p_values]
    return _sample_points(points, shots, noise, seed, spam, postselect_flag,
                          mitigation_order, optimize=True)


def cutoff_study(alpha: float, p_values, np_values) -> list[SeriesPoint]:
    """Exact Mandel Q over (p, np) pairs plus a large-cutoff reference column
    (np_ref = max(np_values) + 6) standing in for the untruncated values.
    Undefined points (alpha = 0) are excluded."""
    if not np.isfinite(alpha) or alpha < 0:
        raise ValueError(f"alpha must be finite and nonnegative, not {alpha!r}")
    if alpha == 0:
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


def _field(value: float) -> str:
    return "" if np.isnan(value) else f"{value:.17g}"


def series_to_csv(points, study: str, shots: int, seed: int,
                  provenance=()) -> str:
    """Deterministic CSV (rows sorted by x then source) with provenance
    comment lines, so identical invocations yield identical bytes.  stderr is
    Mandel Q's error in pb-mandel, else <N>'s; undefined values are empty."""
    lines = [f"# {line}" for line in provenance]
    lines.append(",".join(CSV_COLUMNS))
    rows = []
    for point in points:
        for label in sorted(point.stats):
            s = point.stats[label]
            stderr = s.mandel_stderr if study == "pb-mandel" else s.stderr_mean
            rows.append((point.x, label,
                         f"{study},{point.x:.17g},{label},{s.mean_n:.17g},"
                         f"{s.mean_n2:.17g},{_field(s.mandel_q)},{_field(stderr)},"
                         f"{s.retained_fraction:.17g},{shots},{seed}"))
    rows.sort(key=lambda r: (r[0], r[1]))
    lines.extend(r[2] for r in rows)
    return "\n".join(lines) + "\n"


def write_atomic(outputs) -> None:
    """Write each (path, text) of `outputs` via a sibling temp file.  Every
    file is staged before any is renamed, so a failure to stage one, a
    directory target included, leaves none of them and no temp file
    behind; an OSError names the path asked for."""
    staged = []
    try:
        for path, text in outputs:
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                       prefix=".parasim-tmp-")
            staged.append((tmp, path))
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
        for tmp, path in staged:
            os.replace(tmp, path)
    except OSError as exc:  # name the file asked for, not the temp file
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
    finally:
        for tmp, _ in staged:
            if os.path.exists(tmp):
                os.unlink(tmp)
