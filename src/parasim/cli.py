"""Command-line front end: algebra verification, displacement factorization,
native-gate compilation, single-point simulation and the three studies.

Exit codes: 0 success, 1 computation/identity failure, 2 invalid configuration.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path

import numpy as np

from . import svgplot
from .algebra import ParaSpec, build_fock_ops, verify_truncation_identity
from .circuits import compile_displacement, gate_counts, write_circuit
from .engine import NoiseModel, run_and_sample, shotset_to_text
from .experiments import (
    MITIGATION_ORDERS,
    SOURCE_EXACT,
    EmptyShotSetError,
    cutoff_study,
    exact_number_stats,
    run_pb_mandel_sweep,
    run_pf_evolution,
    series_to_csv,
    shot_sources,
    write_atomic,
    SeriesPoint,
)
# not called here; bound for perfbench/spans.py, which wraps names where cli binds them
from .experiments import number_stats, postselect, spam_correct  # noqa: F401
from .factorize import (
    FactorizationError,
    read_gamma_document,
    solve_displacement,
    write_gamma_document,
)
from .mapping import (
    build_xy_hamiltonian,
    check_jacobi,
    generator_family,
    onehot_block,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2


def parse_int_range(text: str, flag: str) -> list[int]:
    """'3' -> [3]; '1..5' -> [1, 2, 3, 4, 5] (inclusive); errors name `flag`."""
    lo, dots, hi = text.partition("..")
    try:
        lo, hi = int(lo), int(hi if dots else lo)
    except ValueError:
        raise ValueError(f"{flag} takes an integer or a range a..b, not {text!r}") from None
    if hi < lo:
        raise ValueError(f"{flag} {text!r} is an empty range")
    return list(range(lo, hi + 1))


def parse_float_list(text: str, flag: str) -> list[float]:
    """'0.5,1,2' -> [0.5, 1.0, 2.0], finite numbers only; errors name `flag`."""
    try:
        values = [float(x) for x in text.split(",") if x.strip()]
        if np.all(np.isfinite(values)):
            return values
    except ValueError:
        pass
    raise ValueError(f"{flag} takes comma-separated finite numbers, not {text!r}")


def read_noise_file(path) -> NoiseModel:
    """Lines `key value` or `key=value`, each key of NoiseModel at most once;
    a ValueError names the file."""
    known = {field.name for field in dataclasses.fields(NoiseModel)}
    values = {}
    try:
        for line in Path(path).read_text().splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition(" ")
            if not value:
                key, _, value = line.partition("=")
            key = key.strip()
            if key not in known:
                raise ValueError(f"unknown key {key!r}")
            if key in values:
                raise ValueError(f"key {key!r} given twice")
            try:
                values[key] = float(value)
            except ValueError:
                raise ValueError(f"cannot parse {line!r}: want '<key> <number>'") from None
        return NoiseModel(**values)
    except ValueError as exc:
        raise ValueError(f"noise file {path}: {exc}") from None


def _spec(kind: str, p: int, np_cutoff: int | None) -> ParaSpec:
    """The spec of --kind/--p/--np; a para-Fermi --np must be p/2."""
    if kind == "pb" and np_cutoff is None:
        raise ValueError("--np is required for para-bosons")
    spec = ParaSpec(kind=kind, p=p, np=np_cutoff or 0)
    if np_cutoff not in (None, spec.np):
        raise ValueError(f"para-fermion cutoff must be p/2 = {spec.np}")
    return spec


def _provenance(args) -> list[str]:
    return [f"parasim {' '.join(args.argv)}", f"seed {args.seed}"]


def _emit(out, text: str, files=()) -> None:
    """Write text to the file out, or print it when out is None, and write
    the (path, text) files with it: all of them or, on an error, none."""
    write_atomic(([(out, text)] if out else []) + list(files))
    if not out:
        sys.stdout.write(text)


def cmd_verify(args) -> int:
    p_values = parse_int_range(args.p_range, "--p")
    if args.kind == "pf" and len(p_values) > 1:
        p_values = [p for p in p_values if p % 2 == 0]
    lines = ["check,kind,p,np,value,pass"]
    ok = True
    algebra = {}  # width -> (closure, jacobi): they depend on nothing else
    for p in p_values:
        spec = _spec(args.kind, p, args.np)
        report = verify_truncation_identity(spec, tol=1e-12)
        lines.append(f"commutator_identity,{spec.kind},{spec.p},{spec.np},"
                     f"residual={report.residual_norm:.3e} beta={report.beta:.12g},"
                     f"{report.passes}")
        ok &= report.passes
        q = spec.num_qubits
        ham = onehot_block(build_xy_hamiltonian(spec, 1.0))
        ops = build_fock_ops(spec)
        map_res = float(np.max(np.abs(ham - (ops.a + ops.adag))))
        lines.append(f"xy_mapping,{spec.kind},{spec.p},{spec.np},"
                     f"residual={map_res:.3e},{map_res <= 1e-12}")
        ok &= map_res <= 1e-12
        if q not in algebra:
            try:  # check_jacobi raises if the family does not close
                algebra[q] = True, check_jacobi(generator_family(q))
            except ValueError:
                algebra[q] = False, False
        closure, jacobi = algebra[q]
        lines.append(f"commutator_closure,{spec.kind},{spec.p},{spec.np},Q={q},{closure}")
        lines.append(f"jacobi,{spec.kind},{spec.p},{spec.np},Q={q},{jacobi}")
        ok &= closure and jacobi
    _emit(args.out, "\n".join(lines) + "\n")
    return EXIT_OK if ok else EXIT_FAIL


def cmd_factorize(args) -> int:
    spec = _spec(args.kind, args.p, args.np)
    gv = solve_displacement(spec, args.alpha)
    if args.out:
        write_gamma_document(args.out, gv, spec, args.alpha)
    else:
        for label, gamma in zip(gv.labels, gv.gammas):
            print(f"{label} {gamma:.17g}")
        print(f"residual_onehot {gv.residual:.3e}")
        print(f"residual_full {gv.residual_full:.3e}")
    return EXIT_OK


def cmd_compile(args) -> int:
    spec_flags = (args.kind, args.p, args.np, args.alpha)
    if args.gammas and any(flag is not None for flag in spec_flags):
        raise ValueError("compile takes --gammas or --kind/--p/--np/--alpha, not both")
    if args.gammas:
        gv, spec, _alpha = read_gamma_document(args.gammas)
    elif args.kind is None or args.p is None or args.alpha is None:
        raise ValueError("compile needs --gammas or --kind/--p/--alpha")
    else:
        spec = _spec(args.kind, args.p, args.np)
        gv = solve_displacement(spec, args.alpha)
    basis = generator_family(spec.num_qubits)
    circuit = compile_displacement(gv, basis, optimize=not args.no_optimize)
    counts = gate_counts(circuit)
    if args.out:
        write_circuit(args.out, circuit)
    print(f"qubits {circuit.num_qubits} one_qubit {counts['one_qubit']} "
          f"two_qubit {counts['two_qubit']}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    spec = _spec(args.kind, args.p, args.np)
    noise, spam = _readout(args)
    gv = solve_displacement(spec, args.alpha)
    basis = generator_family(spec.num_qubits)
    circuit = compile_displacement(gv, basis, optimize=True)
    raw = run_and_sample(circuit, args.shots, noise, args.seed)
    # the studies' estimators in their default order; the CSV has no Mandel
    # error column, so no bootstrap
    stats = {SOURCE_EXACT: exact_number_stats(spec, args.alpha),
             **shot_sources(raw, spec.num_qubits, spam, args.postselect, resamples=0)}
    point = SeriesPoint(x=args.alpha, stats=stats)
    csv = series_to_csv([point], "simulate", args.shots, args.seed, _provenance(args))
    shotset = [(args.shotset_out, shotset_to_text(raw, noise))] if args.shotset_out else []
    _emit(args.out, csv, shotset)
    return EXIT_OK


def _study_series(points, value: str):
    series = {}
    for point in points:
        for label, stats in point.stats.items():
            y = getattr(stats, value)
            if np.isnan(y):
                continue
            xs, ys, errs = series.setdefault(label, ([], [], []))
            xs.append(point.x)
            ys.append(y)
            err = stats.mandel_stderr if value == "mandel_q" else stats.stderr_mean
            errs.append(0.0 if np.isnan(err) else err)  # a zero error draws no bar
    return {k: tuple(v) for k, v in series.items()}


def _readout(args):
    noise = read_noise_file(args.noise) if args.noise else None
    if args.spam_correct and noise is None:
        raise ValueError("--spam-correct requires --noise")
    return noise, noise if args.spam_correct else None


def _shot_options(args) -> dict:
    """Keyword arguments of a study that takes shots."""
    if args.shots < 0:
        raise ValueError(f"--shots must be nonnegative, not {args.shots}")
    noise, spam = _readout(args)
    order = args.mitigation_order
    if order is not None and not (args.spam_correct and args.postselect):
        raise ValueError(f"--mitigation-order {order} orders --spam-correct and "
                         "--postselect: it needs both")
    return dict(shots=args.shots, seed=args.seed, noise=noise, spam=spam,
                postselect_flag=args.postselect, mitigation_order=order or "spam-first")


def study_pf_evolution(args):
    p_values = parse_int_range(args.p_range, "--p")
    if len(p_values) != 1:
        raise ValueError("pf-evolution takes a single order p")
    if not np.isfinite(args.g) or args.g == 0:
        raise ValueError(f"--g must be finite and nonzero, not {args.g!r}")
    if args.times is None and args.g < 0:
        raise ValueError(f"--g {args.g!r} makes the default times pi k / (24 g) "
                         "negative: give nonnegative --times")
    times = (parse_float_list(args.times, "--times") if args.times is not None
             else list(np.linspace(0.0, np.pi, 25) / args.g))
    if not times:
        raise ValueError(f"--times {args.times!r} lists no time")
    if min(times) < 0:
        raise ValueError(f"--times must be nonnegative, not {min(times)!r}")
    points = run_pf_evolution(p_values[0], args.g, times, **_shot_options(args))
    return points, "mean_n", "g t"


def study_pb_mandel(args):
    p_values = parse_int_range(args.p_range, "--p")
    if args.np is None:
        raise ValueError("--np is required for pb-mandel")
    points = run_pb_mandel_sweep(args.alpha, p_values, args.np, **_shot_options(args))
    return points, "mandel_q", "para-particle order p"


def study_cutoff(args):
    points = cutoff_study(args.alpha, parse_int_range(args.p_range, "--p"),
                          parse_int_range(args.np_range, "--np-range"))
    return points, "mandel_q", "para-particle order p"


def cmd_study(args) -> int:
    points, value, xlabel = args.compute(args)
    shots = getattr(args, "shots", 0)  # the cutoff study is exact: no shots
    csv = series_to_csv(points, args.study, shots, args.seed, _provenance(args))
    plots = []
    if args.svg:
        ylabel = "<N>" if value == "mean_n" else "Mandel Q"
        plots.append((args.svg, svgplot.line_plot(_study_series(points, value), xlabel,
                                                  ylabel, title=args.study)))
    _emit(args.out, csv, plots)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """One sub-parser per command, and per study under `study`, each
    accepting only the flags its command reads, each spelled in full.
    Built once per process: the tree is immutable once built, and holds
    about 1300 objects in reference cycles."""
    parser = argparse.ArgumentParser(
        prog="parasim", allow_abbrev=False,
        description="digital para-particle oscillator simulation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(subparsers, name, help, parents=(), **defaults):
        cmd = subparsers.add_parser(name, help=help, parents=list(parents),
                                    allow_abbrev=False)
        cmd.set_defaults(parser=cmd, **defaults)  # the innermost command's wins
        return cmd

    def add_spec(p, p_as_range=False):
        p.add_argument("--kind", choices=("pf", "pb"), required=True)
        if p_as_range:
            p.add_argument("--p", dest="p_range", required=True,
                           help="order, or inclusive range a..b")
        else:
            p.add_argument("--p", type=int, required=True)
        p.add_argument("--np", type=int, default=None,
                       help="para-boson cutoff; for pf it must be p/2")

    ver = command(sub, "verify", "run the algebra/mapping identity suite", run=cmd_verify)
    add_spec(ver, p_as_range=True)
    ver.add_argument("--out", default=None)

    fac = command(sub, "factorize", "solve displacement product angles", run=cmd_factorize)
    add_spec(fac)
    fac.add_argument("--alpha", type=float, required=True)
    fac.add_argument("--seed", type=int, default=0,
                     help="accepted for reproducible command lines; the "
                          "factorization is deterministic")
    fac.add_argument("--out", default=None)

    comp = command(sub, "compile", "lower a displacement to native gates", run=cmd_compile)
    comp.add_argument("--gammas", default=None,
                      help="gamma document to compile, instead of --kind/--p/--np/--alpha")
    comp.add_argument("--kind", choices=("pf", "pb"))
    comp.add_argument("--p", type=int)
    comp.add_argument("--np", type=int, default=None)
    comp.add_argument("--alpha", type=float, default=None)
    comp.add_argument("--seed", type=int, default=0,
                      help="accepted for reproducible command lines; the "
                           "factorization is deterministic")
    comp.add_argument("--no-optimize", action="store_true")
    comp.add_argument("--out", default=None)

    sim = command(sub, "simulate", "single displacement circuit run", run=cmd_simulate)
    add_spec(sim)
    sim.add_argument("--alpha", type=float, required=True)
    sim.add_argument("--shots", type=int, default=5000)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--noise", default=None, help="noise parameter file")
    sim.add_argument("--spam-correct", action="store_true")
    sim.add_argument("--postselect", action="store_true")
    sim.add_argument("--out", default=None)
    sim.add_argument("--shotset-out", default=None)

    # the studies: flags every study reads, and flags of the studies that take shots
    every = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    every.add_argument("--p", dest="p_range", default="2",
                       help="order, or inclusive range a..b")
    every.add_argument("--seed", type=int, default=0)
    every.add_argument("--svg", default=None, help="also write an SVG plot")
    every.add_argument("--out", default=None)
    shots = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    shots.add_argument("--shots", type=int, default=5000)
    shots.add_argument("--noise", default=None, help="noise parameter file")
    shots.add_argument("--spam-correct", action="store_true")
    shots.add_argument("--postselect", action="store_true")
    shots.add_argument("--mitigation-order", choices=MITIGATION_ORDERS, default=None,
                       help="with --spam-correct and --postselect; default spam-first")

    study = command(sub, "study", "run a full study and emit CSV", run=cmd_study)
    studies = study.add_subparsers(dest="study", required=True)
    pfe = command(studies, "pf-evolution", "driven para-Fermi <N> evolution",
                  [every, shots], compute=study_pf_evolution)
    pfe.add_argument("--g", type=float, default=0.02)
    pfe.add_argument("--times", default=None, help="comma-separated times")
    pbm = command(studies, "pb-mandel", "para-Bose Mandel Q versus the order p",
                  [every, shots], compute=study_pb_mandel)
    pbm.add_argument("--np", type=int, default=None, help="para-boson cutoff")
    pbm.add_argument("--alpha", type=float, default=0.3)
    cut = command(studies, "cutoff", "exact Mandel Q versus the cutoff np",
                  [every], compute=study_cutoff)
    cut.add_argument("--np-range", default="1..5", help="cutoff range a..b")
    cut.add_argument("--alpha", type=float, default=0.3)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:  # reported with the usage of the command that did not read them
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    args.argv = argv  # what the CSVs record as the command that made them
    try:
        return args.run(args)
    except (FactorizationError, EmptyShotSetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
