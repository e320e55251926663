"""Command-line front end: algebra verification, displacement factorization,
native-gate compilation, single-point simulation and the three studies.

Exit codes: 0 success, 1 computation/identity failure, 2 invalid configuration.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from . import svgplot
from .algebra import ParaSpec, build_fock_ops, verify_truncation_identity
from .circuits import compile_displacement, gate_counts, write_circuit
from .engine import EmptyShotSetError, NoiseModel, run_and_sample, write_shotset
from .experiments import (
    MITIGATION_ORDERS,
    SOURCE_EXACT,
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
from .engine import postselect, spam_correct  # noqa: F401
from .experiments import number_stats  # noqa: F401
from .factorize import (
    FactorizationError,
    read_gamma_document,
    solve_displacement,
    write_gamma_document,
)
from .mapping import (
    build_xy_hamiltonian,
    check_jacobi,
    commutator_table,
    generator_family,
    pauli_sum_to_matrix,
    restrict_to_onehot,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2


class ConfigError(ValueError):
    pass


def parse_int_range(text: str) -> list[int]:
    """'3' -> [3]; '1..5' -> [1, 2, 3, 4, 5] (inclusive)."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ConfigError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    return [int(text)]


def parse_float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def read_noise_file(path) -> NoiseModel:
    """Key-value text: p_prep_flip, eps01, eps10, p_depol_1q, p_depol_2q."""
    values = {}
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition(" ")
            if not value:
                key, _, value = line.partition("=")
            values[key.strip()] = float(value)
    known = {"p_prep_flip", "eps01", "eps10", "p_depol_1q", "p_depol_2q"}
    unknown = set(values) - known
    if unknown:
        raise ConfigError(f"unknown noise keys {sorted(unknown)}")
    return NoiseModel(**values)


def _spec_from_args(args) -> ParaSpec:
    try:
        if args.kind == "pf":
            return ParaSpec(kind="pf", p=args.p)
        if args.np is None:
            raise ConfigError("--np is required for para-bosons")
        return ParaSpec(kind="pb", p=args.p, np=args.np)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _provenance(argv, seed) -> list[str]:
    return [f"parasim {' '.join(argv)}", f"seed {seed}"]


def cmd_verify(args) -> int:
    p_values = parse_int_range(args.p_range)
    if args.kind == "pf" and len(p_values) > 1:
        p_values = [p for p in p_values if p % 2 == 0]
    lines = ["check,kind,p,np,value,pass"]
    ok = True
    for p in p_values:
        spec_args = argparse.Namespace(kind=args.kind, p=p, np=args.np)
        spec = _spec_from_args(spec_args)
        report = verify_truncation_identity(spec, tol=1e-12)
        lines.append(f"commutator_identity,{spec.kind},{spec.p},{spec.np},"
                     f"residual={report.residual_norm:.3e} beta={report.beta:.12g},"
                     f"{report.passes}")
        ok &= report.passes
        q = spec.num_qubits
        ham = restrict_to_onehot(pauli_sum_to_matrix(build_xy_hamiltonian(spec, 1.0)), q)
        ops = build_fock_ops(spec)
        map_res = float(np.max(np.abs(ham - (ops.a + ops.adag))))
        lines.append(f"xy_mapping,{spec.kind},{spec.p},{spec.np},"
                     f"residual={map_res:.3e},{map_res <= 1e-12}")
        ok &= map_res <= 1e-12
        if q <= 6:
            basis = generator_family(q)
            try:
                commutator_table(basis)
                closure = True
            except ValueError:
                closure = False
            lines.append(f"commutator_closure,{spec.kind},{spec.p},{spec.np},"
                         f"Q={q},{closure}")
            jacobi = check_jacobi(basis)
            lines.append(f"jacobi,{spec.kind},{spec.p},{spec.np},Q={q},{jacobi}")
            ok &= closure and jacobi
    text = "\n".join(lines) + "\n"
    if args.out:
        write_atomic(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK if ok else EXIT_FAIL


def cmd_factorize(args) -> int:
    spec = _spec_from_args(args)
    gv = solve_displacement(spec, args.alpha, seed=args.seed)
    if args.out:
        write_gamma_document(args.out, gv, spec, args.alpha)
    else:
        for label, gamma in zip(gv.labels, gv.gammas):
            print(f"{label} {gamma:.17g}")
        print(f"residual_onehot {gv.residual:.3e}")
        print(f"residual_full {gv.residual_full:.3e}")
    return EXIT_OK


def cmd_compile(args) -> int:
    if args.gammas:
        gv, spec, _alpha = read_gamma_document(args.gammas)
    else:
        spec = _spec_from_args(args)
        gv = solve_displacement(spec, args.alpha, seed=args.seed)
    basis = generator_family(spec.num_qubits)
    circuit = compile_displacement(gv, basis, optimize=not args.no_optimize)
    counts = gate_counts(circuit)
    if args.out:
        write_circuit(args.out, circuit)
    print(f"qubits {circuit.num_qubits} one_qubit {counts['one_qubit']} "
          f"two_qubit {counts['two_qubit']}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    spec = _spec_from_args(args)
    noise = read_noise_file(args.noise) if args.noise else None
    if args.spam_correct and noise is None:
        raise ConfigError("--spam-correct requires --noise")
    gv = solve_displacement(spec, args.alpha, seed=args.seed)
    basis = generator_family(spec.num_qubits)
    circuit = compile_displacement(gv, basis, optimize=True)
    raw = run_and_sample(circuit, args.shots, noise, args.seed)
    # the studies' estimators in their default order; the CSV has no Mandel
    # error column, so no bootstrap
    stats = {SOURCE_EXACT: exact_number_stats(spec, args.alpha),
             **shot_sources(raw, spec.num_qubits, noise, args.spam_correct,
                            args.postselect, resamples=0)}
    point = SeriesPoint(x=args.alpha, stats=stats)
    csv = series_to_csv([point], "simulate", args.shots, args.seed,
                        _provenance(sys.argv[1:], args.seed))
    if args.out:
        write_atomic(args.out, csv)
    else:
        sys.stdout.write(csv)
    if args.shotset_out:
        write_shotset(args.shotset_out, raw, noise)
    return EXIT_OK


def _study_series(points, value: str):
    series = {}
    for point in points:
        for label, stats in point.stats.items():
            y = getattr(stats, value)
            if y is None:
                continue
            xs, ys, errs = series.setdefault(label, ([], [], []))
            xs.append(point.x)
            ys.append(y)
            err = stats.mandel_stderr if value == "mandel_q" else stats.stderr_mean
            errs.append(0.0 if err is None or not np.isfinite(err) else err)
    return {k: tuple(v) for k, v in series.items()}


def cmd_study(args) -> int:
    noise = read_noise_file(args.noise) if args.noise else None
    if args.study == "pf-evolution":
        if not np.isfinite(args.g) or args.g == 0:
            raise ConfigError(f"--g must be finite and nonzero, not {args.g!r}")
        if args.times:
            times = parse_float_list(args.times)
        else:
            times = list(np.linspace(0.0, np.pi, 25) / args.g)
        points = run_pf_evolution(args.p, args.g, times, shots=args.shots,
                                  noise=noise, seed=args.seed,
                                  spam=args.spam_correct,
                                  postselect_flag=args.postselect,
                                  mitigation_order=args.mitigation_order)
        value, xlabel = "mean_n", "g t"
    elif args.study == "pb-mandel":
        p_values = parse_int_range(args.p_range)
        if args.np is None:
            raise ConfigError("--np is required for pb-mandel")
        points = run_pb_mandel_sweep(args.alpha, p_values, args.np,
                                     shots=args.shots, noise=noise,
                                     seed=args.seed, spam=args.spam_correct,
                                     postselect_flag=args.postselect,
                                     mitigation_order=args.mitigation_order)
        value, xlabel = "mandel_q", "para-particle order p"
    else:  # cutoff
        p_values = parse_int_range(args.p_range)
        np_values = parse_int_range(args.np_range)
        points = cutoff_study(args.alpha, p_values, np_values)
        value, xlabel = "mandel_q", "para-particle order p"
    csv = series_to_csv(points, args.study, args.shots, args.seed,
                        _provenance(sys.argv[1:], args.seed))
    if args.out:
        write_atomic(args.out, csv)
    else:
        sys.stdout.write(csv)
    if args.svg:
        series = _study_series(points, value)
        ylabel = "<N>" if value == "mean_n" else "Mandel Q"
        write_atomic(args.svg, svgplot.line_plot(series, xlabel, ylabel,
                                                 title=args.study))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parasim",
        description="digital para-particle oscillator simulation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec(p, p_as_range=False):
        p.add_argument("--kind", choices=("pf", "pb"), required=True)
        if p_as_range:
            p.add_argument("--p", dest="p_range", required=True,
                           help="order, or inclusive range a..b")
        else:
            p.add_argument("--p", type=int, required=True)
        p.add_argument("--np", type=int, default=None,
                       help="para-boson cutoff (ignored for pf)")

    ver = sub.add_parser("verify", help="run the algebra/mapping identity suite")
    add_spec(ver, p_as_range=True)
    ver.add_argument("--out", default=None)

    fac = sub.add_parser("factorize", help="solve displacement product angles")
    add_spec(fac)
    fac.add_argument("--alpha", type=float, required=True)
    fac.add_argument("--seed", type=int, default=0,
                     help="accepted for reproducible command lines; the "
                          "factorization is deterministic")
    fac.add_argument("--out", default=None)

    comp = sub.add_parser("compile", help="lower a displacement to native gates")
    comp.add_argument("--gammas", default=None, help="gamma document to compile")
    comp.add_argument("--kind", choices=("pf", "pb"))
    comp.add_argument("--p", type=int)
    comp.add_argument("--np", type=int, default=None)
    comp.add_argument("--alpha", type=float, default=None)
    comp.add_argument("--seed", type=int, default=0,
                      help="accepted for reproducible command lines; the "
                           "factorization is deterministic")
    comp.add_argument("--no-optimize", action="store_true")
    comp.add_argument("--out", default=None)

    sim = sub.add_parser("simulate", help="single displacement circuit run")
    add_spec(sim)
    sim.add_argument("--alpha", type=float, required=True)
    sim.add_argument("--shots", type=int, default=5000)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--noise", default=None, help="noise parameter file")
    sim.add_argument("--spam-correct", action="store_true")
    sim.add_argument("--postselect", action="store_true")
    sim.add_argument("--out", default=None)
    sim.add_argument("--shotset-out", default=None)

    study = sub.add_parser("study", help="run a full study and emit CSV")
    study.add_argument("study", choices=("pf-evolution", "pb-mandel", "cutoff"))
    study.add_argument("--p", dest="p_range", default="2",
                       help="order, or inclusive range a..b")
    study.add_argument("--np", type=int, default=None)
    study.add_argument("--np-range", default="1..5",
                       help="cutoff range for the cutoff study")
    study.add_argument("--alpha", type=float, default=0.3)
    study.add_argument("--g", type=float, default=0.02)
    study.add_argument("--times", default=None, help="comma-separated times")
    study.add_argument("--shots", type=int, default=5000)
    study.add_argument("--seed", type=int, default=0)
    study.add_argument("--noise", default=None)
    study.add_argument("--spam-correct", action="store_true")
    study.add_argument("--postselect", action="store_true")
    study.add_argument("--mitigation-order", choices=MITIGATION_ORDERS,
                       default="spam-first")
    study.add_argument("--svg", default=None, help="also write an SVG plot")
    study.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "factorize":
            return cmd_factorize(args)
        if args.command == "compile":
            if not args.gammas and (args.kind is None or args.p is None
                                    or args.alpha is None):
                print("error: compile needs --gammas or --kind/--p/--alpha",
                      file=sys.stderr)
                return EXIT_CONFIG
            return cmd_compile(args)
        if args.command == "simulate":
            return cmd_simulate(args)
        if args.command == "study":
            if args.study == "pf-evolution":
                p_values = parse_int_range(args.p_range)
                if len(p_values) != 1:
                    raise ConfigError("pf-evolution takes a single order p")
                args.p = p_values[0]
            return cmd_study(args)
        raise ConfigError(f"unknown command {args.command}")
    except (FactorizationError, EmptyShotSetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
