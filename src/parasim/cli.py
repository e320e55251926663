"""Command-line front end: algebra verification, displacement factorization,
native-gate compilation, single-point simulation and the three studies.

Exit codes: 0 success, 1 computation/identity failure, 2 invalid configuration.
"""
from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import svgplot
from .algebra import ParaSpec, build_fock_ops, verify_truncation_identity
from .circuits import circuit_to_text, compile_displacement, gate_counts
from .engine import read_noise_file, shotset_to_text
from .experiments import (
    MITIGATION_ORDERS,
    STUDY_STATISTIC,
    EmptyShotSetError,
    check_distinct,
    cutoff_study,
    run_pb_mandel_sweep,
    run_pf_evolution,
    sample_points,
    series_to_csv,
    study_series,
    write_atomic,
)
# not called here; bound for perfbench/spans.py, which wraps names where cli binds them
from .engine import run_and_sample  # noqa: F401
from .experiments import exact_number_stats, number_stats, postselect, spam_correct  # noqa: F401
from .factorize import (
    FactorizationError,
    gamma_document_text,
    read_gamma_document,
    solve_displacement,
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
# most points one range may hold, ten times the longest range (2..100) the tests, CI,
# demos and benchmark give: a para-Bose order, unlike a cutoff, has no width to bound it
MAX_RANGE_POINTS = 1000


def parse_int_range(text: str, flag: str) -> range:
    """'3' -> range(3, 4); '1..5' -> range(1, 6) (inclusive), never listed,
    of at most MAX_RANGE_POINTS points; errors name `flag`."""
    lo, dots, hi = text.partition("..")
    try:
        lo, hi = int(lo), int(hi if dots else lo)
    except ValueError:
        raise ValueError(f"{flag} takes an integer or a range a..b, not {text!r}") from None
    if hi < lo:
        raise ValueError(f"{flag} {text!r} is an empty range")
    if hi - lo >= MAX_RANGE_POINTS:
        raise ValueError(f"{flag} {text!r} holds {hi - lo + 1} points, over the limit of "
                         f"{MAX_RANGE_POINTS} a range may hold")
    return range(lo, hi + 1)


def parse_float_list(text: str, flag: str) -> list[float]:
    """'0.5,1,2' -> [0.5, 1.0, 2.0], finite numbers only; errors name `flag`."""
    try:
        values = [float(x) for x in text.split(",") if x.strip()]
        if np.all(np.isfinite(values)):
            return values
    except ValueError:
        pass
    raise ValueError(f"{flag} takes comma-separated finite numbers, not {text!r}")


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
        p_values = p_values[p_values[0] % 2::2]  # the even orders
    _spec(args.kind, p_values[-1], args.np)  # the widest point, before any is computed
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
        text = gamma_document_text(gv, spec, args.alpha)
    else:
        text = "".join(f"{label} {gamma:.17g}\n" for label, gamma in zip(gv.labels, gv.gammas))
        text += f"residual_onehot {gv.residual:.3e}\nresidual_full {gv.residual_full:.3e}\n"
    _emit(args.out, text)
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
        write_atomic([(args.out, circuit_to_text(circuit))])
    print(f"qubits {circuit.num_qubits} one_qubit {counts['one_qubit']} "
          f"two_qubit {counts['two_qubit']}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.shots < 1:
        raise ValueError(f"--shots must be at least 1, not {args.shots}")
    spec = _spec(args.kind, args.p, args.np)
    options = _shot_options(args)
    # one point of the studies' loop; the CSV has no Mandel error column,
    # so no bootstrap
    [(point, raw)] = sample_points([(args.alpha, spec, args.alpha, "")],
                                   optimize=True, resamples=0, **options)
    csv = series_to_csv([point], "simulate", args.shots, args.seed, _provenance(args))
    shotset = ([(args.shotset_out, shotset_to_text(raw, options["noise"]))]
               if args.shotset_out else [])
    _emit(args.out, csv, shotset)
    return EXIT_OK


def _shot_options(args) -> dict:
    """Keyword arguments of a command that takes shots."""
    if args.shots < 0:
        raise ValueError(f"--shots must be nonnegative, not {args.shots}")
    noise = read_noise_file(args.noise) if args.noise else None
    if args.spam_correct and noise is None:
        raise ValueError("--spam-correct requires --noise")
    order = args.mitigation_order
    if order is not None and not (args.spam_correct and args.postselect):
        raise ValueError(f"--mitigation-order {order} orders --spam-correct and "
                         "--postselect: it needs both")
    return dict(shots=args.shots, seed=args.seed, noise=noise,
                spam=noise if args.spam_correct else None,
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
    if args.times is None and not np.isfinite(np.pi / args.g):  # the last default time
        raise ValueError(f"--g {args.g!r} makes the default times pi k / (24 g) "
                         "overflow: give a larger --g or --times")
    times = (parse_float_list(args.times, "--times") if args.times is not None
             else list(np.linspace(0.0, np.pi, 25) / args.g))
    if not times:
        raise ValueError(f"--times {args.times!r} lists no time")
    if min(times) < 0:
        raise ValueError(f"--times must be nonnegative, not {min(times)!r}")
    return run_pf_evolution(p_values[0], args.g, times, **_shot_options(args))


def study_pb_mandel(args):
    p_values = parse_int_range(args.p_range, "--p")
    if args.np is None:
        raise ValueError("--np is required for pb-mandel")
    return run_pb_mandel_sweep(args.alpha, p_values, args.np, **_shot_options(args))


def study_cutoff(args):
    return cutoff_study(args.alpha, parse_int_range(args.p_range, "--p"),
                        parse_int_range(args.np_range, "--np-range"))


def cmd_study(args) -> int:
    points = args.compute(args)
    shots = getattr(args, "shots", 0)  # the cutoff study is exact: no shots
    csv = series_to_csv(points, args.study, shots, args.seed, _provenance(args))
    plots = []
    if args.svg:
        ylabel = "<N>" if STUDY_STATISTIC[args.study] == "mean_n" else "Mandel Q"
        series = study_series(points, args.study)
        if not series:
            raise ValueError(f"--svg: no point has a defined {ylabel}")
        plots.append((args.svg, svgplot.line_plot(series, args.xlabel, ylabel, title=args.study)))
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

    sim = command(sub, "simulate", "single displacement circuit run", run=cmd_simulate,
                  mitigation_order=None)
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
                  [every, shots], compute=study_pf_evolution, xlabel="g t")
    pfe.add_argument("--g", type=float, default=0.02)
    pfe.add_argument("--times", default=None, help="comma-separated times")
    pbm = command(studies, "pb-mandel", "para-Bose Mandel Q versus the order p",
                  [every, shots], compute=study_pb_mandel, xlabel="para-particle order p")
    pbm.add_argument("--np", type=int, default=None, help="para-boson cutoff")
    pbm.add_argument("--alpha", type=float, default=0.3)
    cut = command(studies, "cutoff", "exact Mandel Q versus the cutoff np",
                  [every], compute=study_cutoff, xlabel="para-particle order p")
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
        if getattr(args, "seed", 0) < 0:
            raise ValueError(f"--seed must be nonnegative, not {args.seed}")
        # write_atomic refuses these too, but only after a study has run
        check_distinct([getattr(args, name, None) for name in ("out", "svg", "shotset_out")])
        return args.run(args)
    except (FactorizationError, EmptyShotSetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
