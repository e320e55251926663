"""Spans and counters recorded around parasim's public functions from
outside the package.

A wrapper goes on each name as it is bound in the module that calls it (for
example ``parasim.experiments.run_and_sample``), so calls made through that
binding are seen and nothing under ``src/`` changes.  Each wrapper records
a span with its name, start, end and parent span; all spans of one CLI
command share the command's operation number.  Spans stay in memory until
the run writes them out.
"""
from __future__ import annotations

import importlib
import inspect
import json
from collections import Counter, defaultdict
from time import perf_counter_ns
from typing import NamedTuple

QS = (3, 5, 6, 7)  # register widths the workloads use


class Span(NamedTuple):
    op: int
    id: int
    parent: int      # -1 for a root span
    name: str        # "<layer>.<what>"
    start: int       # perf_counter_ns
    end: int
    q: int | None    # register width, where the call has one


class MissingTarget(RuntimeError):
    """A wrapped name no longer exists in its module."""


class MissingLayer(RuntimeError):
    """A traced pass recorded no span of a layer the workload must use."""


def check_expected(workload: str, expected, seen_names) -> None:
    """Raise MissingLayer if a traced pass saw none of an expected span."""
    missing = [name for name in expected if name not in seen_names]
    if missing:
        raise MissingLayer(f"traced pass on {workload} recorded no {', '.join(missing)} "
                           f"span; the wrappers no longer see that layer")


def _solve_q(tracer, args, result):
    return args["spec"].num_qubits


def _run_counts(tracer, args, result):
    circuit, shots, noise = args["circuit"], args["shots"], args.get("noise")
    q = circuit.num_qubits
    clean = 1.0
    if noise is not None:
        clean = (1.0 - noise.p_prep_flip) ** q
        for gate in circuit.gates:
            clean *= 1.0 - (noise.p_depol_1q if len(gate.qubits) == 1 else noise.p_depol_2q)
    tracer.counts["engine.shots"] += shots
    tracer.counts[f"engine.shots.q{q}"] += shots
    tracer.counts["engine.dirty_shots_expected"] += shots * (1.0 - clean)
    return q


def _cancel_counts(tracer, args, result):
    tracer.pending_gates_in = len(args["circuit"].gates)


def _compile_counts(tracer, args, result):
    gates_out = len(result.gates)
    pending, tracer.pending_gates_in = tracer.pending_gates_in, None
    tracer.counts["circuits.gates_in"] += gates_out if pending is None else pending
    tracer.counts["circuits.gates_out"] += gates_out
    tracer.counts["circuits.xx_out"] += sum(1 for g in result.gates if g.kind == "XX")


def _postselect_counts(tracer, args, result):
    tracer.counts["engine.postselect_in"] += args["shotset"].shots
    tracer.counts["engine.postselect_kept"] += result.shots


# (module, attribute, span name, hook).  A hook sees the bound arguments and
# the result after a successful call, updates counters and may return the
# call's register width.
TARGETS = (
    ("parasim.cli", "main", "cli.main", None),
    ("parasim.cli", "run_pf_evolution", "experiments.study", None),
    ("parasim.cli", "run_pb_mandel_sweep", "experiments.study", None),
    ("parasim.cli", "cutoff_study", "experiments.study", None),
    ("parasim.cli", "exact_number_stats", "experiments.exact_stats", None),
    ("parasim.cli", "number_stats", "experiments.stats", None),
    ("parasim.cli", "series_to_csv", "experiments.csv", None),
    ("parasim.cli", "write_atomic", "experiments.write", None),
    ("parasim.cli", "solve_displacement", "factorize.solve", _solve_q),
    ("parasim.cli", "compile_displacement", "circuits.compile", _compile_counts),
    ("parasim.cli", "generator_family", "mapping.family", None),
    ("parasim.cli", "run_and_sample", "engine.run", _run_counts),
    ("parasim.cli", "spam_correct", "engine.spam", None),
    ("parasim.cli", "postselect", "engine.postselect", _postselect_counts),
    ("parasim.experiments", "exact_number_stats", "experiments.exact_stats", None),
    ("parasim.experiments", "number_stats", "experiments.stats", None),
    ("parasim.experiments", "uncertainty", "experiments.bootstrap", None),
    ("parasim.experiments", "displaced_vacuum_exact", "algebra.exact", None),
    ("parasim.experiments", "solve_displacement", "factorize.solve", _solve_q),
    ("parasim.experiments", "compile_displacement", "circuits.compile", _compile_counts),
    ("parasim.experiments", "generator_family", "mapping.family", None),
    ("parasim.experiments", "run_and_sample", "engine.run", _run_counts),
    ("parasim.experiments", "spam_correct", "engine.spam", None),
    ("parasim.experiments", "postselect", "engine.postselect", _postselect_counts),
    ("parasim.factorize", "generator_family", "mapping.family", None),
    ("parasim.circuits", "optimize_cancel", "circuits.cancel", _cancel_counts),
    ("parasim.engine", "apply_circuit", "engine.ideal", None),
)

# Called once per gate, so counted without a span: calls, amplitude columns
# and the bytes read plus written, worked out from the array sizes.
GATE_KERNEL = ("parasim.engine", "apply_gate_batch")


class Tracer:
    """Installs the wrappers, collects spans and counters, restores the
    original bindings on uninstall."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op = 0
        self.pending_gates_in = None
        self._stack: list[int] = []
        self._next_id = 0
        self._originals: list[tuple] = []

    def install(self) -> None:
        """Wrap every target; raise MissingTarget if one no longer exists."""
        try:
            for module_name, attr, name, hook in TARGETS:
                self._replace(module_name, attr, lambda fn, n=name, h=hook: self._wrap(fn, n, h))
            self._replace(*GATE_KERNEL, self._wrap_gate_kernel)
        except MissingTarget:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def _replace(self, module_name, attr, make_wrapper) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if not callable(original):
            raise MissingTarget(f"{module_name}.{attr} no longer exists; "
                                f"update perfbench/spans.py")
        setattr(module, attr, make_wrapper(original))
        self._originals.append((module, attr, original))

    def _wrap(self, fn, name, hook):
        signature = inspect.signature(fn) if hook else None
        stack, spans = self._stack, self.spans

        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans.append(Span(self.op, span_id, parent, name, start,
                                  perf_counter_ns(), None))
                raise
            end = perf_counter_ns()
            stack.pop()
            q = None
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                q = hook(self, bound.arguments, result)
            spans.append(Span(self.op, span_id, parent, name, start, end, q))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_gate_kernel(self, fn):
        counts = self.counts

        def wrapper(amps, *args, **kwargs):
            result = fn(amps, *args, **kwargs)
            counts["engine.gate_calls"] += 1
            counts["engine.gate_columns"] += 1 if amps.ndim == 1 else amps.shape[1]
            counts["engine.gate_bytes"] += amps.nbytes + result.nbytes
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path) -> None:
        """Write every recorded span as one JSON list per line."""
        with open(path, "w") as handle:
            handle.write("# op id parent name start_ns end_ns q\n")
            for span in self.spans:
                handle.write(json.dumps(list(span)) + "\n")


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        children[span.parent].append(span)
    out = {}
    for span in spans:
        covered, cur_start, cur_end = 0, None, None
        for lo, hi in sorted((max(c.start, span.start), min(c.end, span.end))
                             for c in children[span.id]):
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[span.id] = (span.end - span.start) - covered
    return out


def layer_metrics(spans, counts: Counter, wall_s: float) -> dict[str, float]:
    """Every per-layer metric of one traced pass.

    ``*_s`` are inclusive span time except ``*.self_s``; counts come from the
    hooks.  ``trace.coverage_frac`` is the share of the pass that the library
    layers (all but cli) account for as self time.
    """
    own = self_times(spans)
    self_ns, dur, calls, dur_q = Counter(), Counter(), Counter(), Counter()
    for span in spans:
        self_ns[span.name.split(".")[0]] += own[span.id]
        dur[span.name] += span.end - span.start
        calls[span.name] += 1
        if span.q is not None:
            dur_q[(span.name, span.q)] += span.end - span.start
    s = 1e-9
    m = {"cli.self_s": self_ns["cli"] * s,
         "experiments.self_s": self_ns["experiments"] * s,
         "experiments.bootstrap_s": dur["experiments.bootstrap"] * s,
         "experiments.bootstrap_calls": calls["experiments.bootstrap"],
         "experiments.stats_s": dur["experiments.stats"] * s,
         "experiments.stats_calls": calls["experiments.stats"],
         "factorize.solve_s": dur["factorize.solve"] * s,
         "factorize.solve_calls": calls["factorize.solve"]}
    for q in QS:
        m[f"factorize.solve_s.q{q}"] = dur_q[("factorize.solve", q)] * s
    gates_in = counts["circuits.gates_in"]
    m.update({
        "circuits.compile_s": dur["circuits.compile"] * s,
        "circuits.cancel_s": dur["circuits.cancel"] * s,
        "circuits.gates_in": gates_in,
        "circuits.gates_out": counts["circuits.gates_out"],
        "circuits.xx_out": counts["circuits.xx_out"],
        "circuits.kept_frac": counts["circuits.gates_out"] / gates_in if gates_in else 1.0,
        "engine.run_s": dur["engine.run"] * s,
    })
    for q in QS:
        m[f"engine.run_s.q{q}"] = dur_q[("engine.run", q)] * s
    shots = counts["engine.shots"]
    post_in = counts["engine.postselect_in"]
    m.update({
        "engine.ideal_s": dur["engine.ideal"] * s,
        "engine.spam_s": dur["engine.spam"] * s,
        "engine.postselect_s": dur["engine.postselect"] * s,
        "engine.shots": shots,
    })
    for q in QS:
        q_shots = counts[f"engine.shots.q{q}"]
        m[f"engine.us_per_shot.q{q}"] = (
            dur_q[("engine.run", q)] * 1e-3 / q_shots if q_shots else 0.0)
    m.update({
        "engine.spam_calls": calls["engine.spam"],
        "engine.retained_frac": counts["engine.postselect_kept"] / post_in if post_in else 1.0,
        "engine.dirty_frac_expected": (
            counts["engine.dirty_shots_expected"] / shots if shots else 0.0),
        "engine.gate_calls": counts["engine.gate_calls"],
        "engine.gate_columns": counts["engine.gate_columns"],
        "engine.gate_bytes": counts["engine.gate_bytes"],
        "algebra.exact_s": dur["algebra.exact"] * s,
        "algebra.exact_calls": calls["algebra.exact"],
        "mapping.family_s": dur["mapping.family"] * s,
        "mapping.family_calls": calls["mapping.family"],
        "trace.coverage_frac": (
            sum(v for k, v in self_ns.items() if k != "cli") * s / wall_s if wall_s else 0.0),
    })
    return m


def unit_of(name: str) -> str:
    """Unit of a per-layer or end-to-end metric, from its name."""
    if "us_per_shot" in name:
        return "us"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_frac") or name.endswith("_frac_expected"):
        return "fraction"
    if name.endswith("_s") or "_s.q" in name:
        return "s"
    if name.endswith("_mib"):
        return "MiB"
    return "count"
