"""parasim benchmark: drives ``parasim.cli.main`` in-process on one workload.

    python3 perfbench/run.py --workload evolution-q7 --seed 1 --seconds 16 --trace 0

Untraced (``--trace 0``) it reports the end-to-end metrics of
BENCHMARK.json; traced (``--trace 1``) it installs the wrappers of spans.py
and reports the per-layer metrics.  Every CLI command is one operation: it
fails if it raises, exits non-zero, writes a CSV the oracle rejects, or
writes different bytes than the first pass of the run.  A table of every
metric with its quartiles and sample count goes to stdout, the full result
with provenance to ``.perfbench_out/``, and the last line of stdout is the
JSON result.  See README.md in this directory.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("evolution-q7", "mandel-mitigated", "noisy-sweep")

# Every matrix the workloads multiply is at most 128 x 128, where a second
# BLAS thread only adds contention; one thread keeps runs steady.
BLAS_THREADS = 1
# Untraced runs measure in this many fresh processes, one after another,
# each taking an equal share of the run time: samples spread over the whole
# run and over processes are steadier than one process's back-to-back passes.
WORKERS = 5
MAX_ERRORS_SHOWN = 5


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float]:
    """First and third quartile, as statistics.quantiles(n=4) gives them."""
    values = list(values)
    if len(values) < 2:
        return float(values[0]), float(values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q3)


def summary(values) -> dict:
    values = [float(v) for v in values]
    q1, q3 = quartiles(values)
    return {"value": median(values), "q1": q1, "q3": q3, "n": len(values), "samples": values}


class PassRunner:
    """Runs the workload's commands once per pass and keeps what the checks
    need: exit codes and CSV digests are checked as the passes run, the
    oracle afterwards (check_outputs), so it adds nothing to the passes."""

    def __init__(self, cli, commands, tracer=None):
        self.cli = cli
        self.commands = commands
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        # CSV path -> {"sha256", "text", "passes"}: the CSV of the first pass
        # and how many passes wrote the same bytes.
        self.outputs: dict[str, dict] = {}

    def run_pass(self) -> float:
        """Seconds spent inside ``parasim.cli.main`` over all commands."""
        gc.collect()
        elapsed = 0.0
        for command in self.commands:
            self.attempted += 1
            if self.tracer is not None:
                self.tracer.op = self.attempted
            saved_argv = sys.argv
            sys.argv = ["parasim", *command.argv]  # the CSV provenance reads it
            start = time.perf_counter()
            try:
                code = self.cli.main(list(command.argv))
            except (Exception, SystemExit):   # argparse exits; count it and go on
                traceback.print_exc()
                code = "raised " + traceback.format_exc().strip().splitlines()[-1]
            finally:
                elapsed += time.perf_counter() - start
                sys.argv = saved_argv
            self._record(command, code)
        return elapsed

    def _record(self, command, code) -> None:
        if code != 0:
            return self._fail(command, [f"exit {code}"])
        try:
            data = Path(command.out).read_bytes()
            text = data.decode()
        except (OSError, ValueError) as exc:
            return self._fail(command, [f"cannot read the CSV: {exc}"])
        digest = hashlib.sha256(data).hexdigest()
        first = self.outputs.setdefault(command.out, {"sha256": digest, "text": text,
                                                      "passes": 0})
        if first["sha256"] != digest:
            return self._fail(command, ["CSV bytes differ from the first pass with the same seed"])
        first["passes"] += 1

    def _fail(self, command, errors, passes: int = 1) -> None:
        if errors:
            self.failed += passes
            where = f"{' '.join(command.argv[:2])} -> {Path(command.out).name}"
            self.errors.extend(f"{where}: {e}" for e in errors)

    def check_outputs(self, outputs: dict | None = None) -> None:
        """Check each first-pass CSV against the oracle; a rejected CSV fails
        every pass that wrote the same bytes."""
        outputs = self.outputs if outputs is None else outputs
        for command in self.commands:
            output = outputs.get(command.out)
            if output is None:
                continue
            try:
                errors = command.check(output["text"])
            except Exception as exc:   # a malformed CSV is a failed operation
                errors = [f"oracle cannot read the CSV: {type(exc).__name__}: {exc}"]
            self._fail(command, errors, output["passes"])

    def merge_worker(self, worker: dict) -> None:
        """Count a worker's operations, check its CSVs against the oracle and
        that they are byte-identical to the first worker's."""
        self.attempted += worker["attempted"]
        self.failed += worker["failed"]
        self.errors.extend(worker["errors"])
        for command in self.commands:
            theirs = worker["outputs"].get(command.out)
            if theirs is None:
                continue
            first = self.outputs.setdefault(command.out, theirs)
            if first["sha256"] != theirs["sha256"]:
                self.attempted += 1
                self._fail(command, ["CSV bytes differ between processes with the same seed"])
        self.check_outputs(worker["outputs"])


def _worker(name: str, seed: int, run_dir: Path, seconds: float) -> dict:
    """Set-up, a cold pass and warm passes in a fresh interpreter (worker.py)."""
    start = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), name, str(seed),
                           str(run_dir), repr(seconds)],
                          capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["setup_done"] - start
    return result


def _git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(name: str, seed: int, trace: int, shots: dict) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": name, "seed": seed, "trace": trace, "shots_by_q": shots,
        "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "blas_threads": min(BLAS_THREADS, os.cpu_count() or 1),
        "git_sha": _git_sha(), "src_sha256": _src_digest(),
        "platform": platform.platform(),
    }


def _traced_passes(runner, seconds, tracer):
    """One cold pass, then warm passes alternating traced and untraced until
    the run time is spent (at least one of each).  Returns the untraced and
    traced pass times and, per traced pass, its metrics and span names."""
    runner.run_pass()
    plain, traced, layers = [], [], []
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline or not (plain and traced):
        if len(traced) <= len(plain):
            first_span = len(tracer.spans)
            tracer.counts.clear()
            tracer.install()
            try:
                wall = runner.run_pass()
            finally:
                tracer.uninstall()
            traced.append(wall)
            layers.append((spans.layer_metrics(tracer.spans[first_span:], tracer.counts, wall),
                           {s.name for s in tracer.spans[first_span:]}))
        else:
            plain.append(runner.run_pass())
    return plain, traced, layers


def run(name: str, seed: int, seconds: float, trace: int) -> dict:
    run_dir = OUT_DIR / f"{name}-s{seed}-t{trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads   # loads numpy: only after the BLAS cap is in the environment

    commands = workloads.commands(name, seed, run_dir)
    detail = {}
    if trace:
        import parasim.cli as cli

        if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
            raise RuntimeError(f"parasim imported from {cli.__file__}, "
                               f"not from {ROOT / 'src'}")
        workloads.write_inputs(name, run_dir)
        tracer = spans.Tracer()
        tracer.install()          # fails loudly if a wrapped name is gone
        tracer.uninstall()
        runner = PassRunner(cli, commands, tracer)
        plain, traced, layers = _traced_passes(runner, seconds, tracer)
        runner.check_outputs()
        for _, seen in layers:
            spans.check_expected(name, workloads.EXPECTED_SPANS[name], seen)
        for key in layers[0][0]:
            detail[key] = summary([m[key] for m, _ in layers])
        detail["trace.overhead_frac"] = summary([median(traced) / median(plain) - 1.0])
        detail["trace.overhead_frac"]["n"] = len(traced) + len(plain)
        tracer.write(OUT_DIR / f"spans-{name}-s{seed}.jsonl")
    else:
        runner = PassRunner(None, commands)
        workers = [_worker(name, seed, run_dir, seconds / WORKERS) for _ in range(WORKERS)]
        for worker in workers:
            runner.merge_worker(worker)
        detail["wall_s"] = summary([t for w in workers for t in w["warm_s"]])
        detail["cold_wall_s"] = summary([w["cold_s"] for w in workers])
        detail["setup_s"] = summary([w["setup_s"] for w in workers])
        detail["peak_rss_mib"] = summary([w["peak_rss_mib"] for w in workers])
    detail["fail_frac"] = {**summary([runner.failed / runner.attempted]), "n": runner.attempted}
    shutil.rmtree(run_dir, ignore_errors=True)
    return {"attempted": runner.attempted, "failed": runner.failed,
            "errors": runner.errors, "metrics": detail,
            "provenance": provenance(name, seed, trace, workloads.shot_sizes(name))}


def _listed_metrics(trace: int) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "parasim" / "cli.py").is_file():
        print(f"perfbench: no parasim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)   # before numpy loads, here and in workers
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except RuntimeError as exc:   # spans.MissingTarget and MissingLayer included
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    listed = _listed_metrics(args.trace)
    missing = [m["name"] for m in listed if m["name"] not in result["metrics"]]
    if missing:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
        return 1

    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=1) + "\n")
    for error in list(dict.fromkeys(result["errors"]))[:MAX_ERRORS_SHOWN]:
        print(f"perfbench: failed: {error}", file=sys.stderr)
    print(f"# provenance {json.dumps(result['provenance'], sort_keys=True)}")
    print(f"# {'metric':32s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'unit':8s} n")
    for key, m in result["metrics"].items():
        print(f"# {key:32s} {m['value']:14.6g} {m['q1']:14.6g} {m['q3']:14.6g} "
              f"{spans.unit_of(key):8s} {m['n']}")
    print(f"# attempted {result['attempted']} failed {result['failed']}; "
          f"full result in {out_file.relative_to(ROOT)}")
    metrics = {m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
               for m in listed}
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
