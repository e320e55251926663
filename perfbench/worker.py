"""One measuring process of an untraced run, started by run.py.

Imports ``parasim.cli`` from the checkout's ``src/`` and generates the
workload's inputs (set-up), runs the workload's commands once (the cold
pass a one-command CLI user pays), then repeats them warm until its share
of the run time is spent (at least once).  Prints one JSON line: the
``time.monotonic()`` reading when set-up ended, which the parent subtracts
from its own reading taken just before the start (CLOCK_MONOTONIC is
system-wide on Linux, so the difference includes interpreter start), the
pass times, peak RSS, the operation counts, and each CSV of the first
pass with the number of passes that wrote the same bytes.  The oracle
checks those CSVs in the parent: it loads scipy, which would otherwise be
paid for in set-up or the cold pass and counted in peak RSS.

    python3 perfbench/worker.py <workload> <seed> <input dir> <seconds>
"""
import sys
import time
from pathlib import Path


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    import parasim.cli as cli

    import workloads

    name, seed, run_dir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workloads.write_inputs(name, run_dir)
    commands = workloads.commands(name, seed, run_dir)
    setup_done = time.monotonic()

    import json
    import resource

    from run import PassRunner

    runner = PassRunner(cli, commands)
    cold = runner.run_pass()
    warm = []
    deadline = time.monotonic() + float(sys.argv[4])
    while not warm or time.monotonic() < deadline:
        warm.append(runner.run_pass())
    print(json.dumps({
        "setup_done": setup_done, "cold_s": cold, "warm_s": warm,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": runner.attempted, "failed": runner.failed,
        "errors": runner.errors, "outputs": runner.outputs,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
