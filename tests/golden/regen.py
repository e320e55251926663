"""Rewrite the golden files of tests/test_golden.py from the current source.

    python tests/golden/regen.py
"""
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]

from test_golden import CASES, GOLDEN, run_case  # noqa: E402

for name in sorted(CASES):
    with tempfile.TemporaryDirectory() as directory:
        rows = run_case(name, directory)
    (GOLDEN / f"{name}.txt").write_text("\n".join(rows) + "\n")
    print(f"{name}: {len(rows)} rows")
