"""Exit 0 only if every mutant of the package is killed by the tests named
for it.  Usage: python .github/mutants.py [name ...]  (default: every mutant)

A mutant is one exact snippet of a file under src/, its replacement, and the
test node ids that must kill it.  For each mutant, src/ is copied to a
temporary directory, the snippet (which must occur there exactly once) is
replaced, and pytest runs the named tests with the copy first on the import
path.  A mutant is killed when those tests fail.  The script fails when a
mutant survives, when its snippet no longer matches (a change that moves a
snippet updates this list with it), or when pytest cannot run its tests.
Stdlib only, like expect_failures.py.
"""
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ORACLE = "tests/test_postselection_oracle.py::"
DENSITY_MATRIX = ORACLE + "test_mean_trajectory_probabilities_match_the_density_matrix"
SAMPLED_COUNTS = ORACLE + "test_sampled_onehot_counts_match_the_run_trajectories"
REPLAY = "tests/test_trajectories.py::test_counts_equal_the_dense_replay"
RECORDED = "tests/test_engine.py::TestRecordedCentres::"
CANCELLED = "tests/test_engine.py::TestCancellationKeepsCentres::"
GATE_ORACLE = "tests/test_circuits.py::TestApplyGateBatch::test_every_gate_matches_expm_oracle"

# (name, file under src/, snippet, replacement, test node ids that must kill it)
MUTANTS = [
    # the covariance kernel: the conditioning update and the Givens pass
    ("condition-lam-sign", "parasim/engine.py",
     "x *= lam / (1.0 + lam * gamma[i, i + 1])",
     "x *= -lam / (1.0 - lam * gamma[i, i + 1])",
     [DENSITY_MATRIX]),
    ("givens-sine-sign", "parasim/engine.py",
     "gi += s * gj",
     "gi -= s * gj",
     [DENSITY_MATRIX]),
    # the kick push: a kick negates only the centres after its gate
    ("kick-push-own-gate", "parasim/engine.py",
     "(dec.gates > gate_ev[:, None])",
     "(dec.gates >= gate_ev[:, None])",
     [REPLAY, DENSITY_MATRIX]),
    # each kick event's Majorana set: its own word's sum of its gate's frame images
    ("kick-set-word", "parasim/circuits.py",
     "sums = _KICK_SUMS[word_ev][:, None] @ self.frames[gate_ev]",
     "sums = _KICK_SUMS[0 * word_ev][:, None] @ self.frames[gate_ev]",
     [REPLAY, DENSITY_MATRIX]),
    # the sampled descent: the uniform left over for the next qubit
    ("descent-u-rescale", "parasim/engine.py",
     "u = np.where(bit, u - p0, u) / np.where(bit, 1.0 - p0, p0)",
     "u = np.where(bit, u - p0, u)",
     [SAMPLED_COUNTS]),
    # the inverse CDF: an outcome of zero weight is never drawn
    ("levels-tie-side", "parasim/engine.py",
     'side="right"',
     'side="left"',
     ["tests/test_trajectories.py::TestLevels"]),
    # a walk that does not end on the identity frame replays the gates
    ("apply-circuit-identity-frame", "parasim/engine.py",
     "if (frame.xs, frame.zs) != (identity.xs, identity.zs):",
     "if False:",
     ["tests/test_engine.py::TestFramePass::"
      "test_random_circuits_match_the_unitary_column_up_to_phase"]),
    # the centres every compiled circuit carries: each term's word and gate,
    # and in a cancelled circuit each kept centre's new index
    ("centre-word-phase", "parasim/circuits.py",
     "centres.append((len(gates), term.word))",
     "centres.append((len(gates), _times(term.word, (0, 0, 0, 0), 2)))",
     [RECORDED + "test_recorded_centres_equal_a_frame_walk",
      RECORDED + "test_the_recorded_pass_gives_the_walks_weights_bit_for_bit"]),
    ("centre-index", "parasim/circuits.py",
     "centres.append((len(gates), term.word))",
     "centres.append((len(gates) - 1, term.word))",
     [RECORDED + "test_recorded_centres_equal_a_frame_walk",
      RECORDED + "test_the_recorded_pass_gives_the_walks_weights_bit_for_bit"]),
    ("centre-remap", "parasim/circuits.py",
     "centres = [(index[id(gates[j])], word)",
     "centres = [(j, word)",
     [RECORDED + "test_recorded_centres_equal_a_frame_walk",
      RECORDED + "test_the_recorded_pass_gives_the_walks_weights_bit_for_bit",
      CANCELLED + "test_every_kept_non_clifford_gate_is_a_recorded_centre"]),
    # the frame walk's one split rule: only an exact multiple of pi/2 is Clifford
    ("frame-split-rule", "parasim/circuits.py",
     "if gate.angle != turns * _QUARTER:",
     "if abs(gate.angle - turns * _QUARTER) > 0.1:",
     ["tests/test_engine.py::TestFramePass::"
      "test_random_circuits_match_the_unitary_column_up_to_phase"]),
    # the dense kernels: a word's phase, a rotation's cosine, the view's X flip
    # and the one dense limit
    ("dense-word-phase", "parasim/dense.py",
     "_I_POWERS[(r + 2 * (x & z).bit_count()) % 4]",
     "_I_POWERS[r % 4]",
     [GATE_ORACLE,
      "tests/test_mapping.py::TestDenseMatrices::test_words_match_kronecker_products"]),
    ("dense-rotate-cos-sign", "parasim/dense.py",
     "out += math.cos(theta / 2) * amps",
     "out -= math.cos(theta / 2) * amps",
     [GATE_ORACLE]),
    ("dense-view-flip", "parasim/dense.py",
     "_REVERSE if x >> qubit & 1 else _KEEP",
     "_KEEP",
     [GATE_ORACLE]),
    ("dense-limit-boundary", "parasim/dense.py",
     "if rows << num_qubits > 4 ** MAX_DENSE_QUBITS:",
     "if rows << num_qubits >= 4 ** MAX_DENSE_QUBITS:",
     ["tests/test_mapping.py::TestDenseLimit::test_every_caller_reads_the_one_limit"]),
    # the cancellation pass merges a gate only with the latest kept gate on its qubits
    ("cancel-partner", "parasim/circuits.py",
     "last = first if first > second else second",
     "last = first if first < second else second",
     ["tests/test_circuits.py::TestOptimizeCancel::"
      "test_matches_the_backward_scan_on_compiled_templates"]),
    # post-selection after the readout inversion keeps a probability vector
    ("postselect-clip", "parasim/experiments.py",
     "np.where(bits.sum(axis=1) == 1, np.maximum(weights, 0.0), 0.0)",
     "np.where(bits.sum(axis=1) == 1, weights, 0.0)",
     ["tests/test_cli.py::TestSimulate::"
      "test_post_selection_after_the_inversion_writes_physical_moments",
      "tests/test_experiments.py::TestNumberStats::"
      "test_post_selection_after_the_inversion_clips_negative_weights"]),
    ("postselect-one-hot", "parasim/experiments.py",
     'b.count("1") == 1',
     'b.count("1") <= 1',
     ["tests/test_engine.py::TestPostselect"]),
    ("spam-correct-inverse", "parasim/experiments.py",
     "inv = np.linalg.inv([[1 - noise.eps01, noise.eps10], [noise.eps01, 1 - noise.eps10]])",
     "inv = np.array([[1 - noise.eps01, noise.eps10], [noise.eps01, 1 - noise.eps10]])",
     ["tests/test_noise_oracle.py::"
      "test_spam_inversion_recovers_the_exact_pre_readout_distribution"]),
    ("check-distinct-first-pair", "parasim/experiments.py",
     "if path in real[:i]:",
     "if path in real[:i - 1]:",
     ["tests/test_cli.py::TestFileErrors::"
      "test_two_outputs_that_name_one_file_are_one_line_and_no_file"]),
    # the mitigated moments: the readout inversion as the last step takes the
    # binomial error of the bit marginals before it
    ("stats-spam-last-branch", "parasim/experiments.py",
     'if steps[-1:] == ("spam",):',
     'if steps[:1] == ("spam",):',
     ["tests/test_experiments.py::TestNumberStats::"
      "test_postselect_first_keeps_the_binomial_error",
      "tests/test_experiments.py::TestOnePipeline::"
      "test_standard_error_and_retained_fraction_are_unchanged"]),
    # the factorizer folds each gamma into (-pi/2, pi/2]
    ("factor-onehot-fold", "parasim/factorize.py",
     "gammas <= -np.pi / 2, gammas + np.pi, gammas",
     "gammas <= -np.pi / 2, gammas, gammas",
     ["tests/test_factorize.py::TestThreeQubitAnalytic::test_single_generator_targets",
      "tests/test_factorize.py::TestGivensSolve::test_random_bond_coefficients"]),
    # the full-register residual's closed form: an exact product reads 0, not -0
    ("residual-zero-sign", "parasim/factorize.py",
     "(0.0 - np.expm1(log_prod))",
     "-np.expm1(log_prod)",
     ["tests/test_factorize.py::TestFullSpaceResidual::"
      "test_an_exact_product_reads_zero_not_minus_zero"]),
    # a confusion matrix exactly 1e-12 from singular is still inverted
    ("confusion-boundary", "parasim/engine.py",
     "if 1.0 - self.eps01 - self.eps10 < 1e-12:",
     "if 1.0 - self.eps01 - self.eps10 <= 1e-12:",
     ["tests/test_engine.py::TestNoiseModel::"
      "test_a_confusion_exactly_1e_12_from_singular_is_accepted"]),
    # readout: a true 0 misreads with eps01, a true 1 with eps10
    ("read-out-rates-swapped", "parasim/engine.py",
     "meas_u < noise.eps01, meas_u < noise.eps10",
     "meas_u < noise.eps10, meas_u < noise.eps01",
     ["tests/test_engine.py::TestCleanShots::test_certain_readout_flips",
      "tests/test_noise_oracle.py::TestPinnedCounts::test_three_qubits"]),
    # the kick draw: the first kick sits at the first gap less one, and a gap
    # past the grid, clipped, lands past it
    ("kick-gap-start", "parasim/engine.py",
     "pos, chunk = np.array([-1]),",
     "pos, chunk = np.array([0]),",
     [REPLAY]),
    ("kick-gap-clip", "parasim/engine.py",
     "rng.geometric(p, chunk), size + 1)",
     "rng.geometric(p, chunk), size)",
     ["tests/test_trajectories.py::TestKicks::test_a_gap_past_the_grid_kicks_nothing"]),
    # one shot is a run; the descent reads a uniform at P(0) as 1, as `_levels` does
    ("one-shot", "parasim/engine.py",
     "if shots < 1:",
     "if shots <= 1:",
     ["tests/test_engine.py::TestCleanShots::test_one_shot"]),
    ("descent-tie-side", "parasim/engine.py",
     "bit = u >= p0",
     "bit = u > p0",
     ["tests/test_trajectories.py::test_the_descent_reads_a_tie_as_levels_does"]),
    # a quadratic word's Majorana pair keeps its orientation, the centre's sign
    ("pair-orientation", "parasim/mapping.py",
     "(a, b) if same else (b, a)",
     "(b, a) if same else (a, b)",
     [REPLAY, DENSITY_MATRIX]),
    # the readers' duplicate and count checks
    ("keyed-given-twice", "parasim/textfile.py",
     "if key in found:",
     "if False:",
     ["tests/test_textfile.py::TestTextFile::test_keyed_rejects_a_key_given_twice_by_its_name",
      "tests/test_engine.py::TestShotSetText::test_bitstring_given_twice_rejected"]),
    ("shotset-shots-sum", "parasim/engine.py",
     'if header.get("shots", shots) != shots:',
     "if False:",
     ["tests/test_engine.py::TestShotSetText::test_truncated_shot_set_rejected"]),
    ("circuit-gates-count", "parasim/circuits.py",
     'if stated.get("gates", str(len(gates))) != str(len(gates)):',
     "if False:",
     ["tests/test_circuits.py::TestCircuitText::"
      "test_a_file_cut_at_a_line_is_one_error_naming_the_file"]),
    # the CLI's one reader of ranges: at most MAX_RANGE_POINTS points
    ("range-point-limit", "parasim/cli.py",
     "if hi - lo >= MAX_RANGE_POINTS:",
     "if hi - lo > MAX_RANGE_POINTS:",
     ["tests/test_cli.py::TestParsing::test_a_range_holds_at_most_the_point_limit"]),
]


def outcome(path: str, snippet: str, replacement: str, tests: list) -> str | None:
    """None if the mutant is killed, else why it is not."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        target = src / path
        text = target.read_text()
        if text.count(snippet) != 1:
            return f"its snippet occurs {text.count(snippet)} times in src/{path}, not once"
        target.write_text(text.replace(snippet, replacement))
        # the ini's `pythonpath = src` would put the unmutated tree first; the
        # environment carries the copy into any subprocess a test starts
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "-o", f"pythonpath={src}", *tests],
            cwd=ROOT, env=env, capture_output=True, text=True)
    if run.returncode == 1:  # a test failed
        return None
    if run.returncode == 0:
        return "it survives its tests"
    return f"pytest exited {run.returncode}:\n{run.stdout[-2000:]}{run.stderr[-2000:]}"


def main(names) -> int:
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}")
        return 2
    failed = 0
    for name, path, snippet, replacement, tests in MUTANTS:
        if names and name not in names:
            continue
        start = time.perf_counter()
        why = outcome(path, snippet, replacement, tests)
        took = time.perf_counter() - start
        print(f"{'killed' if why is None else 'NOT KILLED'}: {name} ({took:.1f} s)"
              + ("" if why is None else f": {why}"), flush=True)
        failed += why is not None
    print(f"{failed} of {len(names or MUTANTS)} mutants not killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
