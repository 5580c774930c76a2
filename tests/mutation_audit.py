"""Mutation audit: each entry damages one spot of the program and names a
test that must then fail.

Run from anywhere with ``python tests/mutation_audit.py``; pytest does not
collect this file.  The script copies the tree to a temporary directory and
first runs every named test there unchanged: they must pass.  Then, for each
entry, it replaces the entry's old text, which must occur exactly once in its
file, by the new text, runs just the named test and puts the file back.  A
mutation is killed when that test fails and survives when it passes; an
entry whose text is not found, or whose test does not run, is an error.  The
script prints one line per entry and exits 1 if any mutation survived or any
entry is an error.  Each entry is (what it breaks, file, old text, new text,
test).
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

MUTATIONS = [
    (
        "_format_g15 without its near-tie fallback",
        "src/ietskew/cli.py",
        "ok &= (n >= 1e14) & (np.abs(frac - 0.5) >= 1e-6)",
        "ok &= n >= 1e14",
        "tests/test_cli.py::test_the_measure_cells_format_as_g15_on_the_edges",
    ),
    (
        "_format_g15 without its range fallback",
        "src/ietskew/cli.py",
        "    ok &= n < 1e15\n",
        "",
        "tests/test_cli.py::test_the_measure_cells_format_as_g15_on_the_edges",
    ),
    (
        "an inclusive cumsum in the floor cocycle",
        "src/ietskew/cocycles.py",
        "below = np.cumsum(self.under, axis=0) - self.under",
        "below = np.cumsum(self.under, axis=0)",
        "tests/test_cocycles.py::test_floor_cocycle_values",
    ),
    (
        "the Smith invariants with no gcd/lcm pass",
        "src/ietskew/algebra.py",
        "diagonal[i], diagonal[j] = gcd(diagonal[i], diagonal[j]), lcm(diagonal[i], diagonal[j])",
        "pass",
        "tests/test_algebra.py::test_invariant_factors_examples",
    ),
    (
        "verify with no flush",
        "src/ietskew/cli.py",
        "file=text, flush=True)",
        "file=text)",
        "tests/test_cli.py::test_verify_flushes_each_line",
    ),
    (
        "criterion 4 comparing with phi at the target of edge one",
        "src/ietskew/verification.py",
        "missed = tail_cocycle(fl, ids) != fl.under[ids[:, 0]]",
        "missed = tail_cocycle(fl, ids) != np.array(phi.values)[diagram.target[ids[:, 0]]]",
        "tests/test_acceptance.py::test_criterion_04_tail_cocycle_identity",
    ),
    (
        "the Rauzy pair swapped to (top-last, bottom-last)",
        "src/ietskew/iet.py",
        "return new_comb, loser, (alpha_b, alpha_t)",
        "return new_comb, loser, (alpha_t, alpha_b)",
        "tests/test_iet.py::test_rauzy_step_top_bottom",
    ),
    (
        "the table writer reading tails[0] for tails[u]",
        "src/ietskew/cli.py",
        "head.join(tails[u])",
        "head.join(tails[0])",
        "tests/test_cli.py::test_csv_bytes_match_their_golden_digest",
    ),
    (
        "the table writer grouping paths by rounded logs",
        "src/ietskew/cli.py",
        "np.unique(table.path_logs(ids), return_inverse=True)",
        "np.unique(np.round(table.path_logs(ids), 9), return_inverse=True)",
        "tests/test_cli.py::test_csv_bytes_match_their_golden_digest",
    ),
    (
        "the orbit's floor check without its lower bound",
        "src/ietskew/iet.py",
        "inside = (point >= lo[q]) & (point < hi[q])",
        "inside = point < hi[q]",
        "tests/test_iet.py::test_a_wrong_predictor_changes_no_frequency",
    ),
    (
        "the orbit's floor check read as a miss test, which keeps a NaN",
        "src/ietskew/iet.py",
        "inside = (point >= lo[q]) & (point < hi[q])",
        "inside = ~((point < lo[q]) | (point >= hi[q]))",
        "tests/test_iet.py::test_a_checked_block_from_nan_keeps_one_step",
    ),
    (
        "the orbit's screen without its error term",
        "src/ietskew/iet.py",
        "e = (h + 4) * 2.0 ** -53 * (reach + float(np.abs(offsets).max()))",
        "e = 0.0",
        "tests/test_iet.py::test_starts_at_the_screen_edges_and_floor_ends_walk_as_the_loop_does",
    ),
    (
        "the orbit's screen not shrunk at its lower edge",
        "src/ietskew/iet.py",
        "lo = float((ends[p] - offsets).max() + e)",
        "lo = float((ends[p] - offsets).max())",
        "tests/test_iet.py::test_starts_at_the_screen_edges_and_floor_ends_walk_as_the_loop_does",
    ),
    (
        "the orbit's screen not shrunk at its upper edge",
        "src/ietskew/iet.py",
        "hi = float((ends[p + 1] - offsets).min() - e)",
        "hi = float((ends[p + 1] - offsets).min())",
        "tests/test_iet.py::test_starts_at_the_screen_edges_and_floor_ends_walk_as_the_loop_does",
    ),
    (
        "a folded tower's visits read from the tower screened below it",
        "src/ietskew/iet.py",
        "passes[k] += 1",
        "passes[k - 1] += 1",
        "tests/test_iet.py::test_float_orbit_frequencies_equal_the_dict_loop",
    ),
    (
        "a folded tower that ignores the steps left",
        "src/ietskew/iet.py",
        "np.bincount(walk.positions[:steps - done], minlength=d)",
        "np.bincount(walk.positions, minlength=d)",
        "tests/test_iet.py::test_float_orbit_frequencies_equal_the_dict_loop",
    ),
    (
        "the partial last pass counted as a full pass",
        "src/ietskew/iet.py",
        "if steps - done < h:  # the last pass stops partway",
        "if steps - done < 0:  # the last pass stops partway",
        "tests/test_iet.py::test_orbits_may_stop_partway_through_a_chained_pass",
    ),
    (
        "a chain bound that does not grow per pass",
        "src/ietskew/iet.py",
        "approx, error = approx + walk.total, error + walk.slack",
        "approx, error = approx + walk.total, error",
        "tests/test_iet.py::test_chains_whose_totals_err_by_their_slack_walk_as_the_loop_does",
    ),
    (
        "a chain placement without its margin",
        "src/ietskew/iet.py",
        "if k >= 0 and los[k] <= approx - error and approx + error <= his[k]:",
        "if k >= 0 and los[k] <= approx <= his[k]:",
        "tests/test_iet.py::test_chains_whose_totals_err_by_their_slack_walk_as_the_loop_does",
    ),
    (
        "a replay folded from the approximate point, not the exact one",
        "src/ietskew/iet.py",
        "walk.fold[0] = x\n",
        "walk.fold[0] = approx\n",
        "tests/test_iet.py::test_chains_that_all_replay_walk_as_the_loop_does",
    ),
    (
        "the int64 refusal at 2**64",
        "src/ietskew/algebra.py",
        "int(np.abs(b.counts).sum()) >= 2 ** 63",
        "int(np.abs(b.counts).sum()) >= 2 ** 64",
        "tests/test_algebra.py::test_a_product_past_int64_is_refused",
    ),
    (
        "the int64 refusal on signed totals",
        "src/ietskew/algebra.py",
        "int(np.abs(a.counts).sum()) * int(np.abs(b.counts).sum())",
        "int(a.counts.sum()) * int(b.counts.sum())",
        "tests/test_algebra.py::test_a_product_past_int64_is_refused",
    ),
    (
        "recheck_certificate without the generator comparison",
        "src/ietskew/cocycles.py",
        "    if expected != cert.generators:\n        return False\n",
        "",
        "tests/test_verification.py::test_certificate_fails_on_one_changed_generator",
    ),
    (
        "recheck_certificate without the exponent check",
        "src/ietskew/cocycles.py",
        "    if cert.exponent != loop.amplification * cert.repetition:\n        return False\n",
        "",
        "tests/test_cocycles.py::test_recheck_refuses_an_exponent_off_the_repetition",
    ),
    (
        "amplify_for_common_prefix with the generator's sign flipped",
        "src/ietskew/cocycles.py",
        "g = tuple((fl.f[fixed[n - 1]] - fl.f[fixed[n]]).tolist())",
        "g = tuple((fl.f[fixed[n]] - fl.f[fixed[n - 1]]).tolist())",
        "tests/test_acceptance.py::test_criterion_06_aperiodicity_certificate",
    ),
    (
        "the oracle's right-end snap dropped",
        "src/ietskew/iet.py",
        """    elif gap_right <= SNAP - w:
        u = breaks[i + 1]
        if i + 1 < d:
            i += 1
            gap_left, gap_right = 0, breaks[i + 1] - w - u
        else:
            gap_left, gap_right = u - breaks[i], -w
""",
        "",
        "tests/test_iet.py::test_the_oracle_repeats_the_per_step_reference",
    ),
    (
        "the oracle's discontinuity test at gap_right < 0",
        "src/ietskew/iet.py",
        "if gap_right < -SNAP:",
        "if gap_right < 0:",
        "tests/test_iet.py::test_the_oracle_repeats_the_per_step_reference",
    ),
    (
        "the float screen's bound without its float term",
        "src/ietskew/iet.py",
        "bound = (2 * n + 8) * 2.0 ** -53 * float(total) + (n + 1) * SNAP",
        "bound = (n + 1) * SNAP",
        "tests/test_iet.py::test_the_float_screen_confirms_no_step_inside_the_alarm_band",
    ),
    (
        "the oracle's candidate steps taken as confirmed",
        "src/ietskew/iet.py",
        "for j in np.flatnonzero(~sure).tolist():",
        "for j in []:",
        "tests/test_iet.py::test_the_oracle_repeats_the_per_step_reference",
    ),
    (
        "the float screen without its early-return test",
        "src/ietskew/iet.py",
        "    sure[1:] &= x[1:] > float(limit) + bound\n",
        "",
        "tests/test_iet.py::test_the_oracle_repeats_the_per_step_reference",
    ),
    (
        "the oracle's exact steps without their early-return test",
        "src/ietskew/iet.py",
        "        if j and v <= limit:\n            return False\n",
        "",
        "tests/test_iet.py::test_the_oracle_repeats_the_per_step_reference",
    ),
    (
        "the predicted bytes returned without the letter check",
        "src/ietskew/iet.py",
        "        if i != seq[j]:\n            return False\n",
        "",
        "tests/test_iet.py::test_the_oracle_repeats_the_per_step_reference",
    ),
    (
        "the horizon prefix one step short",
        "src/ietskew/iet.py",
        "cut = HORIZON + 1  # the most steps the step loop takes",
        "cut = HORIZON  # the most steps the step loop takes",
        "tests/test_iet.py::test_a_confirmed_prefix_stops_at_the_horizon_as_the_step_loop_does",
    ),
    (
        "criterion 8 without the discarded seed draw after each psi",
        "src/ietskew/verification.py",
        "        rng.randrange(2 ** 30)  # a retired sampler's seed, drawn still so that the next psi stays the same\n",
        "",
        "tests/test_verification.py::test_maharam_draws_psi_then_seed_from_one_rng",
    ),
    (
        "criterion 8 without the counting-route recurrence",
        "src/ietskew/verification.py",
        "    recurrence.append(invariance_recurrence_check(psis, pf, RECURRENCE_POWER, power))\n",
        "",
        "tests/test_verification.py::test_maharam_fails_on_a_moved_exponent_in_the_counting_power",
    ),
    (
        "invariance_step_check without its maximal redraw",
        "src/ietskew/maharam.py",
        "            while diagram.is_maximal(p):\n                p = diagram.random_path_ids(level, rng)\n",
        "",
        "tests/test_maharam.py::test_step_check_steps_the_per_sample_draws",
    ),
    (
        "invariance_step_check drawing its fibers from [-2, 1]",
        "src/ietskew/maharam.py",
        "rng.randint(-2, 2)",
        "rng.randint(-2, 1)",
        "tests/test_maharam.py::test_step_check_steps_the_per_sample_draws",
    ),
    (
        "criterion 7's per-vertex keys missing the last vertex",
        "src/ietskew/verification.py",
        "for v, tail in enumerate(tails):",
        "for v, tail in enumerate(tails[:-1]):",
        "tests/test_verification.py::test_path_keys_are_the_extension_keys",
    ),
    (
        "letter_counts counting letter i - 1",
        "src/ietskew/iet.py",
        "tuple(w.count(i) for w in words)",
        "tuple(w.count(i - 1) for w in words)",
        "tests/test_iet.py::test_identity_composition",
    ),
]


def pytest(tree: Path, *tests: str) -> int:
    """The exit code of pytest on the given tests in ``tree``: 0 all passed,
    1 some failed, anything else an error."""
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}  # no stale bytecode after a file is put back
    return subprocess.run(argv, cwd=tree, env=env, capture_output=True).returncode


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "runs")
        shutil.copytree(ROOT, tree, ignore=ignore)
        tests = sorted({test for *_, test in MUTATIONS})
        if pytest(tree, *tests):
            print("the named tests do not all pass on the unchanged tree")
            return 1
        bad = 0
        for what, name, old, new, test in MUTATIONS:
            path = tree / name
            text = path.read_text()
            if text.count(old) != 1:
                outcome = "ERROR (old text not found exactly once)"
            else:
                path.write_text(text.replace(old, new))
                code = pytest(tree, test)
                path.write_text(text)
                outcome = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (pytest exit {code})")
            bad += outcome != "killed"
            print(f"{outcome:8s} {what}  [{test}]", flush=True)
        print(f"{len(MUTATIONS) - bad} of {len(MUTATIONS)} mutations killed")
        return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
