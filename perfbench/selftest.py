#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. A tiny-size pass of each workload completes and prints a well-formed
   result line; the deterministic analysis checks pass at that size, and
   two traced runs with different seeds repeat every count metric.
2. The checks reject wrong answers: each case copies one real output of
   those passes, confirms the unmodified copy passes its check, plants
   one error (OU levels shifted by 1e-2, a flipped verdict, a rerun
   whose files differ, ...), and requires the check to report it.
"""

import csv
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (no numeric imports)

run.cap_threads()      # before checks and tracing load NumPy
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SCRATCH = os.path.join(run.WORK, "selftest")


def bench(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace), "--tiny"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600,
                         cwd=run.ROOT)
    if out.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {out.returncode}:\n"
                             f"{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, \
        result
    assert result["attempted"] >= 1, result
    want = ({n for n, _ in tracing.LAYER_METRICS} if trace
            else {"setup_s", "wall_s", "peak_rss_mb"})
    assert set(result["metrics"]) == want, sorted(result["metrics"])
    print(f"  tiny {workload} trace={trace} seed={seed}: attempted "
          f"{result['attempted']}, failed {result['failed']}")
    return result


def copy_output(workload, call_name, case):
    src = os.path.join(run.WORK, workload, "pass0", call_name)
    dst = os.path.join(SCRATCH, case)
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(src, dst)
    return dst


def edit_csv(out_dir, name, edit):
    """Rewrite one artifact; edit(header, rows) changes rows in place."""
    path = os.path.join(out_dir, name)
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    edit(rows[0], rows[1:])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def shift_levels(header, rows):
    i = header.index("lambda_k")
    for r in rows:
        r[i] = repr(float(r[i]) + 1e-2)


def flip_h5(header, rows):
    i = header.index("status")
    for r in rows:
        if r[0] == "h5":
            r[i] = "holds" if r[i] == "fails" else "fails"


def scale_kernel(header, rows):
    i = header.index("transition_density")
    for r in rows:
        r[i] = repr(float(r[i]) * 1.01)


def swap_cdf_for_ou(header, rows):
    x, cdf = header.index("x"), header.index("cdf")
    for r in rows:
        r[cdf] = repr(float(checks.ou_qsd_cdf(float(r[x]))))


def bump_count(header, rows):
    i, s = header.index("count"), header.index("state")
    r = rows[len(rows) // 2]
    r[i] = str(int(r[i]) + 1)
    r[s] = repr(int(r[i]) / workloads.BD_N_LIST[-1])


def reverse_ks(header, rows):
    i = header.index("ks_distance")
    vals = [r[i] for r in rows]
    for r, v in zip(rows, reversed(vals)):
        r[i] = v


def pile_into_last_bin(header, rows):
    i = header.index("mass")
    moved = 0.0
    for r in rows[:len(rows) // 4]:
        moved += float(r[i])
        r[i] = "0"
    rows[-1][i] = repr(float(rows[-1][i]) + moved)


def change_digest(out_dir):
    path = os.path.join(out_dir, "run_report.json")
    with open(path, encoding="utf-8") as fh:
        rep = json.load(fh)
    rep["files"][0]["sha256"] = "0" * 64
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rep, fh)


def rejects(workload, call_name, case, plant, check):
    """The unmodified output passes, the planted error is caught."""
    out_dir = copy_output(workload, call_name, case)
    before = check(out_dir)
    assert before == [], f"{case}: clean copy fails its check: {before}"
    plant(out_dir)
    after = check(out_dir)
    assert after, f"{case}: planted error not caught"
    print(f"  {case}: caught ({after[0]})")


def main():
    print("tiny passes:")
    analysis = bench("analysis", 7, 0)
    assert analysis["failed"] == 0 and analysis["correct"], analysis
    bench("paths", 7, 0)
    bench("lattice", 7, 0)
    traced = [bench("lattice", seed, 1)["metrics"] for seed in (7, 8)]
    for name, unit in tracing.LAYER_METRICS:
        if unit == "count":
            assert traced[0][name] == traced[1][name], name

    print("planted errors:")
    os.makedirs(SCRATCH, exist_ok=True)
    rejects("analysis", "spectrum_ou", "ou_levels_shifted_1e-2",
            lambda d: edit_csv(d, "spectrum.csv", shift_levels),
            lambda d: checks.check_spectrum("ou", d))
    rejects("analysis", "check_ou", "ou_h5_verdict_flipped",
            lambda d: edit_csv(d, "hypotheses.csv", flip_h5),
            lambda d: checks.check_verdicts("ou", d))
    rejects("analysis", "check_linear", "linear_h5_verdict_flipped",
            lambda d: edit_csv(d, "hypotheses.csv", flip_h5),
            lambda d: checks.check_verdicts("linear", d))
    rejects("analysis", "kernel_ou_0", "ou_kernel_scaled_1pct",
            lambda d: edit_csv(d, "kernel_slice.csv", scale_kernel),
            lambda d: checks.check_kernel("ou", d))
    rejects("analysis", "yaglom_linear", "linear_profile_replaced_by_ou",
            lambda d: edit_csv(d, "yaglom.csv", swap_cdf_for_ou),
            lambda d: checks.check_yaglom("linear", d))
    rejects("paths", "qprocess_ou", "qprocess_mass_moved_to_edge",
            lambda d: edit_csv(d, "conditional_hist.csv",
                               pile_into_last_bin),
            lambda d: checks.check_qprocess_ou(d, workloads.OU_T_MAX))
    rejects("lattice", "bd_logistic", "bd_path_jump_of_two",
            lambda d: edit_csv(d, "bd_paths.csv", bump_count),
            lambda d: checks.check_bd(d, workloads.BD_N_LIST))
    rejects("lattice", "bd_logistic", "bd_ks_rising_with_N",
            lambda d: edit_csv(d, "scaling_ks.csv", reverse_ks),
            lambda d: checks.check_bd(d, workloads.BD_N_LIST))
    reference = copy_output("lattice", "bd_logistic", "rerun_reference")
    rejects("lattice", "bd_logistic", "rerun_with_other_files",
            change_digest,
            lambda d: [] if checks.same_digests(reference, d)
            else ["digests differ from the first run"])
    shutil.rmtree(SCRATCH)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
