#!/usr/bin/env python3
"""Benchmark of the qsd pipeline: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload analysis --seed 1 --seconds 30 --trace 0

Run from the repository root.  The run is a single closed-loop client:
it calls ``qsdlab.cli.main`` once per qsd command, back to back, on
configs written from the seed, and repeats whole passes over the
workload's commands until ``--seconds`` is used up (at least one pass).
Outputs are checked after timing (see checks.py).  The last line of
standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (setup_s, wall_s,
peak_rss_mb); with ``--trace 1`` the per-layer ones from tracing.py.
Times are calibrated for the host's speed (speed.py).  Lines before the
result, starting with '#', give the machine, the raw and calibrated
pass times, the per-command times and any failed check.
"""

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
SETUP_PROBES = 3
MIN_SLICES = 20          # speed slices a call needs for its own factor

# every pool variable NumPy, SciPy and their BLAS may read
THREAD_VARS = ("QSD_NUM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
THREAD_CAP = 1

sys.path.insert(0, HERE)
import workloads  # noqa: E402  (no numeric imports: safe before the cap)


def cap_threads():
    """Set every pool size explicitly, before NumPy first loads.

    qsdlab's own cap only fills in pool variables that are unset, so a
    preset OMP_NUM_THREADS would otherwise win without notice.
    """
    cap = str(min(THREAD_CAP, os.cpu_count() or 1))
    for var in THREAD_VARS:
        os.environ[var] = cap
    return int(cap)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="self-test sizes: every call, seconds per pass")
    p.add_argument("--probe-setup", metavar="DIR",
                   help=argparse.SUPPRESS)   # internal: one set-up sample
    return p.parse_args(argv)


def setup(workload, seed, cfg_dir, sizes):
    """What a user pays before the first command: imports and configs."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import numpy  # noqa: F401
    import scipy.integrate  # noqa: F401
    import qsdlab.cli  # noqa: F401  (the package imports every module)
    import qsdlab.config  # noqa: F401
    return workloads.write_configs(workload, seed, cfg_dir, sizes)


def measure_setup(args):
    """Median of fresh-process set-up times, spawn to ready, calibrated.

    Each probe process times speed slices right after its set-up, and
    its sample is scaled by that speed factor (see speed.py).
    """
    samples = []
    for i in range(SETUP_PROBES):
        cfg_dir = os.path.join(WORK, args.workload, f"probe{i}")
        cmd = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", "0", "--probe-setup", cfg_dir]
        if args.tiny:
            cmd.append("--tiny")
        t0 = time.monotonic()
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=120, check=True)
        ready, factor = map(float, out.stdout.split()[-2:])
        samples.append((ready - t0) * factor)
        shutil.rmtree(cfg_dir, ignore_errors=True)
    return statistics.median(samples)


def run_pass(calls, out_root, devnull, probe):
    """One pass over the workload's calls.

    Returns per call (exit code, wall s, probe s, speed factor): the
    wall time of the call, the part of it the speed probe took, and the
    speed factor of the slices taken during the call (None when the
    call was too short for MIN_SLICES of them).
    """
    import qsdlab.cli
    results = []
    for call in calls:
        out_dir = os.path.join(out_root, call.name)
        argv = list(call.argv) + ["--output-dir", out_dir]
        mark = probe.mark()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(devnull):
            rc = qsdlab.cli.main(argv)
        dt = time.perf_counter() - t0
        enough = len(probe.samples) - mark[0] >= MIN_SLICES
        results.append((rc, dt, probe.spent_since(mark),
                        probe.factor(mark) if enough else None))
    return results


class Passes:
    """Timings of a run's passes, raw and calibrated (see speed.py)."""

    def __init__(self):
        self.raw = []          # wall s of each pass
        self.factors = []      # speed factor of each pass
        self.walls = []        # calibrated s of each pass
        self.calls = []        # per pass: (exit code, calibrated s) per call


def timed_passes(args, calls, work, tracer):
    """Whole passes until args.seconds is used up; reruns are compared."""
    import checks
    import speed
    passes, mismatched = Passes(), set()
    first = os.path.join(work, "pass0")
    probe = speed.SpeedProbe(tracer.exclude if tracer else None)
    t_start = time.perf_counter()
    with open(os.devnull, "w") as devnull, probe:
        while True:
            k = len(passes.walls)
            out_root = os.path.join(work, f"pass{k}")
            mark = probe.mark()
            t0 = time.perf_counter()
            results = run_pass(calls, out_root, devnull, probe)
            raw = time.perf_counter() - t0
            factor = probe.factor(mark)
            # a call long enough is scaled by the speed while it ran
            timed = [(rc, (dt - spent) * (own or factor))
                     for rc, dt, spent, own in results]
            passes.raw.append(raw)
            passes.factors.append(factor)
            passes.walls.append(sum(dt for _, dt in timed))
            passes.calls.append(timed)
            if tracer:
                tracer.next_pass()
            if k:
                # reruns of the same call must write the same bytes
                for call in calls:
                    if not checks.same_digests(
                            os.path.join(first, call.name),
                            os.path.join(out_root, call.name)):
                        mismatched.add(call.name)
                shutil.rmtree(out_root)
            elapsed = time.perf_counter() - t_start
            if elapsed + statistics.median(passes.raw) > args.seconds:
                break
    return passes, mismatched, probe.samples


def failed_calls(calls, passes, mismatched, first):
    """{call name: problems} after timing, from the first pass's outputs."""
    import checks
    bad = {}
    for i, call in enumerate(calls):
        codes = {p[i][0] for p in passes.calls}
        if codes != {0}:
            bad[call.name] = [f"exit codes {sorted(codes)}"]
            continue
        problems = checks.check_call(call, os.path.join(first, call.name))
        if call.name in mismatched:
            problems.append("a rerun wrote different files")
        if problems:
            bad[call.name] = problems
    return bad


def per_command(calls, passes):
    """Median over passes of each command group's calibrated time."""
    groups = {}
    for results in passes.calls:
        sums = {}
        for call, (_, dt) in zip(calls, results):
            sums[call.group] = sums.get(call.group, 0.0) + dt
        for g, v in sums.items():
            groups.setdefault(g, []).append(v)
    return {f"{g}_s": statistics.median(v) for g, v in groups.items()}


def machine_info(cap):
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "thread_cap": cap,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qsdlab", "cli.py")):
        print(f"no qsdlab sources under {SRC}: run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    cap = cap_threads()
    sizes = workloads.TINY if args.tiny else workloads.FULL

    if args.probe_setup:
        setup(args.workload, args.seed, args.probe_setup, sizes)
        ready = time.monotonic()
        import speed
        print(ready, speed.factor_now())
        return 0

    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    setup_s = measure_setup(args)
    cfgs = setup(args.workload, args.seed, os.path.join(work, "configs"),
                 sizes)
    import resource
    import tracing

    calls = workloads.calls(args.workload, args.seed, cfgs, sizes)
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        passes, mismatched, slices = timed_passes(args, calls, work, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    bad = failed_calls(calls, passes, mismatched, os.path.join(work, "pass0"))
    n = len(passes.walls)
    commands = per_command(calls, passes)
    info = machine_info(cap)
    print("# machine: " + json.dumps(info))
    print(f"# workload {args.workload}: seed {args.seed}, {n} passes of "
          f"{len(calls)} calls; raw pass walls "
          + ", ".join(f"{w:.3f}" for w in passes.raw) + " s; speed factors "
          + ", ".join(f"{f:.3f}" for f in passes.factors) + "; calibrated "
          + ", ".join(f"{w:.3f}" for w in passes.walls) + " s")
    print("# per-command, calibrated (median over passes): " + ", ".join(
        f"{name}={value:.4f} s" for name, value in commands.items()))
    for name, problems in bad.items():
        print(f"# FAILED {name}: " + "; ".join(problems))

    if tracer:
        per_pass = [tracing.layer_metrics(spans, counts, wall, factor)
                    for (spans, counts), wall, factor
                    in zip(tracer.passes, passes.walls, passes.factors)]
        # counts repeat exactly from pass to pass: keep them whole
        metrics = {name: {"value": (statistics.median_low if unit == "count"
                                    else statistics.median)(
                                        [m[name] for m in per_pass]),
                          "unit": unit}
                   for name, unit in tracing.LAYER_METRICS}
        tracer.dump(os.path.join(work, "spans.jsonl"))
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(passes.walls), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    failed = n * len(bad)
    result = {"correct": failed == 0, "attempted": n * len(calls),
              "failed": failed, "metrics": metrics}
    with open(os.path.join(work, "result.json"), "w",
              encoding="utf-8") as fh:
        # per-command times live here, not in the result line: a
        # workload reports only the commands it runs
        json.dump({"result": result, "machine": info,
                   "per_command_s": commands,
                   "pass_walls_s": passes.walls,
                   "raw_pass_walls_s": passes.raw,
                   "speed_factors": passes.factors,
                   "speed_slices_s": slices}, fh, indent=2)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
