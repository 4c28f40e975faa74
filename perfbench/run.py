#!/usr/bin/env python3
"""Simulator benchmark: time to produce a figure grid, end to end and
per layer.

    python3 perfbench/run.py --workload steady|fig5-grid|sampled
                             --seed N --seconds S --trace 0|1 [--jobs N]

Run from the root of a source checkout. The first call configures and
builds perfbench/ (the simulator libraries plus the benchmark driver)
into .bench_build/, then runs the shadow-machine self-check once and
logs its verdict. A mismatch never stops a run: traced runs check
every point themselves and report kernel.shadow_match = 0.

--trace 0: starts fresh perfbench_driver processes, each making one
campaign::run_campaign call on a fresh store, plus set-up-only
processes for more set-up samples, for S seconds (at least three runs;
no run is started that would end past S). Reports the medians of the
end-to-end metrics.

--trace 1: the same loop (at least one run) over traced
perfbench_driver processes, each an untraced run followed by the
traced replay; reports the medians of the per-layer metrics.

Metric names, units and workloads come from BENCHMARK.json at the
checkout root; perfbench/metrics.json adds what that file has no room
for. Every run's store is checked (every key present, no corrupt line,
no quarantined point, per-point invariants) and digested; all runs of
one seed must give the same digest, and a traced replay the same bytes
as run_campaign. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {value, unit}}},
with attempted/failed counted in grid points. Exits 3 after printing
it when a check failed, and 1, printing no result, when the build or a
perfbench_driver process fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
RUNS_DIR = os.path.join(BUILD_ROOT, "runs")
TMP_DIR = os.path.join(BUILD_ROOT, "tmp")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
SHADOW_CHECK = os.path.join(BUILD_DIR, "shadow_check")
SHADOW_LOG = os.path.join(BUILD_DIR, "shadow_check.log")

MIN_UNTRACED_RUNS = 3
SETUP_SAMPLES_PER_RUN = 20
WARMUP_SPAWNS = 3
PROCESS_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_tables():
    """BENCHMARK.json, checked against perfbench/metrics.json so the two
    cannot name different metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "metrics.json")) as f:
        notes = json.load(f)["metrics"]
    declared = {m["name"] for m in bench["end_to_end"] + bench["per_layer"]}
    if declared != set(notes):
        raise BenchError("BENCHMARK.json and perfbench/metrics.json name "
                         "different metrics: %s" %
                         sorted(declared.symmetric_difference(notes)))
    return bench


def child_env():
    # Fault injection and budget overrides must not leak into a run, and
    # temporary files (the compiler's LTO partitions) stay in the checkout.
    env = dict(os.environ)
    for var in ("PRESTAGE_FAULTS", "PRESTAGE_INSTRS"):
        env.pop(var, None)
    env["TMPDIR"] = TMP_DIR
    return env


def build(jobs):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        raise BenchError("no simulator sources next to perfbench/")
    os.makedirs(BUILD_DIR, exist_ok=True)
    os.makedirs(TMP_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    steps = [["cmake", "--build", BUILD_DIR, "-j", str(jobs), "--target",
              "perfbench_driver", "shadow_check"]]
    # Once configured, the build step re-runs cmake itself when a
    # CMakeLists.txt changes.
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"])
    with open(log_path, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              env=child_env()).returncode != 0:
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                raise BenchError("build failed:\n" + tail)
    # Once per driver build: does the shadow machine still reproduce
    # Cpu::run? Information only (see the module docstring).
    if (not os.path.exists(SHADOW_LOG) or
            os.path.getmtime(SHADOW_LOG) < os.path.getmtime(DRIVER)):
        p = subprocess.run([SHADOW_CHECK, str(jobs)], capture_output=True,
                           text=True, env=child_env(),
                           timeout=PROCESS_TIMEOUT_S)
        with open(SHADOW_LOG, "w") as f:
            f.write(p.stdout + p.stderr)
        log(p.stdout.strip())
        if p.returncode != 0:
            log("perfbench: shadow_check found mismatches (%s); traced runs "
                "will report kernel.shadow_match = 0" % SHADOW_LOG)


def spawn(mode, args, index):
    """One perfbench_driver process; returns its JSON result."""
    run_dir = os.path.join(RUNS_DIR, "%s-%d-%s-%d" % (
        args.workload, args.seed, mode, index))
    shutil.rmtree(run_dir, ignore_errors=True)
    cmd = [DRIVER, mode, "--workload", args.workload, "--seed",
           str(args.seed), "--jobs", str(args.jobs), "--dir", run_dir]
    p = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                       timeout=PROCESS_TIMEOUT_S)
    shutil.rmtree(run_dir, ignore_errors=True)
    if p.returncode != 0:
        raise BenchError("driver %s failed (exit %d):\n%s" % (
            mode, p.returncode, p.stderr[-4000:]))
    return json.loads(p.stdout.strip().splitlines()[-1])


def quartile_spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


def measure(args, bench):
    """Spawns runs for args.seconds; returns (samples, runs)."""
    traced = args.trace == 1
    min_runs = 1 if traced else MIN_UNTRACED_RUNS
    # Unmeasured: page in the freshly built binary.
    for k in range(WARMUP_SPAWNS):
        spawn("setup", args, k)
    start = time.monotonic()
    runs = []
    setups = []
    while True:
        if not traced:
            for k in range(SETUP_SAMPLES_PER_RUN):
                setups.append(spawn("setup", args, k)["setup_s"])
        runs.append(spawn("trace" if traced else "run", args, len(runs)))
        setups.append(runs[-1]["setup_s"])
        # Start another run only if, at the mean pace so far, it ends
        # inside the window.
        elapsed = time.monotonic() - start
        if (len(runs) >= min_runs and
                elapsed * (len(runs) + 1) / len(runs) > args.seconds):
            break

    samples = {}
    if traced:
        for m in bench["per_layer"]:
            samples[m["name"]] = [r["metrics"][m["name"]] for r in runs]
    else:
        samples["setup_s"] = setups
        samples["wall_s"] = [r["wall_s"] for r in runs]
        samples["cpu_s"] = [r["cpu_s"] for r in runs]
        samples["minstr_per_s"] = [
            r["budget_instructions"] / 1e6 / r["wall_s"] for r in runs]
        samples["peak_rss_mb"] = [r["peak_rss_kb"] / 1024.0 for r in runs]
    return samples, runs


def verdict(runs, traced):
    """(correct, attempted, failed) over every run, in grid points."""
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    problems = [p for r in runs for p in r["problems"]]
    digests = {r["digest"] for r in runs}
    if len(digests) != 1:
        problems.append("runs of one seed disagree: digests %s" %
                        sorted(digests))
    if traced:
        for r in runs:
            attempted += r["attempted"]
            failed += r["replay_failed"]
            if r["replay_digest"] != r["digest"]:
                problems.append("traced replay store differs from "
                                "run_campaign's")
    for p in problems[:10]:
        print("problem: " + p)
    return not problems and failed == 0, attempted, failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int,
                        default=min(4, os.cpu_count() or 1),
                        help="simulation workers (default min(4, nproc))")
    args = parser.parse_args()

    try:
        bench = load_tables()
        names = [w["name"] for w in bench["workloads"]]
        if args.workload not in names:
            raise BenchError("unknown workload %r (one of %s)" % (
                args.workload, ", ".join(names)))
        build(args.jobs)
        samples, runs = measure(args, bench)
    except (BenchError, subprocess.TimeoutExpired, OSError,
            ValueError, KeyError) as e:
        log("perfbench: %s" % e)
        return 1

    traced = args.trace == 1
    correct, attempted, failed = verdict(runs, traced)
    table = bench["per_layer"] if traced else bench["end_to_end"]
    metrics = {}
    print("workload=%s seed=%d jobs=%d runs=%d result_digest=%s" % (
        args.workload, args.seed, args.jobs, len(runs), runs[0]["digest"]))
    print("failed_frac=%.6g (%d of %d points)" % (
        failed / attempted, failed, attempted))
    for m in table:
        values = samples[m["name"]]
        value = statistics.median(values)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print("%-34s %14.6g %-9s n=%d spread=%.3f" % (
            m["name"], value, m["unit"], len(values),
            quartile_spread(values)))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 3


if __name__ == "__main__":
    sys.exit(main())
