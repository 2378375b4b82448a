#!/usr/bin/env python3
"""ccsim host benchmark: build, run one workload, check steadiness.

Builds the simulator library and the hostbench binary from this checkout's
sources (CMake, Release, into .bench_build/hostbench) and runs one workload:

    python3 hostbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of standard output is the binary's JSON result. Build output
goes to standard error. Other modes:

    --steadiness [--runs N] [--workload NAME]
                              two sets of N runs of every workload, workloads
                              alternating, each run with another seed; prints
                              each end-to-end metric's median and quartiles per
                              set and whether the sets agree within the bounds
                              in BENCHMARK.json (exit 1 if not)
    --self-test               build and run the benchmark's own tests
    --record-digests          rewrite hostbench/digests.json from this build

Exit codes: 0 ok, 1 a check failed, 2 build, usage or input error.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "hostbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "hostbench")
DIGESTS = os.path.join(BENCH_DIR, "digests.json")
BASELINE = os.path.join(ROOT, "BENCH_ppopp97.json")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("error: " + msg, file=sys.stderr)
    sys.exit(code)


def build(*targets):
    """Configure (once) and build `targets`; all output to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no ccsim sources (src/CMakeLists.txt) next to hostbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", *targets])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def binary_args(workload, seed, seconds, trace):
    spans_dir = os.path.join(BUILD_DIR, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    return [os.path.join(BUILD_DIR, "hostbench"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--digests", DIGESTS, "--baseline", BASELINE,
            "--spans-out", os.path.join(spans_dir, workload + ".json")]


def run_once(workload, seed, seconds, trace):
    """Run the binary; return (exit code, stdout text)."""
    try:
        p = subprocess.run(binary_args(workload, seed, seconds, trace),
                           stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s run exceeded %d s" % (workload, RUN_TIMEOUT_S), 1)
    return p.returncode, p.stdout


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steadiness(runs, seconds, only):
    """Two sets of runs of the same build; report drift, do not average it."""
    spec = load_benchmark()
    metrics = spec["end_to_end"]
    workloads = [only] if only else [w["name"] for w in spec["workloads"]]
    seconds = seconds or spec["run_seconds"]
    sets = []
    for s in range(2):
        values = {w: {m["name"]: [] for m in metrics} for w in workloads}
        for i in range(runs):
            for w in workloads:
                code, out = run_once(w, i + 1, seconds, 0)
                if code != 0:
                    fail("%s seed %d exited %d" % (w, i + 1, code), 1)
                result = json.loads(out.strip().splitlines()[-1])
                if not result["correct"] or result["failed"] != 0:
                    fail("%s seed %d reported failures" % (w, i + 1), 1)
                for m in metrics:
                    values[w][m["name"]].append(result["metrics"][m["name"]]["value"])
                print("set %d run %d %s done" % (s + 1, i + 1, w), file=sys.stderr)
        sets.append(values)

    ok = True
    for w in workloads:
        print("== %s" % w)
        for m in metrics:
            name, bound = m["name"], m["bound"]
            stats = [quartiles(sets[s][w][name]) for s in range(2)]
            line = "  %-18s" % name
            for s, (q1, med, q3) in enumerate(stats):
                spread = (q3 - q1) / med if med else float("inf")
                steady = name == "setup_s" or spread <= bound
                ok &= steady
                line += "  set%d %.6g [%.6g, %.6g] spread %.1f%%%s" % (
                    s + 1, med, q1, q3, 100 * spread, "" if steady else " WIDE")
            first, second = stats[0][1], stats[1][1]
            change = (second - first) / first if first else float("inf")
            worse = -change if m["better"] == "higher" else change
            agree = worse <= bound
            ok &= agree
            line += "  change %+.1f%% (bound %.0f%%) %s" % (
                100 * change, 100 * bound, "agree" if agree else "DRIFT")
            print(line)
            for s in range(2):
                print("    set%d runs: %s" % (s + 1, " ".join(
                    "%.6g" % v for v in sets[s][w][name])))
    print("sets agree within bounds" if ok else "sets DISAGREE")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", action="store_true")
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record-digests", action="store_true")
    a = ap.parse_args()

    if a.self_test:
        build("hostbench_tests")
        return subprocess.run([os.path.join(BUILD_DIR, "hostbench_tests")]).returncode
    build("hostbench")
    if a.record_digests:
        return subprocess.run([os.path.join(BUILD_DIR, "hostbench"),
                               "--record-digests", DIGESTS,
                               "--baseline", BASELINE]).returncode
    if a.steadiness:
        return steadiness(a.runs, a.seconds, a.workload)
    if not a.workload or a.seconds is None:
        fail("--workload and --seconds are required")
    code, out = run_once(a.workload, a.seed, a.seconds, a.trace)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
