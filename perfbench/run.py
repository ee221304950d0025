#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload tables_all|multiproc_d1 \
        [--seed N] [--seconds S] [--trace 0|1] [--corrupt-expected]

Builds perfbench/ (which pulls in the bsmp libraries from the repository
root) as a Release CMake build under $CARGO_TARGET_DIR, default
.bench_build, runs one workload in one process with the environment
knobs that workload is defined with, and relays its output. An untraced
run first sets the workload up in extra processes (SETUP_RUNS) and
reports as setup_s the median set-up time over those and the measuring
process. The last stdout line is the result object {"correct",
"attempted", "failed", "metrics"}. Exits non-zero, printing no result,
when the sources are missing, the build fails or a run fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tables_all", "multiproc_d1")
# multiproc_d1 switches its fork points on through the documented knobs.
WORKLOAD_ENV = {
    "multiproc_d1": {"BSMP_PARALLEL_GRAIN": "16", "BSMP_RELOC_GRAIN": "64",
                     "BSMP_WAVE_GRAIN": "2"},
}
# Per-thread trace buffer of a traced run, in events: the busiest layer
# call (one e6 emission) records about 1.5M events across the pool.
TRACE_BUFFER_EVENTS = str(1 << 21)
# Set-ups per untraced run, each in a fresh process so each pays the
# cold start: setup_s is their median. A tables_all set-up takes about
# 8 s; a multiproc_d1 one about 1 s, with a cold op that varies more.
SETUP_RUNS = {"tables_all": 3, "multiproc_d1": 5}
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configure (once) and build bsmp_perfbench; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no bsmp sources next to perfbench/ (expected src/CMakeLists.txt)")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "bsmp_perfbench",
                  "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "bsmp_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-expected", action="store_true",
                    help="flip one expected bit: every op must count as failed")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    binary = build(build_dir)

    env = {k: v for k, v in os.environ.items() if not k.startswith("BSMP_")}
    env.update(WORKLOAD_ENV.get(args.workload, {}))
    env["BSMP_TRACE"] = str(args.trace)
    if args.trace:
        env["BSMP_TRACE_BUFFER"] = TRACE_BUFFER_EVENTS
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.corrupt_expected:
        cmd.append("--corrupt-expected")
    deadline = time.monotonic() + RUN_TIMEOUT_S

    def run(argv):
        try:
            r = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                               text=True,
                               timeout=max(1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail("run exceeded %d s" % RUN_TIMEOUT_S)
        lines = r.stdout.splitlines()
        if r.returncode != 0 or not lines:
            sys.stdout.write("".join(l + "\n" for l in lines
                                     if l.startswith("#")))
            fail("bsmp_perfbench exited with code %d" % r.returncode)
        return lines

    setups, setup_failed = [], False
    if not args.trace:
        for _ in range(SETUP_RUNS[args.workload] - 1):
            lines = run(cmd + ["--setup-only"])
            sys.stdout.write("".join(l + "\n" for l in lines
                                     if l.startswith("# FAILED")))
            setup_failed |= any(l.startswith("# FAILED") for l in lines)
            if not lines[-1].startswith("# setup_s "):
                fail("malformed set-up line")
            setups.append(float(lines[-1].split()[2]))
    lines = run(cmd)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = {}
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    sys.stdout.write("".join(l + "\n" for l in lines[:-1]))
    if setups:
        m = result["metrics"]["setup_s"]
        print("# setup_s of %d processes: %s" % (
            len(setups) + 1,
            " ".join("%.3f" % v for v in setups + [m["value"]])))
        m["value"] = statistics.median(setups + [m["value"]])
        result["correct"] = result["correct"] and not setup_failed
    print(json.dumps(result))


if __name__ == "__main__":
    main()
