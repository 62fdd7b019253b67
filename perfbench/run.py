#!/usr/bin/env python3
"""Runs the zombieland layered benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds perfbench/ with CMake into .bench_build/perfbench (Release), runs the
zl_perfbench program from the repository root, and checks the fingerprints of
its reference-seed passes against perfbench/fingerprints.json.  The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics.  A run whose fingerprint or invariants do not hold reports
correct=false and counts every attempted operation as failed.

Extra options (not used by a measuring run):
    --fingerprints PATH     compare against another fingerprint file
    --record-fingerprints   store this run's reference fingerprints in the
                            fingerprint file (a deliberate re-baseline)
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "zl_perfbench")
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")
WORKLOADS = ("ramext_remote", "dataplane_sharded", "serve_rack")
# --seconds is capped at MAX_SECONDS; the rest of the timeout covers the
# reference passes and the last pass that overruns the budget.
MAX_SECONDS = 60
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds zl_perfbench; build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("perfbench: build step failed: " + " ".join(step))
            return False
    return True


def load_fingerprints(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc.get("workloads"), dict):
        raise ValueError(path + ": expected {\"workloads\": {...}}")
    return doc


def check_reference(result, stored):
    """Problems found comparing the run's reference passes with the stored ones."""
    problems = []
    for workload, fingerprint in sorted(result["reference"].items()):
        expected = stored["workloads"].get(workload)
        if expected is None:
            problems.append(workload + ": no stored fingerprint")
            continue
        for key in sorted(set(expected) | set(fingerprint)):
            if expected.get(key) != fingerprint.get(key):
                problems.append("%s: fingerprint %s is %r, expected %r"
                                % (workload, key, fingerprint.get(key), expected.get(key)))
    return problems


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--fingerprints", default=FINGERPRINTS)
    parser.add_argument("--record-fingerprints", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0 or not 1 <= args.seconds <= MAX_SECONDS:
        parser.error("--seed must be >= 0 and --seconds in [1, %d]" % MAX_SECONDS)

    stored = load_fingerprints(args.fingerprints)
    if not build():
        return 1

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_out = os.path.join(ROOT, ".bench_build", "traces",
                                 "%s-seed%d.json" % (args.workload, args.seed))
        os.makedirs(os.path.dirname(trace_out), exist_ok=True)
        command += ["--trace-out", trace_out]
    started = time.monotonic()
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log("perfbench: zl_perfbench did not finish within %d s" % RUN_TIMEOUT_S)
        return 1
    if done.returncode != 0:
        log("perfbench: zl_perfbench exited with %d" % done.returncode)
        return 1
    lines = done.stdout.strip().splitlines()
    if not lines:
        log("perfbench: zl_perfbench printed no result")
        return 1
    result = json.loads(lines[-1])

    problems = list(result["problems"]) + check_reference(result, stored)
    if args.record_fingerprints:
        if result["problems"]:
            log("perfbench: not recording fingerprints from a run with problems")
            return 1
        stored["workloads"].update(result["reference"])
        with open(args.fingerprints, "w", encoding="utf-8") as f:
            json.dump(stored, f, indent=2, sort_keys=True)
            f.write("\n")
        log("perfbench: recorded fingerprints of %s in %s"
            % (", ".join(sorted(result["reference"])), args.fingerprints))
        problems = list(result["problems"])
    for problem in problems:
        log("perfbench: FAILED CHECK: " + problem)

    correct = not problems
    attempted = max(1, int(result["attempted"]))
    failed = int(result["failed"]) if correct else attempted
    log("perfbench: %s seed %d trace %d: %d ops, %d failed, %.1f s"
        % (args.workload, args.seed, args.trace, attempted, failed, time.monotonic() - started))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
