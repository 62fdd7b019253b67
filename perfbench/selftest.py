#!/usr/bin/env python3
"""Smoke-size self-test of the layered benchmark.

    python3 perfbench/selftest.py

Runs every fingerprinted workload for one second untraced and once traced,
and checks that each run prints a result with exactly the metric names and
units listed in BENCHMARK.json.  Runs zl_perfbench twice on a held-out seed and requires
identical fingerprints.  Then runs against a corrupted copy of
fingerprints.json and requires the run to be reported as incorrect, with
every attempted operation counted as failed.  Writes only under .bench_build/.
Exits 0 when every check holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
BINARY = os.path.join(ROOT, ".bench_build", "perfbench", "zl_perfbench")
SCRATCH = os.path.join(ROOT, ".bench_build", "selftest")
HELD_OUT_SEED = 7

failures = []


def check(condition, message):
    if not condition:
        failures.append(message)
        print("FAIL: " + message, flush=True)


def run_bench(workload, seed, trace, extra=()):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), *extra]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    if done.returncode != 0:
        failures.append("%s exited %d:\n%s" % (" ".join(cmd), done.returncode, done.stderr[-3000:]))
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_result(result, expected, label):
    if result is None:
        return
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          label + ": result keys are " + ", ".join(sorted(result)))
    check(result["correct"] is True and result["failed"] == 0,
          label + ": run not correct (failed %s)" % result.get("failed"))
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          label + ": attempted must be a whole number >= 1")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    check(got == expected, label + ": metric names/units differ from BENCHMARK.json: %s"
          % sorted(set(got.items()) ^ set(expected.items())))


def measured_fingerprint(workload, seed):
    done = subprocess.run([BINARY, "--workload", workload, "--seed", str(seed), "--seconds", "1",
                           "--trace", "0"], cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=300)
    check(done.returncode == 0, "zl_perfbench %s exited %d" % (workload, done.returncode))
    return json.loads(done.stdout.strip().splitlines()[-1])["fingerprint"]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    with open(os.path.join(HERE, "fingerprints.json"), encoding="utf-8") as f:
        stored = json.load(f)
    # Every fingerprinted workload, including ramext_remote, which the traced
    # run covers but BENCHMARK.json does not list (see README.md).
    workloads = sorted(stored["workloads"])

    for workload in workloads:
        print("untraced " + workload, flush=True)
        check_result(run_bench(workload, HELD_OUT_SEED, 0), end_to_end, workload + " trace 0")
    # The traced run measures the layers of every workload whatever --workload names.
    print("traced", flush=True)
    check_result(run_bench(workloads[0], HELD_OUT_SEED, 1), per_layer, "trace 1")

    for workload in workloads:
        first = measured_fingerprint(workload, HELD_OUT_SEED)
        check(first and first == measured_fingerprint(workload, HELD_OUT_SEED),
              workload + ": two runs on held-out seed %d fingerprint differently" % HELD_OUT_SEED)

    os.makedirs(SCRATCH, exist_ok=True)
    for workload in workloads:
        corrupt = json.loads(json.dumps(stored))
        key = sorted(corrupt["workloads"][workload])[0]
        corrupt["workloads"][workload][key] += 1
        path = os.path.join(SCRATCH, "corrupt-%s.json" % workload)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(corrupt, f)
        result = run_bench(workload, HELD_OUT_SEED, 0, ("--fingerprints", path))
        check(result is not None and result["correct"] is False
              and result["failed"] == result["attempted"],
              workload + ": a corrupted fingerprint was not reported as a failure")

    print("selftest: %s" % ("FAILED (%d checks)" % len(failures) if failures else "ok"), flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
