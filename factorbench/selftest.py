#!/usr/bin/env python3
"""Self-test of the FACTOR benchmark.

    python3 factorbench/selftest.py [--seed N] [workload ...]

Run from the root of a checkout; builds the benchmark like run.py does.
Checks, for each workload (all of them by default):

  * the metric names and units the benchmark prints are exactly those in
    BENCHMARK.json (end_to_end with --trace 0, per_layer with --trace 1);
  * every work counter and every quality metric is identical between two
    runs with one seed, and between --jobs 1 and --jobs 4;
  * the result reports correct outputs and no failed row;
  * a FACTOR_* environment variable makes the benchmark refuse to run.

Exits 0 when every check passes, 1 otherwise.
"""
import json
import os
import subprocess
import sys

import run

# Counts that depend on timing or on the worker count, so they are left out
# of the exact comparison: the pool's scheduling, and solves run by
# speculative workers whose result a parallel run may discard.
NOT_EXACT = {"atpg.pool.tasks", "atpg.pool.steals", "sat.solves_executed"}
QUALITY = ("coverage_percent", "efficiency_percent", "view_gates")


def bench(out, workload, seed, trace, jobs, env=None):
    """Run the benchmark for its minimum of passes.

    Returns (exit code, result line, detail file), the last two parsed.
    """
    detail = os.path.join(out, "results", "selftest-%s-%s-%s.json"
                          % (workload, trace, jobs))
    cmd = [os.path.join(out, "factorbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.001", "--trace", str(trace),
           "--jobs", str(jobs), "--detail", detail]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, env=env)
    if p.returncode != 0:
        return p.returncode, None, None
    result = json.loads(p.stdout.strip().splitlines()[-1])
    with open(detail) as f:
        return 0, result, json.load(f)


def exact_values(detail):
    """Quality metrics plus every per-layer count that must repeat."""
    vals = {k: detail["end_to_end"][k]["value"] for k in QUALITY}
    for k, m in detail["per_layer"].items():
        if m["unit"] == "count" and k not in NOT_EXACT:
            vals[k] = m["value"]
    return vals


def diff(a, b):
    return ["%s: %s != %s" % (k, a[k], b.get(k))
            for k in a if a[k] != b.get(k)]


def main(argv):
    seed = 7
    if "--seed" in argv:
        i = argv.index("--seed")
        seed = int(argv[i + 1])
        del argv[i:i + 2]
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = argv or [w["name"] for w in spec["workloads"]]
    out = run.build_dir()
    if not run.build(out):
        return 1
    os.makedirs(os.path.join(out, "results"), exist_ok=True)
    expected = {
        0: [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        1: [(m["name"], m["unit"]) for m in spec["per_layer"]],
    }
    problems = []
    for w in workloads:
        runs = {}
        for trace, jobs, tag in ((0, 4, "a"), (1, 4, "b"), (0, 1, "c")):
            rc, result, detail = bench(out, w, seed, trace, jobs)
            if rc != 0:
                problems.append("%s: benchmark exited %d" % (w, rc))
                continue
            names = [(k, v["unit"]) for k, v in result["metrics"].items()]
            if names != expected[trace]:
                problems.append("%s: --trace %d metrics differ from "
                                "BENCHMARK.json" % (w, trace))
            if not result["correct"] or result["failed"]:
                problems.append("%s: run %s not correct" % (w, tag))
            runs[tag] = exact_values(detail)
        if len(runs) == 3:
            problems += ["%s: repeat run: %s" % (w, d)
                         for d in diff(runs["a"], runs["b"])]
            problems += ["%s: jobs 1 vs 4: %s" % (w, d)
                         for d in diff(runs["a"], runs["c"])]
        print("%s: checked %d exact values" % (w, len(runs.get("a", {}))))

    env = dict(os.environ, FACTOR_SIM_WIDTH="256")
    rc, result, _ = bench(out, workloads[0], seed, 0, 4, env)
    if rc == 0 or result is not None:
        problems.append("benchmark ran with FACTOR_SIM_WIDTH set")

    for p in problems:
        print("FAIL", p)
    print("selftest %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
