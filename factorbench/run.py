#!/usr/bin/env python3
"""Build and run the FACTOR benchmark program.

    python3 factorbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds the
benchmark (and the library it links, from src/) in Release mode under the
build directory ($CARGO_TARGET_DIR if set, else .bench_build); later calls
only rebuild what changed. The program's last stdout line is the result
JSON. A per-run detail file (both metric sets) and, for traced runs, the
span NDJSON are written under <build dir>/results/.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(ROOT, d))


def build(out):
    """Configure (once) and build the benchmark; output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "factorbench",
                  "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            sys.stderr.write("factorbench: build step failed: %s\n"
                             % " ".join(cmd))
            return False
    return True


def option(argv, name):
    for i, a in enumerate(argv[:-1]):
        if a == name:
            return argv[i + 1]
    return None


def main(argv):
    out = build_dir()
    if not build(out):
        return 1
    results = os.path.join(out, "results")
    os.makedirs(results, exist_ok=True)
    tag = "%s-s%s-t%s" % (option(argv, "--workload"), option(argv, "--seed"),
                          option(argv, "--trace"))
    cmd = [os.path.join(out, "factorbench")] + argv + [
        "--detail", os.path.join(results, tag + ".json"),
        "--trace-out", os.path.join(results, tag + ".spans.ndjson")]
    # The program's own exit code passes through; it prints the result line.
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
