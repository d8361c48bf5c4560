#!/usr/bin/env python3
"""Builds and runs the treewm end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds the library and the benchmark binary
with CMake into the build directory ($CARGO_TARGET_DIR if set, else
.bench_build); later calls only rebuild what changed. Build output goes to
stderr. The binary's stdout is passed through, and its last line is the
result object; this script checks that the result names exactly the metrics
BENCHMARK.json lists for the chosen mode, and fails the run otherwise.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(directory):
    """Configures (once) and builds the binary; returns its path or None."""
    cmake_dir = os.path.join(directory, "perfbench")
    env = dict(os.environ, CCACHE_DISABLE="1")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr, stderr=sys.stderr, env=env) != 0:
            return None
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if subprocess.call(["cmake", "--build", cmake_dir, "-j", jobs],
                       stdout=sys.stderr, stderr=sys.stderr, env=env) != 0:
        return None
    return os.path.join(cmake_dir, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv):
    args = dict(zip(argv[0::2], argv[1::2]))
    if len(argv) % 2 != 0 or not {"--workload", "--seed", "--seconds", "--trace"} <= set(args):
        print(__doc__, file=sys.stderr)
        return 2
    directory = build_dir()
    binary = build(directory)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    work_dir = os.path.join(directory, "runs")
    os.makedirs(work_dir, exist_ok=True)
    try:
        proc = subprocess.run([binary] + argv + ["--work-dir", work_dir],
                              stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        got = {name: m["unit"] for name, m in result["metrics"].items()}
    except (ValueError, KeyError, TypeError, AttributeError):
        print(proc.stdout, end="")
        print("perfbench: no result line", file=sys.stderr)
        return 1
    want = expected_metrics(args["--trace"] == "1")
    if got != want:
        print("\n".join(lines[:-1]))
        print("perfbench: metrics differ from BENCHMARK.json: missing %s, extra %s"
              % (sorted(set(want) - set(got)), sorted(set(got) - set(want))), file=sys.stderr)
        return 1
    print(proc.stdout, end="")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
