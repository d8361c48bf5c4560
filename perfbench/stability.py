#!/usr/bin/env python3
"""Measures the run-to-run spread of every end-to-end metric.

Usage (from the repository root):

    python3 perfbench/stability.py [--seeds 1-10] [--workloads a,b] [--out FILE]
                                   [--raw FILE]
    python3 perfbench/stability.py --compare FIRST.json SECOND.json

Runs `perfbench/run.py` once per seed on each workload (untraced, with
BENCHMARK.json's run_seconds) and prints, per workload and metric, the median,
the first and third quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median. A metric is flagged "unsteady" when its spread exceeds a
third of its bound and "OVER BOUND" when it exceeds the bound; setup_s is
reported but never flagged, since its bound only limits the change of its
median. --out also writes the tables to FILE as markdown; --raw writes every
run's metrics to FILE as JSON.

--compare reads two --raw files of the same code and prints, per workload and
metric, both medians and how much worse the second is than the first (and the
reverse) as a share of the first, against the metric's bound.
"""

import json
import os
import time
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    start = time.time()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise RuntimeError("%s seed %d failed: %s" % (workload, seed, proc.stdout[-2000:]))
    print("# %s seed %d: %.1f s wall" % (workload, seed, time.time() - start), flush=True)
    return {name: m["value"] for name, m in result["metrics"].items()}


def table(workload, metrics, runs):
    lines = ["### %s (%d runs)" % (workload, len(runs)), "",
             "| metric | median | q1 | q3 | spread | bound | verdict |",
             "|---|---|---|---|---|---|---|"]
    for m in metrics:
        values = [r[m["name"]] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        spread = (q3 - q1) / median if median else float("inf")
        if m["name"] == "setup_s" or spread <= m["bound"] / 3:
            verdict = "steady"
        elif spread <= m["bound"]:
            verdict = "unsteady"
        else:
            verdict = "OVER BOUND"
        lines.append("| %s | %.6g | %.6g | %.6g | %.3f | %.2f | %s |"
                     % (m["name"], median, q1, q3, spread, m["bound"], verdict))
    return "\n".join(lines) + "\n"


def worse_by(spec_metric, first, second):
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first
    return change if spec_metric["better"] == "lower" else -change


def compare(spec, first_path, second_path):
    with open(first_path) as f:
        first = json.load(f)
    with open(second_path) as f:
        second = json.load(f)
    lines = ["| workload | metric | first median | second median | second worse by "
             "| reverse | bound | verdict |", "|---|---|---|---|---|---|---|---|"]
    for workload in first:
        for m in spec["end_to_end"]:
            a = statistics.median(r[m["name"]] for r in first[workload])
            b = statistics.median(r[m["name"]] for r in second[workload])
            fwd, rev = worse_by(m, a, b), worse_by(m, b, a)
            verdict = "within" if max(fwd, rev) <= m["bound"] else "OVER BOUND"
            lines.append("| %s | %s | %.6g | %.6g | %+.3f | %+.3f | %.2f | %s |"
                         % (workload, m["name"], a, b, fwd, rev, m["bound"], verdict))
    print("\n".join(lines))
    return 0


def main(argv):
    if argv[:1] == ["--compare"] and len(argv) == 3:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return compare(json.load(f), argv[1], argv[2])
    args = dict(zip(argv[0::2], argv[1::2]))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seeds = parse_seeds(args.get("--seeds", "1-10"))
    workloads = args.get("--workloads", ",".join(w["name"] for w in spec["workloads"]))
    out = []
    raw = {}
    for workload in workloads.split(","):
        runs = raw[workload] = []
        for seed in seeds:
            runs.append(run_once(workload, seed, spec["run_seconds"]))
            print("# %s seed %d: %s" % (workload, seed, json.dumps(runs[-1])), flush=True)
        out.append(table(workload, spec["end_to_end"], runs))
        print(out[-1], flush=True)
    if "--out" in args:
        with open(args["--out"], "w") as f:
            f.write("\n".join(out))
    if "--raw" in args:
        with open(args["--raw"], "w") as f:
            json.dump(raw, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
