#!/usr/bin/env python3
"""Builds and runs clflow's end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload compile_zoo --seed 1 --seconds 10 --trace 0

Workloads: compile_zoo, dse_sweep, serve_open_loop, infer_verified (see
perfbench/METRICS.md). The first call configures and builds perfbench/
(and with it the clflow library from src/) under .bench_build/perfbench.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are
BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list; a
per-layer metric of a layer the workload does not exercise reads 0. The
lines before it are the run's notes and a `meta {...}` line with its
settings (seed, jobs, hardware and functional threads, build type,
compiler, git describe, fail_rate).
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("compile_zoo", "dse_sweep", "serve_open_loop", "infer_verified")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then builds incrementally; output goes to stderr.
    The compiler's temporary files stay inside the build tree."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)

    def step(cmd):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            fail("build step failed: " + " ".join(cmd))

    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        step(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    step(["cmake", "--build", BUILD, "--target", "perfbench",
          "-j", str(os.cpu_count() or 1)])
    return os.path.join(BUILD, "perfbench")


def git_describe():
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, declared, trace):
    """Matches the binary's metrics to BENCHMARK.json, filling per-layer
    metrics of layers this workload does not exercise with 0."""
    metrics = result["metrics"]
    for name, m in metrics.items():
        if name not in declared:
            fail("metric %s is not declared in BENCHMARK.json" % name)
        if m["unit"] != declared[name]:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (name, m["unit"], declared[name]))
    for name, unit in declared.items():
        if name in metrics:
            continue
        if not trace:
            fail("end-to-end metric %s missing" % name)
        metrics[name] = {"value": 0, "unit": unit}
    result["metrics"] = {name: metrics[name] for name in sorted(metrics)}
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    binary = build()
    declared = declared_metrics(args.trace)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--git-describe", git_describe()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail("%s exited with code %d" % (args.workload, proc.returncode))
    result = check_result(json.loads(lines[-1]), declared, args.trace)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
