#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload decompose-skewed --seed 3 \
        --seconds 50 --trace 0

Workloads: decompose-skewed, churn-replicated. The benchmark is
configured into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
and rebuilt incrementally on every call; build output goes to stderr. The
last line of standard output is the JSON result, holding exactly the
metrics BENCHMARK.json names for the kind of run (end-to-end untraced,
per-layer traced). Any build failure, failed output check or missing
end-to-end metric exits non-zero.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys


def source_digest(root):
    """sha1 over the library sources, so a run names the code it measured
    even in a checkout that is not a git repository."""
    digest = hashlib.sha1()
    for base in ("src", "CMakeLists.txt"):
        path = os.path.join(root, base)
        if os.path.isfile(path):
            files = [path]
        else:
            files = sorted(
                os.path.join(d, f)
                for d, _, names in os.walk(path)
                for f in names)
        for name in files:
            digest.update(os.path.relpath(name, root).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:12]


def git_commit(root):
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=root, capture_output=True, text=True,
                             timeout=10, check=False)
    except OSError:
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build(root, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(root, "perfbench"),
                     "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    compile_cmd = ["cmake", "--build", build_dir, "--target", "perfbench",
                   "-j", jobs]
    return subprocess.run(compile_cmd, stdout=sys.stderr).returncode == 0


def manifest_result(root, trace, result_line):
    """The benchmark's JSON result reduced to the metrics BENCHMARK.json
    names for this kind of run (end-to-end untraced, per-layer traced), in
    its order, and the problems found. A per-layer metric the workload does
    not measure (its layer takes no part in the workload) reads 0; a
    missing end-to-end metric, or a unit other than the manifest's, fails
    the run. The other metrics stay in the text report above."""
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        manifest = json.load(handle)
    result = json.loads(result_line)
    measured = result["metrics"]
    problems = []
    metrics = {}
    for spec in manifest["per_layer" if trace else "end_to_end"]:
        name, unit = spec["name"], spec["unit"]
        metric = measured.get(name)
        if metric is None:
            if not trace:
                problems.append("metric %s was not measured" % name)
            metric = {"value": 0, "unit": unit}
        elif metric["unit"] != unit:
            problems.append("metric %s is in %s, not %s"
                            % (name, metric["unit"], unit))
        metrics[name] = metric
    result["metrics"] = metrics
    if problems:
        result["correct"] = False
        result["failed"] += len(problems)
    return result, problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(root, "src")):
        print("perfbench: run from the repository root (no CMakeLists.txt "
              "or src/ here)", file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    if not build(root, build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2

    work_dir = os.path.join(root, target, "work")
    os.makedirs(work_dir, exist_ok=True)
    env = dict(os.environ)
    env["PERFBENCH_COMMIT"] = git_commit(root)
    env["PERFBENCH_SOURCE_DIGEST"] = source_digest(root)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    sys.stdout.flush()
    run = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        result, problems = manifest_result(root, args.trace, lines[-1])
    except (ValueError, KeyError, TypeError):
        # No result line: the benchmark failed before it could print one.
        sys.stdout.write(lines[-1] + "\n")
        return run.returncode or 1
    for problem in problems:
        print("  FAILED: " + problem)
    print(json.dumps(result, separators=(",", ":")))
    return 1 if problems else run.returncode


if __name__ == "__main__":
    sys.exit(main())
