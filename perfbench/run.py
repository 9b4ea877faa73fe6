#!/usr/bin/env python3
"""Builds the miniphi layered benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload dna-long --seed 1 --seconds 10 --trace 0

The build goes to .bench_build/ (CMake, Release); the first run of a
checkout builds the library and the benchmark, later runs only relink if a
source changed.  Inputs and traced-run span files go to .bench_build/run/.
The last line of standard output is the result object; it is checked
against the metric names and units in BENCHMARK.json before it is printed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def source_identity(root):
    """The git commit when the checkout is a repository, else a digest of the sources."""
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=30, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, names in os.walk(path) for f in names)
        for name in files:
            digest.update(os.path.relpath(name, root).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def build(root, build_dir):
    def run(cmd):
        result = subprocess.run(cmd, cwd=root, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")

    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"])
    run(["cmake", "--build", build_dir, "--target", "perfbench", "-j", "4"])


def check_result(line, spec, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail("the last output line is not JSON")
    if set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: value.get("unit") for name, value in result["metrics"].items()}
    if got != wanted:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt"), "BENCHMARK.json",
                   os.path.join("perfbench", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(root, needed)):
            fail(f"run from the repository root: {needed} not found")
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")

    build_dir = os.path.join(root, ".bench_build")
    build(root, build_dir)
    workdir = os.path.join(build_dir, "run")
    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir,
           "--commit", source_identity(root)]
    # The CLA spill tier writes under $TMPDIR; keep it inside the checkout.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    try:
        result = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                                stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} exceeded {RUN_TIMEOUT_S} s")
    if result.returncode != 0:
        fail(f"workload {args.workload} exited with {result.returncode}")
    lines = result.stdout.strip().splitlines()
    if not lines:
        fail("no output")
    check_result(lines[-1], spec, args.trace == 1)
    sys.stdout.write(result.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
