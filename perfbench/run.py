#!/usr/bin/env python3
"""Build the simulator from source and run one benchmark workload.

    python3 perfbench/run.py --workload memcached --seed 1 --seconds 20 --trace 0

Run from the root of a source tree.  The benchmark is compiled with the
release profile into .bench_build/ (the first run builds; later runs
only check that the build is current), then main.exe measures the
workload for --seconds.  --trace 0 prints the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer ones.  The last line of
standard output is the result object; it is printed only after its
metric names and units have been checked against BENCHMARK.json.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = ".bench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "main.exe")
PINS = os.path.join(HERE, "pins.txt")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_digest():
    """A digest of the sources the benchmark builds, standing in for the
    commit when the tree is not a git checkout."""
    h = hashlib.sha1()
    for top in ("dune-project", "lib", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            if f.endswith((".ml", ".mli", "dune", "dune-project", ".txt", ".py")):
                h.update(os.path.relpath(f, ROOT).encode())
                with open(f, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:12]


def commit():
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return "src-" + source_digest()


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail("no simulator sources (dune-project, lib/) next to perfbench/")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        out = subprocess.run(
            ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
             "--profile", "release", "./perfbench/main.exe"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if out.returncode != 0:
        sys.stderr.write(out.stdout + out.stderr)
        fail("build failed")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    table = spec["per_layer"] if trace else spec["end_to_end"]
    return spec, {m["name"]: m["unit"] for m in table}


def check_result(line, expected):
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result keys: %s" % sorted(result))
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(k for k in set(got) & set(expected) if got[k] != expected[k])
        fail("metrics differ from BENCHMARK.json: missing %s extra %s unit %s"
             % (missing, extra, wrong))
    for name, m in result["metrics"].items():
        v = m["value"]
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            fail("metric %s is not a number: %r" % (name, v))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    try:
        spec, expected = expected_metrics(args.trace)
    except (OSError, ValueError, KeyError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %s" % args.workload, 2)
    if args.seconds < 1:
        fail("--seconds must be at least 1", 2)

    build()
    started = time.monotonic()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--pins", PINS,
           "--host", "profile release  commit %s" % commit()]
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(out.stderr)
    if out.returncode != 0:
        sys.stderr.write(out.stdout)
        fail("benchmark exited with code %d" % out.returncode)
    lines = out.stdout.rstrip("\n").split("\n")
    try:
        check_result(lines[-1], expected)
    except (ValueError, KeyError, TypeError) as e:
        fail("malformed result line: %s" % e)
    for line in lines[:-1]:
        print(line)
    print("wall: %.2f s" % (time.monotonic() - started))
    print(lines[-1])


if __name__ == "__main__":
    main()
