#!/usr/bin/env python3
"""Builds and runs one workload of the egobw benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of an egobw source tree. The first run configures and
builds perfbench/ (which pulls in the library through the root
CMakeLists.txt) into .bench_build/, or into $CARGO_TARGET_DIR when that is
set; later runs only rebuild what changed. The build log goes to stderr.
The last line of stdout is the result JSON; the line before it describes
the machine. The program prints the values it measured by name; this script
takes the mode's metrics, their order and their units from BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("rmat-batch", "update-stream", "serve-zipf")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target)


def build():
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(configure, stdout=sys.stderr, cwd=ROOT) != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "--target", "egobw_perfbench", "-j", jobs]
    if subprocess.call(cmd, stdout=sys.stderr, cwd=ROOT) != 0:
        fail("build failed")
    return os.path.join(out, "egobw_perfbench")


def source_id():
    """The commit when ROOT is a git checkout, else a digest of src/."""
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             check=True).stdout.split()
        if os.path.realpath(git[0]) == os.path.realpath(ROOT):
            return git[1]
    except (OSError, IndexError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def select_metrics(values, trace):
    """The mode's metrics in BENCHMARK.json order, with their units.

    Every end-to-end metric must be measured. A per-layer metric of a layer
    the workload does not reach reads 0. A value under an undeclared name
    means the program and BENCHMARK.json disagree, and is refused.
    """
    end_to_end, per_layer = declared_metrics()
    undeclared = set(values) - {m["name"] for m in end_to_end + per_layer}
    if undeclared:
        fail("values not declared in BENCHMARK.json: %s" % sorted(undeclared))
    missing = [m["name"] for m in end_to_end if m["name"] not in values]
    if missing:
        fail("end-to-end metrics not measured: %s" % missing)
    group = per_layer if trace else end_to_end
    return {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
            for m in group}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no egobw source tree around " + HERE)
    declared_metrics()
    binary = build()
    work_dir = os.path.relpath(build_dir(), ROOT)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--commit", source_id()]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        fail("benchmark exited with code %d" % proc.returncode)
    result = json.loads(lines[-1])
    result["metrics"] = select_metrics(result["metrics"], args.trace)
    print(lines[-2])
    print(json.dumps(result))
    sys.exit(0)


if __name__ == "__main__":
    main()
