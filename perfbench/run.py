#!/usr/bin/env python3
"""Builds and runs the parallel-paging benchmark.

Usage, from the root of a source tree:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (Release) into
$CARGO_TARGET_DIR/perfbench-<hash of this directory's path>, under
.bench_build/ when that variable is unset; later calls only re-check the
build. The benchmark binary's output is passed through, so the last stdout
line is the result JSON. When
perfbench/digests.json pins a digest for the workload and seed, the run must
reproduce it. Build output goes to stderr.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no library sources under {ROOT}/src")
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    # One build tree per source tree: a build directory shared between
    # checkouts (an absolute CARGO_TARGET_DIR) would otherwise keep
    # compiling the first checkout's sources.
    tree = hashlib.sha1(HERE.encode()).hexdigest()[:12]
    build_dir = os.path.join(ROOT, base, "perfbench-" + tree)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
                  "--target", *targets])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return build_dir


def source_id():
    """The commit when run from a git checkout, else a hash of src/."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def pinned_digest(workload, seed):
    with open(os.path.join(HERE, "digests.json")) as f:
        return json.load(f).get(workload, {}).get(str(seed))


def run(cmd):
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    sys.stdout.write(proc.stdout)
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        build_dir = build(["perfbench_selftest"])
        return run([os.path.join(build_dir, "perfbench_selftest")])
    if not args.workload:
        parser.error("--workload is required")

    build_dir = build(["perfbench"])
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--commit", source_id()]
    expected = pinned_digest(args.workload, args.seed)
    if expected:
        cmd += ["--expect-digest", expected]
    return run(cmd)


if __name__ == "__main__":
    sys.exit(main())
