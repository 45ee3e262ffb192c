#!/usr/bin/env python3
"""Builds and runs one workload of the rating-path benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <ingest|epoch> \
        --seed <n> --seconds <s> --trace <0|1>

The first run in a checkout configures and builds perfbench/ (which
compiles ../src) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when that variable is unset; later runs rebuild only what changed. Build
output goes to stderr. Scratch files and spans go to .bench_out/. The
last line of stdout is the run's JSON result; the line before it is the
run's metadata (seed, core count, build type, revision, src/ line count,
deterministic counts, sample counts).

Exit codes: 0 ok, 1 a correctness check failed, 2 bad arguments, missing
sources, build failure or an aborted run.
"""

import argparse
import hashlib
import os
import subprocess
import sys

RUN_TIMEOUT_S = 175
WORKLOADS = ("ingest", "epoch")


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def src_files(src):
    for root, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            if name.endswith((".h", ".cpp")):
                yield os.path.join(root, name)


def revision(root, src):
    """The git revision when the checkout is a repository, else a digest of
    the src/ tree so runs of different code stay distinguishable."""
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for path in src_files(src):
        h.update(os.path.relpath(path, src).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def src_lines(src):
    total = 0
    for path in src_files(src):
        with open(path, "rb") as f:
            total += f.read().count(b"\n")
    return total


def build(bench_dir, build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "p2prep_perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be in [1, 60]")

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "CMakeLists.txt")):
        fail(f"library sources not found at {src}")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(root, target)
    build_dir = os.path.join(target, "perfbench")
    build(bench_dir, build_dir)

    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "p2prep_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir, "--rev", revision(root, src),
           "--src-lines", str(src_lines(src))]
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
