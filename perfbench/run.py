#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

Run from the repository root:

    python3 perfbench/run.py --workload fig5_branch --seed 1 --seconds 35 --trace 0

--workload all runs every workload of perfbench/workloads.json, each in
its own process, one after the other. The first run configures and builds
perfbench/ (the library from src/ plus the benchmark binary) as a Release
build under $CARGO_TARGET_DIR (default .bench_build). --trace 0 prints the
end-to-end metrics; --trace 1 is the separate traced run that prints the
per-layer metrics. The last line of standard output is the JSON result;
the exit code is non-zero when the build fails, an operation fails or an
output is wrong.

Pinned thread counts and the cache policy of each workload live in
perfbench/workloads.json. To regenerate the golden report digests after an
intended change of figure output:

    .bench_build/perfbench/perfbench --print-digests --threads 1 \\
        --golden perfbench/golden.txt > perfbench/golden.txt
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# A run measures for --seconds; stop one that hangs well before 180 s.
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configure (once) and build the Release binary; return its path."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j4"], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "perfbench")


def source_id():
    """The git SHA when the checkout is a repository, else a digest of src/."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, check=True)
            return sha.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(BENCH_DIR, "workloads.json")) as f:
        workloads = json.load(f)["workloads"]
    names = list(workloads) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in workloads:
            print("unknown workload %r (have %s, all)"
                  % (name, ", ".join(workloads)), file=sys.stderr)
            return 2

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench build failed: %s" % e, file=sys.stderr)
        return 2

    status = 0
    for name in names:
        command = [binary,
                   "--workload", name,
                   "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace),
                   "--threads", str(workloads[name]["threads"]),
                   "--golden", os.path.join(BENCH_DIR, "golden.txt"),
                   "--source", source_id()]
        try:
            code = subprocess.run(command, cwd=ROOT,
                                  timeout=RUN_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            print("perfbench: %s exceeded %d s" % (name, RUN_TIMEOUT_S),
                  file=sys.stderr)
            code = 2
        status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main())
