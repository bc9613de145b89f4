#!/usr/bin/env python3
"""Build the benchmark program and the rarsubd daemon, run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload sop-ext --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is non-zero when
the build fails, an output check fails, or the exact-count guard trips.
Build products and run files go to .bench_build/ at the root.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ("sop-ext", "aig-window", "daemon-mix")
BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def source_hash():
    """Digest of the sources the benchmark builds, so the exact-count
    guard only compares runs of the same code."""
    digest = hashlib.sha256()
    for top in ("dune-project", "lib", "bin", "perfbench"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for path in sorted(paths):
            if path.endswith((".ml", ".mli", "dune", "dune-project")):
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("dune-project", "lib", os.path.join("bin", "rarsubd.ml"),
                   os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            fail("run from the repository root: %s is missing" % needed)

    os.makedirs(BUILD_DIR, exist_ok=True)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release",
         "--build-dir", os.path.abspath(os.path.join(BUILD_DIR, "dune")),
         "./perfbench/perfbench.exe", "./bin/rarsubd.exe"],
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        fail("build failed")

    default = os.path.join(BUILD_DIR, "dune", "default")
    work_dir = os.path.join(BUILD_DIR, "run")
    os.makedirs(work_dir, exist_ok=True)
    command = [
        os.path.join(default, "perfbench", "perfbench.exe"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work-dir", work_dir, "--source-hash", source_hash(),
        "--rarsubd", os.path.join(default, "bin", "rarsubd.exe"),
    ]
    # One CPU for the benchmark process, the daemon and the clients, so
    # that the calibration probes (perfbench/calibrate.ml) run where the
    # timed work runs. Its own process group, so a timeout also stops
    # the daemon it started.
    cpu = max(os.sched_getaffinity(0))
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            start_new_session=True,
                            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(stdout)
        fail("no result line (exit code %d)" % proc.returncode)

    # The printed metrics must be exactly those BENCHMARK.json declares.
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    section = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[section]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    if printed != declared:
        sys.stderr.write(stdout)
        fail("metrics differ from BENCHMARK.json %s" % section)

    sys.stdout.write(stdout)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
