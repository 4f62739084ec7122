#!/usr/bin/env python3
"""The repo benchmark's one command.

    python3 perfbench/run.py --workload build-default|serve-mixed|serve-update \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds the itm libraries, the
`itm` binary and the benchmark runner (Release) into .bench_build/perfbench;
later runs reuse that build. The runner's last stdout line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Exit status: 0 when every check passed, 1 when a correctness check failed,
2 when the benchmark could not build or run.
"""
import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("build-default", "serve-mixed", "serve-update")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUNNER_TIMEOUT_S = 175


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build(bench_dir):
    """Configures (once) and builds the runner and `itm`; False on failure."""
    cmake = shutil.which("cmake")
    if cmake is None:
        log("cmake not found")
        return False
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = [cmake, "-S", bench_dir, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = [cmake, "--build", BUILD_DIR, "-j", jobs,
           "--target", "perfbench_runner", "itm"]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def file_digest(*paths):
    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as f:
            for block in iter(lambda: f.read(1 << 20), b""):
                digest.update(block)
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    # Compiler and tool temporaries stay inside the checkout too.
    tmp_dir = os.path.abspath(os.path.join(".bench_build", "tmp"))
    os.makedirs(tmp_dir, exist_ok=True)
    os.environ["TMPDIR"] = tmp_dir
    if not build(bench_dir):
        log("build failed")
        return 2
    runner = os.path.join(BUILD_DIR, "perfbench_runner")
    itm = os.path.join(BUILD_DIR, "itm", "tools", "itm")
    # Serving inputs are prepared once per program version: the cache key
    # is the digest of the binaries that build and serve them.
    cache_dir = os.path.join(".bench_build", "perfbench-cache",
                             file_digest(runner, itm))
    work_dir = os.path.join(".bench_build", "perfbench-run", args.workload)
    shutil.rmtree(work_dir, ignore_errors=True)

    cmd = [runner, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--itm", itm, "--work-dir", work_dir, "--cache-dir", cache_dir]
    # The runner and the servers it spawns share a new process group, so a
    # timeout can stop all of them.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"runner exceeded {RUNNER_TIMEOUT_S} s; stopping it")
        stop_group(proc)
        return 2


def stop_group(proc):
    """SIGTERM, then SIGKILL, to the runner's process group; waits for all."""
    for sig, grace_s in ((signal.SIGTERM, 5.0), (signal.SIGKILL, 5.0)):
        try:
            os.killpg(proc.pid, sig)
        except ProcessLookupError:
            break
        deadline = time.monotonic() + grace_s
        while time.monotonic() < deadline:
            proc.poll()
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.05)
    proc.wait()


if __name__ == "__main__":
    sys.exit(main())
