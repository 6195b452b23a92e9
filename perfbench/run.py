#!/usr/bin/env python3
"""Build the rfsp benchmark and the rfsp binary from source, then run one
workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds go to $CARGO_TARGET_DIR (default
.bench_build); run artifacts go to .perfbench_work. The last line of
standard output is the benchmark's JSON result; the exit code is non-zero
if a build fails, a correctness check fails, or the run times out.
"""

import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main() -> int:
    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    target = os.path.abspath(os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    builds = [
        # The benchmark itself: a package of its own with path dependencies
        # on the repository's crates.
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(bench_dir, "Cargo.toml")],
        # The rfsp binary the daemon workload runs as a child process.
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(root, "Cargo.toml"), "-p", "rfsp-cli", "--bin", "rfsp"],
    ]
    for cmd in builds:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"perfbench: build failed: {e}", file=sys.stderr)
            return 1
        if done.returncode != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 1
    bench = os.path.join(target, "release", "rfsp-perfbench")
    rfsp = os.path.join(target, "release", "rfsp")
    # A relative work directory keeps the daemon's socket path short.
    cmd = [bench, *sys.argv[1:], "--rfsp", rfsp, "--work-dir", ".perfbench_work"]
    # The benchmark kills its own daemons on error. The timeout here guards
    # against a hang in the benchmark itself; the benchmark runs in a
    # process group of its own so that its daemon dies with it.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
