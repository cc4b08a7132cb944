#!/usr/bin/env python3
"""Build the SpinRace benchmark from source and run one workload.

usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--tiny] [--out DIR]

NAME is one of replay-ring, replay-zipf, serve-ring, tables (see
perfbench/README.md). The benchmark binary is built in release mode into
$CARGO_TARGET_DIR (default .bench_build), offline, against the
repository's own crates. Every argument is passed to the binary; its last
stdout line is the result object. Exits non-zero, printing no result,
when the build or the run fails.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kwargs):
    """Run `cmd` in its own process group; on timeout, kill the whole
    group and wait for it. Returns the CompletedProcess, or None on
    timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None
    return subprocess.CompletedProcess(cmd, proc.returncode, out, None)


def main(argv):
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        BUILD_TIMEOUT_S, stdout=sys.stderr, env=env)
    if build is None or build.returncode != 0:
        print("error: building the benchmark failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "perfbench")
    result = run([exe] + argv, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    if result is None:
        print(f"error: the run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if result.returncode != 0:
        return result.returncode
    sys.stdout.write(result.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
