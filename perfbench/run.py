#!/usr/bin/env python3
"""Build and run the grid benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload ycsb-a-wire --seed 1 --seconds 10 --trace 0

The Go program in this directory is built from the checkout's sources
(its go.mod points at the repository module one level up) into
.bench_build/, with the Go build cache and every other file the toolchain
writes kept under .bench_build/ too. The program's stdout is passed
through unchanged: its last line is the result object. The exit status is
the program's, or 1 if the build fails or the run overruns its time limit.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")

# A run takes its measured seconds twice at most (--trace 1) plus set-up,
# restarts and read-back; anything near this limit is a hang.
RUN_LIMIT_S = 170


def toolchain_env():
    env = dict(os.environ)
    home = os.path.join(BUILD, "home")
    os.makedirs(home, exist_ok=True)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=mod -buildvcs=false",
        GOPROXY="off",
        GOSUMDB="off",
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
        XDG_CACHE_HOME=os.path.join(home, ".cache"),
    )
    return env


def main():
    # On SIGTERM, raise SystemExit where the wait is, so that
    # subprocess.run kills the child and waits for it before exiting.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    env = toolchain_env()
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", os.path.join(BUILD, "work")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_LIMIT_S, file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
