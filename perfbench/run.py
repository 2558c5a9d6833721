#!/usr/bin/env python3
"""Build and run the repository benchmark.

usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/perfbench.exe with dune inside the checkout (dune's shared
cache off, so nothing is written outside it), then runs it in its own
process group.  The last line of standard output is the result JSON.
See perfbench/README.md for the workloads and metrics.
"""
import os
import signal
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
# Time limits, kept apart so that a slow build never shortens the run.
# A whole invocation should end within 3 minutes once the program is
# built, and within 15 minutes when it has to build first.  A run takes
# --seconds of measurement plus 10-20 s of set-up and checks on a 2-core
# host, so 170 s leaves room for --seconds up to 60 and for the few
# seconds a no-op build check takes.
BUILD_LIMIT_S = 700.0
RUN_LIMIT_S = 170.0


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the repository root (dune-project and lib/ not found)", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
            env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_LIMIT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    proc = subprocess.Popen([EXE] + sys.argv[1:], start_new_session=True)

    def kill_group(*_):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()

    signal.signal(signal.SIGTERM, lambda *_: (kill_group(), sys.exit(1)))
    try:
        return proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded its time limit", file=sys.stderr)
        kill_group()
        return 1
    except KeyboardInterrupt:
        kill_group()
        return 1


if __name__ == "__main__":
    sys.exit(main())
