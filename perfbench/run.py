#!/usr/bin/env python3
"""Build the repository benchmark from source and run one measurement.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {apps,apps-fs,fleet,audit} \\
        --seed N --seconds S --trace {0,1}

The benchmark is an OCaml executable (perfbench/main.ml) linked against
the repository's libraries.  This script builds it with dune, runs it
with the given arguments and passes its standard output through: the
last line is the result object.  Run notes, the run record and the
traced run's spans go to .perfbench/ in the checkout.  The build goes
to $CARGO_TARGET_DIR when set, else to _build.

It exits non-zero, without a result, when the directory is not a
checkout of the repository, when the build fails, or when the run fails
or overruns its time limit.
"""

import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 175


def run(cmd, timeout, **kwargs):
    """Run cmd to completion and return its status.  If it overruns
    [timeout], or this script is interrupted, kill it and wait for it."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {cmd[0]} overran {timeout} s", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def terminated(signum, _frame):
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, terminated)
    for needed in ("dune-project", "lib", "bench", "test/golden"):
        if not os.path.exists(needed):
            print(f"perfbench: {needed} is missing; run from the root of a checkout",
                  file=sys.stderr)
            return 2
    build_dir = os.environ.get("CARGO_TARGET_DIR") or "_build"
    status = run(
        ["dune", "build", "--root", ".", "--build-dir", build_dir, "--profile", "release",
         "--display", "quiet", "./perfbench/main.exe"],
        BUILD_TIMEOUT_S, stdout=sys.stderr)
    if status != 0:
        print("perfbench: build failed", file=sys.stderr)
        return status
    exe = os.path.join(build_dir, "default", "perfbench", "main.exe")
    sys.stdout.flush()
    return run([exe] + sys.argv[1:], RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
