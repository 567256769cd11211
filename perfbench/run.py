#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload paper-100 --seed 0 --seconds 10 --trace 0

Builds the Go program in perfbench/ against the checkout it sits in
(module `vmt/perfbench`, `replace vmt => ../`), then runs it with the
given arguments. Every file the build and the run write stays under
.bench_build/ in the checkout. The program prints its metrics as the last
line of standard output; build output and diagnostics go to standard
error. The exit status is non-zero, with no result printed, when the
build or the run fails.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "perfbench")

# The first build in a checkout compiles the standard library into a fresh
# cache; later builds are cache hits.
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def run(cmd, cwd, env, timeout, stdout=None):
    """Runs cmd in its own process group and waits for the whole group."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=stdout, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {cmd[0]} timed out after {timeout}s", file=sys.stderr)
        return -1
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def main():
    os.makedirs(OUT, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(OUT, "gocache"),
        "GOPATH": os.path.join(OUT, "gopath"),
        "GOMODCACHE": os.path.join(OUT, "gopath", "pkg", "mod"),
        "GOTMPDIR": OUT,
        # The go command keeps its telemetry counters under the user
        # config directory; keep them inside the checkout too.
        "XDG_CONFIG_HOME": os.path.join(OUT, "config"),
        "GOFLAGS": "-mod=readonly",
        "GOWORK": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(OUT, "perfbench")
    status = run(["go", "build", "-trimpath", "-o", binary, "."], HERE, env, BUILD_TIMEOUT_S, stdout=sys.stderr)
    if status != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    status = run([binary, *sys.argv[1:], "--out-dir", OUT], ROOT, env, RUN_TIMEOUT_S)
    return 0 if status == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
