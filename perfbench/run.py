#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <sweep-daily|serve-read|write-mixed> \
        --seed N --seconds S --trace <0|1>

Run it from the root of the repository. It builds the `osn` CLI and the
`perfbench` binary in release mode (into $CARGO_TARGET_DIR, by default
`.bench_build`), then runs the workload. Build output goes to stderr; the
last line of stdout is the run's JSON result.
"""

import os
import signal
import subprocess
import sys


def main():
    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    if not (os.path.isfile(os.path.join(root, "Cargo.toml"))
            and os.path.isdir(os.path.join(root, "crates"))
            and os.path.isfile(os.path.join(bench, "Cargo.toml"))):
        sys.stderr.write("perfbench: run from the repository root "
                         "(Cargo.toml, crates/ and perfbench/ are needed)\n")
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(root, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "osn-cli"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(bench, "Cargo.toml")],
    ):
        try:
            built = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr,
                                   timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            sys.stderr.write(f"perfbench: build failed: {e}\n")
            return 2
        if built.returncode != 0:
            sys.stderr.write(f"perfbench: build failed: {' '.join(cmd)}\n")
            return 2
    binary = os.path.join(target, "release", "perfbench")
    osn = os.path.join(target, "release", "osn")
    work = os.path.join(target, "perfbench-work")
    sys.stdout.flush()
    # Its own process group, so a timeout also stops the servers it runs.
    run = subprocess.Popen([binary, *sys.argv[1:], "--osn", osn, "--work", work],
                           cwd=root, start_new_session=True)
    try:
        return run.wait(timeout=170)
    except BaseException:
        os.killpg(run.pid, signal.SIGKILL)
        run.wait()
        sys.stderr.write("perfbench: run stopped before it finished\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
