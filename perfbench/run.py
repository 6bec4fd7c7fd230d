#!/usr/bin/env python3
"""Builds the full-stack benchmark from source and runs one workload.

    python3 perfbench/run.py --workload port_churn --seed 1 --seconds 20 --trace 0

Run from the repository root.  The harness is configured in Release mode
into $CARGO_TARGET_DIR (default .bench_build); the first run builds the
libraries under src/ and later runs only check that the build is current.
Build output goes to standard error, so the last line of standard output is
the harness's JSON result.  Scratch state for the run lives under
<build dir>/run and is removed when the run ends; traced runs leave their
spans in <build dir>/run/traces.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(path)


def build(out):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr, check=True)


def main():
    out = build_dir()
    try:
        build(out)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    cmd = [os.path.join(out, "perfbench"), *sys.argv[1:],
           "--workdir", os.path.join(out, "run")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
