#!/usr/bin/env python3
"""Builds the advisor-service benchmark from source and runs it.

    python3 svcbench/run.py --workload drift_burst --seed 1 --seconds 15 --trace 0
    python3 svcbench/run.py --selftest

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR/svcbench
(default .bench_build/svcbench); the first call configures and compiles,
later calls only rebuild what changed. Build output goes to standard error,
so the last line of standard output is the benchmark's JSON result. Exits
non-zero, without a result, when the build or the run fails.
"""
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def build_dir():
    root = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return root.resolve() / "svcbench"


def build(out):
    if not (out / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", "4"], check=True,
                   stdout=sys.stderr)


def main(argv):
    out = build_dir()
    try:
        build(out)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"svcbench: build failed: {err}", file=sys.stderr)
        return 1
    if argv == ["--selftest"]:
        command = [str(out / "svcbench_selftest")]
    else:
        command = [str(out / "svcbench"), *argv, "--trace-dir", str(out)]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print(f"svcbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
