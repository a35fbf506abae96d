#!/usr/bin/env python3
"""Build and run the lwmpi benchmark.

    python3 lwbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The first run configures and builds
lwbench (and the lwmpi library from src/) under .bench_build/lwbench; later
runs only let CMake confirm the build is current. Build output goes to stderr,
so stdout carries only the benchmark's report, ending with one JSON line.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "lwbench")
BINARY = os.path.join(BUILD, "lwbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("lwbench: no lwmpi sources (src/CMakeLists.txt) in " + ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4", "--target", "lwbench"],
                   stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit("lwbench: build failed: %s" % err)
    sys.stdout.flush()
    proc = subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
