#!/usr/bin/env python3
"""Builds and runs the sql_e2e benchmark.

Run from the repository root:

    python3 sql_e2e/run.py --workload oltp_point --seed 1 --seconds 10 --trace 0

Workloads: oltp_point, scan_analytics, htap_mixed. The mmdb libraries and
the benchmark binary are built with CMake in Release mode under
.bench_build/ (build output goes to stderr); the binary's last line of
standard output is the JSON result. Exits non-zero, without a result, when
the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(os.getcwd(), ".bench_build", "sql_e2e")


def git_commit():
    """HEAD of the checkout, or 'unknown' when it is not a git work tree."""
    env = dict(os.environ)
    # Read only the checkout: no repository above it, no user or system
    # configuration.
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(os.getcwd())
    env["GIT_CONFIG_NOSYSTEM"] = "1"
    env["GIT_CONFIG_GLOBAL"] = os.devnull
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=os.getcwd(),
                             env=env, capture_output=True, text=True,
                             check=False)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "sql_e2e", "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, check=False).returncode:
            sys.stderr.write("sql_e2e: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    if not build():
        return 1
    binary = os.path.join(BUILD_DIR, "sql_e2e")
    cmd = [binary] + sys.argv[1:] + ["--git-commit", git_commit()]
    sys.stdout.flush()
    return subprocess.run(cmd, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
