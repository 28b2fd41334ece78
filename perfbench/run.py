#!/usr/bin/env python3
"""Builds and runs the end-to-end campaign benchmark (see README.md).

Usage, from the repository root:

    python3 perfbench/run.py --workload scifi_control --seed 1 \
        --seconds 30 --trace 0

The first call configures and builds perfbench/ (and the GOOFI libraries it
links) in .bench_build/; later calls only re-check the build. The benchmark's
result is the last line of standard output; build logs go to standard error.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "cmake"
BINARY = BUILD_DIR / "campaign_bench"


def run_build_step(command):
    # Build output goes to stderr so stdout carries only the benchmark result.
    result = subprocess.run(command, cwd=ROOT, stdout=sys.stderr,
                            stderr=sys.stderr)
    if result.returncode != 0:
        sys.exit(result.returncode)


def build():
    # Configuring an up-to-date tree is a no-op check, and re-running it
    # recovers a tree whose first configure failed.
    run_build_step(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                    "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_build_step(["cmake", "--build", str(BUILD_DIR), "-j", jobs])


def source_digest():
    """SHA-256 over the library and benchmark sources, in path order."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha():
    # Only ask git when the checkout itself is a repository.
    if not (ROOT / ".git").exists():
        return "unknown"
    result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def main():
    build()
    env = dict(os.environ)
    env["PERFBENCH_GIT_SHA"] = git_sha()
    env["PERFBENCH_SOURCE_DIGEST"] = source_digest()
    result = subprocess.run([str(BINARY), *sys.argv[1:]], cwd=ROOT, env=env)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
