#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--scale full|smoke]

The engine is compiled from ../src into $CARGO_TARGET_DIR (default
.bench_build) as a Release build of perfbench/CMakeLists.txt; build
output goes to stderr. Every other argument is handed to the perfbench
binary, whose stdout is passed through: its last line is the result
object and the line before it the run's provenance. Spans land in
.bench_out/. The exit status is the binary's (non-zero when any output
was wrong), or 2 when the sources or the build are missing.
"""

import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SOURCE_DIR = BENCH_DIR.parent / "src"


def build_dir() -> Path:
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return Path(target) / "perfbench"


def build(out: Path) -> bool:
    """Configures (once) and builds the benchmark; returns success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return False
    return True


def commit() -> str:
    # The ceiling keeps git from reporting an enclosing repository when
    # the checkout itself is not one.
    root = BENCH_DIR.parent
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main(argv) -> int:
    if not (SOURCE_DIR / "core" / "engine.h").is_file():
        print(f"perfbench: engine sources not found at {SOURCE_DIR}",
              file=sys.stderr)
        return 2
    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = out / "perfbench"
    cmd = [str(binary), *argv, "--commit", commit()]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
