#!/usr/bin/env python3
"""Builds and runs the benchmark of the failure-analysis toolkit.

usage (from the root of a checkout):
  python3 perfbench/run.py --workload repro|online|storage --seed N \
      --seconds S --trace 0|1

The C++ driver and the repository's libraries are built from source with
CMake (Release) into $CARGO_TARGET_DIR, default .bench_build; the storage
workload's file and the span dumps go to <build dir>/work. Build output goes
to stderr, so standard output carries only the driver's report, whose last
line is the JSON result. Any further arguments (--plant-fault) are passed to
the driver. See perfbench/README.md.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build(build_dir: Path, env: dict) -> Path:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"perfbench: {ROOT / 'src'} not found; run the benchmark "
                 "from a full checkout of the repository")
    cmake_dir = build_dir / "cmake"
    steps = []
    if not (cmake_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(cmake_dir), "--target",
                  "fa_perfbench", "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, env=env).returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(step))
    return cmake_dir / "fa_perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["repro", "online", "storage"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args, extra = parser.parse_known_args()

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = build_dir.resolve()
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # Keep compiler and linker temporaries inside the build directory.
    env = dict(os.environ, TMPDIR=str(tmp))
    binary = build(build_dir, env)

    command = [str(binary), "--workload", args.workload,
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--work-dir", str(build_dir / "work"),
               "--repo-root", str(ROOT)]
    if args.seed is not None:
        command += ["--seed", str(args.seed)]
    return subprocess.run(command + extra, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
