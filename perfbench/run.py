#!/usr/bin/env python3
"""Build and run the liblsdf benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: ingest_archive, federation_day, analysis_cluster (BENCHMARK.json
says why each is in the set). The script configures and builds perfbench/,
which compiles the library from src/, into $CARGO_TARGET_DIR (default
.bench_build), then runs the benchmark binary with the given arguments. Build
output goes to stderr; the binary's stdout is passed through, and its last
line is the JSON result. Full records (host block included) and the spans of
traced runs are written to .bench_out/.

`python3 perfbench/run.py --selftest` checks the correctness checks
themselves; `--smoke` runs a workload at test size.
"""
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def build_dir() -> pathlib.Path:
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(directory: pathlib.Path) -> bool:
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (directory / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(directory),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(directory), "-j", jobs,
                  "--target", "perfbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            return False
    return True


def git_sha() -> str:
    """The checkout's commit, or "unknown" outside a git work tree."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    lines = top.stdout.split()
    if len(lines) != 2 or pathlib.Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def main(argv: list) -> int:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"perfbench: no library sources at {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    directory = build_dir()
    if not build(directory):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    command = [str(directory / "perfbench"), *argv,
               "--git-sha", git_sha(),
               "--out-dir", str(ROOT / ".bench_out")]
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
