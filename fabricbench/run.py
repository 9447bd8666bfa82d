#!/usr/bin/env python3
"""Build the whole-fabric benchmark from this checkout's sources and run it.

Usage (from the repository root):

    python3 fabricbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: warehouse-lisp, warehouse-bgp, east-west, campus-day. The build
tree is $CARGO_TARGET_DIR/fabricbench when that variable is set (relative
paths are taken from the repository root), else .bench_build/fabricbench.
The first run configures and builds (about 25 s of compile at -j4 on a
4-vCPU VM); later runs only re-check timestamps. Build output goes to
stderr, so the last line of stdout is the benchmark's JSON result.
"""
import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("warehouse-lisp", "warehouse-bgp", "east-west", "campus-day")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def fail(message: str) -> "None":
    print(f"fabricbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir() -> Path:
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    base = Path(target)
    if not base.is_absolute():
        base = ROOT / base
    return base / "fabricbench"


def run_quiet(cmd: list, what: str) -> None:
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"{what} failed (exit {proc.returncode})")


def build(out: Path) -> Path:
    if not (ROOT / "src" / "fabric" / "fabric.hpp").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    out.mkdir(parents=True, exist_ok=True)
    if not (out / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
                  "cmake configure")
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", str(out), "-j", jobs], "cmake build")
    binary = out / "fabricbench"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def git_commit() -> str:
    """HEAD of this checkout, without searching parent directories."""
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, env=env)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def src_digest() -> str:
    """SHA-256 over the simulator sources: names the code when git cannot."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds within 1..600")

    out = build_dir()
    binary = build(out)
    argv = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", args.trace, "--out-dir", str(out),
            "--commit", git_commit(), "--src-digest", src_digest()]
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(str(binary), argv)


if __name__ == "__main__":
    main()
