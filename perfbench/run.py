#!/usr/bin/env python3
"""Build and run the end-to-end pipeline benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Builds perfbench/ -- and with it the
product library from src/ -- into $CARGO_TARGET_DIR (default .bench_build)
and runs one workload.  The last line of standard output is the result
JSON; results, the host fingerprint and trace spans are also written under
<build dir>/perfbench/out.  Exits non-zero without a result when the
sources are missing, the build fails, or a correctness check fails.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A run must end within 180 s; the build is not part of this budget.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def bench_root():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    """Configures once, then builds incrementally; returns the binary."""
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        fail(f"library sources (src/, CMakeLists.txt) not found in {ROOT}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    build_dir = bench_root() / "perfbench" / "build"
    if not (build_dir / "CMakeCache.txt").is_file():
        step = subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr, check=False)
        if step.returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    step = subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "e2e_pipeline",
         "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr, check=False)
    if step.returncode != 0:
        fail("build failed")
    return build_dir / "e2e_pipeline"


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists() and shutil.which("git"):
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        if head.returncode == 0:
            return "git:" + head.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        base = ROOT / top
        files = [base] if base.is_file() else sorted(base.rglob("*"))
        for f in files:
            if f.is_file() and "__pycache__" not in f.parts:
                digest.update(str(f.relative_to(ROOT)).encode())
                digest.update(f.read_bytes())
    return "sha256:" + digest.hexdigest()[:16]


def run(binary, args, extra=()):
    """Runs one workload; returns the completed process (output captured)."""
    out_dir = bench_root() / "perfbench" / "out"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scenario-dir", str(ROOT / "tests" / "scenarios"),
           "--work-dir", str(out_dir), "--source", source_id(), *extra]
    try:
        return subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def main(argv):
    # Turn SIGTERM into an exception, so subprocess.run kills and reaps the
    # benchmark process before this one exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = parse_args(argv)
    if args.seconds < 1:
        fail("--seconds must be positive")
    proc = run(build(), args)
    sys.stderr.write(proc.stderr)
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
