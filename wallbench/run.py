#!/usr/bin/env python3
"""Build the wall-clock benchmark from this checkout and run one workload.

    python3 wallbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 wallbench/run.py --self-test

The first call configures and builds wallbench/ (which compiles the
program's libraries from src/) into .bench_build/wallbench; later calls
only rebuild what changed.  An untraced run (--trace 0) prints the
end-to-end metrics.  A traced run (--trace 1) first makes an untraced
reference run of half the length with the same seed, then runs the
traced build and prints the per-layer metrics, including the
traced-vs-untraced throughput.  The last stdout line is the result
JSON, the line before it provenance and ungated detail (p99s, sample
counts); build output and run notes go to stderr.  See
wallbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "wallbench"
SPANS = ROOT / ".bench_build" / "spans"
WORKLOADS = ("inproc_uniform", "inproc_adversarial", "tcp_uniform", "mc_uniform")
BUILD_TYPE = "RelWithDebInfo"
# Every run ends within this many seconds of its start, builds excluded.
RUN_BUDGET_S = 170.0


class BenchError(Exception):
    pass


def log(message):
    print(f"wallbench: {message}", file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no program sources under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    tmp = BUILD / "tmp"  # compiler temporaries stay inside the checkout
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                  "wallbench", "wallbench_traced", "wallbench_selftest"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode != 0:
            raise BenchError("build failed: " + " ".join(step))


def source_digest():
    """sha256 over the program and benchmark sources (the checkout may not
    be a git repository, so this identifies the code either way)."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_binary(name, args, deadline):
    """Run one benchmark program; returns its (info line, result line)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before " + name)
    # Default ISA dispatch: an inherited override would pin the tier.
    env = {k: v for k, v in os.environ.items() if k != "VLSA_FORCE_ISA"}
    try:
        proc = subprocess.run([str(BUILD / name)] + args, stdout=subprocess.PIPE,
                              text=True, timeout=timeout, cwd=ROOT, env=env)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name} did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{name} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise BenchError(f"{name} printed no result")
    return json.loads(lines[-2]), json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the oracle self-test")
    args = parser.parse_args()
    required = (args.workload, args.seed, args.seconds, args.trace)
    if not args.self_test and None in required:
        parser.error("--workload, --seed, --seconds and --trace are required")
    if not args.self_test and not 0 < args.seconds <= 60:
        parser.error("--seconds must be in (0, 60]")

    try:
        build()
        if args.self_test:
            selftest = [str(BUILD / "wallbench_selftest")]
            return subprocess.run(selftest, cwd=ROOT).returncode
        deadline = time.monotonic() + RUN_BUDGET_S
        common = ["--workload", args.workload, "--seed", str(args.seed)]
        untraced_s = args.seconds / 2 if args.trace else args.seconds
        info, result = run_binary(
            "wallbench", common + ["--seconds", repr(untraced_s), "--trace", "0"],
            deadline)
        if args.trace:
            untraced = result
            SPANS.mkdir(parents=True, exist_ok=True)
            spans = SPANS / f"{args.workload}-seed{args.seed}.json"
            rps = untraced["metrics"]["throughput_rps"]["value"]
            info, result = run_binary(
                "wallbench_traced",
                common + ["--seconds", repr(args.seconds), "--trace", "1",
                          "--untraced-rps", repr(rps), "--spans-out", str(spans)],
                deadline)
            result = {
                "correct": result["correct"] and untraced["correct"],
                "attempted": result["attempted"] + untraced["attempted"],
                "failed": result["failed"] + untraced["failed"],
                "metrics": result["metrics"],
            }
            if spans.is_file():
                info["provenance"]["spans"] = str(spans.relative_to(ROOT))
        info["provenance"]["git_sha"] = git_sha()
        info["provenance"]["source_digest"] = source_digest()
    except (BenchError, ValueError, KeyError, OSError) as err:
        log(f"error: {err}")
        return 1
    print(json.dumps(info))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
