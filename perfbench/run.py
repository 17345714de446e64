#!/usr/bin/env python3
"""The repo benchmark's single entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from any directory of a checkout. The script

  1. builds perfbench/CMakeLists.txt (libdlb from this checkout's src/ plus
     the dlb_perfbench binary) into .bench_build/cmake, Release;
  2. prepares the workload's inputs for this seed -- instance generation,
     the .dlbi save and the lower-bound oracle -- in a separate, untimed
     process, cached in .bench_build/inputs/<workload>-<seed>;
  3. runs dlb_perfbench, which measures for S seconds and checks its outputs;
  4. prints its full record (environment included) as one line
     {"perfbench": {...}}, then, as the last line, the result
     {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. The exit code is 0 when every correctness check passed,
1 when one failed (the result is still printed), 2 when nothing could be
measured (no sources, build failure, bad arguments).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build"
CMAKE_DIR = BUILD_DIR / "cmake"
INPUT_DIR = BUILD_DIR / "inputs"
WORK_DIR = BUILD_DIR / "run"
BINARY = CMAKE_DIR / "dlb_perfbench"

# Cached inputs kept per workload; the oldest beyond this are deleted.
MAX_CACHED_SEEDS = 8
RUN_TIMEOUT_S = 170


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        die(f"{path} not found")
    with open(path) as f:
        return json.load(f)


def run_logged(cmd, what, timeout):
    """Runs cmd with output captured; on failure shows its tail and exits.
    Temporary files (the compiler's) stay inside the checkout."""
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout,
                              env=dict(os.environ, TMPDIR=str(tmp)))
    except subprocess.TimeoutExpired:
        die(f"{what} timed out after {timeout} s")
    if proc.returncode != 0:
        tail = (proc.stdout + proc.stderr).splitlines()[-40:]
        print("\n".join(tail), file=sys.stderr)
        die(f"{what} failed (exit {proc.returncode})")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no dlb sources under {ROOT / 'src'}; nothing to build")
    if not (CMAKE_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(CMAKE_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_logged(configure, "cmake configure", 600)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    run_logged(["cmake", "--build", str(CMAKE_DIR), "--target",
                "dlb_perfbench", "-j", jobs], "build", 840)


def prepare_inputs(workload, seed):
    """Returns the cached input directory of (workload, seed)."""
    directory = INPUT_DIR / f"{workload}-{seed}"
    ready = directory / "ready"
    if not ready.is_file():
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        run_logged([str(BINARY), "prepare", "--workload", workload,
                    "--seed", str(seed), "--dir", str(directory)],
                   "input preparation", 300)
        ready.write_text("ok\n")
    os.utime(ready)
    cached = sorted(INPUT_DIR.glob(f"{workload}-*/ready"),
                    key=lambda p: p.stat().st_mtime, reverse=True)
    for stale in cached[MAX_CACHED_SEEDS:]:
        shutil.rmtree(stale.parent, ignore_errors=True)
    return directory


def check_metrics(spec, record, trace):
    key = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[key]}
    got = {name: m["unit"] for name, m in record["metrics"].items()}
    if got != expected:
        die(f"dlb_perfbench metrics do not match BENCHMARK.json {key}: "
            f"missing {sorted(set(expected) - set(got))}, "
            f"extra {sorted(set(got) - set(expected))}, "
            f"units {sorted(n for n in got if n in expected and got[n] != expected[n])}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        die(f"unknown workload '{args.workload}' (valid: {', '.join(names)})")
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")

    build()
    inputs = prepare_inputs(args.workload, args.seed)
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    # Relative paths keep the fleet's Unix socket names short.
    cmd = [str(BINARY), "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--inputs", os.path.relpath(inputs, ROOT),
           "--work-dir", os.path.relpath(WORK_DIR, ROOT)]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        die(f"dlb_perfbench exited with {proc.returncode} and no result")
    record = json.loads(lines[-1])
    check_metrics(spec, record, args.trace)
    record["env"]["process_wall_s"] = time.monotonic() - started

    print(json.dumps({"perfbench": record}))
    result = {key: record[key] for key in ("correct", "attempted", "failed")}
    result["metrics"] = record["metrics"]
    if not record["correct"]:
        print(f"perfbench: correctness check failed: {record['error']}",
              file=sys.stderr)
    print(json.dumps(result), flush=True)
    sys.exit(0 if record["correct"] else 1)


if __name__ == "__main__":
    main()
