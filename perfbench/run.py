#!/usr/bin/env python3
"""Build the library and the benchmark, then run one perfbench workload.

    python3 perfbench/run.py --workload ldpc --seed 1 --seconds 30 --trace 0

Run from the repository root. The first call builds the repository's
libraries (Release, no tests/tools) and perfbench itself under
.bench_build/; later calls rebuild only when a source file changed. The
last stdout line is the run's result object; build logs go to stderr.

setup_s is the median of nine cold set-ups, each timed from spawning a
fresh process to its first op being ready: four set-up-only processes
before the run, the run's own set-up, and four after it.

    python3 perfbench/run.py --write-refs --seeds 0-31 --seconds 30

regenerates the committed reference digests (perfbench/refs/*.json), of
every workload or of the one --workload names.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
LIB_BUILD = BUILD / "wi"
BENCH_BUILD = BUILD / "perfbench"
BINARY = BENCH_BUILD / "wi_perfbench"
STAMP = BUILD / "perfbench.stamp"
WORKLOADS = ("ldpc", "noc_small", "serve_mix")
COLD_SETUPS_AROUND_RUN = 4


def source_digest():
    """Content hash of everything the two builds read."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt", HERE / "CMakeLists.txt"]
    for tree in (ROOT / "src", ROOT / "cmake", HERE / "src"):
        files += sorted(p for p in tree.rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_logged(cmd):
    result = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        sys.exit(f"perfbench: build step failed: {' '.join(map(str, cmd))}")


def build():
    stamp = source_digest()
    if BINARY.exists() and STAMP.exists() and STAMP.read_text() == stamp:
        return
    jobs = str(os.cpu_count() or 1)
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    run_logged(["cmake", "-S", ROOT, "-B", LIB_BUILD, *generator,
                "-DCMAKE_BUILD_TYPE=Release", "-DWI_BUILD_TESTS=OFF",
                "-DWI_BUILD_BENCH=OFF", "-DWI_BUILD_EXAMPLES=OFF",
                "-DWI_BUILD_TOOLS=OFF"])
    run_logged(["cmake", "--build", LIB_BUILD, "-j", jobs])
    run_logged(["cmake", "-S", HERE, "-B", BENCH_BUILD, *generator,
                "-DCMAKE_BUILD_TYPE=Release", f"-DWI_SOURCE_DIR={ROOT}",
                f"-DWI_LIB_DIR={LIB_BUILD}"])
    run_logged(["cmake", "--build", BENCH_BUILD, "-j", jobs])
    STAMP.write_text(stamp)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def write_refs(workloads, seeds, seconds):
    """One digest string per (workload, seed), computed in parallel."""
    def digests(workload, seed):
        out = subprocess.run(
            [BINARY, "--emit-digests", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds)],
            cwd=ROOT, capture_output=True, text=True, check=True)
        return out.stdout.strip()

    (HERE / "refs").mkdir(exist_ok=True)
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        for workload in workloads:
            futures = {seed: pool.submit(digests, workload, seed)
                       for seed in seeds}
            refs = {"workload": workload, "seconds": seconds,
                    "seeds": {str(s): f.result() for s, f in futures.items()}}
            path = HERE / "refs" / f"{workload}.json"
            path.write_text(json.dumps(refs, indent=1) + "\n")
            print(f"wrote {path.relative_to(ROOT)}", file=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--write-refs", action="store_true")
    parser.add_argument("--seeds", default="0-31")
    args = parser.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit(f"perfbench: {ROOT} holds no repository sources to build")
    build()
    if args.write_refs:
        workloads = [args.workload] if args.workload else WORKLOADS
        write_refs(workloads, parse_seeds(args.seeds), args.seconds)
        return 0
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required")
    base = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", args.trace,
            "--refs", HERE / "refs", "--work-dir", BUILD / "run"]

    def spawn(extra):
        # The binary times its set-up from this CLOCK_MONOTONIC stamp.
        cmd = base + ["--spawn-time", repr(time.monotonic()), *extra]
        return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)

    def cold_setup():
        out = spawn(["--setup-only"])
        if out.returncode != 0:
            sys.exit(f"perfbench: set-up-only run exited {out.returncode}")
        return float(out.stdout.split()[-1])

    timed = args.trace == "0"
    setups = [cold_setup() for _ in range(COLD_SETUPS_AROUND_RUN)] if timed else []
    result = spawn([])
    if result.returncode != 0:
        sys.stdout.write(result.stdout)
        return result.returncode
    *notes, last = result.stdout.splitlines()
    report = json.loads(last)
    if timed:
        setups.append(report["metrics"]["setup_s"]["value"])
        setups += [cold_setup() for _ in range(COLD_SETUPS_AROUND_RUN)]
        report["metrics"]["setup_s"]["value"] = statistics.median(setups)
        notes.append("# setup_s: median of cold set-ups "
                     + ", ".join(f"{s:.6f}" for s in setups) + " s")
    print("\n".join(notes + [json.dumps(report)]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
