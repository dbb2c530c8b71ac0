#!/usr/bin/env python3
"""Build and run the WaveMin benchmark harness (see README.md).

    python3 perfbench/run.py --workload sweep-dp --seed 1 --seconds 25 --trace 0

Run from the repository root. The first run configures and builds the
library, wavemin_served and the harness (Release) into
.bench_build/perfbench; later runs only re-check the build. The last
line of standard output is the run's result object; everything before
it is provenance and notes. Exits non-zero, printing no result, when
the sources are missing, the build fails, the build is refused (debug
or sanitizer), the run is invalid, or the harness measures metrics other
than the ones BENCHMARK.json lists.
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
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("sweep-dp", "sweep-build", "multimode", "serve-mix")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no wavemin sources under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        cfg = subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release", *generator],
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")


def source_id():
    """Git commit when the checkout is a repository, else a digest of
    every source file the benchmark builds from."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0:
            return sha.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha1()
    files = [p for d in ("src", "tools", "perfbench")
             for p in (ROOT / d).rglob("*") if p.is_file()]
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode() + b"\0")
        h.update(p.read_bytes())
    return "tree-sha1:" + h.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--kernel", default="auto", choices=("auto", "scalar"),
                    help="MOSP kernel for in-process solves (sensitivity "
                         "check; the benchmark proper uses auto)")
    args = ap.parse_args()

    build()
    work = Path(".bench_work") / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(ROOT / work, ignore_errors=True)
    cmd = [str(BUILD / "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--kernel", args.kernel, "--work-dir", str(work),
           "--daemon", str(BUILD / "wavemin_served"),
           "--source", source_id()]
    # Own process group: the daemon and its pool workers join it, so a
    # harness that overruns is stopped together with everything it
    # started.
    harness = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                               text=True, start_new_session=True)
    try:
        stdout, _ = harness.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(harness.pid, signal.SIGKILL)
        harness.wait()
        fail("harness did not finish within 170 s")
    lines = stdout.rstrip("\n").split("\n")
    if harness.returncode != 0:
        print("\n".join(lines), file=sys.stderr)
        fail(f"harness exited {harness.returncode}")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
