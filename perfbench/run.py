#!/usr/bin/env python3
"""Build and run one benchmark run of the portend pipeline.

Usage (from the repository root):

    python3 perfbench/run.py --workload triage|fuzz|serve --seed N \
        --seconds S --trace 0|1 [--fuzz-seed N]

The first run in a checkout configures and builds perfbench/ (and the
portend libraries through the root CMakeLists) in Release mode under
$CARGO_TARGET_DIR (default .bench_build), in a subdirectory named after
the source tree's path, so checkouts sharing a build directory never
build each other's sources; later runs rebuild incrementally. The run
itself happens in a scratch directory under the build directory,
removed afterwards.

Prints the benchmark's report, a `detail:` line (tail ranks, work
fingerprint), and as the last line the result object with exactly the
keys correct, attempted, failed and metrics. A run whose work
fingerprint differs from an earlier run of the same program (the same
built binary, byte for byte) with the same fingerprint key is marked
incorrect.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build(out):
    """Configure (once) and build portend_bench; returns the binary."""
    tree = hashlib.sha256(str(HERE).encode()).hexdigest()[:12]
    cmake_dir = out / f"cmake-{tree}"
    env = dict(os.environ, CCACHE_DISABLE="1")
    steps = []
    if not (cmake_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(cmake_dir), "--target",
                  "portend_bench", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-8000:])
            fail(f"build step failed: {' '.join(cmd)}", 1)
    return cmake_dir / "portend_bench"


def run(binary, args, workdir):
    """Run the benchmark in its own process group; kill it on timeout."""
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--fuzz-seed", str(args.fuzz_seed),
           "--golden-dir", str(ROOT / "tests" / "golden"),
           "--spans-out", str(workdir.parent /
                              f"spans-{args.workload}.jsonl")]
    proc = subprocess.Popen(cmd, cwd=workdir, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 1)
    finally:
        # Anything still in the group (a server or worker the run
        # could not reap) goes with it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        sys.stdout.write(out)
        fail(f"benchmark exited with {proc.returncode}", 1)
    return out


def check_fingerprint(out, binary, workload, detail, result):
    """Compare this run's work fingerprint with earlier runs of the
    same binary: another commit may do different work."""
    program = hashlib.sha256(binary.read_bytes()).hexdigest()[:16]
    key = f"{program}|{workload}|{detail.get('fingerprint_key', '')}"
    fp = detail.get("fingerprint", "")
    path = out / "fingerprints.json"
    try:
        seen = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        seen = {}
    if key in seen and seen[key] != fp:
        print(f"FAILED CHECK: work fingerprint {fp!r} differs from "
              f"{seen[key]!r} of an earlier run ({key})")
        result["correct"] = False
    elif fp:
        seen[key] = fp
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(seen, indent=1, sort_keys=True))
        tmp.replace(path)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["triage", "fuzz", "serve"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--fuzz-seed", type=int, default=42,
                   help="fuzz program set (default 42; confirm claims "
                        "on 7)")
    args = p.parse_args()
    if args.seconds < 1 or args.seed < 0 or args.fuzz_seed < 0:
        fail("--seconds must be >= 1 and seeds >= 0")

    for needed in ("CMakeLists.txt", "src", "tests/golden"):
        if not (ROOT / needed).exists():
            fail(f"{ROOT / needed} is missing: run from a full checkout")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    binary = build(out)
    workdir = out / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        text = run(binary, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = text.rstrip("\n").split("\n")
    try:
        raw = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(text)
        fail("benchmark printed no result line", 1)
    for line in lines[:-1]:
        print(line)
    detail = raw.get("detail", {})
    result = {k: raw[k] for k in ("correct", "attempted", "failed",
                                  "metrics")}
    check_fingerprint(out, binary, args.workload, detail, result)
    print("detail: " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
