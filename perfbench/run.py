#!/usr/bin/env python3
"""Builds the rtgraph benchmark from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The program is built from ../src with
perfbench/CMakeLists.txt into $CARGO_TARGET_DIR (default .bench_build)
under the checkout; spans of a traced run go to .bench_out/. The last
line of standard output is the benchmark's JSON result, whose metrics
are those BENCHMARK.json lists (end_to_end with --trace 0, per_layer
with --trace 1), with their units from there. Exits 2 without a result
when BENCHMARK.json or the sources are missing, the build fails, or the
program's metrics do not match BENCHMARK.json.
"""
import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("synth_verify", "exact_search", "service_batch", "fault_heal")
BUILD_TYPE = "Release"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """sha256 over the paths and bytes of every file under src/."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def build():
    """Configures and builds rtg_perfbench; returns the binary's path."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench-" + BUILD_TYPE.lower())
    os.makedirs(build_dir, exist_ok=True)
    # One build at a time per build directory.
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", build_dir, "-j", jobs,
                      "--target", "rtg_perfbench"])
        for cmd in steps:
            try:
                out = subprocess.run(cmd, capture_output=True, text=True, timeout=1200)
            except (OSError, subprocess.SubprocessError) as e:
                fail(f"build step {' '.join(cmd[:2])} could not run: {e}")
            if out.returncode != 0:
                tail = (out.stdout + out.stderr).splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed ({' '.join(cmd[:2])}, exit {out.returncode})")
    return os.path.join(build_dir, "rtg_perfbench")


def result_line(line, catalogue, trace, workload):
    """The program's last line with its metrics named and united by BENCHMARK.json.

    A per-layer metric the workload does not drive reads 0; an end-to-end
    metric must be measured, and no metric may be missing from the file.
    """
    try:
        result = json.loads(line)
    except ValueError:
        fail(f"workload {workload}: the program printed no result")
    measured = result["metrics"]
    listed = catalogue["per_layer" if trace else "end_to_end"]
    unknown = sorted(set(measured) - {m["name"] for m in listed})
    if unknown:
        fail(f"workload {workload}: metrics not in BENCHMARK.json: {', '.join(unknown)}")
    metrics = {}
    for m in listed:
        if not trace and m["name"] not in measured:
            fail(f"workload {workload}: end-to-end metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": measured.get(m["name"], 0), "unit": m["unit"]}
    result["metrics"] = metrics
    return json.dumps(result)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; expected one of {', '.join(WORKLOADS)}")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            catalogue = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"workload {args.workload}: cannot read BENCHMARK.json: {e}")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"workload {args.workload}: no rtgraph sources at {os.path.join(ROOT, 'src')}")
    binary = build()
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir, "--source-digest", f"git:{git_sha()} src:{source_digest()}"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    lines = proc.stdout.splitlines()
    if not lines:
        fail(f"workload {args.workload}: the program exited {proc.returncode} without output")
    print("\n".join(lines[:-1] + [result_line(lines[-1], catalogue, args.trace, args.workload)]))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
