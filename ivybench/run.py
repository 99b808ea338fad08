#!/usr/bin/env python3
"""Builds and runs the Ivy benchmark.

One workload, one seed (what BENCHMARK.json's command runs):

    python3 ivybench/run.py --workload cold_link --seed 1 --seconds 35 --trace 0

The last line of stdout is the JSON result. --trace 1 gives the per-layer
metrics of a traced run instead of the end-to-end ones.

Every workload, each in its own process, with the named end-to-end
metrics printed as one table:

    python3 ivybench/run.py --workload all --seed 1 --seconds 35

A result set for ivybench/compare.py, seeds 1 to 10 of every workload:

    python3 ivybench/run.py --workload all --seeds 1-10 --seconds 35 --out runs.jsonl

Other modes pass through to the binary: --self-check, --digest.

The benchmark compiles the library sources of the checkout it sits in
(ivybench/CMakeLists.txt) into $CARGO_TARGET_DIR (default .bench_build) at
the checkout root, on first use. Without those sources it exits 1 and prints
no result.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold_link", "edit_serve", "kernel_vm")


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures and builds ivybench once per checkout; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "tool", "session.h")):
        sys.exit("ivybench: no Ivy sources at %s/src; run from a full checkout" % ROOT)
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            sys.exit("ivybench: %s not found" % tool)
    out = os.path.join(build_dir(), "ivybench")
    os.makedirs(out, exist_ok=True)
    binary = os.path.join(out, "ivybench")
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "-j", jobs])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stdout[-4000:])
                sys.exit("ivybench: build failed: %s" % " ".join(cmd))
    return binary


def run_one(binary, workload, seed, seconds, trace, echo=True):
    """Runs one workload in its own process; returns (exit code, stdout lines, result)."""
    workdir = os.path.join(build_dir(), "work", "%s-%d" % (workload, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--workdir", workdir]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    finally:
        keep = os.path.join(build_dir(), "traces")
        for name in os.listdir(workdir):
            if name.startswith("trace_"):
                os.makedirs(keep, exist_ok=True)
                os.replace(os.path.join(workdir, name), os.path.join(keep, name))
        shutil.rmtree(workdir, ignore_errors=True)
    lines = done.stdout.splitlines()
    if echo:
        sys.stdout.write(done.stdout)
        sys.stdout.flush()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return done.returncode, lines, result


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-", 1)
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def named_metrics(lines):
    """The '= name value unit detail' lines a workload prints (value None when undefined)."""
    out = []
    for line in lines:
        parts = line.strip().split(None, 4)
        if len(parts) >= 4 and parts[0] == "=":
            value = float(parts[2])
            out.append((parts[1], value if value == value else None, parts[3],
                        parts[4] if len(parts) > 4 else ""))
    return out


def record(path, workload, seed, args, code, lines, result):
    """Appends one run to a result set (the format compare.py reads)."""
    header = lines[0].split() if lines else []
    entry = {"workload": workload, "seed": seed, "trace": args.trace, "seconds": args.seconds,
             "exit": code, "digest": header[-1] if header else "",
             "named": {name: {"value": value, "unit": unit, "detail": detail}
                       for name, value, unit, detail in named_metrics(lines)},
             "result": result}
    with open(path, "a") as f:
        f.write(json.dumps(entry) + "\n")


def run_all(binary, seed, seconds):
    """Every workload in its own process; prints the end-to-end table."""
    rows = []
    ok = True
    attempted = failed = 0
    for w in WORKLOADS:
        code, lines, result = run_one(binary, w, seed, seconds, 0, echo=False)
        sys.stderr.write("\n".join(lines[:-1]) + "\n")
        if code != 0 or result is None or not result.get("correct"):
            ok = False
        if result is not None:
            attempted += result.get("attempted", 0)
            failed += result.get("failed", 0)
        rows.extend((name, unit, w, value, detail)
                    for name, value, unit, detail in named_metrics(lines))
    print("%-17s %-6s %-11s %14s  %s" % ("metric", "unit", "workload", "value", "detail"))
    for name, unit, w, value, detail in rows:
        shown = "n/a" if value is None else "%.6g" % value
        print("%-17s %-6s %-11s %14s  %s" % (name, unit, w, shown, detail))
    metrics = {"%s.%s" % (name, w): {"value": value, "unit": unit}
               for name, unit, w, value, _ in rows}
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seeds", help="run several seeds, e.g. 1-10 (needs --out)")
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append one JSON line per run to this file")
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--digest", action="store_true")
    args = ap.parse_args()

    binary = build()
    if args.self_check:
        return subprocess.run([binary, "--self-check"]).returncode
    if args.workload is None:
        ap.error("--workload is required")
    if args.digest:
        return subprocess.run([binary, "--digest", "--workload", args.workload,
                               "--seed", str(args.seed)]).returncode
    if args.seeds:
        if not args.out:
            ap.error("--seeds needs --out")
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        status = 0
        for seed in parse_seeds(args.seeds):
            for w in workloads:
                code, lines, result = run_one(binary, w, seed, args.seconds, args.trace,
                                              echo=False)
                status = status or code
                record(args.out, w, seed, args, code, lines, result)
                print("%s seed %d: exit %d" % (w, seed, code), file=sys.stderr)
        return status
    if args.workload == "all":
        return run_all(binary, args.seed, args.seconds)
    code, lines, result = run_one(binary, args.workload, args.seed, args.seconds, args.trace)
    if args.out:
        record(args.out, args.workload, args.seed, args, code, lines, result)
    return code


if __name__ == "__main__":
    sys.exit(main())
