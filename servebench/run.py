#!/usr/bin/env python3
"""Build TOSS from source and run the serving benchmark.

One run, from the root of a checkout:

    python3 servebench/run.py --workload hot-set --seed 1 --seconds 10 --trace 0

prints its metrics by name and unit and, as the last line, one JSON object
with the keys correct, attempted, failed and metrics.

Repeat mode runs a workload on several seeds and prints each end-to-end
metric's median and quartiles, flagging any whose spread exceeds its bound
in BENCHMARK.json:

    python3 servebench/run.py repeat --workload write-mix --runs 5 --seconds 10
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

BUILD_DIR = ".bench_build"
TOSS = os.path.join(BUILD_DIR, "default", "bin", "toss.exe")
MAIN = os.path.join(BUILD_DIR, "default", "servebench", "src", "main.exe")
RUN_TIMEOUT_S = 170


def die(msg):
    print("servebench: " + msg, file=sys.stderr)
    sys.exit(1)


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    die("neither dune nor opam is on PATH")


def build():
    # The benchmark builds the program it measures from this checkout.
    for needed in ("dune-project", os.path.join("bin", "toss.ml"), "lib"):
        if not os.path.exists(needed):
            die("no TOSS sources here (missing %s); run from the root of a checkout" % needed)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = dune_command() + [
        "build", "--root", ".", "--build-dir", BUILD_DIR, "--display", "quiet",
        "./bin/toss.exe", "./servebench/src/main.exe",
    ]
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        die("build failed")


def run_once(workload, seed, seconds, trace, echo=True):
    cmd = [MAIN, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--toss", TOSS]
    # Its own session, so a timeout can stop the servers it started too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die("run timed out after %d s" % RUN_TIMEOUT_S)
    if echo:
        sys.stdout.write(out)
        sys.stdout.flush()
    if proc.returncode != 0:
        die("run failed with exit code %d" % proc.returncode)
    return out


def repeat(args):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    invalid = 0
    seeds = range(args.first_seed, args.first_seed + args.runs)
    for seed in seeds:
        out = run_once(args.workload, seed, args.seconds, 0, echo=False)
        lines = out.strip().splitlines()
        invalid += sum(1 for l in lines if l.startswith("run: INVALID"))
        result = json.loads(lines[-1])
        print("seed %d: correct=%s failed=%d/%d  %s" % (
            seed, result["correct"], result["failed"], result["attempted"],
            " ".join("%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items())))
        sys.stdout.flush()
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    print("%s: %d runs, %d invalid" % (args.workload, args.runs, invalid))
    print("%-16s %12s %12s %12s %8s %6s" % ("metric", "q1", "median", "q3", "spread", "bound"))
    flagged = []
    for k, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(k)
        flag = ""
        if bound is not None and k != "setup_s" and spread > bound:
            flag = "  OVER BOUND"
            flagged.append(k)
        elif bound is not None and spread > bound / 3:
            flag = "  over bound/3"
        print("%-16s %12.4f %12.4f %12.4f %8.4f %6s%s" % (
            k, q1, med, q3, spread, "" if bound is None else "%.2f" % bound, flag))
    if flagged:
        print("spread exceeds bound: " + ", ".join(flagged))
        sys.exit(3)


def main():
    argv = sys.argv[1:]
    if argv and argv[0] == "repeat":
        p = argparse.ArgumentParser(prog="run.py repeat")
        p.add_argument("--workload", required=True)
        p.add_argument("--runs", type=int, default=10)
        p.add_argument("--first-seed", type=int, default=1)
        p.add_argument("--seconds", type=int, default=10)
        args = p.parse_args(argv[1:])
        build()
        repeat(args)
        return
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    build()
    run_once(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    main()
