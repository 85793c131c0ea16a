#!/usr/bin/env python3
"""Self-checks of perfbench, run from the repository root.

    python3 perfbench/selfcheck.py check
        1. A tampered pin is reported as a failed op, on every workload.
        2. The exact counts are identical across runs, seeds, and between
           the untraced and traced runs.
        3. The held-out seed runs clean once on every workload.

    python3 perfbench/selfcheck.py spread [--runs 10] [--workloads ...]
        Runs each workload --runs times with a different seed each time and
        prints, per end-to-end metric, the median, the spread (the distance
        between the first and third quartile as a share of the median, from
        statistics.quantiles(values, n=4)) and every run's value in run
        order.

Both go through perfbench/run.py, so they build first. Exit code 0 means
every check passed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["table1", "serve", "grade"]
DEFAULT_SEED = 1
HELD_OUT_SEED = 9001
# Seconds per check run: two batches of each workload, so a traced run has
# one untraced and one traced batch.
CHECK_SECONDS = {"table1": 0.2, "serve": 1.6, "grade": 1.2}


def bench(workload, seed, seconds, trace, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(int(trace)), *extra]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        sys.exit("perfbench failed (exit %d): %s" % (out.returncode, " ".join(cmd)))
    lines = out.stdout.strip().splitlines()
    counts = json.loads(lines[-2][len("counts "):])
    return json.loads(lines[-1]), counts


def check():
    ok = True

    def report(passed, what):
        nonlocal ok
        ok = ok and passed
        print("%s  %s" % ("ok  " if passed else "FAIL", what))

    scratch = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                           "perfbench-selfcheck")
    os.makedirs(os.path.join(ROOT, scratch), exist_ok=True)
    for w in WORKLOADS:
        secs = CHECK_SECONDS[w]
        # 1. Flip the first pinned value; that op must fail.
        pins = os.path.join(HERE, "pins", w + ".txt")
        tampered = os.path.join(ROOT, scratch, w + ".txt")
        lines = open(pins).read().splitlines()
        i = next(i for i, l in enumerate(lines) if l and not l.startswith("#"))
        key, value = lines[i].split()
        lines[i] = key + " " + value[:-1] + ("0" if value[-1] != "0" else "1")
        open(tampered, "w").write("\n".join(lines) + "\n")
        res, _ = bench(w, DEFAULT_SEED, secs, False, ["--pins", tampered])
        report(not res["correct"] and res["failed"] >= 1,
               "%s: tampered pin %s reported as %d failed op(s)" % (w, key, res["failed"]))

        # 2. Counts across runs, seeds and tracing.
        runs = [bench(w, DEFAULT_SEED, secs, False),
                bench(w, DEFAULT_SEED, secs, False),
                bench(w, HELD_OUT_SEED, secs, False),
                bench(w, DEFAULT_SEED, secs, True)]
        same = all(c == runs[0][1] for _, c in runs)
        report(same, "%s: counts identical over 2 runs, seeds %d/%d, traced: %s"
               % (w, DEFAULT_SEED, HELD_OUT_SEED, json.dumps(runs[0][1], sort_keys=True)))
        traced = runs[3][0]
        layer_counts = {k: traced["metrics"][k]["value"] for k in runs[0][1]}
        report(layer_counts == runs[0][1],
               "%s: traced run prints the same counts as per-layer metrics" % w)

        # 3. The held-out seed runs clean.
        held = runs[2][0]
        report(held["correct"] and held["failed"] == 0,
               "%s: held-out seed %d: %d ops, %d failed"
               % (w, HELD_OUT_SEED, held["attempted"], held["failed"]))
        for res, _ in runs:
            report(res["correct"] and res["failed"] == 0,
                   "%s: run clean (%d ops)" % (w, res["attempted"]))
    shutil.rmtree(os.path.join(ROOT, scratch), ignore_errors=True)
    return 0 if ok else 1


def spread(args):
    for w in args.workloads:
        values = {}
        for r in range(args.runs):
            res, _ = bench(w, DEFAULT_SEED + r, args.seconds, False)
            if not res["correct"]:
                print("%s seed %d: INCORRECT %s" % (w, DEFAULT_SEED + r, res))
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print("%s (%d runs of %ss)" % (w, args.runs, args.seconds))
        for name, v in values.items():
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            print("  %-16s median %-12.6g spread %.4f  runs %s"
                  % (name, med, (q3 - q1) / med if med else 0.0,
                     " ".join("%.4g" % x for x in v)))
        sys.stdout.flush()
    return 0


def run_seconds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)["run_seconds"]


def main():
    p = argparse.ArgumentParser()
    sub = p.add_subparsers(dest="cmd", required=True)
    sub.add_parser("check")
    sp = sub.add_parser("spread")
    sp.add_argument("--runs", type=int, default=10)
    sp.add_argument("--seconds", type=float, help="default: BENCHMARK.json's")
    sp.add_argument("--workloads", nargs="+", default=WORKLOADS)
    args = p.parse_args()
    if args.cmd == "spread" and args.seconds is None:
        args.seconds = run_seconds()
    return check() if args.cmd == "check" else spread(args)


if __name__ == "__main__":
    sys.exit(main())
