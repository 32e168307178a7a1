#!/usr/bin/env python3
"""The repo benchmark: four BG workloads, named metrics, a layer trace.

Usage:
    python3 bench/run.py                      # all workloads, untraced
    python3 bench/run.py --dry-run            # what would run, and why
    python3 bench/run.py --workload bg-read-cluster --seed 7
    python3 bench/run.py --trace              # per-layer metrics instead
    python3 bench/run.py --repeat 10          # spread of ten seeds per metric
    python3 bench/run.py --json               # one JSON document

Every workload ends with one line of JSON -- ``correct``, ``attempted``,
``failed``, ``metrics`` -- and the exit status is non-zero when any
workload saw a stale read, a failed action, a dead shard, a wire retry
or inputs that did not repeat.  bench/README.md defines every metric.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT_DIR = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
if not os.path.isdir(os.path.join(ROOT_DIR, "src", "repro")):
    sys.exit("bench/run.py: no src/repro beside bench/ -- nothing to measure")
sys.path.insert(0, os.path.join(ROOT_DIR, "src"))

import measure  # noqa: E402  (needs src/ on the path)
import summary  # noqa: E402

SCHEMA_VERSION = 1
#: set-ups per untraced run; ``setup_s`` is the quickest of them
SETUPS = 5


def load_contract():
    with open(os.path.join(ROOT_DIR, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _git(*args):
    try:
        done = subprocess.run(
            ("git",) + args, cwd=ROOT_DIR, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(seed):
    """What a number needs beside it to be compared with another."""
    sha = _git("rev-parse", "--short", "HEAD")
    return {
        "schema": SCHEMA_VERSION,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git": sha or "unknown",
        "dirty": bool(_git("status", "--porcelain")) if sha else None,
        "seed": seed,
        "load1": os.getloadavg()[0],
    }


def run_workload(workload, seed, seconds, trace):
    """Measure one workload; returns ``(contract result, report rows)``."""
    contract = load_contract()
    if trace:
        plain = measure.measure(workload, seed, seconds / 2.0)
        traced = measure.measure(workload, seed, seconds / 2.0, traced=True)
        values = measure.per_layer(traced, plain)
        if abs(values["trace.self_sum_ratio"] - 1.0) > 0.02:
            traced.invalid.append("layer self times do not sum to the roots")
        os.makedirs(OUT_DIR, exist_ok=True)
        traced.tracer.write_jsonl(
            os.path.join(OUT_DIR, "trace-{}.jsonl".format(workload.name)),
            measure.TRACE_FILE_ACTIONS,
        )
        runs, samples, declared = (plain, traced), {}, contract["per_layer"]
    else:
        plain = measure.measure(workload, seed, seconds, setups=SETUPS)
        values, samples = measure.end_to_end(plain)
        runs, declared = (plain,), contract["end_to_end"]
    if set(values) != {metric["name"] for metric in declared}:
        raise RuntimeError("metrics differ from BENCHMARK.json: {}".format(
            sorted(set(values) ^ {metric["name"] for metric in declared})
        ))
    invalid = [reason for run in runs for reason in run.invalid]
    result = {
        "correct": not invalid,
        "attempted": sum(run.actions + run.failed for run in runs),
        "failed": sum(run.failed for run in runs),
        "metrics": {
            metric["name"]: {
                "value": values[metric["name"]], "unit": metric["unit"],
            }
            for metric in declared
        },
    }
    rows = [
        (metric["name"], values[metric["name"]], metric["unit"],
         samples.get(metric["name"]), metric.get("bound"))
        for metric in declared
    ]
    return result, rows, invalid, plain.step_rows()


def print_rows(workload, trace, seconds, rows, invalid, steps):
    print("== {} ({}, {:g} s) ==".format(
        workload.name, "traced" if trace else "untraced", seconds
    ))
    for name, value, unit, count, bound in rows:
        notes = []
        if count is not None:
            notes.append("n={}".format(count))
        if bound is not None:
            notes.append("bound {:.0%}".format(bound))
        print("  {:<42} {:>14.4f} {:<12} {}".format(
            name, value, unit, " ".join(notes)
        ))
    if trace:
        print_shares(rows)
    for step in steps:
        print("  open loop {rate:>5}/s for {seconds:.1f} s: achieved "
              "{achieved_rate:8.1f}/s  p50 {p50_ms:8.3f} ms  p99 "
              "{p99_ms:8.3f} ms  started late p99 {late_p99_ms:7.3f} ms  "
              "n={completed}  {verdict}".format(
                  verdict="ok" if step["ok"] else (
                      "ABANDONED" if step["abandoned"] else "over"),
                  **step))
    for reason in invalid:
        print("  INVALID: {}".format(reason))


def print_shares(rows):
    """Where a traced action's time went: each layer's self time as a
    share of their sum (which is the root spans' total)."""
    self_us = {
        name[:-len(".self_us_per_action")]: value
        for name, value, _, _, _ in rows
        if name.endswith(".self_us_per_action")
    }
    total = sum(self_us.values())
    print("  one traced action = {:.1f} us: {}".format(total, ", ".join(
        "{} {:.1%}".format(layer, value / total)
        for layer, value in self_us.items() if value
    )))


def dry_run(workloads, seconds):
    gated = {w["name"] for w in load_contract()["workloads"]}
    for workload in workloads:
        print(workload.name)
        print("  sizes:    {}".format(workload.sizes))
        print("  duration: {:g} s measured + {} set-ups".format(
            seconds, SETUPS
        ))
        print("  stresses: {}".format(workload.stresses))
        print("  bypasses: {}".format(workload.bypasses))
        print("  why:      {}".format(workload.why))
        print("  bounds:   {}".format(
            "gated by BENCHMARK.json" if workload.name in gated
            else "reported only"
        ))


def repeat(workloads, runs, seed, seconds):
    """``runs`` fresh processes per workload, one seed each; reports the
    spread of every end-to-end metric against its bound.  Only the
    workloads ``BENCHMARK.json`` lists are held to the bounds."""
    contract = load_contract()
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    gated = {w["name"] for w in contract["workloads"]}
    ok = True
    for workload in workloads:
        series = {}
        for offset in range(runs):
            done = subprocess.run(
                [sys.executable, os.path.abspath(__file__),
                 "--workload", workload.name, "--seed", str(seed + offset),
                 "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True,
            )
            if done.returncode != 0:
                sys.stdout.write(done.stdout)
                sys.stderr.write(done.stderr)
                return False
            result = json.loads(done.stdout.strip().splitlines()[-1])
            for name, metric in result["metrics"].items():
                series.setdefault(name, []).append(metric["value"])
        print("== {} ({} runs, seeds {}..{}{}) ==".format(
            workload.name, runs, seed, seed + runs - 1,
            "" if workload.name in gated else "; reported, not gated",
        ))
        print("  {:<28} {:>12} {:>12} {:>12} {:>8} {:>6}  {}".format(
            "metric", "q1", "median", "q3", "spread", "bound", "inside"
        ))
        for name, values in series.items():
            q1, q2, q3, share = summary.spread(values)
            inside = share <= bounds[name]
            # set-up time is held to its bound between sets, not within one
            ok = ok and (
                inside or name == "setup_s" or workload.name not in gated
            )
            print("  {:<28} {:>12.4f} {:>12.4f} {:>12.4f} {:>7.2%} {:>6.0%}"
                  "  {}".format(name, q1, q2, q3, share, bounds[name],
                                "yes" if inside else "NO"))
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Run the repo benchmark (see bench/README.md)."
    )
    parser.add_argument("--workload", choices=sorted(measure.BY_NAME),
                        help="run only this workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds per workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: span every layer and print the per-layer "
                             "metrics instead of the end-to-end ones")
    parser.add_argument("--json", action="store_true",
                        help="print one JSON document instead of text")
    parser.add_argument("--dry-run", action="store_true",
                        help="list what would run, without running it")
    parser.add_argument("--repeat", type=int, metavar="N",
                        help="N runs per workload on seeds SEED..SEED+N-1; "
                             "report each metric's spread against its bound")
    args = parser.parse_args(argv)

    seconds = args.seconds or load_contract()["run_seconds"]
    workloads = (
        [measure.BY_NAME[args.workload]] if args.workload
        else list(measure.WORKLOADS)
    )
    if args.dry_run:
        dry_run(workloads, seconds)
        return 0
    stamp = environment(args.seed)
    if args.repeat:
        print("# " + json.dumps(stamp, sort_keys=True))
        return 0 if repeat(workloads, args.repeat, args.seed, seconds) else 1

    if not args.json:
        print("# " + json.dumps(stamp, sort_keys=True))
    document = {"environment": stamp, "results": []}
    all_correct = True
    for workload in workloads:
        started = time.perf_counter()
        result, rows, invalid, steps = run_workload(
            workload, args.seed, seconds, args.trace
        )
        all_correct = all_correct and result["correct"]
        if args.json:
            document["results"].append(dict(
                result, workload=workload.name, trace=args.trace,
                invalid=invalid, open_loop_steps=steps,
                wall_s=time.perf_counter() - started,
            ))
        else:
            print_rows(workload, args.trace, seconds, rows, invalid, steps)
            print(json.dumps(result))
    if args.json:
        print(json.dumps(document))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
