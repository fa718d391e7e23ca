#!/usr/bin/env python3
"""Steadiness check for the benchmark described by BENCHMARK.json.

Runs every workload of BENCHMARK.json once per seed 1..runs for its
run_seconds (each run its own process, as the benchmark requires), then
prints each metric's median, quartiles and quartile spread (Q3 - Q1) /
median next to its bound. A spread below a third of the bound is marked
"ok". The first seed is then run a second time: every
metric with unit "count", "rounds" or "ratio" must repeat exactly.

    python3 perfbench/steady.py --runs 10            # end-to-end metrics
    python3 perfbench/steady.py --runs 5 --trace 1   # per-layer metrics
    python3 perfbench/steady.py --runs 10 --record perfbench/trajectory.json --label "..."

Run from the repository root. Builds into $CARGO_TARGET_DIR, or
`.bench_build` when it is unset. Exits 1 when a run fails or a count does
not repeat.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

EXACT_UNITS = ("count", "rounds", "ratio")


def run_once(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        raise SystemExit(f"run failed (exit {proc.returncode}): {' '.join(args)}")
    result = json.loads(lines[-1])
    prov = dict(l[2:].split(": ", 1) for l in lines if l.startswith("# ") and ": " in l)
    return result, prov


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="seeds per workload (1..runs)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="append the summary to this trajectory file")
    ap.add_argument("--label", default="", help="label of the recorded point")
    opts = ap.parse_args()
    if opts.runs < 2:
        ap.error("--runs must be at least 2 (quartiles need two values)")

    bench = json.load(open("BENCHMARK.json"))
    os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    seconds = bench["run_seconds"]
    metrics = bench["per_layer" if opts.trace else "end_to_end"]
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = list(range(1, opts.runs + 1))

    summary, prov, failed = {}, {}, False
    for wl in workloads:
        values = {m["name"]: [] for m in metrics}
        first = None
        for seed in seeds:
            result, prov = run_once(bench["command"], wl, seed, seconds, opts.trace)
            first = first or result
            failed |= not result["correct"]
            for name, v in result["metrics"].items():
                values[name].append(v["value"])
            print(f"  {wl} seed {seed}: attempted {result['attempted']} failed {result['failed']}",
                  file=sys.stderr)
        again, _ = run_once(bench["command"], wl, seeds[0], seconds, opts.trace)
        print(f"\n{wl}  ({len(seeds)} seeds, {seconds} s each, trace {opts.trace})")
        print(f"  {'metric':<26} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        summary[wl] = {}
        for m in metrics:
            name = m["name"]
            med, q1, q3, sp = spread(values[name])
            bound = m.get("bound")
            verdict = ""
            if bound is not None:
                verdict = "ok" if sp < bound / 3 else ("within" if sp <= bound else "WIDE")
            unit = first["metrics"][name]["unit"]
            if unit in EXACT_UNITS:
                same = again["metrics"][name]["value"] == first["metrics"][name]["value"]
                verdict = (verdict + " repeats").strip() if same else "DID NOT REPEAT"
                failed |= not same
            print(f"  {name:<26} {med:>14.4f} {q1:>14.4f} {q3:>14.4f} {sp:>8.4f} "
                  f"{'' if bound is None else bound:>6} {verdict}")
            summary[wl][name] = {"unit": unit, "median": med, "q1": q1, "q3": q3, "spread": sp}

    if opts.record:
        point = {
            "label": opts.label,
            "commit": prov.get("commit"),
            "cpu": prov.get("cpu"),
            "nproc": prov.get("nproc"),
            "rustc": prov.get("rustc"),
            "workers": prov.get("workers"),
            "run_seconds": seconds,
            "seeds": seeds,
            "trace": opts.trace,
            "workloads": summary,
        }
        points = json.load(open(opts.record)) if os.path.exists(opts.record) else []
        points.append(point)
        with open(opts.record, "w") as f:
            json.dump(points, f, indent=1)
            f.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
