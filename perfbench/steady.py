"""Steadiness of the benchmark: repeated runs, spread per metric.

    python3 perfbench/steady.py --runs 10 [--seed0 100] [--workloads deep,sweep]
                                [--save NAME]
    python3 perfbench/steady.py --compare .perfbench/steady-a.json .perfbench/steady-b.json

Runs ``perfbench/run.py`` once per (workload, seed) at the run length of
BENCHMARK.json, untraced, one process at a time, cycling through the
workloads so that a slow spell of the machine is shared among them.  Seeds are seed0, seed0 + 1, ...  For every workload and metric
it prints the median, the quartiles (``statistics.quantiles(n=4)``), the
minimum and maximum, and the spread: the distance between the quartiles as
a share of the median, the figure the bounds in BENCHMARK.json are set
from.  ``--compare`` prints, for two saved sets, each metric's median shift
as a share of the first set's median next to its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench"


def load_spec():
    with open("BENCHMARK.json") as fh:
        return json.load(fh)


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values),
            "spread": (q3 - q1) / statistics.median(values) if statistics.median(values) else 0.0}


def run_set(workloads, runs, seed0, seconds):
    raw = {w: [] for w in workloads}
    for k in range(runs):
        for w in workloads:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                   "--seed", str(seed0 + k), "--seconds", str(seconds), "--trace", "0"]
            t0 = time.monotonic()
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                raise SystemExit(f"{w} seed {seed0 + k}: exit {proc.returncode}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            res["seed"] = seed0 + k
            res["run_s"] = time.monotonic() - t0
            raw[w].append(res)
            print(f"{w} seed {seed0 + k}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} "
                  + " ".join(f"{m}={v['value']:.4g}" for m, v in res["metrics"].items()),
                  file=sys.stderr, flush=True)
    return raw


def table(raw):
    rows = []
    for w, results in raw.items():
        metrics = results[0]["metrics"]
        for m in metrics:
            vals = [r["metrics"][m]["value"] for r in results]
            s = summarize(vals) if len(vals) >= 2 else None
            rows.append((w, m, metrics[m]["unit"], s, vals))
        rows.append((w, "failed/attempted", "", None,
                     sorted({r["failed"] / r["attempted"] for r in results})))
        rows.append((w, "correct", "", None, sorted({r["correct"] for r in results})))
        rows.append((w, "run_s (whole run.py)", "s", summarize([r["run_s"] for r in results]), []))
    return rows


def print_table(rows):
    print("| workload | metric | unit | median | q1 | q3 | min | max | spread |")
    print("|---|---|---|---|---|---|---|---|---|")
    for w, m, unit, s, vals in rows:
        if s is None:
            print(f"| {w} | {m} | {unit} | {vals} | | | | | |")
        else:
            print(f"| {w} | {m} | {unit} | {s['median']:.4g} | {s['q1']:.4g} | {s['q3']:.4g} "
                  f"| {s['min']:.4g} | {s['max']:.4g} | {100 * s['spread']:.1f} % |")


def compare(path_a, path_b):
    bounds = {m["name"]: m["bound"] for m in load_spec()["end_to_end"]}
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    print("| workload | metric | median A | median B | shift | spread A | spread B | bound |")
    print("|---|---|---|---|---|---|---|---|")
    for w in a:
        for m in bounds:
            va = [r["metrics"][m]["value"] for r in a[w]]
            vb = [r["metrics"][m]["value"] for r in b[w]]
            sa, sb = summarize(va), summarize(vb)
            shift = sb["median"] / sa["median"] - 1
            print(f"| {w} | {m} | {sa['median']:.4g} | {sb['median']:.4g} | {100 * shift:+.1f} % "
                  f"| {100 * sa['spread']:.1f} % | {100 * sb['spread']:.1f} % | {100 * bounds[m]:.0f} % |")
        fa_ = {r["failed"] / r["attempted"] for r in a[w]}
        fb_ = {r["failed"] / r["attempted"] for r in b[w]}
        print(f"| {w} | failed share | {sorted(fa_)} | {sorted(fb_)} | | | | |")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workloads", default=None, help="comma-separated; default: all")
    ap.add_argument("--save", default=None, help="write .perfbench/steady-NAME.json")
    ap.add_argument("--compare", nargs=2, metavar="FILE")
    args = ap.parse_args(argv)

    if args.compare:
        compare(*args.compare)
        return 0
    spec = load_spec()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    raw = run_set(workloads, args.runs, args.seed0, seconds)
    if args.save:
        os.makedirs(OUT_DIR, exist_ok=True)
        with open(os.path.join(OUT_DIR, f"steady-{args.save}.json"), "w") as fh:
            json.dump(raw, fh, indent=1)
    print(f"{args.runs} runs per workload, seeds {args.seed0}..{args.seed0 + args.runs - 1}, "
          f"{seconds} s run length")
    print_table(table(raw))
    return 0


if __name__ == "__main__":
    sys.exit(main())
