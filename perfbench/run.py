"""Benchmark of the loopcorr pipeline: one workload, one seed, one result.

    python3 perfbench/run.py --workload deep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout of the repository.  Workloads: deep, sweep,
census, numeric (see perfbench/README.md).  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics (setup_s, wall_s, peak_rss_mb) with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
Lines before it report the canonical-output digests, for information.

Each workload runs in fresh interpreters started from here, one at a time:
first a few that stop after set-up (setup_s is the median over all of them
and the measured run), then the measured run.  Every child gets a fixed
PYTHONHASHSEED and one BLAS/OpenMP thread, and a lock file keeps two
benchmark runs in one checkout from overlapping.
"""

from __future__ import annotations

import argparse
import compileall
import fcntl
import json
import os
import statistics
import subprocess
import sys
import time

from tracing import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("deep", "sweep", "census", "numeric")
SETUP_ONLY_RUNS = 6
CHILD_TIMEOUT_S = 170
OUT_DIR = ".perfbench"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("LOOPCORR_LOG", None)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args: list, env: dict, deadline: float) -> dict:
    """Start one workload interpreter, wait for it, return its JSON line."""
    env = dict(env, PERFBENCH_T0_NS=str(time.monotonic_ns()))
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "workload.py"), *args],
                            stdout=subprocess.PIPE, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit("perfbench: workload process timed out")
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: workload process exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise SystemExit("perfbench: workload process printed no result")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "loopcorr", "__init__.py")):
        print("perfbench: run from the repository root (src/loopcorr not found)",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        # bytecode caches exist before any timed set-up, whether or not the
        # checkout had them
        compileall.compile_dir(os.path.join(root, "src", "loopcorr"), quiet=1)
        compileall.compile_dir(HERE, quiet=1, maxlevels=0)
        env = child_env(root)
        common = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds)]
        setups = [run_child(common + ["--setup-only"], env, deadline)["setup_s"]
                  for _ in range(SETUP_ONLY_RUNS)]
        extra = ["--trace", str(args.trace)]
        if args.trace:
            extra += ["--trace-dir",
                      os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}")]
        res = run_child(common + extra, env, deadline)
    setups.append(res["setup_s"])

    for line in res["digests"]:
        print(f"digest {line}")
    if args.trace:
        print(f"item tail percentile: p{res['item_tail_pct']:g}")
        metrics = {k: {"value": v, "unit": PER_LAYER[k][0]} for k, v in res["per_layer"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": res["wall_s"], "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
