"""Regenerate the reference section of perfbench/README.md from the code.

    python3 perfbench/reference.py [--write]

Run from the repository root.  It prints, and with ``--write`` puts
between the README's ``reference`` markers:

* the canonical-output digests (SHA-256 of ``Expression.to_json``) of the
  ``deep`` words and the one ``sweep`` digest, for seed 1, at the
  benchmark's run length;
* the layer breakdown of J+ J- J+ J- J3 under one mu family, from a traced
  evaluation in a fresh interpreter (4450 diagrams; about 15 s).

The digests are for information: a correct change may alter the canonical
form, and the README then records the new table with the reason.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
README = os.path.join(HERE, "README.md")
BEGIN, END = "<!-- reference:begin -->", "<!-- reference:end -->"
WORD = ("J+", "J-", "J+", "J-", "J3")
SEED = 1


def breakdown() -> dict:
    """Traced evaluation of WORD; runs inside the child interpreter."""
    from fractions import Fraction

    import tracing
    from loopcorr import renorm
    from loopcorr.algebra import SectorConfig
    from loopcorr.renorm import CurrentWord, RenormScheme

    scheme = RenormScheme.mu_family(SectorConfig("K", "nonunitary"),
                                    entries={2: 1, 3: Fraction(1, 2)}, default=0)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.active = True
    t0 = time.perf_counter()
    text = tracer.item(
        lambda: renorm.evaluate_correlator(CurrentWord.from_names(WORD), scheme).to_json())
    wall = time.perf_counter() - t0
    tracer.active = False
    metrics, extra = tracer.metrics(tracing.ITEM, wall)
    return {"metrics": metrics, "per_name": extra["per_name"], "json_len": len(text)}


def run(cmd, env=None) -> str:
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)}: exit {proc.returncode}")
    return proc.stdout


def section(seconds: int) -> str:
    sys.path.insert(0, HERE)
    from run import child_env

    lines = [f"Generated by `python3 perfbench/reference.py --write`, seed {SEED} "
             f"({seconds} s run length).", "",
             "| workload | realization | word | SHA-256 of to_json |", "|---|---|---|---|"]
    for workload in ("deep", "sweep"):
        out = run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0"])
        for line in out.splitlines():
            if not line.startswith("digest "):
                continue
            parts = line.split()
            if workload == "sweep":
                lines.append(f"| sweep | K, A | all words, both schemes | `{parts[2]}` |")
            else:
                lines.append(f"| deep | {parts[1]} | {' '.join(parts[2:-1])} | `{parts[-1]}` |")
    env = dict(child_env(os.getcwd()), PYTHONPATH=os.pathsep.join(
        [os.path.join(os.getcwd(), "src"), HERE]))
    data = json.loads(run([sys.executable, os.path.abspath(__file__), "--breakdown"], env)
                      .strip().splitlines()[-1])
    m = data["metrics"]
    lines += ["", f"Layer breakdown of `{' '.join(WORD)}` under mu_2 = 1, mu_3 = 1/2 "
              f"(others 0), one traced evaluation plus `to_json`: "
              f"{m['diagrams.diagrams']} diagrams, {m['renorm.renormalized_terms']} "
              f"renormalized terms ({m['distributions.distinct_raw_keys']} distinct "
              f"structures), {m['distributions.canonical_terms']} canonical terms, "
              f"{data['json_len']} bytes of JSON; traced wall {m['traced_wall_s']:.2f} s.", "",
              "| span | calls | inclusive s | self s | share of wall |", "|---|---|---|---|---|"]
    for name, rec in sorted(data["per_name"].items(), key=lambda kv: -kv[1]["s"]):
        if not rec["calls"]:
            continue
        lines.append(f"| {name} | {rec['calls']} | {rec['s']:.3f} | {rec['self_s']:.3f} "
                     f"| {100 * rec['s'] / m['traced_wall_s']:.1f} % |")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--write", action="store_true")
    ap.add_argument("--breakdown", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.breakdown:
        print(json.dumps(breakdown()))
        return 0
    with open("BENCHMARK.json") as fh:
        seconds = json.load(fh)["run_seconds"]
    text = section(seconds)
    print(text)
    if args.write:
        with open(README) as fh:
            readme = fh.read()
        head, rest = readme.split(BEGIN, 1)
        _, tail = rest.split(END, 1)
        with open(README, "w") as fh:
            fh.write(f"{head}{BEGIN}\n{text}\n{END}{tail}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
