"""Steadiness check: two sets of runs of the same code, compared.

    python3 benchmark/steady.py [--runs 10] [--workloads a,b]

Runs the command of BENCHMARK.json from the root of the checkout, in two
sets of runs with seeds 1000, 1001, ... and 2000, 2001, ..., and prints
for every workload and end-to-end metric each set's median and quartiles,
the spread (interquartile distance over the median), the spread of the
raw (un-normalised) figure beside it, and whether the sets agree within
the metric's bound: every spread within the bound, the two medians apart
by no more than the bound, in either direction, and the same share of
failed operations.  All results are also written to benchmark/out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

#: metrics whose raw counterpart a run reports, printed beside them
RAW = ("items_per_s", "op_p50_ms", "setup_s")

#: the seeds of set k (k = 1, 2) are 1000 * k + i, i < runs
SETS = 2


def one_run(cfg: dict, workload: str, seed: int) -> dict:
    cmd = cfg["command"] + ["--workload", workload, "--seed", str(seed),
                            "--seconds", str(cfg["run_seconds"]), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stdout}\n{proc.stderr}")
    return {"seed": seed, "wall_s": wall, "detail": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def report(cfg: dict, workload: str, sets: list[list[dict]]) -> bool:
    ok = True
    print(f"\n== {workload}: {len(sets)} sets of {len(sets[0])} runs, "
          f"wall {min(r['wall_s'] for s in sets for r in s):.0f}-{max(r['wall_s'] for s in sets for r in s):.0f} s per run")
    shares = [sum(r["result"]["failed"] for r in s) / sum(r["result"]["attempted"] for r in s) for s in sets]
    if len(set(shares)) != 1:
        ok = False
    print(f"   failed share per set: {shares}")
    for m in cfg["end_to_end"]:
        name, bound = m["name"], m["bound"]
        medians = []
        for k, runs in enumerate(sets):
            vals = [r["result"]["metrics"][name]["value"] for r in runs]
            med, q1, q3, sp = spread(vals)
            medians.append(med)
            raw = ""
            if name in RAW:
                raw = f"  raw spread {spread([r['detail'][name] for r in runs])[3]:.3f}"
            steady = sp <= bound
            ok &= steady
            print(f"   {name:<12} set {k + 1}: median {med:.6g} {m['unit']}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {sp:.3f} (bound {bound}, a third {bound / 3:.3f}){raw}  {'ok' if steady else 'TOO WIDE'}")
        first, later = medians
        change = (later - first) / first
        agree = abs(change) <= bound
        ok &= agree
        print(f"   {name:<12} set 2 vs set 1: {change:+.3f}  {'agrees' if agree else 'DISAGREES'}")
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", help="comma-separated; default all of BENCHMARK.json")
    args = ap.parse_args(argv)
    cfg = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in cfg["workloads"]]
    OUT.mkdir(exist_ok=True)
    all_ok = True
    results = {}
    for workload in names:
        sets = []
        for k in range(1, SETS + 1):
            runs = []
            for i in range(args.runs):
                run = one_run(cfg, workload, 1000 * k + i)
                print(f"   {workload} set {k} run {i + 1}: {json.dumps(run['result']['metrics'])}", flush=True)
                runs.append(run)
            sets.append(runs)
        results[workload] = sets
        all_ok &= report(cfg, workload, sets) if args.runs >= 2 else True
    (OUT / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json").write_text(json.dumps(results, indent=1))
    print(f"\n{'STEADY' if all_ok else 'NOT STEADY'}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
