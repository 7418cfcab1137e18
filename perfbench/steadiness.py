"""Steadiness report: two sets of interleaved runs of every workload.

    python3 perfbench/steadiness.py --rounds 10 --gap 60

Each of the two sets runs `--rounds` rounds; a round runs every workload of
BENCHMARK.json once, each with a new seed (counting up from FIRST_SEED),
through run.py with the run length of BENCHMARK.json.  The second set
starts `--gap` seconds after the first ends.  For every
workload and end-to-end metric it prints the median and quartiles of each
set and of all runs together, the quartile spread as a share of the
median, and the gap between the two sets' medians as a share of the
first.  Raw results go to perfbench/out/steadiness-<time>.json.
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
ROOT = os.path.dirname(HERE)
SETS = 2
FIRST_SEED = 100


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--gap", type=float, default=60.0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results = {w: [[] for _ in range(SETS)] for w in workloads}
    seed = FIRST_SEED
    for s in range(SETS):
        if s:
            time.sleep(args.gap)
        for _ in range(args.rounds):
            for w in workloads:
                results[w][s].append(run_once(w, seed, bench["run_seconds"]))
                seed += 1
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    raw = os.path.join(HERE, "out", f"steadiness-{int(time.time())}.json")
    with open(raw, "w", encoding="ascii") as fh:
        json.dump(results, fh)

    print(f"{SETS} sets x {args.rounds} runs per workload, seeds from {FIRST_SEED}, "
          f"run_seconds={bench['run_seconds']}, {args.gap:.0f} s between sets")
    print(f"{'workload':<14}{'metric':<13}{'set':<5}{'q1':>11}{'median':>11}"
          f"{'q3':>11}{'iqr/med':>9}{'gap':>8}{'bound':>7}")
    for w in workloads:
        sets = results[w]
        shares = sorted({r["failed"] / r["attempted"] for runs in sets for r in runs})
        for name, bound in bounds.items():
            per_set = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            rows = [(str(i + 1), v) for i, v in enumerate(per_set)]
            rows.append(("all", [v for vs in per_set for v in vs]))
            first, second = (statistics.median(vs) for vs in per_set)
            for label, values in rows:
                q1, med, q3 = quartiles(values)
                gap = ""
                if label == "all":
                    gap = f"{abs(second - first) / first:8.3f}"
                print(f"{w:<14}{name:<13}{label:<5}{q1:11.4f}{med:11.4f}{q3:11.4f}"
                      f"{(q3 - q1) / med:9.3f}{gap:>8}{bound:7.2f}")
        print(f"{w:<14}failed share per run: {shares}")
    print(f"raw results: {os.path.relpath(raw, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
