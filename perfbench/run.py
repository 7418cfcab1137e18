"""geoib benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload mixture_sweep --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; geoib is imported from its `src`.  Each
round of the workload runs in a fresh interpreter (worker.py), and rounds
repeat until --seconds have passed (at least one).  Without --trace, extra
fresh processes repeat the set-up alone until there are MIN_SETUPS set-up
samples.  Every process is stopped before --seconds plus LAST_ROUND_S have
passed, and the run then fails.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1.  The exit
code is 0 only when every round ran and every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("mixture_sweep", "digits", "verify")

MIN_SETUPS = 11
# Each worker runs on one core: numpy's BLAS would otherwise start a thread
# per core and the figures would follow whatever else the machine runs.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
# Time allowed past --seconds for the last round and the set-up samples.
LAST_ROUND_S = 160.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s",
                    "peak_rss_mb": "MB"}


def per_layer_units(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms_p50") or name.endswith("_ms_p90"):
        return "ms"
    if name.endswith("residual_p50") or name == "trace.coverage":
        return "1"
    return "count"


class RunFailed(Exception):
    pass


def spawn(args, tag: str, deadline: float, extra=()) -> dict:
    """Run one worker to its end and return its record, stamped with the
    moment it was launched."""
    result = os.path.join(OUT, f"result-{os.getpid()}-{tag}.json")
    work = os.path.join(OUT, f"work-{os.getpid()}-{tag}")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace), "--result", result, "--work", work, *extra]
    launched = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=sys.stderr.fileno(), cwd=ROOT,
                            env={**os.environ, **WORKER_ENV})
    try:
        code = proc.wait(timeout=max(deadline - launched, 1.0))
    except subprocess.TimeoutExpired:
        raise RunFailed(f"worker {tag} did not finish before the deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)
    if code != 0:
        raise RunFailed(f"worker {tag} exited with code {code}")
    with open(result, encoding="ascii") as fh:
        record = json.load(fh)
    os.remove(result)
    record["launched"] = launched
    return record


def measure(args) -> tuple[dict, list[str]]:
    start = time.perf_counter()
    deadline = start + args.seconds + LAST_ROUND_S
    rounds = []
    while not rounds or time.perf_counter() - start < args.seconds:
        extra = ()
        if args.trace:
            spans = os.path.join(
                OUT, f"trace-{args.workload}-seed{args.seed}-round{len(rounds)}.json")
            extra = ("--spans", spans)
        rounds.append(spawn(args, f"round{len(rounds)}", deadline, extra))
    setups = [r["setup_end"] - r["launched"] for r in rounds]
    problems = [p for r in rounds for p in r["problems"]]
    while not args.trace and len(setups) < MIN_SETUPS:
        rec = spawn(args, f"setup{len(setups)}", deadline, ("--setup-only",))
        setups.append(rec["setup_end"] - rec["launched"])
        problems += rec["problems"]

    summary = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": compose(rounds, setups, args.trace),
    }
    return summary, problems


def compose(rounds, setups, trace: int) -> dict:
    """The printed metrics from the round records and set-up samples."""
    walls = [r["work_end"] - r["launched"] - r["excluded_s"] for r in rounds]
    if trace:
        names = rounds[0]["per_layer"]
        values = {n: statistics.median(r["per_layer"][n] for r in rounds) for n in names}
        values["trace.wall_s"] = statistics.median(walls)
        values["trace.coverage"] = statistics.median(
            r["covered_s"] / r["own_wall_s"] for r in rounds)
        return {n: {"value": v, "unit": per_layer_units(n)} for n, v in values.items()}
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "ops_per_s": statistics.median(r["attempted"] / r["op_s"] for r in rounds),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in rounds),
    }
    return {n: {"value": v, "unit": END_TO_END_UNITS[n]} for n, v in values.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # A terminated run still stops and waits for its worker (see spawn).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "geoib", "__init__.py")):
        print(f"no geoib sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    try:
        summary, problems = measure(args)
    except RunFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
