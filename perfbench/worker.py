"""One round of one workload, in a fresh interpreter.

Started by run.py, never by hand.  It imports geoib from the checkout's
`src`, materialises the workload's inputs, runs it, checks its outputs and
writes a JSON record to the --result path.  All times are `perf_counter`
readings (CLOCK_MONOTONIC), comparable with those of the parent process.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--result", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    sys.path.insert(0, SRC)
    t_import = time.perf_counter()
    import numpy  # noqa: F401
    import geoib.training  # noqa: F401
    import geoib.verify  # noqa: F401
    import tracing
    from workloads import WORKLOADS, Context, check_name
    rec = tracing.Recorder()
    rec.spans.append(["setup.import", t_import, time.perf_counter(), -1])

    tracing.install_light(rec)
    if args.trace:
        tracing.install_full(rec)
    workload = WORKLOADS[args.workload]
    os.makedirs(args.work)
    ctx = Context(rec, args.work, args.seed)
    inp = workload.setup(ctx)
    result = {"t0": T0, "setup_end": time.perf_counter(), "problems": ctx.problems}
    if not args.setup_only:
        out = workload.run(ctx, inp)
        work_end = time.perf_counter()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rec.timed("check.outputs", workload.check, ctx, inp, out)
        attempted, failed, op_s = workload.ops(ctx, out)
        excluded = rec.excluded_s(work_end)
        result.update(
            work_end=work_end, excluded_s=excluded, rss_mb=rss_mb,
            attempted=attempted, failed=failed, op_s=op_s,
            covered_s=tracing.top_level_s(rec, work_end),
            own_wall_s=work_end - T0 - excluded,
        )
        if args.trace:
            names = [check_name(c) for c in geoib.verify.ALL_CHECKS]
            result["per_layer"] = tracing.per_layer(rec, names)
    if args.spans:
        rec.write(args.spans)
    with open(args.result, "w", encoding="ascii") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
