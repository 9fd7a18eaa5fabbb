"""One round of a benchmark workload, in a fresh single-threaded process.

    python3 bench/worker.py --workload NAME --seed N --round R [--trace]

Set-up (importing ``gawb`` from the checkout's ``src`` and generating the
round's inputs as plain data) is timed first.  Then every operation is timed
on its own and its output checked outside the timed region.  The last line of
standard output is one JSON object; ``bench/run.py`` starts these processes
and aggregates them.
"""

import argparse
import json
import os
import resource
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

#: Operations per round: one registry pass; certificates; queries (49 cycles
#: of 44, so that each round holds one pass over the h^0 grid).
ROUND_SIZE = {"verify-paper": 1, "affineness-sweep": 15_000, "queries": 49 * 44}


def _inputs(workload: str, seed: int, rnd: int):
    import inputs

    size = ROUND_SIZE[workload]
    if workload == "verify-paper":
        return [seed * 1000 + rnd]
    if workload == "affineness-sweep":
        return inputs.sweep_inputs(seed, rnd * size, size)
    return inputs.query_inputs(seed, rnd * size, size)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(ROUND_SIZE))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", help="file for the traced round's spans")
    args = ap.parse_args()

    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import ops

    if not os.path.abspath(ops.claims.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"gawb was imported from {ops.claims.__file__}, not from {SRC}")
    items = _inputs(args.workload, args.seed, args.round)
    setup_s = time.perf_counter() - t0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.install()

    if args.workload == "verify-paper":
        run = ops.verify_paper

        def check(seed, report):
            ops.oracle.check_report(report, seed)
    elif args.workload == "affineness-sweep":
        run = ops.certificate

        def check(item, cert):
            ops.oracle.check_certificate(*item, ops.certificate_data(cert))
    else:
        run, check = ops.query, ops.check_query

    clock = time.perf_counter
    latencies = []
    failed = wrong = 0
    errors = []
    for idx, item in enumerate(items):
        if tracer is not None:
            tracer.op = idx
        start = clock()
        try:
            out = run(item)
        except Exception as e:  # noqa: BLE001 - a failed operation is counted, not fatal
            latencies.append(clock() - start)
            failed += 1
            errors.append(f"op {idx} raised {type(e).__name__}: {e}")
            continue
        latencies.append(clock() - start)
        try:
            check(item, out)
        except ops.oracle.CheckFailed as e:
            wrong += 1
            errors.append(f"op {idx} is wrong: {e}")
    result = {
        "setup_s": setup_s,
        "run_s": sum(latencies),
        "latencies": latencies,
        "attempted": len(items),
        "failed": failed,
        "wrong": wrong,
        "errors": errors[:5],
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.workload == "queries":
        result["kinds"] = [q["kind"] for q in items]
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        if args.spans:
            tracing.write_spans(tracer, args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
