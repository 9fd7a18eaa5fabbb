"""Benchmark entry point.

    python3 bench/run.py --workload {verify-paper,affineness-sweep,queries}
                         --seed N --seconds S --trace {0,1}

A run is a sequence of rounds, all with PYTHONHASHSEED=0.  Each round is a fresh single-threaded
process (``bench/worker.py``) that imports ``gawb`` from this checkout's
``src``, generates its slice of the run's inputs, runs a fixed number of
operations and checks every output.  Rounds start until ``--seconds`` have
passed (at least three, or one of each kind when traced, and never past the
input streams' capacity).  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones:
  setup_s      median over rounds of importing gawb and generating inputs
  run_s        median over rounds of the wall time of the round's operations
  op_p50_ms    median latency of one operation, pooled over the run
  peak_rss_mb  largest peak resident memory of a round's process
With ``--trace 1`` untraced and traced rounds alternate; the metrics are the
per-layer ones of ``bench/tracing.py`` (medians over traced rounds), the
queries' per-kind medians (from the untraced rounds) and ``trace.overhead``.
Each run writes its result, latency tails and per-round figures to
``bench/out/result-<workload>-seed<n>-trace<t>.json``; spans of each traced
round go to ``bench/out/spans-...tsv``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
OUT = os.path.join(BENCH, "out")

WORKLOADS = ("verify-paper", "affineness-sweep", "queries")
MIN_ROUNDS = 3
#: Rounds that fit the sweep's distinct (3,3)-box inputs (390,623, 13,500
#: per round) and keep every run well under the three-minute limit.
MAX_ROUNDS = {"verify-paper": 12, "affineness-sweep": 28, "queries": 60}
HARD_STOP_S = 150.0


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 1


def run_round(workload: str, seed: int, rnd: int, traced: bool, deadline: float) -> dict:
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed), "--round", str(rnd)]
    if traced:
        os.makedirs(OUT, exist_ok=True)
        cmd += ["--trace", "--spans", os.path.join(OUT, f"spans-{workload}-seed{seed}-round{rnd}.tsv")]
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.perf_counter()))
    if proc.returncode != 0:
        raise RuntimeError(f"round {rnd} exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(rounds) -> dict:
    lat = [x for r in rounds for x in r["latencies"]]
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in rounds), "s"),
        "run_s": (statistics.median(r["run_s"] for r in rounds), "s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "peak_rss_mb": (max(r["rss_mb"] for r in rounds), "MB"),
    }


def per_layer(plain, traced) -> dict:
    import tracing

    metrics = tracing.median_metrics([r["layers"] for r in traced])
    by_kind = {k: [] for k in tracing.QUERY_KINDS}
    for r in plain:
        for kind, x in zip(r.get("kinds", ()), r["latencies"]):
            by_kind[kind].append(x)
    for kind, xs in by_kind.items():
        metrics[f"queries.{kind}.p50_ms"] = statistics.median(xs) * 1e3 if xs else 0.0
    metrics["trace.overhead"] = (statistics.median(r["run_s"] for r in traced)
                                 / statistics.median(r["run_s"] for r in plain))
    return {k: (v, tracing.METRICS[k]) for k, v in metrics.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "gawb", "__init__.py")):
        return fail(f"no gawb sources under {os.path.join(ROOT, 'src')}")
    compileall.compile_dir(os.path.join(ROOT, "src", "gawb"), quiet=1)
    compileall.compile_dir(BENCH, quiet=1, maxlevels=0)

    start = time.perf_counter()
    deadline = start + HARD_STOP_S
    plain, traced = [], []
    rnd = 0
    try:
        while rnd < MAX_ROUNDS[args.workload]:
            elapsed = time.perf_counter() - start
            enough = min(len(plain), len(traced)) >= 1 if args.trace else len(plain) >= MIN_ROUNDS
            if (enough and elapsed >= args.seconds) or (rnd and elapsed >= HARD_STOP_S / 2):
                break
            traced_round = bool(args.trace) and rnd % 2 == 1
            r = run_round(args.workload, args.seed, rnd, traced_round, deadline)
            (traced if traced_round else plain).append(r)
            rnd += 1
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        return fail(str(e))

    rounds = plain + traced
    for e in [e for r in rounds for e in r["errors"]][:10]:
        print(f"bench: {e}", file=sys.stderr)
    lat = sorted(x for r in plain for x in r["latencies"])
    tails = {f"p{q}": lat[min(len(lat) - 1, q * len(lat) // 100)] * 1e3 for q in (50, 90, 99)}
    print(f"bench: {args.workload}: {len(plain)} timed rounds, {len(lat)} ops, latency ms "
          + ", ".join(f"{k} {v:.4g}" for k, v in tails.items()), file=sys.stderr)
    metrics = per_layer(plain, traced) if args.trace else end_to_end(plain)
    result = {
        "correct": sum(r["wrong"] for r in rounds) == 0,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        keys = ("setup_s", "run_s", "rss_mb", "attempted")
        summary = [{"traced": i >= len(plain), **{k: r[k] for k in keys}}
                   for i, r in enumerate(rounds)]
        json.dump({"result": result, "latency_ms": tails, "rounds": summary}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
