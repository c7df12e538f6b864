"""One measurement in a fresh process: ingest the graph several times, run
the workload once, check its output. Prints one JSON line for run.py.

    python3 bench/worker.py --workload NAME --seed N --size full|tiny \
        --input EDGES.txt --cache GRAPH.lwg --trace 0|1 [--spans SPANS.jsonl]
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
import traceback
from statistics import median

from checkout import import_walkstitch

# Ingest is repeated until both floors are met; the median is reported.
SETUP_MIN_REPS = 5
SETUP_MIN_SECONDS = 0.3
SETUP_MAX_REPS = 200


def measure(args) -> dict:
    import_walkstitch()
    from walkstitch import engine, graph, mpc, oracle, ppr
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    p = workloads.SIZES[args.workload][args.size]
    rec = tracing.Recorder() if args.trace else tracing.NullRecorder()
    if args.trace:
        rec.install(tracing.traced_layers(graph, mpc, engine, ppr, oracle))

    setup_times = []
    while (len(setup_times) < SETUP_MIN_REPS or sum(setup_times) < SETUP_MIN_SECONDS) \
            and len(setup_times) < SETUP_MAX_REPS:
        with rec.span("bench.setup"):
            t0 = time.perf_counter()
            with open(args.input) as f:
                g = graph.load_edge_list(f)
            graph.save_cache(g, args.cache)
            g = graph.load_cache(args.cache)
            setup_times.append(time.perf_counter() - t0)

    plan = wl.plan(g, p)
    gc.collect()
    with rec.span("bench.run"):
        t0 = time.perf_counter()
        out = wl.run(g, plan, args.seed, p)
        run_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    with rec.span("bench.check"):
        checks = wl.check(g, plan, out, p)
    result = {
        "ok": all(passed for _, passed, _ in checks),
        "traced": bool(args.trace),
        "setup_s": median(setup_times),
        "setup_reps": len(setup_times),
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        "checks": checks,
        "counters": workloads.counters(g, out),
        "sha256": workloads.walks_sha256(out),
    }
    if args.trace:
        rec.uninstall()
        result["layers"] = tracing.layer_times(rec.spans)
        result["exchange_calls"] = sum(1 for s in rec.spans if s.name == "mpc.exchange")
        if args.spans:
            rec.write(args.spans)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--input", required=True)
    ap.add_argument("--cache", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)
    try:
        result = measure(args)
    except Exception as exc:  # a raising run is a failed operation, reported to run.py
        traceback.print_exc(file=sys.stderr)
        result = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
