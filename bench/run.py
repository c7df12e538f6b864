"""walkstitch benchmark: run one workload for a fixed time and report its metrics.

    python3 bench/run.py --workload ppr-cliques --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Every measurement is a fresh child process
(bench/worker.py), started one at a time with BLAS/OpenMP pinned to one
thread, so peak RSS belongs to one run. Children are started until
--seconds have passed; each one ingests the graph several times, runs the
workload once and checks its output. The last line of standard output is one
JSON object: with --trace 0 it holds the end-to-end metrics, with --trace 1
the per-layer metrics of traced children (untraced children run alongside to
measure the tracing overhead). A child that raises, fails a check or
disagrees with the others' walk hash counts as a failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from statistics import median

from checkout import ROOT, MissingPackage, import_walkstitch

BENCH = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("ppr-cliques", "locality-gnp", "walks-sparse")

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "walks_per_s": "1/s"}

PER_LAYER = {
    "graph.build_s": "s",
    "graph.load_edge_list_s": "s",
    "graph.save_cache_s": "s",
    "graph.load_cache_s": "s",
    "graph.n": "count",
    "graph.m": "count",
    "mpc.exchange_s": "s",
    "mpc.exchange_calls": "count",
    "mpc.supersteps": "count",
    "mpc.paper_rounds": "count",
    "mpc.messages": "count",
    "mpc.words": "count",
    "mpc.max_machine_words": "count",
    "mpc.violations": "count",
    "engine.init_walks_s": "s",
    "engine.stitch_s": "s",
    "engine.stitch_self_s": "s",
    "engine.update_budgets_s": "s",
    "engine.run_self_s": "s",
    "engine.cycles": "count",
    "engine.segments": "count",
    "engine.segments_per_s": "1/s",
    "engine.rooted_attempted": "count",
    "engine.rooted_ok": "count",
    "engine.rooted_fail_share": "share",
    "engine.useful_segment_ratio": "ratio",
    "ppr.support": "count",
    "check.validate_walks_s": "s",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
}

# Printed in the human-readable report only: these layers run on ppr-cliques
# alone, so on the other workloads they would read 0 on every run.
PRINTED_ONLY = ("ppr.approx_ppr_s", "ppr.sweep_s", "oracle.exact_ppr_s")

# Layers whose self times make up run_s (the harness's own glue is the rest).
RUN_SELF_TIMES = ("engine.run_self_s", "engine.stitch_self_s", "engine.init_walks_self_s",
                  "engine.update_budgets_self_s", "mpc.exchange_self_s",
                  "ppr.approx_ppr_self_s", "ppr.sweep_self_s")

HARD_LIMIT_S = 170.0      # a run must end within 180 s
MAX_FAILURES = 3
THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


def run_child(args, workdir: str, index: int, traced: bool, timeout: float) -> dict:
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
           "--input", os.path.join(workdir, "edges.txt"),
           "--cache", os.path.join(workdir, "graph.lwg"),
           "--trace", "1" if traced else "0"]
    if traced:
        cmd += ["--spans", os.path.join(workdir, f"spans-{index}.jsonl")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout,
                              env={**os.environ, **THREAD_ENV}, cwd=str(ROOT))
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"ok": False, "error": f"worker exit {proc.returncode}: {proc.stderr[-2000:]}"}
    result = json.loads(lines[-1])
    if not result["ok"] and "error" in result:
        sys.stderr.write(proc.stderr[-4000:])
    return result


def measure(args, workdir: str, started: float) -> list:
    """Start children until --seconds have passed and each kind has enough samples."""
    results = []
    t0 = time.monotonic()
    last = 0.0
    while True:
        ok = [r for r in results if r["ok"]]
        plain = sum(1 for r in ok if not r["traced"])
        traced = sum(1 for r in ok if r["traced"])
        enough = plain >= (2 if args.trace else 3) and (traced >= 2 or not args.trace)
        if enough and time.monotonic() - t0 >= args.seconds:
            break
        if len(results) - len(ok) >= MAX_FAILURES:
            break
        remaining = HARD_LIMIT_S - (time.monotonic() - started)
        if remaining < 1.2 * last:
            break
        want_traced = bool(args.trace) and len(results) % 2 == 1
        c0 = time.monotonic()
        results.append(run_child(args, workdir, len(results), want_traced, remaining))
        last = time.monotonic() - c0
    return results


def mark_disagreements(results: list) -> None:
    """Every run of one seed must return the same walks and counts."""
    ok = [r for r in results if r["ok"]]
    if not ok:
        return
    ref = ok[0]
    for r in ok[1:]:
        if r["sha256"] != ref["sha256"] or r["counters"] != ref["counters"]:
            r["ok"] = False
            r["error"] = "walk hash or counters differ from the first run of this seed"


def layer_metrics(traced: list, plain: list) -> dict:
    def med(key):
        return median(r["layers"].get(key, 0.0) for r in traced)

    counters = traced[0]["counters"]
    out = {name: med(name) for name, unit in PER_LAYER.items()
           if unit == "s" and not name.startswith("trace.")}
    out.update({name: counters[name] for name in PER_LAYER if name in counters})
    out["mpc.exchange_calls"] = traced[0]["exchange_calls"]
    out["engine.segments_per_s"] = median(
        r["counters"]["engine.segments"] / r["layers"]["engine.stitch_s"] for r in traced)
    out["trace.run_s"] = median(r["run_s"] for r in traced)
    out["trace.overhead_s"] = out["trace.run_s"] - median(r["run_s"] for r in plain)
    out["trace.unaccounted_s"] = med("bench.run_self_s")
    return out


def report(args, results: list) -> tuple:
    ok = [r for r in results if r["ok"]]
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    print(f"workload {args.workload} seed {args.seed} size {args.size} trace {args.trace}: "
          f"{len(results)} runs attempted, {len(results) - len(ok)} failed")
    for i, r in enumerate(results):
        if not r["ok"]:
            failed = [f"{name}: {detail}" for name, passed, detail in r.get("checks", [])
                      if not passed]
            print(f"  run {i} FAILED: {r.get('error') or '; '.join(failed)}")
    if ok:
        for name, passed, detail in ok[0]["checks"]:
            print(f"  check {name}: {'PASS' if passed else 'FAIL'} ({detail})")
        counts = " ".join(f"{k}={v}" for k, v in ok[0]["counters"].items())
        print(f"  counters sha256={ok[0]['sha256']} {counts}")

    metrics, units = {}, {}
    if plain:
        run_s = [r["run_s"] for r in plain]
        metrics = {
            "run_s": median(run_s),
            "setup_s": median(r["setup_s"] for r in plain),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in plain),
            "walks_per_s": median(r["counters"]["engine.walks_ok"] / r["run_s"] for r in plain),
        }
        units = END_TO_END
        print(f"  run_s samples (n={len(run_s)}): " + " ".join(f"{t:.4f}" for t in run_s))
        print(f"  setup reps per run: {plain[0]['setup_reps']}")
    if args.trace:
        if not (traced and plain):
            return {}, {}
        layers = layer_metrics(traced, plain)
        for name in PRINTED_ONLY:
            print(f"  {name:<28} {median(r['layers'].get(name, 0.0) for r in traced):.6f} s")
        self_sum = median(sum(r["layers"].get(k, 0.0) for k in RUN_SELF_TIMES) for r in traced)
        print(f"  closure: self times of engine/mpc/ppr sum to {self_sum:.4f} s against "
              f"untraced run_s {metrics['run_s']:.4f} s; the gap "
              f"{self_sum - metrics['run_s']:+.4f} s is the tracing overhead "
              f"{layers['trace.overhead_s']:+.4f} s minus the harness glue "
              f"{layers['trace.unaccounted_s']:.4f} s between spans")
        for name, value in metrics.items():
            print(f"  {name:<28} {value} {END_TO_END[name]}")
        metrics, units = layers, PER_LAYER
    for name in units:
        print(f"  {name:<28} {metrics[name]} {units[name]}")
    return metrics, units


def main(argv=None) -> int:
    started = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: the self-test's small inputs")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    try:
        import_walkstitch()
    except MissingPackage as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    import workloads

    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.size}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    text = workloads.WORKLOADS[args.workload].make_input(
        args.seed, workloads.SIZES[args.workload][args.size])
    with open(os.path.join(workdir, "edges.txt"), "w") as f:
        f.write(text)

    results = measure(args, workdir, started)
    mark_disagreements(results)
    metrics, units = report(args, results)
    if not metrics:
        print("bench: no run succeeded", file=sys.stderr)
        return 1
    failed = sum(1 for r in results if not r["ok"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
