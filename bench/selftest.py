"""Self-test of the benchmark: every workload at tiny size prints every metric
named in BENCHMARK.json, and the output checks reject corrupted results.

    python3 bench/selftest.py

Exits 0 when everything holds; an AssertionError names what did not.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from checkout import ROOT, import_walkstitch

BENCH = os.path.dirname(os.path.abspath(__file__))
SEED = 3


def check_printed_metrics(names) -> None:
    import run
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOAD_NAMES)
    for name in names:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH, "run.py"), "--workload", name,
                 "--seed", str(SEED), "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
                capture_output=True, text=True, timeout=170, cwd=str(ROOT))
            assert proc.returncode == 0, f"{name} trace {trace}: exit {proc.returncode}\n{proc.stderr}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            assert printed == expected[trace], f"{name} trace {trace}: {sorted(printed)}"
            for key, value in result["metrics"].items():
                assert isinstance(value["value"], (int, float)), (name, key, value)
            print(f"ok   {name} trace {trace}: {len(printed)} metrics, "
                  f"{result['attempted']} runs")


def failing(checks) -> set:
    return {name for name, passed, _ in checks if not passed}


def check_corruption_is_caught(names) -> None:
    from walkstitch import graph
    from walkstitch.vectors import ScoreVector
    import run
    import workloads

    for name in names:
        wl = workloads.WORKLOADS[name]
        p = workloads.SIZES[name]["tiny"]
        g = graph.load_edge_list(wl.make_input(SEED, p))
        plan = wl.plan(g, p)
        out = wl.run(g, plan, SEED, p)
        assert not failing(wl.check(g, plan, out, p)), name

        for i, (walks, _) in enumerate(out.walk_arrays()):
            # first step of the first walk goes along a non-edge
            a, old = int(walks[0, 0]), int(walks[0, 1])
            walks[0, 1] = next(v for v in range(g.n) if v != a and not g.has_edge(a, v))
            assert f"walks[{i}] valid" in failing(wl.check(g, plan, out, p)), (name, i)
            walks[0, 1] = old

        if name == "ppr-cliques":
            good = out.scores
            dense = good.to_dense(g.n)
            dense[plan["root"]] += 0.05
            out.scores = ScoreVector.from_dense(dense)
            assert {"ppr error", "ppr mass"} <= failing(wl.check(g, plan, out, p))
            out.scores = good
            cut = out.cut
            cut.best_set = sorted(set(cut.best_set) ^ {0, 1, 2})
            assert "sweep cut" in failing(wl.check(g, plan, out, p))
        if name == "locality-gnp":
            out.uniform[0].total_budget = out.rooted[0].metrics.total_budget
            assert "locality ratio" in failing(wl.check(g, plan, out, p))
        if name == "walks-sparse":
            ledger = out.clusters[0].ledger
            ledger.rounds.append(ledger.rounds[-1])
            assert "supersteps" in failing(wl.check(g, plan, out, p))
            out.rooted[0].metrics.rooted_ok = p["min_rooted_ok"] - 1
            assert "rooted ok" in failing(wl.check(g, plan, out, p))
        print(f"ok   {name}: checks reject corrupted results")

    runs = [{"ok": True, "sha256": "a", "counters": {"x": 1}},
            {"ok": True, "sha256": "b", "counters": {"x": 1}}]
    run.mark_disagreements(runs)
    assert not runs[1]["ok"], "a differing walk hash must count as a failed run"
    print("ok   differing walk hashes count as failed runs")


def main() -> int:
    import_walkstitch()
    import run
    names = run.WORKLOAD_NAMES
    check_corruption_is_caught(names)
    check_printed_metrics(names)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
