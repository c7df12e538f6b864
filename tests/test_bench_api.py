"""The benchmark under bench/ still runs against the package API.

bench/tracing.py wraps public functions by name and bench/workloads.py calls
them; a rename in the package would otherwise only show when the benchmark
runs. This imports both files as they are and runs every workload once at
its tiny size.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402
from walkstitch import engine, graph, mpc, oracle, ppr  # noqa: E402
from walkstitch.vectors import ScoreVector  # noqa: E402


def test_traced_layers_exist():
    for owner, attr, name in tracing.traced_layers(graph, mpc, engine, ppr, oracle):
        assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr}"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_tiny(name):
    wl = workloads.WORKLOADS[name]
    p = workloads.SIZES[name]["tiny"]
    g = graph.load_edge_list(wl.make_input(3, p))
    plan = wl.plan(g, p)
    out = wl.run(g, plan, 3, p)
    failed = [(check, detail) for check, passed, detail in wl.check(g, plan, out, p)
              if not passed]
    assert not failed
    assert len(workloads.walks_sha256(out)) == 64
    assert workloads.counters(g, out)["engine.walks_ok"] > 0


def test_corrupted_scores_fail_ppr_checks():
    # bench/selftest.py edits the array that to_dense returns and rebuilds the
    # scores with from_dense; both must copy, and the checks must notice
    wl = workloads.WORKLOADS["ppr-cliques"]
    p = workloads.SIZES["ppr-cliques"]["tiny"]
    g = graph.load_edge_list(wl.make_input(3, p))
    plan = wl.plan(g, p)
    out = wl.run(g, plan, 3, p)
    good = out.scores
    dense = good.to_dense(g.n)
    before = dense.copy()
    dense[plan["root"]] += 0.05
    out.scores = ScoreVector.from_dense(dense)
    dense[plan["root"]] += 0.05
    assert (good.to_dense(g.n) == before).all()
    assert out.scores.mass() == pytest.approx(good.mass() + 0.05, abs=1e-12)
    failed = {check for check, passed, _ in wl.check(g, plan, out, p) if not passed}
    assert {"ppr error", "ppr mass"} <= failed
    out.scores = good
    assert not {check for check, passed, _ in wl.check(g, plan, out, p) if not passed}
