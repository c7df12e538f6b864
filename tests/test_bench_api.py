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


# Each workload's tiny run at seed 3: the fingerprint of its returned walks
# and its deterministic counters. A change that claims the same walks must
# leave both as they are.
PINNED = {
    "locality-gnp": ("e30f0da318544d31b8792e8363e62a3340472171c0ab559c143d447426c92b23", {
        "graph.n": 200, "graph.m": 3037, "mpc.supersteps": 23, "mpc.paper_rounds": 13,
        "mpc.messages": 1323850, "mpc.words": 5505124, "mpc.max_machine_words": 2047630,
        "mpc.violations": 0, "engine.cycles": 5, "engine.segments": 925126,
        "engine.rooted_attempted": 1015, "engine.rooted_ok": 982,
        "engine.rooted_fail_share": 0.03251231527093601,
        "engine.useful_segment_ratio": 0.8779344651431265, "engine.walks_ok": 203050,
        "ppr.support": 0}),
    "ppr-cliques": ("f8562d3e7f33325cb575dd4a1a5a143557831a851d1022dcf588a3090bb7198a", {
        "graph.n": 34, "graph.m": 273, "mpc.supersteps": 62, "mpc.paper_rounds": 34,
        "mpc.messages": 2097390, "mpc.words": 9409458, "mpc.max_machine_words": 1180730,
        "mpc.violations": 0, "engine.cycles": 7, "engine.segments": 1383309,
        "engine.rooted_attempted": 16544, "engine.rooted_ok": 16518,
        "engine.rooted_fail_share": 0.0015715667311412274,
        "engine.useful_segment_ratio": 0.191054926990282, "engine.walks_ok": 16518,
        "ppr.support": 34}),
    "walks-sparse": ("59673ab1824c0dea010c726a4fa297a339a9a43f962b415d610363d6369bb516", {
        "graph.n": 500, "graph.m": 2476, "mpc.supersteps": 27, "mpc.paper_rounds": 15,
        "mpc.messages": 243203, "mpc.words": 1040805, "mpc.max_machine_words": 8440,
        "mpc.violations": 1, "engine.cycles": 4, "engine.segments": 252099,
        "engine.rooted_attempted": 1013, "engine.rooted_ok": 858,
        "engine.rooted_fail_share": 0.1530108588351431,
        "engine.useful_segment_ratio": 0.027227398760010946, "engine.walks_ok": 858,
        "ppr.support": 0}),
}


def test_every_workload_is_pinned():
    assert set(PINNED) == set(workloads.WORKLOADS)


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
    sha256, counters = PINNED[name]
    assert workloads.walks_sha256(out) == sha256
    assert workloads.counters(g, out) == counters
    assert counters["engine.walks_ok"] > 0


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
