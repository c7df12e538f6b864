"""The benchmark's three workloads: inputs made from a seed, the timed run,
output checks and the deterministic counters of a finished run.

Import ``checkout.import_walkstitch()`` first. Every program call below goes
through a module attribute (``engine.run_budgeted``, ``graph.load_cache``,
...) so the tracing wrappers see it.

Sizes are a tenth or less of the acceptance-suite runs they mirror, so one
run takes about two seconds and a few hundred MB on a 2-core box; see
README.md for what each workload stresses and why.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import numpy as np

from walkstitch import engine, fixtures, mpc, oracle, ppr

SIZES = {
    "ppr-cliques": {
        "full": dict(k=17, length=64, target=16_000, growth=4.0, theta=15.0, b0=10.0,
                     tau=1.15, alpha=0.15, T=64, M=14_000),
        "tiny": dict(k=17, length=16, target=16_000, growth=4.0, theta=15.0, b0=10.0,
                     tau=1.15, alpha=0.15, T=16, M=14_000),
    },
    "locality-gnp": {
        "full": dict(n=1_000, degree=30, length=4, target=1_000, growth=10.0, theta=3.0,
                     b0=0.5, tau=1.6, min_ratio=5.0),
        "tiny": dict(n=200, degree=30, length=4, target=1_000, growth=10.0, theta=3.0,
                     b0=0.5, tau=1.6, min_ratio=5.0),
    },
    "walks-sparse": {
        "full": dict(n=3_000, lines=15_000, length=8, target=1_000, growth=10.0, theta=3.0,
                     b0=0.5, tau=1.6, machines=64, capacity=1 << 13, min_rooted_ok=900),
        "tiny": dict(n=500, lines=2_500, length=8, target=1_000, growth=10.0, theta=3.0,
                     b0=0.5, tau=1.6, machines=64, capacity=1 << 13, min_rooted_ok=800),
    },
}


@dataclass
class Outcome:
    """What one timed run produced."""

    rooted: List[engine.RunResult] = field(default_factory=list)
    uniform: List[engine.UniformResult] = field(default_factory=list)
    clusters: List[mpc.Cluster] = field(default_factory=list)
    scores: object = None            # ppr ScoreVector, ppr-cliques only
    cut: object = None               # ppr SweepResult, ppr-cliques only

    def walk_arrays(self) -> List[Tuple[np.ndarray, bool]]:
        """(returned walks, lazy) of every engine call, in call order."""
        return ([(r.walks, r.params.lazy) for r in self.rooted]
                + [(u.result.verts, u.params.lazy) for u in self.uniform])


Check = Tuple[str, bool, str]   # (name, passed, detail)


def _edge_text(us: np.ndarray, vs: np.ndarray) -> str:
    return "".join(f"{a} {b}\n" for a, b in zip(us.tolist(), vs.tolist()))


def _graph_edges(g) -> Tuple[np.ndarray, np.ndarray]:
    """Each undirected edge once, as (u, v) with u < v."""
    us = np.repeat(np.arange(g.n, dtype=np.int64), g.degrees)
    keep = us < g.neighbors
    return us[keep], g.neighbors[keep]


def _compact(g, original_id: int) -> int:
    return g.id_map.index(original_id)


def _walk_checks(g, out: Outcome) -> List[Check]:
    checks = []
    for i, (walks, lazy) in enumerate(out.walk_arrays()):
        ok = engine.validate_walks(g, walks, lazy=lazy)
        checks.append((f"walks[{i}] valid", ok, f"{walks.shape[0]} walks, every step an edge"
                       + (" or a self-step" if lazy else "")))
    return checks


# --- ppr-cliques -----------------------------------------------------------

def cliques_input(seed: int, p: dict) -> str:
    return _edge_text(*_graph_edges(fixtures.two_cliques(p["k"])))


def cliques_plan(g, p: dict) -> dict:
    return {"root": _compact(g, 1),
            "clique_a": {_compact(g, v) for v in range(p["k"])}}


def cliques_run(g, plan: dict, seed: int, p: dict) -> Outcome:
    params = engine.desk_params(length=p["length"], target=p["target"], growth=p["growth"],
                                threshold=p["theta"], base_budget=p["b0"], tau=p["tau"],
                                laziness="half")
    cluster = mpc.Cluster()
    run = engine.run_budgeted(g, plan["root"], params, cluster=cluster, seed=seed)
    q = ppr.approx_ppr(g, plan["root"], ppr.PPRParams.desk(alpha=p["alpha"], T=p["T"], M=p["M"]),
                       ppr.WalkBatch(run.walks, lazy=True))
    cut = ppr.sweep(g, q)
    return Outcome(rooted=[run], clusters=[cluster], scores=q, cut=cut)


def cliques_check(g, plan: dict, out: Outcome, p: dict) -> List[Check]:
    exact = oracle.exact_ppr(g, plan["root"], p["alpha"], tol=1e-14)
    err = float(np.abs(out.scores.to_dense(g.n) - exact).max())
    mass_gap = abs(out.scores.mass() - (1 - (1 - p["alpha"]) ** (p["T"] + 1)))
    symdiff = len(set(out.cut.best_set) ^ plan["clique_a"])
    return _walk_checks(g, out) + [
        ("ppr error", err <= 0.01, f"max |q - exact| {err:.5f} <= 0.01"),
        ("ppr mass", mass_gap <= 1e-12, f"mass gap {mass_gap:.2e} <= 1e-12"),
        ("sweep cut", symdiff <= 1, f"cut differs from clique A by {symdiff} <= 1 vertices"),
    ]


# --- locality-gnp ----------------------------------------------------------

def gnp_input(seed: int, p: dict) -> str:
    g = fixtures.gnp(p["n"], p["degree"] / p["n"], seed=seed)
    return _edge_text(*_graph_edges(g))


def gnp_plan(g, p: dict) -> dict:
    # the root's degree fixes the uniform baseline's budget, so pin it to the
    # mean degree: every seed then does the same amount of work
    gap = np.abs(g.degrees - p["degree"])
    return {"root": int(np.argmin(gap))}


def gnp_run(g, plan: dict, seed: int, p: dict) -> Outcome:
    root = plan["root"]
    params = engine.desk_params(length=p["length"], target=p["target"], growth=p["growth"],
                                threshold=p["theta"], base_budget=p["b0"], tau=p["tau"])
    local_cluster, uniform_cluster = mpc.Cluster(), mpc.Cluster()
    local = engine.run_budgeted(g, root, params, cluster=local_cluster, seed=seed)
    b0_uniform = math.ceil(p["target"] / g.degree(root))
    uniform = engine.uniform_stitching(g, b0_uniform, p["length"], cluster=uniform_cluster,
                                       seed=seed, tau=1.0)
    return Outcome(rooted=[local], uniform=[uniform],
                   clusters=[local_cluster, uniform_cluster])


def gnp_check(g, plan: dict, out: Outcome, p: dict) -> List[Check]:
    root = plan["root"]
    local, uniform = out.rooted[0], out.uniform[0]
    reached = int(uniform.ok_per_vertex[root]) + sum(
        int((chunk[:, 0] == root).sum()) for _, chunk in uniform.result.failed_chunks)
    ratio = uniform.total_budget / local.metrics.total_budget
    return _walk_checks(g, out) + [
        ("uniform target", reached >= p["target"],
         f"root's served + failed uniform walks {reached} >= {p['target']}"),
        ("locality ratio", ratio >= p["min_ratio"],
         f"uniform/local budget {ratio:.2f} >= {p['min_ratio']}"),
    ]


# --- walks-sparse ----------------------------------------------------------

def sparse_input(seed: int, p: dict) -> str:
    # a multigraph as real edge lists come: duplicate lines and self-loops,
    # which ingestion merges and drops
    rng = np.random.Generator(np.random.PCG64(seed))
    ends = rng.integers(0, p["n"], size=(p["lines"], 2))
    return "# seeded sparse multigraph\n" + _edge_text(ends[:, 0], ends[:, 1])


def sparse_plan(g, p: dict) -> dict:
    return {"root": int(np.argmax(g.degrees))}


def sparse_run(g, plan: dict, seed: int, p: dict) -> Outcome:
    params = engine.desk_params(length=p["length"], target=p["target"], growth=p["growth"],
                                threshold=p["theta"], base_budget=p["b0"], tau=p["tau"])
    cluster = mpc.Cluster(mpc.ClusterConfig(num_machines=p["machines"],
                                            machine_capacity=p["capacity"],
                                            enforce_capacity=False))
    run = engine.run_budgeted(g, plan["root"], params, cluster=cluster, seed=seed)
    return Outcome(rooted=[run], clusters=[cluster])


def sparse_check(g, plan: dict, out: Outcome, p: dict) -> List[Check]:
    run, cluster = out.rooted[0], out.clusters[0]
    cycles = run.metrics.cycles
    expected = cycles * 2 * int(math.log2(p["length"])) + (cycles - 1)
    steps = cluster.ledger.superstep_count
    ok = run.metrics.rooted_ok
    return _walk_checks(g, out) + [
        ("supersteps", steps == expected,
         f"ledger supersteps {steps} == cycles*2*log2(L) + cycles-1 = {expected}"),
        ("rooted ok", ok >= p["min_rooted_ok"], f"rooted ok {ok} >= {p['min_rooted_ok']}"),
    ]


@dataclass(frozen=True)
class Workload:
    make_input: Callable[[int, dict], str]
    plan: Callable
    run: Callable[..., Outcome]
    check: Callable[..., List[Check]]


WORKLOADS: Dict[str, Workload] = {
    "ppr-cliques": Workload(cliques_input, cliques_plan, cliques_run, cliques_check),
    "locality-gnp": Workload(gnp_input, gnp_plan, gnp_run, gnp_check),
    "walks-sparse": Workload(sparse_input, sparse_plan, sparse_run, sparse_check),
}


def walks_sha256(out: Outcome) -> str:
    """Fingerprint of every returned walk, in call and row order."""
    h = hashlib.sha256()
    for walks, _ in out.walk_arrays():
        arr = np.ascontiguousarray(walks, dtype="<i4")
        h.update(np.array(arr.shape, dtype="<i8").tobytes())
        h.update(arr.tobytes())
    return h.hexdigest()


def counters(g, out: Outcome) -> Dict[str, float]:
    """Deterministic counts of one run: same seed, same code, same numbers."""
    rounds = [r for c in out.clusters for r in c.ledger.rounds]
    metrics = [r.metrics for r in out.rooted] + [u.metrics for u in out.uniform]
    segments = sum(m.total_budget for m in metrics)
    walks_ok = sum(w.shape[0] for w, _ in out.walk_arrays())
    useful = sum(w.shape[0] * (w.shape[1] - 1) for w, _ in out.walk_arrays())
    attempted = sum(r.metrics.rooted_attempted_final for r in out.rooted)
    rooted_ok = sum(r.metrics.rooted_ok for r in out.rooted)
    return {
        "graph.n": g.n,
        "graph.m": g.m,
        "mpc.supersteps": sum(c.ledger.superstep_count for c in out.clusters),
        "mpc.paper_rounds": sum(c.ledger.paper_rounds() for c in out.clusters),
        "mpc.messages": sum(r.messages_sent for r in rounds),
        "mpc.words": sum(r.total_words for r in rounds),
        "mpc.max_machine_words": max((r.max_words_per_machine for r in rounds), default=0),
        "mpc.violations": sum(len(c.ledger.violations) for c in out.clusters),
        "engine.cycles": sum(m.cycles for m in metrics),
        "engine.segments": segments,
        "engine.rooted_attempted": attempted,
        "engine.rooted_ok": rooted_ok,
        "engine.rooted_fail_share": 1.0 - rooted_ok / attempted if attempted else 0.0,
        "engine.useful_segment_ratio": useful / segments,
        "engine.walks_ok": walks_ok,
        "ppr.support": len(out.scores) if out.scores is not None else 0,
    }
