"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Statistical tolerances are fixed here, not tuned at
runtime; seeds are pinned.
"""

import math
import time

import numpy as np
import pytest
from fractions import Fraction

from walkstitch import cli, oracle
from walkstitch.engine import (StitchParams, cycle_plan, desk_params,
                               growth_power, run_budgeted, theory_params,
                               uniform_stitching, validate_walks)
from walkstitch.fixtures import (complete_graph, cycle_graph, gnp, two_cliques)
from walkstitch.mpc import KIND_UPDATE, Cluster
from walkstitch.ppr import (PPRParams, WalkBatch, approx_ppr, local_cluster)

CHI2_999_DF3 = 16.266


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {name}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {name}: {detail}"


def test_criterion_1_distribution_correctness():
    """50k rooted non-lazy length-8 walks; per-step TVD vs the exact
    distribution <= 0.02 on C8 and a seeded G(50, 0.2). Runs in well under
    a minute. The engine target is the next power of the growth factor
    above 50k so the calibration ladder has no exponent gap; the first
    50,000 returned walks are evaluated."""
    t0 = time.time()
    params = desk_params(length=8, target=100_000, growth=10.0, threshold=25.0,
                         base_budget=50.0, tau=1.5, fail_policy="tolerate")
    worst_overall = 0.0
    for name, g in (("C8", cycle_graph(8)), ("G(50,0.2)", gnp(50, 0.2, seed=1234))):
        run = run_budgeted(g, 0, params, seed=7)
        assert run.walks.shape[0] >= 50_000
        walks = run.walks[:50_000]
        assert validate_walks(g, walks, lazy=False)
        for t in range(1, 9):
            emp = np.bincount(walks[:, t], minlength=g.n) / 50_000
            tv = oracle.tvd(emp, oracle.exact_step_dist(g, 0, t))
            worst_overall = max(worst_overall, tv)
        assert worst_overall <= 0.02, f"{name}: worst per-step TVD {worst_overall}"
    elapsed = time.time() - t0
    _report("1 distribution-correctness", worst_overall <= 0.02 and elapsed < 60,
            f"worst TVD {worst_overall:.4f} <= 0.02, {elapsed:.1f}s < 60s")


def test_criterion_2_per_path_independence():
    """100k length-2 walks on K3: every path frequency within 0.01 of the
    enumerated probability 1/4; chi-square below the 0.999 quantile."""
    g = complete_graph(3)
    params = desk_params(length=2, target=100_000, growth=10.0, threshold=25.0,
                         base_budget=50.0, tau=1.5)
    run = run_budgeted(g, 0, params, seed=11)
    walks = run.walks[:100_000]
    probs = oracle.enumerate_walks(g, 0, 2)
    from collections import Counter
    freq = Counter(map(tuple, walks.tolist()))
    chi = 0.0
    max_dev = 0.0
    for path, pr in probs.items():
        assert pr == Fraction(1, 4)
        obs = freq.pop(path, 0)
        expect = float(pr) * 100_000
        max_dev = max(max_dev, abs(obs / 100_000 - float(pr)))
        chi += (obs - expect) ** 2 / expect
    assert not freq, "walk outside the enumerated support"
    _report("2 per-path-independence", max_dev <= 0.01 and chi < CHI2_999_DF3,
            f"max |freq-1/4| {max_dev:.4f} <= 0.01, chi2 {chi:.2f} < {CHI2_999_DF3}")


def test_criterion_3_budget_laws():
    """Across every calibration cycle of a 4-cycle run (growth 10, target
    1000) on C8: B(root,1) = ceil(base(root) + growth^i) exactly, and every
    trusted (visit count >= threshold) budget lies inside the confidence
    envelope [(base(v) + growth^i * P)(surplus)^(3k-4),
    (base(v) + growth^i * P)(surplus)^(3k-2)] with exact step
    probabilities P. Untrusted entries in the probabilistic-failure window
    are counted and reported, not asserted."""
    g = cycle_graph(8)
    root = 0
    p = StitchParams(length=4, target=1000, growth=10.0, threshold=25.0,
                     base_budget=20.0, surplus=2.0, laziness="none",
                     mode="theory", fail_policy="tolerate")
    run = run_budgeted(g, root, p, seed=5, keep_history=True)
    assert run.metrics.cycles == 4
    b0 = p.base_budget * g.degrees.astype(float)
    checked = flagged = 0
    for ci, stats in enumerate(run.cycle_stats[:-1]):
        expo = stats.exponent_used
        lam_pow = growth_power(p.growth, expo)
        table = run.budget_history[ci + 1]
        assert table[root, 0] == math.ceil(b0[root] + lam_pow), \
            f"root budget law violated at cycle {ci + 1}"
        walks = run.rooted_by_cycle[ci]
        for k in range(1, p.length + 1):
            kappa = np.bincount(walks[:, k - 1], minlength=g.n)
            step_probs = oracle.exact_step_dist(g, root, k - 1)
            for v in range(g.n):
                ideal = b0[v] + lam_pow * step_probs[v]
                if kappa[v] >= p.threshold:
                    lo = ideal * p.surplus ** (3 * k - 4)
                    hi = ideal * p.surplus ** (3 * k - 2)
                    got = table[v, k - 1]
                    assert lo <= got <= hi, \
                        f"envelope miss at v={v} k={k} cycle={ci + 1}: " \
                        f"{got} not in [{lo:.1f}, {hi:.1f}]"
                    checked += 1
                elif lam_pow * step_probs[v] > b0[v] * (p.surplus - 1):
                    flagged += 1
    _report("3 budget-laws", checked > 0,
            f"root law exact over 3 cycles; {checked} envelope checks passed, "
            f"{flagged} probabilistic-failure windows flagged")


def test_criterion_4_no_fail_at_theory_parameters():
    """20 seeded abort-mode runs on C8 with analysis-grade parameters
    (scale 1, for which base >= 3*growth*threshold*sqrt(threshold/(20C ln n))
    holds) complete with zero failures."""
    g = cycle_graph(8)
    p = theory_params(8, 2, 2.0, 1.0, target=8, fail_policy="abort")
    # the no-fail floor must hold for the run to be meaningful
    floor = 3 * p.growth * p.threshold * math.sqrt(
        p.threshold / (20 * p.confidence * math.log(8)))
    assert p.base_budget >= floor
    t0 = time.time()
    for seed in range(20):
        run = run_budgeted(g, 0, p, seed=seed)   # StitchFailure would raise
        assert run.metrics.failure_rate_final == 0.0
    _report("4 no-fail-theory", True,
            f"20/20 abort-mode runs clean in {time.time() - t0:.1f}s "
            f"(base {p.base_budget:.0f} >= floor {floor:.0f})")


def test_criterion_5_round_accounting():
    """length 16, growth 10, target 1000: exactly 4 stitch cycles of
    2*log2(16) = 8 supersteps each plus one budget-update round per
    calibration cycle; the ledger matches the closed form exactly."""
    g = cycle_graph(8)
    p = desk_params(length=16, target=1000, growth=10.0, threshold=10.0,
                    base_budget=30.0, tau=1.3)
    cluster = Cluster()
    run = run_budgeted(g, 0, p, cluster=cluster, seed=3)
    calib, _ = cycle_plan(1000, 10.0)
    assert calib == 3
    expected = (calib + 1) * (2 * 4) + calib
    kinds = [r.kind for r in cluster.ledger.rounds]
    per_cycle = ["stitch-request", "stitch-reply"] * 4
    expected_kinds = (per_cycle + [KIND_UPDATE]) * calib + per_cycle
    ok = (run.metrics.supersteps == expected == 35
          and kinds == expected_kinds
          and run.metrics.paper_rounds == (calib + 1) * 4 + calib)
    _report("5 round-accounting", ok,
            f"supersteps {run.metrics.supersteps} == {expected}, ledger kind "
            f"sequence matches, paper rounds {run.metrics.paper_rounds}")


def test_criterion_6_ppr_additive_error():
    """34-vertex two-community fixture, alpha 0.15, M = 200000 lazy walks
    of length T = 64: max_v |q(v) - exact(v)| <= 0.01 and the mass identity
    sum(q) = 1 - (1-alpha)^(T+1) to 1e-12."""
    t0 = time.time()
    g = two_cliques(17)
    assert g.n == 34
    alpha, T, M = 0.15, 64, 200_000
    params = desk_params(length=64, target=220_000, growth=4.0, threshold=15.0,
                         base_budget=75.0, tau=1.15, laziness="half")
    run = run_budgeted(g, 1, params, seed=99)
    assert run.walks.shape[0] >= M
    q = approx_ppr(g, 1, PPRParams.desk(alpha=alpha, T=T, M=M),
                   WalkBatch(run.walks, lazy=True))
    exact = oracle.exact_ppr(g, 1, alpha, tol=1e-14)
    err = float(np.abs(q.to_dense(g.n) - exact).max())
    mass_gap = abs(q.mass() - (1 - (1 - alpha) ** (T + 1)))
    _report("6 ppr-additive-error", err <= 0.01 and mass_gap <= 1e-12,
            f"max abs error {err:.5f} <= 0.01, mass gap {mass_gap:.2e} <= 1e-12, "
            f"{time.time() - t0:.1f}s")


def test_criterion_7_truncation_bound():
    """With exact step distributions, the truncated geometric sum is within
    (1-alpha)^(T+1) of the full PageRank vector entrywise, T in {8,16,32}."""
    g = two_cliques(17)
    alpha = 0.15
    exact = oracle.exact_ppr(g, 1, alpha, tol=1e-15)
    worst_margin = math.inf
    for T in (8, 16, 32):
        x = np.zeros(g.n)
        x[1] = 1.0
        acc = alpha * x.copy()
        cur = x
        w = alpha
        for _ in range(T):
            cur = oracle.walk_step(g, cur, lazy=True)
            w *= 1 - alpha
            acc += w * cur
        bound = (1 - alpha) ** (T + 1)
        err = float(np.abs(acc - exact).max())
        assert err <= bound, f"T={T}: {err} > {bound}"
        worst_margin = min(worst_margin, bound - err)
    _report("7 truncation-bound", True,
            f"entrywise tail bound holds for T in (8,16,32); "
            f"smallest slack {worst_margin:.2e}")


def test_criterion_8_clustering_recovery():
    """Two 15-cliques joined by a bridge, seed inside clique A, alpha 0.1,
    target volume 211: the returned cut has conductance <= 2/211, differs
    from clique A by at most one vertex, and the reported bound
    sqrt(135 * alpha * ln(30 sqrt(211))) exceeds the achieved value."""
    t0 = time.time()
    g = two_cliques(15)
    res = local_cluster(g, 1, 0.1, 211, T=64, M=50_000, seed=4)
    symdiff = len(set(res.cut) ^ set(range(15)))
    ok = (res.phi_exact <= Fraction(2, 211) and symdiff <= 1
          and res.bound > res.phi)
    _report("8 clustering-recovery", ok,
            f"phi {res.phi_exact} <= 2/211, symdiff {symdiff} <= 1, "
            f"bound {res.bound:.2f} > {res.phi:.4f}, {time.time() - t0:.1f}s")


def test_criterion_9_locality_advantage():
    """Seeded G(10^4, 3e-3), one root, equal rooted-walk target: the
    all-vertex uniform-stitching baseline spends at least 5x the total
    budget of the local budgeted run. Runs in well under 5 minutes."""
    t0 = time.time()
    g = gnp(10_000, 3e-3, seed=77)
    root = next(v for v in range(g.n) if 25 <= g.degrees[v] <= 35)
    target = 1000
    local_params = desk_params(length=4, target=target, growth=10.0,
                               threshold=3.0, base_budget=0.5, tau=1.6)
    local = run_budgeted(g, root, local_params, seed=21)
    b0_uniform = math.ceil(target / g.degree(root))
    baseline = uniform_stitching(g, b0_uniform, 4, seed=21, tau=1.0)
    assert baseline.ok_per_vertex[root] + sum(
        int((chunk[:, 0] == root).sum()) for _, chunk in
        baseline.result.failed_chunks) >= target  # same rooted-walk target
    ratio = baseline.total_budget / local.metrics.total_budget
    elapsed = time.time() - t0
    _report("9 locality-advantage", ratio >= 5.0 and elapsed < 300,
            f"baseline budget {baseline.total_budget:.3e} >= 5x local "
            f"{local.metrics.total_budget:.3e} (ratio {ratio:.1f}), "
            f"{elapsed:.0f}s < 300s")


def test_criterion_10_determinism(tmp_path):
    """Re-running any command with an identical config and seed reproduces
    walk files and reports byte-identically."""
    from walkstitch.graph import save_cache
    cache = tmp_path / "g.lwg"
    save_cache(two_cliques(15), str(cache))

    def run_twice(argv, outputs):
        assert cli.main([str(a) for a in argv]) == 0
        first = [p.read_bytes() for p in outputs]
        assert cli.main([str(a) for a in argv]) == 0
        return all(p.read_bytes() == b for p, b in zip(outputs, first))

    walks_ok = run_twice(
        ["walks", "--graph", cache, "--root", 1, "--length", 8,
         "--target", 500, "--theta", 20, "--b0", 10, "--seed", 13,
         "--out", tmp_path / "w.txt", "--report", tmp_path / "rw.json"],
        [tmp_path / "w.txt", tmp_path / "rw.json"])
    ppr_ok = run_twice(
        ["ppr", "--graph", cache, "--root", 1, "--alpha", 0.2, "--T", 8,
         "--M", 2000, "--target", 2500, "--growth", 4, "--theta", 10,
         "--b0", 40, "--tau", 1.2, "--laziness", "half", "--seed", 13,
         "--out", tmp_path / "q.csv", "--report", tmp_path / "rq.json"],
        [tmp_path / "q.csv", tmp_path / "rq.json"])
    cluster_ok = run_twice(
        ["cluster", "--graph", cache, "--seed-vertex", 1, "--alpha", 0.1,
         "--target-volume", 211, "--T", 16, "--M", 4000, "--seed", 13,
         "--out", tmp_path / "set.txt", "--report", tmp_path / "rc.json"],
        [tmp_path / "set.txt", tmp_path / "rc.json"])
    _report("10 determinism", walks_ok and ppr_ok and cluster_ok,
            "walks, ppr and cluster outputs byte-identical across re-runs")
