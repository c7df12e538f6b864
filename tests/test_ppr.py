import math

import numpy as np
import pytest
from fractions import Fraction

from walkstitch import oracle
from walkstitch.engine import desk_params, run_budgeted
from walkstitch.fixtures import cycle_graph, gnp, path_graph, two_cliques
from walkstitch.graph import conductance, from_edge_array
from walkstitch.ppr import (PPRError, PPRParams, WalkBatch, approx_ppr,
                            conductance_bound, local_cluster, sweep)
from walkstitch.vectors import ScoreVector


def k2_plus_star():
    """Disjoint union: edge (0,1) and a 4-leaf star centered at 2."""
    edges = np.array([(0, 1), (2, 3), (2, 4), (2, 5), (2, 6)], dtype=np.int64)
    return from_edge_array(7, edges)


class TestEmpiricalDistributions:
    def test_k2_lazy_first_step_half(self):
        g = path_graph(2)
        p = desk_params(length=2, target=100_000, growth=10.0, threshold=25.0,
                        base_budget=50.0, tau=1.5, laziness="half")
        run = run_budgeted(g, 0, p, seed=3)
        walks = run.walks[:100_000]
        q1 = np.bincount(walks[:, 1], minlength=2) / walks.shape[0]
        assert abs(q1[0] - 0.5) <= 0.01


class TestApproxPPR:
    def test_alpha_one_is_indicator(self):
        g = cycle_graph(4)
        params = PPRParams.desk(alpha=1.0, T=4, M=3)
        batch = WalkBatch(np.zeros((3, 5), dtype=np.int64), lazy=True)
        q = approx_ppr(g, 0, params, batch)
        assert q.dense[0] == 1.0 and len(q) == 1

    def test_mass_identity(self):
        g = cycle_graph(6)
        p = desk_params(length=8, target=2000, growth=10.0, threshold=10.0,
                        base_budget=30.0, laziness="half")
        run = run_budgeted(g, 0, p, seed=1)
        for alpha, T in ((0.15, 8), (0.4, 6), (0.9, 3)):
            params = PPRParams.desk(alpha=alpha, T=T, M=2000)
            q = approx_ppr(g, 0, params, WalkBatch(run.walks, lazy=True))
            assert abs(q.mass() - (1 - (1 - alpha) ** (T + 1))) <= 1e-12

    def test_rejects_non_lazy(self):
        g = cycle_graph(4)
        params = PPRParams.desk(alpha=0.2, T=2, M=2)
        batch = WalkBatch(np.zeros((2, 3), dtype=np.int64), lazy=False)
        with pytest.raises(PPRError, match="lazy"):
            approx_ppr(g, 0, params, batch)

    def test_rejects_short_supply(self):
        g = cycle_graph(4)
        params = PPRParams.desk(alpha=0.2, T=2, M=10)
        batch = WalkBatch(np.zeros((5, 3), dtype=np.int64), lazy=True)
        with pytest.raises(PPRError, match="M=10"):
            approx_ppr(g, 0, params, batch)

    def test_k2_star_union_accuracy(self):
        g = k2_plus_star()
        p = desk_params(length=32, target=25_000, growth=4.0, threshold=10.0,
                        base_budget=60.0, tau=1.2, laziness="half")
        run = run_budgeted(g, 0, p, seed=9)
        params = PPRParams.desk(alpha=0.15, T=32, M=20_000)
        q = approx_ppr(g, 0, params, WalkBatch(run.walks, lazy=True))
        exact = oracle.exact_ppr(g, 0, 0.15)
        assert np.abs(q.to_dense(g.n) - exact).max() <= 0.01
        assert all(q.dense[v] == 0.0 for v in (2, 3, 4, 5, 6))  # other component

    def test_theory_parameter_formulas(self):
        params = PPRParams.theory(n=1000, alpha=0.2, eta=0.01)
        log_n = math.log(1000)
        assert params.T == math.ceil(10 * log_n / 0.2)
        assert params.M == math.ceil(1e6 * log_n ** 3 / (0.01 ** 2 * 0.2 ** 2))


class TestTruncationBound:
    def test_entrywise_tail_bound(self):
        g = cycle_graph(8)
        alpha = 0.2
        exact = oracle.exact_ppr(g, 0, alpha, tol=1e-15)
        for T in (4, 8, 16):
            x = np.zeros(g.n)
            x[0] = 1.0
            acc = alpha * x.copy()
            cur = x
            w = alpha
            for _ in range(T):
                cur = oracle.walk_step(g, cur, lazy=True)
                w *= 1 - alpha
                acc += w * cur
            assert np.abs(acc - exact).max() <= (1 - alpha) ** (T + 1)


class TestEmpiricalConcentration:
    def test_multinomial_trials(self):
        # beta-accurate empirical vectors from ceil(100 ln n / beta^2) samples
        g = cycle_graph(8)
        beta = 0.05
        M = math.ceil(100 * math.log(g.n) / beta ** 2)
        q = oracle.exact_step_dist(g, 0, 3, lazy=True)
        rng = np.random.Generator(np.random.PCG64(100))
        passes = sum(
            np.abs(rng.multinomial(M, q) / M - q).max() <= beta
            for _ in range(100))
        assert passes >= 95


class TestSweep:
    def test_indicator_on_clique_vertex(self):
        g = two_cliques(15)
        res = sweep(g, ScoreVector.indicator(5, g.n))
        assert res.ordering == [5]
        assert res.best_j == 1
        assert res.phi_exact == Fraction(14, 14)

    def test_good_scores_reach_planted_cut(self):
        g = two_cliques(15)
        q = ScoreVector.from_dense(oracle.exact_ppr(g, 1, 0.1))
        res = sweep(g, q)
        assert set(res.best_set) == set(range(15))
        assert res.phi_exact == Fraction(1, 211)

    def test_scaling_invariance(self):
        g = two_cliques(6)
        dense = oracle.exact_ppr(g, 2, 0.2)
        r1 = sweep(g, ScoreVector.from_dense(dense))
        r2 = sweep(g, ScoreVector.from_dense(3.5 * dense))
        assert r1.ordering == r2.ordering
        assert r1.best_j == r2.best_j
        assert r1.phi == r2.phi

    def test_incremental_matches_scratch(self):
        g = gnp(120, 0.05, seed=21)
        rng = np.random.Generator(np.random.PCG64(2))
        dense = np.zeros(g.n)
        support = rng.choice(g.n, size=80, replace=False)
        support = [v for v in support if g.degrees[v] > 0]
        dense[support] = rng.random(len(support)) + 0.01
        res = sweep(g, ScoreVector.from_dense(dense))
        for j, phi in enumerate(res.phi_list, start=1):
            prefix = res.ordering[:j]
            vol = int(g.degrees[prefix].sum())
            if min(vol, g.volume - vol) <= 0:
                assert phi is None
            else:
                assert phi == float(conductance(g, prefix))

    def test_c6_arc_prefix(self):
        g = cycle_graph(6)
        q = ScoreVector.from_dense(np.array([0.4, 0.4, 0.4, 0, 0, 0]))
        res = sweep(g, q)
        assert set(res.ordering) == {0, 1, 2}
        assert any(p == pytest.approx(1 / 3) for p in res.phi_list if p is not None)

    def test_empty_support_rejected(self):
        with pytest.raises(PPRError):
            sweep(cycle_graph(4), ScoreVector.from_dense(np.zeros(4)))

    def test_never_beats_brute_force(self):
        for seed in (1, 2, 3):
            g = gnp(12, 0.3, seed=seed)
            if g.degrees.min() == 0:
                continue
            _, best = oracle.brute_conductance_min(g)
            q = ScoreVector.from_dense(oracle.exact_ppr(g, 0, 0.15))
            assert sweep(g, q).phi_exact >= best

    def test_matches_brute_force_on_planted(self):
        g = two_cliques(5)
        _, best = oracle.brute_conductance_min(g)
        q = ScoreVector.from_dense(oracle.exact_ppr(g, 1, 0.1))
        assert sweep(g, q).phi_exact == best == Fraction(1, 21)


class TestLocalCluster:
    def test_recovers_planted_community(self):
        g = two_cliques(15)
        res = local_cluster(g, 1, 0.1, 211, T=32, M=20_000, seed=4)
        assert len(set(res.cut) ^ set(range(15))) <= 1
        assert res.phi_exact <= Fraction(2, 211)
        assert res.bound > res.phi
        assert not res.teleport_dominated

    def test_disconnected_stays_in_component(self):
        g = two_cliques(4, bridged=False)
        res = local_cluster(g, 1, 0.2, 12, T=16, M=5_000, seed=2)
        assert set(res.cut) <= set(range(4))
        assert res.phi_exact == 0  # the whole component is a perfect cut

    def test_alpha_one_teleport_dominated(self):
        g = two_cliques(4)
        res = local_cluster(g, 1, 1.0, 13, seed=0)
        assert res.teleport_dominated
        assert res.cut == [1]

    def test_target_volume_guard(self):
        g = two_cliques(4)
        with pytest.raises(PPRError):
            local_cluster(g, 1, 0.5, 1, seed=0)

    def test_bound_formula(self):
        assert conductance_bound(0.1, 211) == pytest.approx(
            math.sqrt(135 * 0.1 * math.log(30 * math.sqrt(211))))
