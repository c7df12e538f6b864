import math
import tracemalloc

import numpy as np
import pytest

from walkstitch import engine, oracle
from walkstitch.engine import (ParameterError, StitchFailure,
                               StitchParams, cycle_plan, desk_params,
                               dyadic_decompose, growth_power, init_walks,
                               initial_budgets, label_multipliers, round_length,
                               run_budgeted, run_multi_source, stitch,
                               theory_params, uniform_stitching, update_budgets,
                               validate_walks)
from walkstitch.fixtures import (complete_graph, cycle_graph, gnp, path_graph,
                                 star_graph, two_cliques)
from walkstitch.mpc import Cluster
from walkstitch.rng import INIT_STREAM, substream

# chi-square 0.999 quantiles by degrees of freedom
CHI2_999 = {1: 10.828, 2: 13.816, 3: 16.266, 54: 91.87, 255: 330.52}


class TestTheoryParams:
    def test_reference_point(self):
        # n = e^10 makes ln n = 10, so the formulas evaluate in round numbers
        p = theory_params(math.e ** 10, 4, 2.0, 1.0, target=100)
        assert p.threshold == pytest.approx(1600.0, rel=1e-9)
        assert p.base_budget == pytest.approx(38400.0, rel=1e-9)
        assert p.surplus == pytest.approx(1.0 + math.sqrt(0.125), rel=1e-12)

    def test_length_rounds_up(self):
        p = theory_params(100, 5, 2.0, target=10)
        assert p.length == 8
        assert round_length(5) == 8
        assert round_length(8) == 8

    def test_length_limited_by_int16_labels(self):
        assert desk_params(length=1 << 14, target=10).length == 1 << 14
        with pytest.raises(ParameterError, match=r"exceeds 2\^14, as labels are int16"):
            desk_params(length=(1 << 14) + 1, target=10)   # rounds up to 2^15
        with pytest.raises(ParameterError, match="int16"):
            theory_params(100, 1 << 15, 2.0, target=10)

    def test_growth_must_exceed_one(self):
        with pytest.raises(ParameterError):
            theory_params(100, 4, 1.0, target=10)

    def test_doubling_confidence_doubles_threshold_only(self):
        p1 = theory_params(1000, 4, 2.0, 1.0, target=10)
        p2 = theory_params(1000, 4, 2.0, 2.0, target=10)
        assert p2.threshold == 2 * p1.threshold
        assert p2.surplus == p1.surplus  # 20C log n / theta is C-free

    def test_scale_keeps_no_fail_floor(self):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            theory_params(100, 4, 2.0, target=10, scale=0.5)
        with pytest.warns(RuntimeWarning, match="no-fail floor"):
            theory_params(100, 4, 2.0, target=10, scale=3.0)


class TestLabelMultipliers:
    def test_theory_powers(self):
        p = StitchParams(length=4, target=10, growth=2.0, threshold=5.0,
                         base_budget=2.0, surplus=1.5, mode="theory",
                         fail_policy="abort")
        assert list(label_multipliers(p)) == [1.5 ** e for e in (0, 3, 6, 9)]

    def test_practical_dyadic_exponents(self):
        p = desk_params(length=8, target=10, tau=1.3)
        mult = label_multipliers(p)
        # exponent log2(8) - v2(k-1) for k > 1, 0 for the finished label 1
        assert np.allclose(mult, [1.3 ** e for e in (0, 3, 2, 3, 1, 3, 2, 3)])

    def test_practical_serving_headroom(self):
        # every request label k has its continuation label k + 2^(j-1)
        # stocked with at least one extra surplus factor
        for length in (2, 4, 8, 16, 64):
            p = desk_params(length=length, target=10, tau=1.2)
            mult = label_multipliers(p)
            for j in range(1, length.bit_length()):
                s = 1 << (j - 1)
                for k in range(1, length + 1 - s, 2 * s):
                    assert mult[k + s - 1] >= mult[k - 1] * p.surplus - 1e-12


class TestBudgets:
    def test_initial_budgets_ceil_and_isolated(self):
        from walkstitch.graph import load_edge_list
        g = load_edge_list("0 1\n2 2")  # vertex 2 isolated after loop drop
        p = desk_params(length=2, target=10, base_budget=1.5, tau=1.0)
        b = initial_budgets(g, p)
        assert b[0, 0] == math.ceil(1.5)
        assert b[2].sum() == 0

    def test_update_root_law(self, calibration):
        g = cycle_graph(8)
        p = desk_params(length=4, target=1000, growth=10.0, threshold=25.0,
                        base_budget=50.0, tau=1.5)
        run_budgeted(g, 0, p, seed=1)
        b0_root = p.base_budget * g.degree(0)
        assert calibration.updates
        for _, exponent, table in calibration.updates:
            lam_pow = growth_power(p.growth, exponent)
            assert table[0, 0] == math.ceil(b0_root + lam_pow)

    def test_update_arithmetic_example(self):
        # threshold 10, kappa 20, |W| 100, growth^i 1000, base 5: ceil(5+200)=205
        g = path_graph(6)  # degree(2) = 2; base 2.5 per degree gives base(2)=5
        p = StitchParams(length=2, target=10, growth=10.0, threshold=10.0,
                         base_budget=2.5, surplus=1.0, mode="practical")
        walks = np.zeros((100, 3), dtype=np.int64)
        walks[:, 0] = 1
        walks[:20, 0] = 2   # kappa(2, k=1) = 20 >= theta
        walks[:, 1] = 3
        walks[:, 2] = 4
        table = update_budgets(walks, 3, p, g)
        assert table[2, 0] == 205

    def test_update_else_branch(self):
        g = cycle_graph(6)
        p = StitchParams(length=2, target=10, growth=10.0, threshold=50.0,
                         base_budget=7.3, surplus=1.4, mode="theory",
                         fail_policy="tolerate")
        walks = np.zeros((10, 3), dtype=np.int64)  # kappa(v,k) < theta everywhere
        walks[:, 1] = 1
        walks[:, 2] = 0
        table = update_budgets(walks, 2, p, g)
        mult = label_multipliers(p)
        for v in (2, 3, 4):
            for k in (1, 2):
                assert table[v, k - 1] == math.ceil(7.3 * 2 * mult[k - 1])

    def test_update_rejects_empty_or_short(self):
        g = cycle_graph(4)
        p = desk_params(length=4, target=10)
        with pytest.raises(Exception):
            update_budgets(np.zeros((0, 5), dtype=np.int64), 1, p, g)
        with pytest.raises(Exception):
            update_budgets(np.zeros((3, 3), dtype=np.int64), 1, p, g)


class TestCyclePlan:
    def test_exact_power(self):
        assert cycle_plan(1000, 10.0) == (3, 3)

    def test_between_powers(self):
        assert cycle_plan(50_000, 10.0) == (4, 5)

    def test_single_walk(self):
        assert cycle_plan(1, 10.0) == (0, 0)

    def test_growth_fraction(self):
        assert cycle_plan(8, 2.0) == (3, 3)
        assert cycle_plan(9, 2.0) == (3, 4)


class TestInitWalks:
    def test_k2_forced_neighbor(self):
        g = path_graph(2)
        p = desk_params(length=2, target=10, tau=1.0)
        b = np.array([[5, 0], [0, 0]], dtype=np.int64)
        start, end, labels = init_walks(g, b, p, master_seed=1)
        assert (start.dtype, end.dtype, labels.dtype) == (np.int32, np.int32, np.int16)
        assert start.shape == end.shape == labels.shape == (5,)
        assert np.all(start == 0) and np.all(end == 1)
        assert np.all(labels == 1)

    def test_neighbor_split_concentrates(self):
        g = path_graph(3)
        p = desk_params(length=1, target=10, tau=1.0)
        b = np.array([[0], [10_000], [0]], dtype=np.int64)
        _, end, _ = init_walks(g, b, p, master_seed=3)
        counts = np.bincount(end, minlength=3)
        assert 4600 <= counts[0] <= 5400
        assert 4600 <= counts[2] <= 5400

    def test_lazy_self_steps_concentrate(self):
        g = path_graph(3)
        p = desk_params(length=1, target=10, tau=1.0, laziness="half")
        b = np.array([[0], [10_000], [0]], dtype=np.int64)
        _, end, _ = init_walks(g, b, p, master_seed=3)
        stays = int((end == 1).sum())
        assert 4600 <= stays <= 5400

    def test_isolated_with_budget_rejected(self):
        from walkstitch.graph import load_edge_list
        g = load_edge_list("0 1\n2 2")
        p = desk_params(length=1, target=10, tau=1.0)
        b = np.array([[1], [1], [1]], dtype=np.int64)
        with pytest.raises(Exception, match="isolated"):
            init_walks(g, b, p, master_seed=0)

    @pytest.mark.parametrize("laziness", ["none", "half"])
    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_slices_draw_the_one_call_streams(self, monkeypatch, chunk, laziness):
        # the center (degree 5) has a run of 150 segments, which spans
        # several slices; the leaves have degree 1 and draw nothing
        g = star_graph(5)
        p = desk_params(length=2, target=1, tau=1.0, laziness=laziness)
        b = np.array([[100, 50], [3, 0], [0, 2], [1, 1], [0, 0], [4, 0]], dtype=np.int64)
        monkeypatch.setattr(engine, "_CHUNK", chunk)
        got = init_walks(g, b, p, master_seed=9, cycle=2)
        for arr, ref in zip(got, one_call_init_walks(g, b, p, master_seed=9, cycle=2)):
            assert arr.dtype == ref.dtype
            assert np.array_equal(arr, ref)

    def test_physical_memory_checked_before_allocating(self, monkeypatch):
        # level 0's 800 000 bytes would fit in 400 pages; the whole stitch,
        # at 30 bytes a segment, fits in 600 but not in 400
        pages = {"SC_PHYS_PAGES": 400, "SC_PAGE_SIZE": 4096}
        monkeypatch.setattr(engine.os, "sysconf", pages.__getitem__)
        g = cycle_graph(4)
        p = desk_params(length=2, target=1, tau=1.0)
        b = np.full((4, 2), 10_000, dtype=np.int64)
        with pytest.raises(engine.EngineError,
                           match="80000 segments need 2400000 bytes, more than the "
                                 "1638400 bytes of physical memory"):
            init_walks(g, b, p, master_seed=0)
        pages["SC_PHYS_PAGES"] = 600
        assert init_walks(g, b, p, master_seed=0)[0].size == 80_000


def one_call_init_walks(g, budgets, params, master_seed, cycle):
    """Level 0 drawn by one call over all segments: the picks, then the lazy
    coins. init_walks' slices must reproduce these streams exactly."""
    per_vertex = budgets.sum(axis=1)
    labels = np.repeat(
        np.tile(np.arange(1, params.length + 1, dtype=np.int16), g.n), budgets.ravel())
    starts = np.repeat(np.arange(g.n, dtype=np.int32), per_vertex)
    gen = substream(master_seed, INIT_STREAM, cycle)
    picks = gen.integers(0, np.repeat(g.degrees, per_vertex))
    picks += np.repeat(g.offsets[:-1], per_vertex)
    ends = g.neighbors[picks].astype(np.int32)
    if params.lazy:
        ends = np.where(gen.random(starts.size) < 0.5, starts, ends)
    return starts, ends, labels


class TestStitch:
    def test_k2_forced_walk(self):
        g = path_graph(2)
        p = StitchParams(length=2, target=1, growth=2.0, threshold=1.0,
                         base_budget=1.0, surplus=1.5, mode="theory",
                         fail_policy="abort")
        b = np.array([[1, 0], [0, 1]], dtype=np.int64)
        res = stitch(g, b, p, Cluster(), master_seed=5)
        assert res.verts.tolist() == [[0, 1, 0]]

    def test_forced_exhaustion_aborts(self):
        g = cycle_graph(4)
        p = StitchParams(length=2, target=1, growth=2.0, threshold=1.0,
                         base_budget=1.0, surplus=1.5, mode="theory",
                         fail_policy="abort")
        vals = np.zeros((4, 2), dtype=np.int64)
        vals[0, 0] = 1
        with pytest.raises(StitchFailure) as exc:
            stitch(g, vals, p, Cluster(), master_seed=5)
        assert exc.value.phase == 1
        assert exc.value.label == 2
        assert exc.value.deficit == 1
        assert exc.value.vertex in (1, 3)

    def test_int32_segment_limit_checked_before_allocating(self):
        g = cycle_graph(4)
        p = StitchParams(length=2, target=1, growth=2.0, threshold=1.0,
                         base_budget=1.0, surplus=1.5)
        budgets = np.full((4, 2), 1 << 37, dtype=np.int64)   # 2^40 segments
        with pytest.raises(engine.EngineError, match="exceed the int32 segment index"):
            stitch(g, budgets, p, Cluster(), master_seed=5)

    def test_tolerate_returns_valid_walks(self):
        g = complete_graph(3)
        p = StitchParams(length=2, target=1, growth=2.0, threshold=1.0,
                         base_budget=1.0, surplus=1.5, mode="theory",
                         fail_policy="tolerate")
        vals = np.full((3, 2), 50, dtype=np.int64)
        res = stitch(g, vals, p, Cluster(), master_seed=11)
        assert res.verts.shape[1] == 3
        assert validate_walks(g, res.verts, lazy=False)
        served = sum(req.size for req, _ in res.levels)
        assert served == res.verts.shape[0]  # L = 2 is a single phase

    def test_request_reply_supersteps(self):
        g = complete_graph(3)
        p = desk_params(length=8, target=1, tau=1.0)
        vals = np.full((3, 8), 20, dtype=np.int64)
        cluster = Cluster()
        stitch(g, vals, p, cluster, master_seed=2)
        kinds = [r.kind for r in cluster.ledger.rounds]
        assert kinds == ["stitch-request", "stitch-reply"] * 3  # log2(8) phases

    def test_short_stock_served_fairly(self):
        # 4 leaves x 2500 requests at the center, which holds 5000 segments:
        # every leaf must get about half of its requests served, whatever
        # its position among the requesters
        g = star_graph(4)
        p = desk_params(length=2, target=1, tau=1.0)
        vals = np.zeros((5, 2), dtype=np.int64)
        vals[1:, 0] = 2500
        vals[0, 1] = 5000
        res = stitch(g, vals, p, Cluster(), master_seed=6)
        share = np.bincount(res.starts, minlength=5)[1:] / 2500
        assert sum(req.size for req, _ in res.levels) == 5000
        assert np.all(np.abs(share - 0.5) <= 0.04)

    @pytest.mark.parametrize("mode", ["practical", "theory"])
    def test_index_tree_and_walks_are_int32(self, mode):
        g = cycle_graph(8)
        p = desk_params(length=8, target=1, base_budget=20.0, tau=1.01, mode=mode)
        res = stitch(g, initial_budgets(g, p), p, Cluster(), master_seed=3)
        assert res.failed  # stocks run short: the failed prefixes are built too
        rows = np.arange(res.starts.size)
        arrays = [a for pair in res.levels for a in pair] + [
            res.starts, res.leaf_ids(rows), res.leaf_ids(rows[:5], 0), res.leaf_ids(rows[:5], 1),
            res.walks(rows), res.walks(rows[:5], 2), res.verts]
        arrays += [a for _, ids, starts in res.failed for a in (ids, starts)]
        arrays += [chunk for _, chunk in res.failed_chunks]
        assert [a.dtype for a in arrays] == [np.dtype(np.int32)] * len(arrays)


class TestWorkingSet:
    """The traced peak of one stitch call, in bytes a segment: level 0 alone
    takes 10, and the index tree, the next level and each phase's int32
    temporaries the rest."""

    @pytest.mark.parametrize("graph, params, bound", [
        (two_cliques(17), desk_params(length=64, target=1, base_budget=7.0, tau=1.15,
                                      laziness="half"), 25.0),
        (gnp(300, 0.1, seed=3), desk_params(length=4, target=1, base_budget=4.0,
                                            tau=1.0), 30.0),
        (cycle_graph(8), desk_params(length=8, target=1, base_budget=2.0, tau=1.5,
                                     mode="theory"), 28.0),
    ], ids=["cliques-L64-lazy", "gnp-L4-short", "c8-L8-theory"])
    def test_peak_bytes_per_segment(self, graph, params, bound):
        budgets = initial_budgets(graph, params)
        segments = int(budgets.sum())
        assert segments > 100_000  # fixed costs are noise at this size
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            res = stitch(graph, budgets, params, Cluster(), master_seed=1)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert bool(res.failed) == (params.surplus == 1.0)
        assert peak / segments <= bound


class TestGroupByKey:
    """The 16-bit radix passes give exactly a stable argsort on the key."""

    @pytest.mark.parametrize("n_keys", [5, 1 << 16, (1 << 16) + 1, 1 << 20, 1 << 40])
    def test_matches_stable_argsort(self, n_keys):
        rng = np.random.default_rng(n_keys)
        key = rng.integers(0, n_keys, size=5000)
        key[0] = n_keys - 1  # the largest key needs every digit
        got = engine._group_by_key(key, n_keys, None)
        assert np.array_equal(got, np.argsort(key, kind="stable"))
        got = engine._group_by_key(key, n_keys, np.random.default_rng(1))
        perm = np.random.default_rng(1).permutation(5000)
        assert np.array_equal(got, perm[np.argsort(key[perm], kind="stable")])


def all_leaf_ids(res) -> np.ndarray:
    """Leaf ids under every finished walk and every failed prefix of a pass."""
    parts = [res.leaf_ids(np.arange(res.starts.size)).ravel()]
    parts += [res.leaf_ids(ids, phase - 1).ravel() for phase, ids, _ in res.failed]
    return np.concatenate(parts)


def assert_leaves_join(res) -> None:
    """Each leaf of a walk starts where the one before it ends."""
    ids = res.leaf_ids(np.arange(res.starts.size))
    assert np.array_equal(res.leaf_end[ids[:, :-1]], res.leaf_start[ids[:, 1:]])
    assert np.array_equal(res.leaf_start[ids[:, 0]], res.starts)


class TestSegmentDisjointness:
    """Every request gets its own segment: no length-1 segment appears twice
    among the walks and failed prefixes of one stitch pass."""

    def test_tolerate_run_with_failures(self):
        g = cycle_graph(8)
        p = desk_params(length=8, target=1, base_budget=20.0, tau=1.0)
        res = stitch(g, initial_budgets(g, p), p, Cluster(), master_seed=3)
        assert res.failed  # no surplus: stocks run short in every phase
        leaves = all_leaf_ids(res)
        assert np.unique(leaves).size == leaves.size
        assert_leaves_join(res)
        assert validate_walks(g, res.verts, lazy=False)

    def test_uniform_stitching(self):
        res = uniform_stitching(gnp(40, 0.2, seed=2), 3, 8, seed=4, tau=1.0).result
        assert res.failed
        leaves = all_leaf_ids(res)
        assert np.unique(leaves).size == leaves.size
        assert_leaves_join(res)


def first_leaves(res, level: int) -> np.ndarray:
    """Leaf id of the first step of every segment of `level`."""
    size = res.levels[level - 1][0].size if level else res.leaf_start.size
    return res.leaf_ids(np.arange(size), level)[:, 0]


class TestLevelOrder:
    """Every level of the index tree lies in (start, first label) order,
    which is what lets each key's stock be served as it lies."""

    @pytest.mark.parametrize("laziness", ["none", "half"])
    @pytest.mark.parametrize("mode, tau, fail_policy, short", [
        ("practical", 1.0, "tolerate", True),
        ("practical", 3.0, "abort", False),
        ("theory", 1.01, "tolerate", True),
        ("theory", 1.3, "abort", False),
    ], ids=["practical-short", "practical-ample", "theory-short", "theory-ample"])
    def test_levels_sorted_and_labels_join(self, mode, tau, fail_policy, short, laziness):
        g = cycle_graph(8)
        p = desk_params(length=8, target=1, base_budget=20.0, tau=tau,
                        laziness=laziness, fail_policy=fail_policy, mode=mode)
        budgets = initial_budgets(g, p)
        res = stitch(g, budgets, p, Cluster(), master_seed=11, cycle=2)
        assert bool(res.failed) == short
        _, _, labels = init_walks(g, budgets, p, master_seed=11, cycle=2)
        for level in range(len(res.levels) + 1):
            first = first_leaves(res, level)
            key = res.leaf_start[first].astype(np.int64) * (p.length + 1) + labels[first]
            assert np.all(np.diff(key) >= 0)
        if mode == "theory":
            for phase, (left, right) in enumerate(res.levels, start=1):
                below = first_leaves(res, phase - 1)
                assert np.array_equal(labels[below[left]] + (1 << (phase - 1)),
                                      labels[below[right]])


class TestRunBudgeted:
    def test_cycle_count_floor_log(self):
        g = cycle_graph(8)
        p = desk_params(length=4, target=1000, growth=10.0, threshold=10.0,
                        base_budget=30.0)
        run = run_budgeted(g, 0, p, seed=0)
        assert run.metrics.cycles == 4  # 3 calibration cycles + final stitch

    def test_structural_postconditions(self):
        g = gnp(30, 0.2, seed=3)
        p = desk_params(length=8, target=500, growth=10.0, threshold=10.0,
                        base_budget=30.0, tau=1.5)
        run = run_budgeted(g, 0, p, seed=5)
        assert run.walks.shape[1] == 9
        assert np.all(run.walks[:, 0] == 0)
        assert validate_walks(g, run.walks, lazy=False)
        assert 0.0 <= run.metrics.failure_rate_final <= 1.0

    def test_lazy_walks_validate(self):
        g = cycle_graph(6)
        p = desk_params(length=4, target=200, growth=10.0, threshold=10.0,
                        base_budget=30.0, laziness="half")
        run = run_budgeted(g, 0, p, seed=5)
        assert validate_walks(g, run.walks, lazy=True)
        assert not validate_walks(g, run.walks, lazy=False) or \
            np.all(run.walks[:, :-1] != run.walks[:, 1:])

    def test_round_accounting_closed_form(self):
        g = cycle_graph(8)
        for target, length in ((1000, 4), (100, 16)):
            p = desk_params(length=length, target=target, growth=10.0,
                            threshold=10.0, base_budget=30.0)
            run = run_budgeted(g, 0, p, seed=2)
            calib, _ = cycle_plan(target, 10.0)
            phases = length.bit_length() - 1
            assert run.metrics.supersteps == (calib + 1) * 2 * phases + calib
            assert run.metrics.paper_rounds == (calib + 1) * phases + calib

    def test_memory_accounting_matches_recount(self, calibration):
        g = cycle_graph(8)
        p = desk_params(length=4, target=100, growth=10.0, threshold=10.0,
                        base_budget=30.0)
        run = run_budgeted(g, 0, p, seed=9)
        recount = [int(t.sum()) for t in calibration.budgets]
        assert run.metrics.per_cycle_budget_totals == recount
        assert run.metrics.total_budget == sum(recount)

    def test_deterministic_replay(self):
        g = gnp(25, 0.25, seed=1)
        p = desk_params(length=8, target=300, growth=10.0, threshold=10.0,
                        base_budget=30.0, tau=1.5)
        r1 = run_budgeted(g, 2, p, seed=33)
        r2 = run_budgeted(g, 2, p, seed=33)
        assert np.array_equal(r1.walks, r2.walks)
        assert r1.metrics == r2.metrics
        assert not np.array_equal(r1.walks, run_budgeted(g, 2, p, seed=34).walks)

    @pytest.fixture
    def substream_calls(self, monkeypatch):
        """The key of every substream the engine draws, in order."""
        calls = []

        def counting_substream(*args):
            calls.append(args)
            return substream(*args)

        monkeypatch.setattr(engine, "substream", counting_substream)
        return calls

    def test_one_substream_per_cycle_and_phase(self, substream_calls):
        # init draws from one generator per cycle and, with a short key in
        # every phase, serving from one per (cycle, phase), plus the final
        # shuffle: never one per vertex or key
        p = desk_params(length=8, target=300, growth=10.0, threshold=10.0,
                        base_budget=30.0, tau=1.0)
        run = run_budgeted(cycle_graph(8), 0, p, seed=5)
        assert run.failed_walks  # short keys: requests are shuffled too
        phases = 3
        assert len(substream_calls) == run.metrics.cycles * (1 + phases) + 1

    def test_no_serve_substream_without_short_keys(self, substream_calls):
        # with stock to spare in every phase, serving draws no randomness:
        # one init generator per cycle plus the final shuffle
        p = desk_params(length=8, target=300, growth=10.0, threshold=10.0,
                        base_budget=30.0, tau=4.0, fail_policy="abort")
        run = run_budgeted(cycle_graph(8), 0, p, seed=5)
        assert run.metrics.cycles == 3
        assert len(substream_calls) == run.metrics.cycles + 1

    def test_isolated_root_rejected(self):
        from walkstitch.graph import load_edge_list
        g = load_edge_list("0 1\n2 2")
        p = desk_params(length=2, target=10)
        with pytest.raises(ParameterError, match="isolated"):
            run_budgeted(g, 2, p, seed=0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_abort_failure_carries_cycle(self):
        g = two_cliques(15)
        p = desk_params(length=8, target=10_000, growth=10.0, threshold=1000.0,
                        base_budget=1.0, tau=1.0, fail_policy="abort")
        with pytest.raises(StitchFailure) as exc:
            run_budgeted(g, 1, p, seed=0)
        assert exc.value.cycle >= 1

    def test_per_path_independence_p4(self):
        g = path_graph(4)
        p = desk_params(length=2, target=100_000, growth=10.0, threshold=25.0,
                        base_budget=50.0, tau=1.5)
        run = run_budgeted(g, 1, p, seed=17)
        walks = run.walks[:100_000]
        probs = oracle.enumerate_walks(g, 1, 2)
        from collections import Counter
        freq = Counter(map(tuple, walks.tolist()))
        chi = 0.0
        for path, pr in probs.items():
            obs = freq.pop(path, 0)
            expect = float(pr) * walks.shape[0]
            assert abs(obs / walks.shape[0] - float(pr)) <= 0.01
            chi += (obs - expect) ** 2 / expect
        assert not freq  # no walk outside the enumerated support
        assert chi < CHI2_999[len(probs) - 1]


class TestJointPathLaw:
    """The whole path, not just its marginals, follows the random-walk law:
    a chi-square test of 20 000 stitched walks against the exact
    probability of every path."""

    @pytest.mark.parametrize("graph, length, laziness, root, n_paths", [
        (cycle_graph(8), 8, "none", 0, 256),
        (path_graph(4), 4, "half", 1, 55),
    ], ids=["c8-L8", "p4-L4-lazy"])
    def test_chi_square(self, graph, length, laziness, root, n_paths):
        p = desk_params(length=length, target=20_000, growth=10.0, threshold=10.0,
                        base_budget=30.0, tau=3.0, laziness=laziness,
                        fail_policy="abort")
        walks = run_budgeted(graph, root, p, seed=1).walks[:20_000]
        assert walks.shape[0] == 20_000
        probs = oracle.enumerate_walks(graph, root, length, lazy=laziness == "half")
        assert len(probs) == n_paths
        paths, counts = np.unique(walks, axis=0, return_counts=True)
        observed = dict(zip(map(tuple, paths.tolist()), counts.tolist()))
        assert set(observed) <= set(probs)  # no walk outside the support
        expect = {path: float(pr) * walks.shape[0] for path, pr in probs.items()}
        chi = sum((observed.get(path, 0) - e) ** 2 / e for path, e in expect.items())
        assert chi < CHI2_999[n_paths - 1]


class TestTheoryNoFail:
    def test_abort_mode_completes(self):
        g = cycle_graph(8)
        p = theory_params(8, 2, 2.0, 1.0, target=8, fail_policy="abort")
        for seed in (0, 1):
            run = run_budgeted(g, 0, p, seed=seed)
            assert run.metrics.failure_rate_final == 0.0
            assert run.walks.shape[0] == run.metrics.rooted_attempted_final


class TestDyadicDecompose:
    def test_single_entry(self):
        assert dyadic_decompose({0: 5, 1: 0, 2: 0}) == [([0], 5)]

    def test_bucketing(self):
        groups = dyadic_decompose({0: 1, 1: 1, 2: 2, 3: 7})
        assert groups == [([0, 1], 1), ([2], 2), ([3], 7)]

    def test_single_big_entry(self):
        assert dyadic_decompose({9: 4096}) == [([9], 4096)]

    def test_group_count_bound(self):
        rng = np.random.Generator(np.random.PCG64(0))
        b = rng.integers(0, 1 << 20, size=200)
        total = int(b.sum())
        groups = dyadic_decompose({v: int(x) for v, x in enumerate(b)})
        assert len(groups) <= math.ceil(math.log2(total)) + 1
        covered = sorted(v for members, _ in groups for v in members)
        assert covered == sorted(int(v) for v in np.flatnonzero(b))
        for members, common in groups:
            vals = [int(b[v]) for v in members]
            assert common == max(vals)
            assert max(vals) <= 2 * min(vals)

    def test_all_zero_rejected(self):
        with pytest.raises(ParameterError):
            dyadic_decompose({0: 0, 1: 0})


class TestMultiSource:
    def test_degenerate_equals_single_root(self):
        g = cycle_graph(8)
        p = desk_params(length=4, target=500, growth=10.0, threshold=10.0,
                        base_budget=30.0)
        single = run_budgeted(g, 3, p, seed=8)
        multi = run_multi_source(g, {3: 500}, p, seed=8)
        assert np.array_equal(multi.walks_by_root[3], single.walks)

    def test_disjoint_components_stay_apart(self):
        g = two_cliques(4, bridged=False)
        p = desk_params(length=4, target=60, growth=10.0, threshold=20.0,
                        base_budget=30.0, tau=1.5)
        multi = run_multi_source(g, {1: 60, 5: 60}, p, seed=4)
        assert np.all(multi.walks_by_root[1] < 4)
        assert np.all(multi.walks_by_root[5] >= 4)
        assert multi.shortfall[1] == 0 and multi.shortfall[5] == 0

    def test_mixed_budgets_delivery(self):
        g = two_cliques(6)
        p = desk_params(length=4, target=100, growth=10.0, threshold=20.0,
                        base_budget=30.0, tau=1.5)
        req = {1: 30, 2: 31, 7: 400}
        multi = run_multi_source(g, req, p, seed=12)
        assert len(multi.group_results) == len(dyadic_decompose(req))
        for v, b in req.items():
            assert multi.walks_by_root[v].shape[0] + multi.shortfall[v] >= b
            assert np.all(multi.walks_by_root[v][:, 0] == v)

    def test_groups_count_their_own_rounds(self):
        g = two_cliques(6)
        p = desk_params(length=4, target=10, growth=4, threshold=3, base_budget=5, tau=1.5)
        multi = run_multi_source(g, {0: 4, 7: 40, 3: 300}, p, seed=1)
        metrics = [r.metrics for r in multi.group_results]
        assert [m.cycles for m in metrics] == [2, 3, 5]
        for m in metrics:   # 2 supersteps per phase, log2 L = 2 phases, one update between cycles
            assert m.supersteps == m.cycles * 2 * 2 + m.cycles - 1
            assert m.paper_rounds == m.cycles * 2 + m.cycles - 1
        assert multi.metrics.supersteps == max(m.supersteps for m in metrics)
        assert multi.metrics.paper_rounds == max(m.paper_rounds for m in metrics)

    def test_per_root_distribution(self):
        g = cycle_graph(8)
        p = desk_params(length=8, target=25_000, growth=10.0, threshold=25.0,
                        base_budget=50.0, tau=1.5)
        multi = run_multi_source(g, {0: 25_000, 4: 25_000}, p, seed=6)
        for root in (0, 4):
            walks = multi.walks_by_root[root][:25_000]
            assert walks.shape[0] == 25_000
            for t in range(1, 9):
                emp = np.bincount(walks[:, t], minlength=8) / walks.shape[0]
                assert oracle.tvd(emp, oracle.exact_step_dist(g, root, t)) <= 0.03


class TestUniformStitching:
    def test_budget_accounting_identity(self):
        g = gnp(40, 0.2, seed=2)
        tau = 1.2
        res = uniform_stitching(g, 3, 4, seed=1, tau=tau)
        expect = sum(math.ceil(3 * g.degree(v) * tau ** (3 * k))
                     for v in range(g.n) for k in range(4))
        assert res.total_budget == expect

    def test_k2_flat_budgets(self):
        res = uniform_stitching(path_graph(2), 3, 2, seed=0, tau=1.0)
        # B(v,k) = 3 for both vertices and both labels
        assert res.total_budget == 12

    def test_length_one_returns_shuffled_single_steps(self):
        # one level only: the final shuffle reorders the leaves themselves
        g = cycle_graph(8)
        uni = uniform_stitching(g, 2, 1, seed=3, tau=1.0)
        res = uni.result
        assert res.levels == [] and not res.failed
        assert res.verts.shape == (32, 2)          # budget 2 * degree 2 on 8 vertices
        assert np.array_equal(res.verts[:, 0], res.starts)
        assert np.any(np.diff(res.starts) < 0)     # no longer grouped by start
        assert validate_walks(g, res.verts, lazy=False)
        assert np.array_equal(uni.ok_per_vertex, np.full(8, 4))

    def test_walks_from_all_vertices(self):
        g = cycle_graph(8)
        res = uniform_stitching(g, 20, 4, seed=5, tau=1.3)
        assert np.all(res.ok_per_vertex > 0)
        assert validate_walks(g, res.result.verts, lazy=False)
