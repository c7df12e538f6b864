import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkstitch import engine, oracle
from walkstitch.engine import (ParameterError, StitchFailure,
                               StitchParams, cycle_plan, desk_params,
                               dyadic_decompose, init_walks,
                               initial_budgets, label_multipliers, round_length,
                               run_budgeted, run_multi_source, stitch,
                               theory_params, uniform_stitching, update_budgets,
                               validate_walks)
from walkstitch.fixtures import (complete_graph, cycle_graph, gnp, path_graph,
                                 star_graph, two_cliques)
from walkstitch.mpc import Cluster
from walkstitch.rng import INIT_STREAM, SERVE_STREAM, substream

# chi-square 0.999 quantiles by degrees of freedom
CHI2_999 = {1: 10.828, 2: 13.816, 3: 16.266, 4: 18.467, 5: 20.515, 14: 36.123,
            54: 91.87, 255: 330.52}


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
        for _, scale, table in calibration.updates:
            lam_pow = scale
            assert table[0, 0] == math.ceil(b0_root + lam_pow)

    def test_update_arithmetic_example(self):
        # threshold 10, kappa 20, |W| 100, scale 1000, base 5: ceil(5+200)=205
        g = path_graph(6)  # degree(2) = 2; base 2.5 per degree gives base(2)=5
        p = StitchParams(length=2, target=10, growth=10.0, threshold=10.0,
                         base_budget=2.5, surplus=1.0, mode="practical")
        walks = np.zeros((100, 3), dtype=np.int64)
        walks[:, 0] = 1
        walks[:20, 0] = 2   # kappa(2, k=1) = 20 >= theta
        walks[:, 1] = 3
        walks[:, 2] = 4
        table = update_budgets(walks, 1000.0, p, g)
        assert table[2, 0] == 205

    def test_update_else_branch(self):
        g = cycle_graph(6)
        p = StitchParams(length=2, target=10, growth=10.0, threshold=50.0,
                         base_budget=7.3, surplus=1.4, mode="theory",
                         fail_policy="tolerate")
        walks = np.zeros((10, 3), dtype=np.int64)  # kappa(v,k) < theta everywhere
        walks[:, 1] = 1
        walks[:, 2] = 0
        table = update_budgets(walks, 100.0, p, g)
        mult = label_multipliers(p)
        for v in (2, 3, 4):
            for k in (1, 2):
                assert table[v, k - 1] == math.ceil(7.3 * 2 * mult[k - 1])

    def test_update_rejects_empty_or_short(self):
        g = cycle_graph(4)
        p = desk_params(length=4, target=10)
        with pytest.raises(Exception):
            update_budgets(np.zeros((0, 5), dtype=np.int64), 10.0, p, g)
        with pytest.raises(Exception):
            update_budgets(np.zeros((3, 3), dtype=np.int64), 10.0, p, g)


class TestCyclePlan:
    def test_exact_power(self):
        assert cycle_plan(1000, 10.0) == [10.0, 100.0, 1000.0]

    def test_between_powers(self):
        assert cycle_plan(50_000, 10.0) == [10.0, 100.0, 1000.0, 100_000.0]

    def test_single_walk(self):
        assert cycle_plan(1, 10.0) == []
        assert cycle_plan(5, 10.0) == []   # any target below growth

    def test_growth_fraction(self):
        assert cycle_plan(8, 2.0) == [2.0, 4.0, 8.0]
        assert cycle_plan(9, 2.0) == [2.0, 4.0, 16.0]

    @settings(max_examples=200, deadline=None, database=None)
    @given(target=st.integers(1, 10 ** 7), growth=st.floats(1.05, 20.0))
    def test_schedule_law(self, target, growth):
        scales = cycle_plan(target, growth)
        assert bool(scales) == (growth <= target * (1 + 1e-12))
        if not scales:
            return
        # growth, growth^2, ... by repeated multiplication, then the last
        # one: the next power, or the one after it where that falls short
        chain = [1.0] + scales[:-1]
        assert chain[1:] == [p * growth for p in chain[:-1]]
        assert scales[-1] in (chain[-1] * growth, chain[-1] * growth * growth)
        assert all(p <= target * (1 + 1e-12) for p in scales[:-1])
        assert scales[-1] >= target * (1 - 1e-12)


# At degree 3*10^5 a word is rejected with probability (2^32 mod 300 000) /
# 2^32, about 1 in 25 700, so about a quarter of the hub's slices of 8192
# segments reject a word and fall back to numpy's own call.
HUB_LEAVES = 300_000
HUB_CHUNK = 1 << 13


def star_budgets(leaves):
    """The budgets of star_graph(5) on its center and first five leaves; a
    bigger star's center gets 2000 times as many."""
    b = np.zeros((leaves + 1, 2), dtype=np.int64)
    b[:6] = [[100, 50], [3, 0], [0, 2], [1, 1], [0, 0], [4, 0]]
    if leaves > 5:
        b[0] *= 2000
    return b


class IntegersSpy:
    """A Generator that records every integers call given an array of
    bounds: in init_walks only _draw_below's fallback makes one."""

    def __init__(self, gen):
        self._gen = gen
        self.fallbacks = []

    def __getattr__(self, name):
        return getattr(self._gen, name)

    def integers(self, low, high, **kw):
        if np.ndim(high):
            self.fallbacks.append(np.size(high))
        return self._gen.integers(low, high, **kw)


def level0_blocks(budgets):
    """The int32 start and int16 label of every level-0 segment, which the
    budgets' (vertex, label) blocks imply: budgets[v, k-1] segments start at
    v with label k, block by block in row order."""
    n, length = budgets.shape
    starts = np.repeat(np.arange(n, dtype=np.int32), budgets.sum(axis=1))
    labels = np.repeat(np.tile(np.arange(1, length + 1, dtype=np.int16), n), budgets.ravel())
    return starts, labels


class TestInitWalks:
    def test_k2_forced_neighbor(self):
        g = path_graph(2)
        p = desk_params(length=2, target=10, tau=1.0)
        b = np.array([[5, 0], [0, 0]], dtype=np.int64)
        end = init_walks(g, b, p, master_seed=1)
        start, labels = level0_blocks(b)
        assert (start.dtype, end.dtype, labels.dtype) == (np.int32, np.int32, np.int16)
        assert start.shape == end.shape == labels.shape == (5,)
        assert np.all(start == 0) and np.all(end == 1)
        assert np.all(labels == 1)

    def test_neighbor_split_concentrates(self):
        g = path_graph(3)
        p = desk_params(length=1, target=10, tau=1.0)
        b = np.array([[0], [10_000], [0]], dtype=np.int64)
        end = init_walks(g, b, p, master_seed=3)
        counts = np.bincount(end, minlength=3)
        assert 4600 <= counts[0] <= 5400
        assert 4600 <= counts[2] <= 5400

    def test_lazy_self_steps_concentrate(self):
        g = path_graph(3)
        p = desk_params(length=1, target=10, tau=1.0, laziness="half")
        b = np.array([[0], [10_000], [0]], dtype=np.int64)
        end = init_walks(g, b, p, master_seed=3)
        stays = int((end == 1).sum())
        assert 4600 <= stays <= 5400

    def test_isolated_with_budget_rejected(self):
        from walkstitch.graph import load_edge_list
        g = load_edge_list("0 1\n2 2")
        p = desk_params(length=1, target=10, tau=1.0)
        b = np.array([[1], [1], [1]], dtype=np.int64)
        with pytest.raises(Exception, match="isolated"):
            init_walks(g, b, p, master_seed=0)

    @pytest.mark.parametrize("leaves, chunk, laziness", [
        pytest.param(5, chunk, laziness, id=f"{chunk}-{laziness}")
        for laziness in ("none", "half") for chunk in (1, 7, 64)
    ] + [pytest.param(HUB_LEAVES, HUB_CHUNK, "half", id="hub-300000-half")])
    def test_slices_draw_the_one_call_streams(self, monkeypatch, leaves, chunk, laziness):
        # the center has a run of segments that spans several slices, and
        # the leaves have degree 1 and draw nothing. The big hub rejects
        # some of its words, so some of its slices fall back to numpy's own
        # call and some do not (test_rejections_fall_back_to_numpy)
        g = star_graph(leaves)
        p = desk_params(length=2, target=1, tau=1.0, laziness=laziness)
        b = star_budgets(leaves)
        monkeypatch.setattr(engine, "_CHUNK", chunk)
        start, labels = level0_blocks(b)
        got = (start, init_walks(g, b, p, master_seed=9, cycle=2), labels)
        for arr, ref in zip(got, one_call_init_walks(g, b, p, master_seed=9, cycle=2)):
            assert arr.dtype == ref.dtype
            assert np.array_equal(arr, ref)

    def test_physical_memory_checked_before_allocating(self, monkeypatch, tmp_path):
        # without a meminfo file the guard falls back to total memory: one
        # page short of the whole stitch, at _STITCH_BYTES a segment, is
        # refused, though level 0's 4 bytes a segment would fit; a page
        # more is not
        monkeypatch.setattr(engine, "_MEMINFO", str(tmp_path / "missing"))
        need = 80_000 * engine._STITCH_BYTES
        short = need // 4096
        assert 80_000 * 4 < short * 4096 < need
        pages = {"SC_PHYS_PAGES": short, "SC_PAGE_SIZE": 4096}
        monkeypatch.setattr(engine.os, "sysconf", pages.__getitem__)
        g = cycle_graph(4)
        p = desk_params(length=2, target=1, tau=1.0)
        b = np.full((4, 2), 10_000, dtype=np.int64)
        with pytest.raises(engine.EngineError,
                           match=f"80000 segments need {need} bytes, more than the "
                                 f"{short * 4096} bytes of available memory"):
            init_walks(g, b, p, master_seed=0)
        pages["SC_PHYS_PAGES"] = short + 1
        assert init_walks(g, b, p, master_seed=0).size == 80_000

    def test_available_memory_checked_not_total(self, monkeypatch, tmp_path):
        # total memory holds the stitch, but MemAvailable is 1 kB short of it
        need = 80_000 * engine._STITCH_BYTES
        pages = {"SC_PHYS_PAGES": need // 4096 + 1, "SC_PAGE_SIZE": 4096}
        monkeypatch.setattr(engine.os, "sysconf", pages.__getitem__)
        meminfo = tmp_path / "meminfo"
        monkeypatch.setattr(engine, "_MEMINFO", str(meminfo))
        g = cycle_graph(4)
        p = desk_params(length=2, target=1, tau=1.0)
        b = np.full((4, 2), 10_000, dtype=np.int64)
        for kb in (need // 1024 - 1, need // 1024 + 1):
            meminfo.write_text(f"MemTotal:       {2 * kb} kB\nMemFree:        10 kB\n"
                               f"MemAvailable:   {kb} kB\nBuffers:        1 kB\n")
            if kb * 1024 < need:
                with pytest.raises(engine.EngineError,
                                   match=f"80000 segments need {need} bytes, more than "
                                         f"the {kb * 1024} bytes of available memory"):
                    init_walks(g, b, p, master_seed=0)
            else:
                assert init_walks(g, b, p, master_seed=0).size == 80_000


    def test_rejections_fall_back_to_numpy(self, monkeypatch):
        spies = []

        def spied_substream(*key):
            spies.append(IntegersSpy(substream(*key)))
            return spies[-1]

        monkeypatch.setattr(engine, "substream", spied_substream)
        monkeypatch.setattr(engine, "_CHUNK", HUB_CHUNK)
        g = star_graph(HUB_LEAVES)
        b = star_budgets(HUB_LEAVES)
        init_walks(g, b, desk_params(length=2, target=1, tau=1.0, laziness="half"),
                   master_seed=9, cycle=2)
        slices = -(-int(b.sum()) // HUB_CHUNK)
        assert 0 < len(spies[0].fallbacks) < slices
        # the ppr-cliques degrees, 16 and 17, reject a word with probability
        # 0 and 2^-32
        g = two_cliques(17)
        p = desk_params(length=64, target=1, base_budget=10.0, tau=1.15, laziness="half")
        init_walks(g, initial_budgets(g, p), p, master_seed=13)
        assert spies[1].fallbacks == []


class TestDrawBelow:
    @pytest.mark.parametrize("bound", [2, 17, 300_000, 1_431_655_766, 2 ** 31 - 1])
    def test_matches_generator_integers(self, bound):
        # 2^32 mod 1 431 655 766 is 1 431 655 764: about a third of the words
        # drawn for that bound are rejected
        mix = np.random.default_rng(bound)
        bounds = np.where(mix.random(40_001) < 0.5, bound,
                          mix.integers(1, 6, 40_001)).astype(np.uint32)
        got, ref = substream(4, INIT_STREAM, 1), substream(4, INIT_STREAM, 1)
        picks = engine._draw_below(got, bounds)
        assert picks.dtype == np.int64
        assert np.array_equal(picks, ref.integers(0, bounds))
        # the next 32-bit draw takes a buffered half-word first, if any
        assert np.array_equal(got.integers(0, 1 << 32, size=3, dtype=np.uint32),
                              ref.integers(0, 1 << 32, size=3, dtype=np.uint32))
        assert got.bit_generator.state == ref.bit_generator.state


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

    def test_theory_abort_names_the_key_column_label(self):
        # on the path 0 - 1 a level-1 segment returns to its start, so in
        # phase 2 (s = 2, half = 2) vertex 1's three label-5 requesters ask
        # vertex 1 for label (2·1 + 1)·2 + 1 = 7, of which it holds one;
        # every phase-1 key and every other phase-2 key has stock to spare
        g = path_graph(2)
        p = desk_params(length=8, target=1, mode="theory", fail_policy="abort")
        vals = np.ones((2, 8), dtype=np.int64)
        vals[1, 4] = 3   # label 5 at vertex 1
        vals[0, 5] = 3   # label 6 at vertex 0 serves them in phase 1
        with pytest.raises(StitchFailure) as exc:
            stitch(g, vals, p, Cluster(), master_seed=5)
        assert (exc.value.phase, exc.value.vertex) == (2, 1)
        assert exc.value.label == 7
        assert exc.value.deficit == 2

    def test_practical_abort_names_the_pooled_vertex(self):
        # in phase 1 vertex 0's label-1 and label-3 requesters (2 + 2) ask
        # vertex 1, whose pooled stock of labels 2 and 4 holds 1 + 1
        g = path_graph(2)
        p = desk_params(length=4, target=1, fail_policy="abort")
        vals = np.array([[2, 1, 2, 1], [1, 1, 1, 1]], dtype=np.int64)
        with pytest.raises(StitchFailure) as exc:
            stitch(g, vals, p, Cluster(), master_seed=5)
        assert (exc.value.phase, exc.value.vertex) == (1, 1)
        assert exc.value.label is None
        assert exc.value.deficit == 2

    @pytest.mark.parametrize("mode", ["practical", "theory"])
    def test_misplaced_server_raises(self, monkeypatch, mode):
        # phase 1 at L 4 (half = 2) serves the first request in key order
        # from the label-1 requester block of its key's vertex instead: the
        # block just before that vertex's first server block
        scatter_ranges = engine._scatter_ranges
        calls = []

        def misplace(out, idx, first, counts):
            scatter_ranges(out, idx, first, counts)
            if not calls:
                block = np.searchsorted(first, out[idx[0]], side="right") - 1
                out[idx[0]] = first[block - block % 2] - 1
            calls.append(idx.size)

        monkeypatch.setattr(engine, "_scatter_ranges", misplace)
        g = cycle_graph(4)
        p = desk_params(length=4, target=1, mode=mode)
        vals = np.full((4, 4), 5, dtype=np.int64)
        with pytest.raises(engine.EngineError, match="phase 1, cycle 1: server .* outside"):
            stitch(g, vals, p, Cluster(), master_seed=5)
        assert len(calls) == 1

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
        served = sum(join.size for join in res.joins)
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
        assert sum(join.size for join in res.joins) == 5000
        assert np.all(np.abs(share - 0.5) <= 0.04)

    @pytest.mark.parametrize("mode", ["practical", "theory"])
    def test_index_tree_and_walks_are_int32(self, mode, phase_pairs):
        g = cycle_graph(8)
        p = desk_params(length=8, target=1, base_budget=20.0, tau=1.01, mode=mode)
        budgets = initial_budgets(g, p)
        res = stitch(g, budgets, p, Cluster(), master_seed=3)
        assert res.failed  # stocks run short: the failed prefixes are built too
        leaf_start = level0_blocks(budgets)[0]
        leaf_end = init_walks(g, budgets, p, master_seed=3)
        rows = np.arange(res.starts.size)
        ids = leaf_ids(phase_pairs, rows[:5], 2)
        arrays = res.joins + [a for pair in res.children + phase_pairs for a in pair] + [
            res.starts, res.ends, res.walks(rows),
            res._segments(rows[:5], 2, leaf_start[ids[:, 0]], leaf_end[ids[:, -1]]),
            res.verts]
        arrays += [a for _, *record in res.failed for a in record]
        arrays += [chunk for _, chunk in res.failed_chunks]
        assert [a.dtype for a in arrays] == [np.dtype(np.int32)] * len(arrays)

    @pytest.mark.parametrize("mode", ["practical", "theory"])
    def test_int64_request_order_serves_alike(self, monkeypatch, mode, phase_pairs):
        # a phase whose keys and positions need more than 32 bits groups its
        # requests into an int64 order; a stable argsort gives one in every
        # phase, and the pass must be the same, failures included
        g = cycle_graph(8)
        p = desk_params(length=8, target=1, base_budget=20.0, tau=1.01, mode=mode)
        budgets = initial_budgets(g, p)
        packed = stitch(g, budgets, p, Cluster(), master_seed=3)
        monkeypatch.setattr(engine, "_group_by_key",
                            lambda key, n_keys: np.argsort(key, kind="stable"))
        wide = stitch(g, budgets, p, Cluster(), master_seed=3)
        assert packed.failed and len(packed.failed) == len(wide.failed)
        assert len(packed.joins) == len(wide.joins) == 3 and len(phase_pairs) == 6
        for a, b in zip(packed.joins + [packed.starts, packed.ends],
                        wide.joins + [wide.starts, wide.ends]):
            assert np.array_equal(a, b)
        for a, b in zip(packed.children + phase_pairs[:3], wide.children + phase_pairs[3:]):
            assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        for a, b in zip(packed.failed, wide.failed):
            assert a[0] == b[0] and all(np.array_equal(x, y) for x, y in zip(a[1:], b[1:]))

    @pytest.mark.parametrize("chunk", [1, 8, 64])
    def test_walk_slices_match_one_call(self, monkeypatch, chunk, phase_pairs):
        g = cycle_graph(8)
        p = desk_params(length=8, target=1, base_budget=20.0, tau=1.01)
        budgets = initial_budgets(g, p)
        res = stitch(g, budgets, p, Cluster(), master_seed=3)
        assert len(res.joins) == len(phase_pairs) == 3
        leaf_start = level0_blocks(budgets)[0]
        leaf_end = init_walks(g, budgets, p, master_seed=3)
        rng = np.random.default_rng(chunk)
        cases = []
        for level in (0, 1, 3):
            rows = rng.permutation(level_size(phase_pairs, budgets, level))
            rows = rows[: rows.size // 2]
            cases.append((rows, level,
                          one_call_walks(phase_pairs, rows, level, leaf_start, leaf_end)))
        every = one_call_walks(phase_pairs, np.arange(res.starts.size), 3,
                               leaf_start, leaf_end)
        monkeypatch.setattr(engine, "_CHUNK", chunk)
        for rows, level, ref in cases:
            assert rows.size > chunk
            assert np.array_equal(res._segments(rows, level, ref[:, 0], ref[:, -1]), ref)
        assert np.array_equal(res.walks(rows), ref)   # the last case: finished walks
        assert np.array_equal(res.verts, every)    # all of them, from contiguous slices


def leaf_ids(pairs, rows, level) -> np.ndarray:
    """Leaf segment ids under segments `rows` of `level`, left to right,
    from the served pairs of every phase: shape (len(rows), 2**level)."""
    cols = [np.asarray(rows)]
    for left, right in reversed(pairs[:level]):
        cols = [child[c] for c in cols for child in (left, right)]
    return np.stack(cols, axis=1)


def level_size(pairs, budgets, level) -> int:
    """Number of segments at `level` of a pass with the served pairs
    `pairs` over `budgets`."""
    return pairs[level - 1][0].size if level else int(budgets.sum())


def one_call_walks(pairs, rows, level, leaf_start, leaf_end):
    """Segments `rows` of `level` built from their leaf ids in one call,
    with level 0's starts `leaf_start` and ends `leaf_end`: the segments
    that StitchResult builds slice by slice from its join vertices."""
    ids = leaf_ids(pairs, rows, level)
    out = np.empty((ids.shape[0], ids.shape[1] + 1), dtype=np.int32)
    out[:, :-1] = leaf_start[ids]
    out[:, -1] = leaf_end[ids[:, -1]]
    return out


WORKING_SET_CASES = {
    "cliques-L64-lazy": (two_cliques(17), desk_params(length=64, target=1, base_budget=7.0,
                                                      tau=1.15, laziness="half")),
    "gnp-L4-short": (gnp(300, 0.1, seed=3), desk_params(length=4, target=1,
                                                        base_budget=4.0, tau=1.0)),
    "c8-L8-theory": (cycle_graph(8), desk_params(length=8, target=1, base_budget=2.0,
                                                 tau=1.5, mode="theory")),
}


def array_bytes(value) -> int:
    """Summed nbytes of the arrays in `value` and in its lists and tuples."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (list, tuple)):
        return sum(array_bytes(v) for v in value)
    return 0


class TestWorkingSet:
    """The traced peak of one stitch call, in bytes a segment: level 0 takes
    4 (its int32 ends; starts and labels are implied by the budgets' block
    counts), and the index tree, the next level and each phase's int32
    temporaries the rest. The last two cases have fewer segments than one
    slice of init_walks, so their peak is level 0 plus that slice's draws."""

    @pytest.mark.parametrize("case, bound", [
        ("cliques-L64-lazy", 16.0), ("gnp-L4-short", 22.0), ("c8-L8-theory", 22.0)],
        ids=list(WORKING_SET_CASES))
    def test_peak_bytes_per_segment(self, case, bound):
        graph, params = WORKING_SET_CASES[case]
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

    @pytest.mark.parametrize("case, bound", [
        ("cliques-L64-lazy", 6.0), ("gnp-L4-short", 7.0), ("c8-L8-theory", 1.2)],
        ids=list(WORKING_SET_CASES))
    def test_tree_bytes_per_segment(self, case, bound):
        # the returned tree keeps one int32 join vertex a segment of each
        # level above 0, child ids from level 2 on, the finished walks'
        # starts and ends and the failure records: about 6 bytes a segment
        # of level 0 when most segments are stitched, far less when few are
        graph, params = WORKING_SET_CASES[case]
        budgets = initial_budgets(graph, params)
        res = stitch(graph, budgets, params, Cluster(), master_seed=1)
        tree = sum(array_bytes(getattr(res, f.name)) for f in dataclasses.fields(res))
        assert tree / int(budgets.sum()) <= bound

    @pytest.mark.parametrize("chunk", [1 << 14, engine._CHUNK], ids=["16384", "default"])
    @pytest.mark.parametrize("laziness", ["none", "half"])
    def test_init_walks_holds_ends_and_one_slice(self, monkeypatch, chunk, laziness):
        # level 0 is 4 bytes a segment; a slice's draws take at most 16
        # bytes a segment of the slice and are freed before the next slice
        # draws; 256 KiB cover numpy's 128 KiB cast buffer and small arrays
        g = two_cliques(17)
        p = desk_params(length=64, target=1, base_budget=7.0, tau=1.15, laziness=laziness)
        budgets = initial_budgets(g, p)
        segments = int(budgets.sum())
        assert segments > chunk   # two slices or more
        monkeypatch.setattr(engine, "_CHUNK", chunk)
        init_walks(path_graph(2), np.ones((2, 64), dtype=np.int64), p, master_seed=1)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ends = init_walks(g, budgets, p, master_seed=1)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert ends.nbytes == 4 * segments
        assert peak <= 4 * segments + 16 * chunk + (1 << 18)


class TestGroupByKey:
    """The packed sort gives exactly a stable argsort on the key."""

    @pytest.mark.parametrize("n_keys", [5, 1 << 16, (1 << 16) + 1, 1 << 20, 1 << 40])
    def test_matches_stable_argsort(self, n_keys):
        rng = np.random.default_rng(n_keys)
        key = rng.integers(0, n_keys, size=5000)
        key[0] = n_keys - 1  # the largest key needs every digit
        got = engine._group_by_key(key, n_keys)
        assert np.array_equal(got, np.argsort(key, kind="stable"))

    @pytest.mark.parametrize("key, n_keys", [
        ([], 1), ([], 7), ([0], 1), ([3], 4), ([0, 0, 0, 0], 1)],
        ids=["empty-one-key", "empty", "single-one-key", "single", "one-key"])
    def test_small_cases(self, key, n_keys):
        key = np.array(key, dtype=np.int32)
        got = engine._group_by_key(key, n_keys)
        assert got.dtype == np.int32
        assert np.array_equal(got, np.arange(key.size))

    @pytest.mark.parametrize("n_keys, dtype", [
        (1 << 19, np.int32), ((1 << 19) + 1, np.int64)], ids=["32-bits", "33-bits"])
    def test_packing_boundary(self, n_keys, dtype):
        # 5000 positions take 13 bits; the largest key takes 19 or 20
        rng = np.random.default_rng(n_keys)
        key = rng.integers(0, 64, size=5000)
        key[:2] = [n_keys - 1, n_keys - 1]
        got = engine._group_by_key(key, n_keys)
        assert got.dtype == dtype
        assert np.array_equal(got, np.argsort(key, kind="stable"))

    def test_wider_than_64_bits_raises(self):
        # 3 positions take 2 bits and keys below 2^63 take 63
        key = np.array([5, 0, 5])
        assert np.array_equal(engine._group_by_key(key, 1 << 62), [1, 0, 2])
        with pytest.raises(engine.EngineError, match="65 bits"):
            engine._group_by_key(key, 1 << 63)


class TestDrawFailures:
    """Each short key loses exactly r - c of its r requests, a uniform
    subset of them, and no other key loses any."""

    def test_short_keys_lose_their_deficit(self):
        rng = np.random.default_rng(4)
        rcount = rng.integers(0, 12, size=2000)
        scount = rng.integers(0, 12, size=2000)
        short = np.flatnonzero(rcount > scount)
        fail = engine._draw_failures(short, rcount, scount, np.random.default_rng(5))
        assert fail.dtype == bool and fail.size == rcount.sum()
        key = np.repeat(np.arange(2000), rcount)
        lost = np.bincount(key[fail], minlength=2000)
        assert np.array_equal(lost, np.maximum(rcount - scount, 0))

    @pytest.mark.parametrize("r, c", [(4, 2), (5, 1), (6, 4), (3, 0)])
    def test_failed_subsets_uniform(self, r, c):
        # (5, 1) and (3, 0) draw the served side, (4, 2) redraws duplicates
        # often; the short keys alternate with keys that have stock to spare
        keys, calls = 10_000, 20
        rcount = np.tile([r, 3], keys)
        scount = np.tile([c, 5], keys)
        short = np.flatnonzero(rcount > scount)
        gen = np.random.default_rng(r * 10 + c)
        tally = np.zeros(1 << r, dtype=np.int64)
        for _ in range(calls):
            fail = engine._draw_failures(short, rcount, scount, gen).reshape(keys, r + 3)
            assert not fail[:, r:].any()
            tally += np.bincount(fail[:, :r] @ (1 << np.arange(r)), minlength=1 << r)
        subsets = [code for code in range(1 << r) if code.bit_count() == r - c]
        assert tally[subsets].sum() == keys * calls
        expected = keys * calls / len(subsets)
        chi2 = float(((tally[subsets] - expected) ** 2 / expected).sum())
        if len(subsets) > 1:
            assert chi2 < CHI2_999[len(subsets) - 1]


def all_leaf_ids(res, pairs) -> np.ndarray:
    """Leaf ids under every finished walk and every failed prefix of a pass
    whose phases served `pairs`."""
    parts = [leaf_ids(pairs, np.arange(res.starts.size), len(pairs)).ravel()]
    parts += [leaf_ids(pairs, ids, phase - 1).ravel() for phase, ids, *_ in res.failed]
    return np.concatenate(parts)


def assert_leaves_join(res, pairs, budgets, leaf_end) -> None:
    """Each leaf of a walk starts where the one before it ends, given the
    level-0 ends `leaf_end` of init_walks and the starts that `budgets`
    imply; the walks and failed prefixes built from the tree are those
    leaves' starts plus the last leaf's end."""
    leaf_start = level0_blocks(budgets)[0]
    ids = leaf_ids(pairs, np.arange(res.starts.size), len(pairs))
    assert np.array_equal(leaf_end[ids[:, :-1]], leaf_start[ids[:, 1:]])
    assert np.array_equal(leaf_start[ids[:, 0]], res.starts)
    assert np.array_equal(res.verts, one_call_walks(pairs, np.arange(res.starts.size),
                                                    len(pairs), leaf_start, leaf_end))
    assert len(res.failed_chunks) == len(res.failed)
    for (phase, ids, _, _), (_, chunk) in zip(res.failed, res.failed_chunks):
        assert np.array_equal(chunk,
                              one_call_walks(pairs, ids, phase - 1, leaf_start, leaf_end))


class TestSegmentDisjointness:
    """Every request gets its own segment: no length-1 segment appears twice
    among the walks and failed prefixes of one stitch pass."""

    def test_tolerate_run_with_failures(self, phase_pairs):
        g = cycle_graph(8)
        p = desk_params(length=8, target=1, base_budget=20.0, tau=1.0)
        budgets = initial_budgets(g, p)
        res = stitch(g, budgets, p, Cluster(), master_seed=3)
        assert res.failed  # no surplus: stocks run short in every phase
        leaves = all_leaf_ids(res, phase_pairs)
        assert np.unique(leaves).size == leaves.size
        assert_leaves_join(res, phase_pairs, budgets, init_walks(g, budgets, p, master_seed=3))
        assert validate_walks(g, res.verts, lazy=False)

    def test_uniform_stitching(self, monkeypatch, phase_pairs):
        level0 = []   # the budgets of the engine's init_walks call, and what it returns

        def spy_init_walks(g, budgets, *args, **kwargs):
            level0.append((budgets, init_walks(g, budgets, *args, **kwargs)))
            return level0[-1][1]

        monkeypatch.setattr(engine, "init_walks", spy_init_walks)
        res = uniform_stitching(gnp(40, 0.2, seed=2), 3, 8, seed=4, tau=1.0).result
        assert res.failed
        leaves = all_leaf_ids(res, phase_pairs)
        assert np.unique(leaves).size == leaves.size
        assert_leaves_join(res, phase_pairs, *level0[0])


def first_leaves(pairs, budgets, level: int) -> np.ndarray:
    """Leaf id of the first step of every segment of `level`."""
    return leaf_ids(pairs, np.arange(level_size(pairs, budgets, level)), level)[:, 0]


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
    def test_levels_sorted_and_labels_join(self, mode, tau, fail_policy, short, laziness,
                                           phase_pairs):
        g = cycle_graph(8)
        p = desk_params(length=8, target=1, base_budget=20.0, tau=tau,
                        laziness=laziness, fail_policy=fail_policy, mode=mode)
        budgets = initial_budgets(g, p)
        res = stitch(g, budgets, p, Cluster(), master_seed=11, cycle=2)
        assert bool(res.failed) == short
        assert len(phase_pairs) == len(res.joins) == len(res.children) + 1
        leaf_start, labels = level0_blocks(budgets)
        for level in range(len(phase_pairs) + 1):
            first = first_leaves(phase_pairs, budgets, level)
            key = leaf_start[first].astype(np.int64) * (p.length + 1) + labels[first]
            assert np.all(np.diff(key) >= 0)
        for phase, (left, right) in enumerate(phase_pairs, start=1):
            below = first_leaves(phase_pairs, budgets, phase - 1)
            # the tree keeps each pair's join vertex, where its server starts,
            # and from level 2 on the pair itself
            assert np.array_equal(res.joins[phase - 1], leaf_start[below[right]])
            if phase > 1:
                assert all(np.array_equal(a, b)
                           for a, b in zip(res.children[phase - 2], (left, right)))
            if mode == "theory":
                assert np.array_equal(labels[below[left]] + (1 << (phase - 1)),
                                      labels[below[right]])


class TestRunBudgeted:
    @pytest.mark.parametrize("target, warns", [(1000, True), (5, False)])
    def test_weak_root_warns_only_when_calibrating(self, target, warns):
        # base budget 20 * degree 2 = 40 < theta 100: calibration cannot grow
        # the root budget, which matters only when there is a calibration
        p = desk_params(length=4, target=target, growth=10.0, threshold=100.0,
                        base_budget=20.0)
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            run_budgeted(cycle_graph(8), 0, p, seed=1)
        assert warns == any("below the significance threshold" in str(w.message)
                            and w.category is RuntimeWarning for w in seen)

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
            calib = len(cycle_plan(target, 10.0))
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

    def test_length_one_returns_single_steps_in_tree_order(self):
        # one level only: the walks are the leaves themselves, in tree order
        g = cycle_graph(8)
        uni = uniform_stitching(g, 2, 1, seed=3, tau=1.0)
        res = uni.result
        assert res.joins == [] and res.children == [] and not res.failed
        assert res.verts.shape == (32, 2)          # budget 2 * degree 2 on 8 vertices
        assert np.array_equal(res.verts[:, 0], res.starts)
        assert np.all(np.diff(res.starts) >= 0)    # grouped by start, not shuffled
        assert validate_walks(g, res.verts, lazy=False)
        assert np.array_equal(uni.ok_per_vertex, np.full(8, 4))

    def test_walks_from_all_vertices(self):
        g = cycle_graph(8)
        res = uniform_stitching(g, 20, 4, seed=5, tau=1.3)
        assert np.all(res.ok_per_vertex > 0)
        assert validate_walks(g, res.result.verts, lazy=False)

    def test_one_init_and_one_serve_substream_per_short_phase(self, substream_calls):
        # the walks are returned in tree order: no shuffle substream is drawn
        res = uniform_stitching(gnp(40, 0.2, seed=2), 3, 8, seed=4, tau=1.0).result
        assert {phase for phase, *_ in res.failed} == {1, 2, 3}   # every phase is short
        assert [key[1:] for key in substream_calls] == (
            [(INIT_STREAM, 1)] + [(SERVE_STREAM, 1, phase) for phase in (1, 2, 3)])


class TestValidateWalks:
    """Steps are checked against the graph's edges, and ids outside [0, n)
    never pass, even where their key src * n + neighbor is an edge's key."""

    def test_accepts_edges_and_in_range_self_steps(self):
        g = path_graph(4)
        assert validate_walks(g, np.array([[0, 1, 2, 3], [3, 2, 1, 0]]), lazy=False)
        assert validate_walks(g, np.array([[0, 0, 1, 1]]), lazy=True)
        assert not validate_walks(g, np.array([[0, 0, 1, 1]]), lazy=False)

    def test_rejects_neighbor_past_n(self):
        # 0 * 4 + 6 is the key of the edge (1, 2)
        assert not validate_walks(path_graph(4), np.array([[0, 4 + 2]]), lazy=False)

    def test_rejects_lazy_step_outside_graph(self):
        assert not validate_walks(path_graph(4), np.array([[9, 9]]), lazy=True)

    def test_rejects_negative_id(self):
        # -1 * 4 + 5 is the key of the edge (0, 1)
        g = path_graph(4)
        assert not validate_walks(g, np.array([[-1, 5]]), lazy=False)
        assert not validate_walks(g, np.array([[-1, -1]]), lazy=True)
