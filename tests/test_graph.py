import io
import tracemalloc
from fractions import Fraction
from typing import Dict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkstitch import (EdgeListParseError, GraphError, UndefinedConductanceError,
                        boundary_size, conductance, graph, load_cache, load_edge_list,
                        save_cache, volume)
from walkstitch.fixtures import cycle_graph, gnm, gnp, path_graph, star_graph, two_cliques
from walkstitch.graph import Graph, from_edge_array, sort_unique


def _reference_load_edge_list(source) -> Graph:
    """The per-line parser that load_edge_list replaced, kept as its oracle.
    It reads each line with str.split() and int(), so it also accepts the
    signs, underscores, non-ASCII digits and non-ASCII whitespace that the
    grammar of load_edge_list rejects."""
    lines = io.StringIO(source) if isinstance(source, str) else source
    remap: Dict[int, int] = {}
    us: list[int] = []
    vs: list[int] = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise EdgeListParseError(lineno, f"expected 2 tokens, got {len(tokens)}")
        try:
            a, b = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise EdgeListParseError(lineno, f"non-integer token in {tokens!r}") from None
        if not (0 <= a < 1 << 64 and 0 <= b < 1 << 64):
            raise EdgeListParseError(lineno, "vertex id outside [0, 2^64)")
        for x in (a, b):
            if x not in remap:
                remap[x] = len(remap)
        if a == b:
            continue
        us.append(remap[a])
        vs.append(remap[b])
    if not remap:
        raise GraphError("empty graph: no vertices")
    if not us:
        raise GraphError("empty graph: no edges after ingestion")
    edges = np.column_stack([np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64)])
    return from_edge_array(len(remap), edges, id_map=tuple(remap))


def _outcome(parse, source):
    try:
        return parse(source)
    except GraphError as exc:
        return exc


def assert_same_graph(got: Graph, want: Graph):
    assert (got.n, got.m, got.id_map) == (want.n, want.m, want.id_map)
    for name in ("offsets", "neighbors", "degrees"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


# the ASCII whitespace str.split() knows; a lone \r stays inside a str's line
SEPARATORS = [" ", "\t", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f"]
PAD = st.text(st.sampled_from(SEPARATORS), max_size=2)
SEP = st.text(st.sampled_from(SEPARATORS), min_size=1, max_size=3)
COMMENT = st.tuples(PAD, st.text(st.sampled_from("# 01x\t-"), max_size=6)).map(
    lambda t: t[0] + "#" + t[1])
MALFORMED = st.sampled_from(["x 1", "1", "1 2 3", "-1 2", "1 2 # c", "1.5 2", "0 1e3",
                             "\x00 1", "1 -", "0x1 2", "1#", f"{1 << 64} 1",
                             f"3\t{1 << 64:025d}", "1 " + "9" * 20, "2 1" + "0" * 20])


@st.composite
def edge_lists(draw) -> str:
    """ASCII edge lists: data lines (self-loops, duplicates, ids zero-padded
    to 25 digits, up to 10^6 or up to 2^64 - 1), comments after separators,
    blank lines, LF and CRLF endings, and perhaps one malformed line
    anywhere, 2^64 among them."""
    small = st.integers(0, 9)
    wide = (st.integers(0, (1 << 64) - 1), st.just((1 << 64) - 1))
    ids = st.one_of(small, small, small, *(wide if draw(st.booleans()) else
                                           (st.integers(0, 10 ** 6),)))
    vertex = st.tuples(ids, st.integers(0, 25)).map(lambda t: f"{t[0]:0{t[1]}d}")
    data_line = st.tuples(PAD, vertex, SEP, vertex, PAD).map("".join)
    size = draw(st.integers(0, 40))
    lines = draw(st.lists(st.one_of(data_line, data_line, data_line, COMMENT, PAD),
                          min_size=size, max_size=size))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(MALFORMED))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines),
                         max_size=len(lines)))
    return "".join(a + b for a, b in zip(lines, ends)) + draw(st.sampled_from(["", "1 2"]))


class TestLoadEdgeList:
    def test_two_edge_path(self):
        g = load_edge_list("0 1\n1 2")
        assert (g.n, g.m) == (3, 2)
        assert list(g.degrees) == [1, 2, 1]

    def test_dedupe_and_symmetry_collapse(self):
        g = load_edge_list("0 1\n1 0\n0 1")
        assert (g.n, g.m) == (2, 1)

    def test_comment_skip_and_remap(self):
        g = load_edge_list("# c\n5 7\n7 9")
        assert (g.n, g.m) == (3, 2)
        assert g.id_map == (5, 7, 9)

    def test_malformed_token_reports_line(self):
        with pytest.raises(EdgeListParseError, match="line 2"):
            load_edge_list("0 1\nx 2")

    def test_wrong_token_count_reports_line(self):
        with pytest.raises(EdgeListParseError, match="line 1"):
            load_edge_list("0 1 2")

    def test_negative_id_rejected(self):
        with pytest.raises(EdgeListParseError):
            load_edge_list("0 -1")

    def test_id_beyond_64_bits_rejected(self, tmp_path):
        with pytest.raises(EdgeListParseError, match="2\\^64"):
            load_edge_list(f"0 {1 << 64}")
        path = str(tmp_path / "g.lwg")
        save_cache(load_edge_list(f"0 {(1 << 64) - 1}"), path)
        assert load_cache(path).id_map == (0, (1 << 64) - 1)

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphError):
            load_edge_list("# only comments\n")
        with pytest.raises(GraphError):
            load_edge_list("3 3")  # all edges are dropped self-loops

    def test_self_loop_dropped_vertex_retained(self):
        g = load_edge_list("0 0\n0 1\n2 2")
        assert g.n == 3
        assert g.degree(2) == 0

    def test_adjacency_sorted_and_symmetric(self):
        g = gnp(40, 0.15, seed=5)
        g.check_invariants()

    @settings(max_examples=300, deadline=None, database=None)
    @given(text=edge_lists(), form=st.sampled_from(["str", "file", "lines"]),
           block=st.sampled_from([1, 6, 64, graph._BLOCK_BYTES]))
    def test_matches_reference(self, text, form, block):
        # the same Graph, or the same error on the same line, from each
        # source form and with blocks cut short
        want = _outcome(_reference_load_edge_list, text)
        source = {"str": text, "file": io.StringIO(text), "lines": text.split("\n")}[form]
        with mock.patch.object(graph, "_BLOCK_BYTES", block):
            got = _outcome(load_edge_list, source)
        if isinstance(want, GraphError):
            assert type(got) is type(want) and str(got) == str(want)
        else:
            assert_same_graph(got, want)

    @pytest.mark.parametrize("line", ["+5 1", "-0 1", "1_0 2", "\u0663 1", "0\xa01",
                                      "0\x851", "1 \uff15"])
    def test_forms_outside_the_grammar_name_their_line(self, line):
        # int() and str.split() read these, so the per-line reference did
        text = f"0 1\n{line}\n"
        assert _reference_load_edge_list(text).m >= 1
        with pytest.raises(EdgeListParseError, match="^line 2: "):
            load_edge_list(text)

    def test_long_zero_padded_ids_are_exact(self):
        g = load_edge_list(f"{'0' * 24}1 {(1 << 64) - 1:025d}\n1 {10 ** 19}")
        assert g.id_map == (1, (1 << 64) - 1, 10 ** 19)


class TestIngestWorkingSet:
    """The traced peak of load_edge_list, in bytes a line: the text's UTF-8
    copy, the ids (16 a line), the remap's int64 arrays and from_edge_array's
    keys; per-byte temporaries stay within one block."""

    def test_peak_bytes_per_line(self):
        lines = 200_000
        ends = np.random.default_rng(5).integers(0, 100_000, size=(lines, 2))
        text = "# sparse multigraph\n" + "".join(f"{a} {b}\n" for a, b in ends.tolist())
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            g = load_edge_list(text)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert g.m > 0.99 * lines
        assert peak / lines <= 120.0


class TestGnm:
    @pytest.mark.parametrize("n, m", [(2, 1), (10, 45), (50, 300), (1000, 5000)])
    def test_exactly_m_distinct_edges(self, n, m):
        g = gnm(n, m, seed=3)
        assert (g.n, g.m) == (n, m)
        g.check_invariants()

    def test_deterministic_per_seed(self):
        a, b, c = gnm(200, 900, seed=1), gnm(200, 900, seed=1), gnm(200, 900, seed=2)
        assert np.array_equal(a.offsets, b.offsets) and np.array_equal(a.neighbors, b.neighbors)
        assert not np.array_equal(a.neighbors, c.neighbors)

    def test_uniform_over_edge_sets(self):
        # K4 has 6 edges and 15 two-edge subsets; chi-square over 3000 seeds
        # against 14 degrees of freedom, whose 99.9% quantile is 36.1
        counts = {}
        for seed in range(3000):
            g = gnm(4, 2, seed=seed)
            key = tuple(g.neighbors.tolist()), tuple(g.degrees.tolist())
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 15
        assert sum((c - 200) ** 2 / 200 for c in counts.values()) < 36.1

    @pytest.mark.parametrize("n, m", [(10, 46), (2, 2), (5, 0)])
    def test_impossible_sizes_raise(self, n, m):
        with pytest.raises(ValueError):
            gnm(n, m, seed=0)


def unique_rows_reference(n, edges):
    """from_edge_array's arrays built from np.unique over stacked pairs."""
    both = np.unique(np.vstack([edges, edges[:, ::-1]]), axis=0)
    degrees = np.bincount(both[:, 0], minlength=n).astype(np.int64)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])
    return offsets, both[:, 1].astype(np.int64), degrees, both.shape[0] // 2


class TestFromEdgeArray:
    def test_matches_unique_rows_reference(self):
        # multigraphs with duplicates and both orientations of an edge
        rng = np.random.Generator(np.random.PCG64(7))
        for _ in range(50):
            n = int(rng.integers(2, 60))
            edges = rng.integers(0, n, size=(int(rng.integers(1, 4 * n)), 2))
            edges = edges[edges[:, 0] != edges[:, 1]]
            if edges.size == 0:
                edges = np.array([[0, 1]])
            edges = np.vstack([edges, edges[: len(edges) // 2, ::-1], edges[:3]])
            g = from_edge_array(n, edges)
            offsets, neighbors, degrees, m = unique_rows_reference(n, edges)
            for got, want in ((g.offsets, offsets), (g.neighbors, neighbors),
                              (g.degrees, degrees)):
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
            assert g.m == m
            g.check_invariants()


class TestSortUnique:
    """sort_unique gives exactly np.unique's values."""

    @pytest.mark.parametrize("values", [
        np.empty(0, dtype=np.int64), np.array([7]), np.array([3, 3, 3]),
        np.array([5, -2, 5, 0, -2, 9], dtype=np.int32),
        np.random.default_rng(1).integers(0, 50, size=5000),
        np.random.default_rng(2).integers(0, 2**40, size=5000).astype(np.uint64),
    ], ids=["empty", "single", "constant", "signed-int32", "dense", "sparse-uint64"])
    def test_matches_np_unique(self, values):
        got = sort_unique(values)
        assert got.dtype == values.dtype
        assert np.array_equal(got, np.unique(values))


class TestEdgeQueries:
    def test_has_edges_matches_rows(self):
        g = gnp(30, 0.2, seed=4)
        u, v = np.divmod(np.arange(g.n * g.n), g.n)
        want = [v_ in g.neighbors_of(u_) for u_, v_ in zip(u, v)]
        assert g.has_edges(u, v).tolist() == want
        assert [g.has_edge(int(a), int(b)) for a, b in zip(u, v)] == want

    def test_ids_outside_graph_are_not_edges(self):
        g = path_graph(4)
        # each pair's key u * 4 + v is the key of an edge
        u, v = np.array([0, -1, 4, 1]), np.array([6, 5, -2, 5])
        assert not g.has_edges(u, v).any()
        assert not g.has_edge(0, 6)

    @pytest.mark.parametrize("queries, table", [(50, False), (20_000, True)],
                             ids=["search", "table"])
    def test_search_and_table_agree_with_rows(self, monkeypatch, queries, table):
        # cycle_graph(200)'s edge keys span about 40 000: within 6 times the
        # queries and 400 edge keys for the many queries, not for the few
        g = cycle_graph(200)
        rng = np.random.default_rng(queries)
        u = rng.integers(-2, g.n + 2, size=queries)
        v = np.where(rng.random(queries) < 0.5, u + rng.choice([-1, 1], size=queries),
                     rng.integers(-2, g.n + 2, size=queries))
        want = [0 <= a < g.n and 0 <= b < g.n and b in g.neighbors_of(a)
                for a, b in zip(u, v)]
        calls = []
        isin = np.isin
        monkeypatch.setattr(np, "isin", lambda *a, **kw: calls.append(kw) or isin(*a, **kw))
        assert g.has_edges(u, v).tolist() == want
        assert calls == ([{"kind": "table"}] if table else [])


class TestQuantities:
    def test_volume_c6_arc(self):
        assert volume(cycle_graph(6), [0, 1, 2]) == 6

    def test_volume_empty(self):
        assert volume(cycle_graph(6), []) == 0

    def test_volume_star_center(self):
        assert volume(star_graph(4), [0]) == 4

    def test_boundary_c6_arc(self):
        assert boundary_size(cycle_graph(6), [0, 1, 2]) == 2

    def test_boundary_full_set(self):
        g = cycle_graph(6)
        assert boundary_size(g, range(6)) == 0

    def test_boundary_clique_pair_bridge(self):
        g = two_cliques(15)
        assert boundary_size(g, range(15)) == 1

    def test_conductance_c6_arc(self):
        assert conductance(cycle_graph(6), [0, 1, 2]) == Fraction(1, 3)

    def test_conductance_star_center(self):
        assert conductance(star_graph(4), [0]) == Fraction(1)

    def test_conductance_clique_pair(self):
        g = two_cliques(15)
        assert volume(g, range(15)) == 15 * 14 + 1
        assert conductance(g, range(15)) == Fraction(1, 211)

    def test_conductance_undefined(self):
        g = cycle_graph(6)
        with pytest.raises(UndefinedConductanceError):
            conductance(g, [])
        with pytest.raises(UndefinedConductanceError):
            conductance(g, range(6))

    def test_conductance_complement_symmetry(self):
        g = gnp(30, 0.2, seed=9)
        rng = np.random.Generator(np.random.PCG64(3))
        for _ in range(20):
            size = int(rng.integers(1, g.n))
            s = list(rng.choice(g.n, size=size, replace=False))
            comp = [v for v in range(g.n) if v not in set(s)]
            if volume(g, s) == 0 or volume(g, comp) == 0:
                continue
            assert conductance(g, s) == conductance(g, comp)

    def test_degree_sum_is_twice_m(self):
        for seed in range(5):
            g = gnp(30, 0.2, seed=seed)
            assert int(g.degrees.sum()) == 2 * g.m == g.volume


class TestConductanceDualComputation:
    def test_all_subsets_incremental_vs_direct(self):
        # n <= 16: every nonempty proper subset, Gray-code updates vs definition
        from walkstitch import oracle
        g = gnp(10, 0.35, seed=11)
        best_direct = None
        for mask in range(1, (1 << g.n) - 1):
            s = [v for v in range(g.n) if mask >> v & 1]
            vol = volume(g, s)
            if min(vol, g.volume - vol) <= 0:
                continue
            phi = conductance(g, s)
            if best_direct is None or phi < best_direct:
                best_direct = phi
        _, best_incremental = oracle.brute_conductance_min(g)
        assert best_incremental == best_direct


class TestVertexSet:
    """Vertex sets passed to volume, boundary_size and conductance."""

    def test_rejects_duplicates(self):
        with pytest.raises(GraphError):
            volume(cycle_graph(6), [0, 0, 1])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            volume(cycle_graph(6), [7])


class TestCache:
    def test_roundtrip(self, tmp_path):
        g = load_edge_list("# c\n5 7\n7 9\n9 5")
        path = tmp_path / "g.lwg"
        save_cache(g, str(path))
        h = load_cache(str(path))
        assert (h.n, h.m) == (g.n, g.m)
        assert np.array_equal(h.degrees, g.degrees)
        assert np.array_equal(h.neighbors, g.neighbors)
        assert np.array_equal(h.offsets, g.offsets)
        assert h.id_map == (5, 7, 9)

    @pytest.mark.parametrize("keep", [4, 12, 20, 27, 100, -9, -8, -1])
    def test_truncated_cache_raises_graph_error(self, keep, tmp_path):
        path = tmp_path / "g.lwg"
        save_cache(cycle_graph(12), str(path))
        data = path.read_bytes()
        path.write_bytes(data[:keep])
        with pytest.raises(GraphError):
            load_cache(str(path))

    @pytest.mark.parametrize("word,value", [
        (2, 3),        # degree of vertex 0 changed, so degrees no longer sum to 2m
        (14, 12),      # first neighbor id out of range
        (38, 11)])     # id-map count differs from n
    def test_corrupt_cache_raises_graph_error(self, word, value, tmp_path):
        path = tmp_path / "g.lwg"
        save_cache(cycle_graph(12), str(path))
        words = np.frombuffer(path.read_bytes(), dtype="<u8", offset=4).copy()
        words[word] = value
        path.write_bytes(b"LWG1" + words.tobytes())
        with pytest.raises(GraphError, match="corrupt"):
            load_cache(str(path))

    def test_repeated_original_id_raises_graph_error(self, tmp_path):
        path = tmp_path / "g.lwg"
        save_cache(load_edge_list("5 7\n7 9"), str(path))
        words = np.frombuffer(path.read_bytes(), dtype="<u8", offset=4).copy()
        words[-1] = words[-3]    # id map (5, 7, 9) becomes (5, 7, 5)
        path.write_bytes(b"LWG1" + words.tobytes())
        with pytest.raises(GraphError, match="corrupt"):
            load_cache(str(path))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(GraphError, match="magic"):
            load_cache(str(path))
