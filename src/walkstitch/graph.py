"""Immutable undirected graphs in compressed adjacency form.

Covers ingestion from SNAP-style edge lists, a binary cache format, and the
combinatorial quantities (degree, volume, boundary, conductance) that
everything else consumes. Graphs are simple: duplicate edges are merged and
self-loops are dropped at ingestion.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, Tuple

import numpy as np

_CACHE_MAGIC = b"LWG1"


class GraphError(ValueError):
    pass


class EdgeListParseError(GraphError):
    """Malformed edge-list input; message carries the offending line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class UndefinedConductanceError(GraphError):
    pass


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph with sorted, offset-indexed neighbor lists.

    `neighbors` holds the concatenated sorted adjacency lists; vertex v's
    neighbors occupy neighbors[offsets[v]:offsets[v+1]]. `id_map` remembers
    the original input id for each compact id (None for generated graphs).
    """

    n: int
    m: int
    offsets: np.ndarray
    neighbors: np.ndarray
    degrees: np.ndarray
    id_map: Tuple[int, ...] | None = field(default=None)

    def neighbors_of(self, v: int) -> np.ndarray:
        return self.neighbors[self.offsets[v]:self.offsets[v + 1]]

    def degree(self, v: int) -> int:
        return int(self.degrees[v])

    @property
    def volume(self) -> int:
        """Vol(G) = sum of all degrees = 2m."""
        return 2 * self.m

    def has_edge(self, u: int, v: int) -> bool:
        row = self.neighbors_of(u)
        i = np.searchsorted(row, v)
        return bool(i < row.size and row[i] == v)

    def check_invariants(self) -> None:
        """Full-scan assertions: degree sum, symmetry, sortedness, no loops."""
        assert int(self.degrees.sum()) == 2 * self.m
        assert self.offsets[0] == 0 and self.offsets[-1] == 2 * self.m
        for v in range(self.n):
            row = self.neighbors_of(v)
            assert np.all(np.diff(row) > 0), f"unsorted or duplicate neighbors at {v}"
            assert v not in row, f"self-loop at {v}"
            for u in row:
                assert self.has_edge(int(u), v), f"asymmetric edge ({v},{u})"


def _as_vertex_ids(g: Graph, s: Iterable[int]) -> Tuple[Tuple[int, ...], int]:
    """Distinct in-range vertex ids of s and their volume."""
    ids = tuple(int(v) for v in s)
    if len(set(ids)) != len(ids):
        raise GraphError("duplicate vertex ids in set")
    for v in ids:
        if not 0 <= v < g.n:
            raise GraphError(f"vertex id {v} out of range [0, {g.n})")
    return ids, int(g.degrees[list(ids)].sum())


def from_edge_array(n: int, edges: np.ndarray, id_map: Tuple[int, ...] | None = None) -> Graph:
    """Build a Graph from an array of undirected edge pairs (may contain
    duplicates and both orientations; self-loops must be removed already)."""
    if edges.size == 0:
        raise GraphError("empty graph: no edges")
    both = np.vstack([edges, edges[:, ::-1]])
    both = np.unique(both, axis=0)
    src = both[:, 0]
    degrees = np.bincount(src, minlength=n).astype(np.int64)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])
    # rows of `both` are sorted lexicographically, so each adjacency list is sorted
    neighbors = both[:, 1].astype(np.int64)
    m = both.shape[0] // 2
    return Graph(n=n, m=m, offsets=offsets, neighbors=neighbors,
                 degrees=degrees, id_map=id_map)


def load_edge_list(source) -> Graph:
    """Parse a whitespace-separated edge list, given as text or as lines, into a Graph.

    Lines starting with '#' are comments. Vertex ids may be arbitrary
    non-negative integers; they are remapped to contiguous 0-based ids in
    order of first appearance, and the mapping is retained on the graph.

    The walk model runs on simple graphs: duplicate edges are merged and
    self-loops dropped (their vertex ids stay registered). Laziness is added
    by the walk engine, not by self-loops.
    """
    lines: Iterable[str] = io.StringIO(source) if isinstance(source, str) else source

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
            continue  # self-loop dropped; vertex id stays registered
        us.append(remap[a])
        vs.append(remap[b])

    n = len(remap)
    if n == 0:
        raise GraphError("empty graph: no vertices")
    if not us:
        raise GraphError("empty graph: no edges after ingestion")
    edges = np.column_stack([np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64)])
    id_map = tuple(orig for orig, _ in sorted(remap.items(), key=lambda kv: kv[1]))
    return from_edge_array(n, edges, id_map=id_map)


def volume(g: Graph, s: Iterable[int]) -> int:
    """Vol(S): sum of degrees over S."""
    _, vol = _as_vertex_ids(g, s)
    return vol


def boundary_size(g: Graph, s: Iterable[int]) -> int:
    """Number of edges with exactly one endpoint in S."""
    ids, _ = _as_vertex_ids(g, s)
    if not ids:
        return 0
    mask = np.zeros(g.n, dtype=bool)
    mask[list(ids)] = True
    cut = 0
    for v in ids:
        row = g.neighbors_of(v)
        cut += int(row.size) - int(mask[row].sum())
    return cut


def conductance(g: Graph, s: Iterable[int]) -> Fraction:
    """Phi(S) = |boundary(S)| / min(Vol(S), 2m - Vol(S)) as an exact rational.

    Raises UndefinedConductanceError when the denominator would be zero
    (S empty, S = V, or volumes degenerate); never returns a silent 0 or inf.
    """
    ids, vol = _as_vertex_ids(g, s)
    denom = min(vol, g.volume - vol)
    if denom <= 0:
        raise UndefinedConductanceError(
            f"undefined conductance: Vol(S)={vol}, Vol(G)={g.volume}")
    return Fraction(boundary_size(g, ids), denom)


def save_cache(g: Graph, path: str) -> None:
    """Binary cache: magic 'LWG1', n, m, degrees, neighbors, id-remap table.

    All integers are little-endian 64-bit.
    """
    with open(path, "wb") as f:
        f.write(_CACHE_MAGIC)
        header = np.array([g.n, g.m], dtype="<u8")
        f.write(header.tobytes())
        f.write(g.degrees.astype("<u8").tobytes())
        f.write(g.neighbors.astype("<u8").tobytes())
        id_map = g.id_map if g.id_map is not None else tuple(range(g.n))
        f.write(np.array([len(id_map)], dtype="<u8").tobytes())
        f.write(np.array(id_map, dtype="<u8").tobytes())


def load_cache(path: str) -> Graph:
    """Read a save_cache file; a truncated or inconsistent one raises GraphError."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != _CACHE_MAGIC:
        raise GraphError(f"not a graph cache file: bad magic {data[:4]!r}")
    if len(data) < 20:
        raise GraphError(f"{path}: truncated graph cache header")
    n, m = (int(x) for x in np.frombuffer(data, dtype="<u8", count=2, offset=4))
    need = 4 + 8 * (3 + 2 * n + 2 * m)  # magic, n, m, degrees, neighbors, k, id map
    if len(data) != need:
        raise GraphError(f"{path}: graph cache has {len(data)} bytes, "
                         f"n={n} and m={m} need {need}")
    words = np.frombuffer(data, dtype="<u8", offset=20)
    degrees, neighbors = words[:n], words[n:n + 2 * m]
    # degrees <= 2m keeps their uint64 sum from wrapping round to 2m
    if (m < 1 or int(words[n + 2 * m]) != n or np.any(degrees > 2 * m)
            or int(degrees.sum()) != 2 * m or int(neighbors.max()) >= n):
        raise GraphError(f"{path}: corrupt graph cache: the id-map count must be n, "
                         "the degrees must sum to 2m and neighbors must be < n")
    degrees = degrees.astype(np.int64)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])
    return Graph(n=n, m=m, offsets=offsets, neighbors=neighbors.astype(np.int64),
                 degrees=degrees, id_map=tuple(int(x) for x in words[n + 2 * m + 1:]))
