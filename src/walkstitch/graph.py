"""Immutable undirected graphs in compressed adjacency form.

Covers ingestion from SNAP-style edge lists, a binary cache format, and the
combinatorial quantities (degree, volume, boundary, conductance) that
everything else consumes. Graphs are simple: duplicate edges are merged and
self-loops are dropped at ingestion.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Tuple

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

    def _edge_keys(self) -> np.ndarray:
        """src * n + neighbor for every adjacency entry, in storage order."""
        src = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        return src * self.n + self.neighbors

    def has_edges(self, u, v) -> np.ndarray:
        """Elementwise: is (u[i], v[i]) an edge? Ids outside [0, n) are non-edges.
        Looks u * n + v up among the edge keys, which strictly increase on any
        graph that passes check_invariants: by np.isin's table of the key
        range when that range is within numpy's own bound of 6 times the
        queries and edge keys together (many queries on a small graph), and
        otherwise by binary search, which np.isin would replace by a sort of
        both arrays."""
        u, v = (np.asarray(x).astype(np.int64) for x in (u, v))
        inside = (np.minimum(u, v) >= 0) & (np.maximum(u, v) < self.n)
        keys = u * self.n + v
        edge_keys = self._edge_keys()
        if edge_keys.size and edge_keys[-1] - edge_keys[0] > 6 * (keys.size + edge_keys.size):
            pos = np.minimum(np.searchsorted(edge_keys, keys), edge_keys.size - 1)
            return inside & (edge_keys[pos] == keys)
        return inside & np.isin(keys, edge_keys, kind="table")

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.has_edges([u], [v])[0])

    def check_invariants(self) -> None:
        """Raise GraphError unless this is a simple undirected graph.

        Degrees sum to 2m and neighbors lie in [0, n). Over the edge keys
        src * n + neighbor: they strictly increase (rows sorted, no
        duplicates), none is a self-loop, and the keys of the reversed
        entries, sorted, equal them (every edge is stored both ways).
        """
        nb = self.neighbors
        if (nb.size != 2 * self.m or int(self.degrees.sum()) != nb.size
                or np.any((nb < 0) | (nb >= self.n))):
            raise GraphError("degrees must sum to 2m and neighbors must be in [0, n)")
        keys = self._edge_keys()
        src = keys // self.n
        if np.any(np.diff(keys) <= 0):
            raise GraphError("a row of neighbors is unsorted or has a duplicate")
        if np.any(src == nb):
            raise GraphError("a vertex is its own neighbor (self-loop)")
        if not np.array_equal(np.sort(nb * self.n + src), keys):
            raise GraphError("an edge is stored in one direction only")


def _as_vertex_ids(g: Graph, s: Iterable[int]) -> Tuple[Tuple[int, ...], int]:
    """Distinct in-range vertex ids of s and their volume."""
    ids = tuple(int(v) for v in s)
    if len(set(ids)) != len(ids):
        raise GraphError("duplicate vertex ids in set")
    for v in ids:
        if not 0 <= v < g.n:
            raise GraphError(f"vertex id {v} out of range [0, {g.n})")
    return ids, int(g.degrees[list(ids)].sum())


def _run_starts(sorted_values: np.ndarray) -> np.ndarray:
    """Mask of the entries of a sorted array that differ from the one before."""
    starts = np.empty(sorted_values.size, dtype=bool)
    starts[:1] = True
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=starts[1:])
    return starts


def sort_unique(values: np.ndarray) -> np.ndarray:
    """np.unique(values) for a 1-D array, by one sort and a neighbour diff:
    numpy 2.4's np.unique takes a hash path that is 10-60 times slower on
    10^4-10^7 values."""
    ordered = np.sort(values)
    return ordered[_run_starts(ordered)]


def from_edge_array(n: int, edges: np.ndarray, id_map: Tuple[int, ...] | None = None) -> Graph:
    """Build a Graph from an array of undirected edge pairs (may contain
    duplicates and both orientations; self-loops must be removed already)."""
    if edges.size == 0:
        raise GraphError("empty graph: no edges")
    u, v = edges[:, 0].astype(np.int64, copy=False), edges[:, 1].astype(np.int64, copy=False)
    # distinct keys src * n + neighbor, sorted: rows in vertex order, each
    # sorted. An in-place sort and a neighbour diff, where np.unique would
    # take numpy's hash path, which is far slower on large inputs.
    keys = np.concatenate([u * n + v, v * n + u])
    keys.sort()
    src, neighbors = np.divmod(keys[_run_starts(keys)], n)
    degrees = np.bincount(src, minlength=n).astype(np.int64)
    offsets = np.concatenate(([0], np.cumsum(degrees)))
    return Graph(n=n, m=neighbors.size // 2, offsets=offsets, neighbors=neighbors,
                 degrees=degrees, id_map=id_map)


# The ASCII bytes str.split() treats as whitespace. Only \n ends a line;
# all of them separate tokens.
_SEPARATORS = "\t\n\v\f\r\x1c\x1d\x1e\x1f "
_IN_TOKEN = np.ones(256, dtype=bool)
_IN_TOKEN[[ord(c) for c in _SEPARATORS]] = False
_OTHER = _IN_TOKEN.copy()    # neither a separator nor an ASCII digit
_OTHER[ord("0"):ord("9") + 1] = False
_TOKEN = re.compile(f"[^{re.escape(_SEPARATORS)}]+")   # the same tokens in a str
_BLOCK_BYTES = 1 << 18  # per-byte temporaries are a few times this


def _text_bytes(source) -> bytes:
    """The whole of source as UTF-8 bytes: a str, a text file, or an
    iterable of lines, each line with or without its trailing newline."""
    if isinstance(source, str):
        text = source
    elif hasattr(source, "read"):
        text = source.read()
    else:
        text = "\n".join(line.removesuffix("\n") for line in source)
    # surrogatepass: any str encodes, and a line decodes back to itself
    return text.encode("utf-8", "surrogatepass")


def _line_error(lineno: int, line: str) -> EdgeListParseError:
    """The error for a line outside the grammar: the wrong token count, an
    id that Python's int() reads as outside [0, 2^64), or else a
    non-integer token."""
    tokens = _TOKEN.findall(line)
    if len(tokens) != 2:
        return EdgeListParseError(lineno, f"expected 2 tokens, got {len(tokens)}")
    if all(t.isascii() for t in tokens):
        try:
            ids = [int(t) for t in tokens]
        except ValueError:
            pass
        else:
            if not all(0 <= x < 1 << 64 for x in ids):
                return EdgeListParseError(lineno, "vertex id outside [0, 2^64)")
    return EdgeListParseError(lineno, f"non-integer token in {tokens!r}")


def _token_values(block: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """The value of each digit run block[starts[i]:ends[i]] as uint64, and
    whether it is 2^64 or more. Runs of other bytes give junk values.

    Horner's rule over the last 19 digits, one vectorised column at a time
    (10^19 - 1 fits 64 bits); a run of 20 or more digits is in range when
    every digit before its 20th from the right is 0 and that one is 0, or
    1 with the last 19 digits at most 2^64 - 1 - 10^19.
    """
    width = min(int((ends - starts).max(initial=0)), 19)
    values = np.zeros(starts.size, dtype=np.uint64)
    for k in range(width, 0, -1):
        pos = ends - k
        values *= np.uint64(10)
        values += np.where(pos >= starts, block.take(pos), 48) - np.uint8(48)
    too_big = np.zeros(starts.size, dtype=bool)
    long = np.flatnonzero(ends - starts >= 20)
    if long.size:
        s, e = starts[long], ends[long] - 20    # e: the 20th digit from the right
        nonzero = np.concatenate(([0], np.cumsum(block != ord("0"))))
        digit = block.take(e)
        one = digit == ord("1")
        too_big[long] = ((nonzero[e] > nonzero[s]) | (digit > ord("1"))
                         | (one & (values[long] > np.uint64((1 << 64) - 1 - 10 ** 19))))
        values[long] += np.uint64(10 ** 19) * one
    return values, too_big


def _block_ids(block: np.ndarray, lineno: int) -> np.ndarray:
    """The ids of a block of whole lines, two per data line in line order;
    the block's first line is line lineno + 1. A line outside the grammar
    raises EdgeListParseError, the first one in the block."""
    newlines = np.flatnonzero(block == 10)
    lines = newlines.size + (block[-1] != 10)
    # a token is a maximal run of non-separators; runs alternately start and end
    edges = np.flatnonzero(np.diff(_IN_TOKEN.take(block), prepend=False, append=False))
    starts, ends = edges[0::2], edges[1::2]
    line = np.searchsorted(newlines, starts)
    first = np.ones(starts.size, dtype=bool)
    np.not_equal(line[1:], line[:-1], out=first[1:])
    comment = np.zeros(lines, dtype=bool)
    comment[line[first & (block.take(starts) == ord("#"))]] = True
    keep = ~comment[line]
    starts, ends, line = starts[keep], ends[keep], line[keep]
    values, too_big = _token_values(block, starts, ends)
    count = np.bincount(line, minlength=lines)
    bad = (count != 0) & (count != 2)
    bad[np.searchsorted(newlines, np.flatnonzero(_OTHER.take(block)))] = True
    bad[line[too_big]] = True
    bad &= ~comment
    if bad.any():
        i = int(np.argmax(bad))
        lo = newlines[i - 1] + 1 if i else 0
        hi = newlines[i] if i < newlines.size else block.size
        text = block[lo:hi].tobytes().decode("utf-8", "surrogatepass")
        raise _line_error(lineno + i + 1, text)
    return values


def _edge_list_ids(data: bytes) -> np.ndarray:
    """The ids of every data line of an edge list, two a line in line order
    (uint64), tokenized in blocks of whole lines."""
    blocks, lineno, lo = [np.empty(0, dtype=np.uint64)], 0, 0
    while lo < len(data):
        hi = len(data)
        if lo + _BLOCK_BYTES < hi:  # cut after a newline; a longer line is one block
            hi = (data.rfind(b"\n", lo, lo + _BLOCK_BYTES) + 1
                  or data.find(b"\n", lo + _BLOCK_BYTES) + 1 or hi)
        block = np.frombuffer(data, dtype=np.uint8, count=hi - lo, offset=lo)
        blocks.append(_block_ids(block, lineno))
        lineno += int(np.count_nonzero(block == 10))
        lo = hi
    return np.concatenate(blocks)


def _first_appearance_ids(ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Compact ids 0.. numbered in order of first appearance (int64, one per
    entry of ids), and the distinct ids in that order.

    One sort groups equal ids, in any order within a group; the least
    position in each group is that id's first appearance.
    """
    order = np.argsort(ids)
    head = _run_starts(ids[order])
    firsts = np.minimum.reduceat(order, np.flatnonzero(head))   # ids in value order
    is_first = np.zeros(ids.size, dtype=bool)
    is_first[firsts] = True
    group = np.cumsum(head)
    group -= 1
    group = (np.cumsum(is_first)[firsts] - 1)[group]   # compact ids in sorted order
    compact = np.empty(ids.size, dtype=np.int64)
    compact[order] = group
    return compact, ids[is_first]


def load_edge_list(source) -> Graph:
    r"""Parse an edge list into a Graph: a str, a text file, or an iterable
    of lines (a line's trailing newline is optional).

    The grammar, line by line (lines end at \n; \r\n works as \r is a
    separator, and a text file read with universal newlines ends lines at
    a lone \r too):

    * a data line is two vertex ids separated by separators, with optional
      separators before and after; a separator is one of the ASCII bytes
      str.split() treats as whitespace (\t \n \v \f \r, \x1c-\x1f and
      space), and a vertex id is a run of ASCII digits, leading zeros
      allowed, read exactly at any length and below 2^64;
    * a line whose first non-separator character is '#' is a comment, and
      a line of separators only is blank; both are skipped;
    * any other line raises EdgeListParseError naming the first such line:
      the wrong token count, an id outside [0, 2^64), or a non-integer
      token (signs, underscores, non-ASCII digits and non-ASCII whitespace
      included).

    Vertex ids are remapped to contiguous 0-based ids in order of first
    appearance, and the mapping is retained on the graph. The walk model
    runs on simple graphs: duplicate edges are merged and self-loops
    dropped (their vertex ids stay registered). Laziness is added by the
    walk engine, not by self-loops.

    The text is tokenized in numpy, in blocks of whole lines, so per-byte
    temporaries stay bounded by the block and what is kept grows with the
    number of ids.
    """
    ids = _edge_list_ids(_text_bytes(source))
    if ids.size == 0:
        raise GraphError("empty graph: no vertices")
    compact, distinct = _first_appearance_ids(ids)
    # freed before from_edge_array, which holds its keys and their copies
    del ids
    edges = compact.reshape(-1, 2)
    edges = edges[edges[:, 0] != edges[:, 1]]   # self-loops dropped, ids kept
    del compact
    if edges.size == 0:
        raise GraphError("empty graph: no edges after ingestion")
    return from_edge_array(distinct.size, edges, id_map=tuple(distinct.tolist()))


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
    """Read a save_cache file; a truncated or inconsistent one, one whose id
    map repeats an original id, or one whose adjacency fails
    check_invariants, raises GraphError."""
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
    # degrees <= 2m keeps their sum in check_invariants from wrapping round to 2m
    if m < 1 or int(words[n + 2 * m]) != n or np.any(degrees > 2 * m):
        raise GraphError(f"{path}: corrupt graph cache: the id-map count must be n "
                         "and no degree may exceed 2m")
    id_map = words[n + 2 * m + 1:]
    if not _run_starts(np.sort(id_map)).all():
        raise GraphError(f"{path}: corrupt graph cache: the id map repeats an original id")
    degrees = degrees.astype(np.int64)
    offsets = np.concatenate(([0], np.cumsum(degrees)))
    g = Graph(n=n, m=m, offsets=offsets, neighbors=neighbors.astype(np.int64),
              degrees=degrees, id_map=tuple(id_map.tolist()))
    try:
        g.check_invariants()
    except GraphError as exc:
        raise GraphError(f"{path}: corrupt graph cache: {exc}") from None
    return g
