"""Deterministic graph builders used by tests, oracle checks, and the CLI.

Each takes its size (and `gnp` and `gnm` a seed) and returns a Graph on
vertices 0..n-1; a size too small for the shape raises ValueError.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph, from_edge_array


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    us = np.arange(n, dtype=np.int64)
    return from_edge_array(n, np.column_stack([us, (us + 1) % n]))


def path_graph(n: int) -> Graph:
    if n < 2:
        raise ValueError("path needs n >= 2")
    us = np.arange(n - 1, dtype=np.int64)
    return from_edge_array(n, np.column_stack([us, us + 1]))


def star_graph(leaves: int) -> Graph:
    """Center is vertex 0, leaves are 1..leaves."""
    if leaves < 1:
        raise ValueError("star needs >= 1 leaf")
    centers = np.zeros(leaves, dtype=np.int64)
    return from_edge_array(leaves + 1, np.column_stack([centers, np.arange(1, leaves + 1)]))


def complete_graph(k: int) -> Graph:
    if k < 2:
        raise ValueError("complete graph needs k >= 2")
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    return from_edge_array(k, np.array(pairs, dtype=np.int64))


def two_cliques(k: int, bridged: bool = True) -> Graph:
    """Two k-cliques on 0..k-1 and k..2k-1; a single bridge edge (0, k) when
    bridged. The planted cut {0..k-1} has conductance 1/(k(k-1)+1)."""
    if k < 2:
        raise ValueError("cliques need k >= 2")
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    pairs += [(k + i, k + j) for i in range(k) for j in range(i + 1, k)]
    if bridged:
        pairs.append((0, k))
    return from_edge_array(2 * k, np.array(pairs, dtype=np.int64))


def gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p), deterministic for a given seed."""
    if not 0 < p <= 1:
        raise ValueError("p must be in (0, 1]")
    rng = np.random.Generator(np.random.PCG64(seed))
    rows = []
    block = 256
    for lo in range(0, n - 1, block):
        hi = min(lo + block, n - 1)
        draws = rng.random((hi - lo, n))
        for i, u in enumerate(range(lo, hi)):
            partners = u + 1 + np.flatnonzero(draws[i, u + 1:] < p)
            if partners.size:
                rows.append(np.column_stack([np.full(partners.size, u, dtype=np.int64),
                                             partners.astype(np.int64)]))
    if not rows:
        raise ValueError(f"G({n},{p}) draw produced no edges; raise p or reseed")
    return from_edge_array(n, np.vstack(rows))



def gnm(n: int, m: int, seed: int) -> Graph:
    """Uniform G(n, m): m distinct edges, deterministic for a given seed.

    Vertex pairs are drawn uniformly and the distinct non-loop pairs are
    kept, deduplicated by a sort; the shortfall is drawn again until there
    are m. This is the law of drawing pairs one at a time until m distinct
    edges are seen, which is uniform over the m-edge graphs. O(m) draws
    while m is well below n(n-1)/2, where gnp would draw all n^2 pairs.
    """
    if not 1 <= m <= n * (n - 1) // 2:
        raise ValueError(f"G({n},{m}) needs 1 <= m <= n(n-1)/2")
    rng = np.random.Generator(np.random.PCG64(seed))
    keys = np.empty(0, dtype=np.int64)    # u * n + v with u < v, sorted, distinct
    while keys.size < m:
        u, v = rng.integers(0, n, size=(2, m - keys.size))
        drawn = np.minimum(u, v) * n + np.maximum(u, v)
        keys = np.concatenate([keys, drawn[u != v]])
        keys.sort()
        keys = keys[np.diff(keys, prepend=-1) != 0]
    return from_edge_array(n, np.column_stack(np.divmod(keys, n)))
