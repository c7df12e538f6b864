"""Exact sequential reference implementations for tests and verification.

Walk distributions by repeated sparse multiplies, PageRank by truncated
series, walk enumeration and brute-force conductance in exact rationals.
Dense vectors are fine here: the oracle is capped at n <= 10^4 and tests use
far less.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Tuple

import numpy as np

from .graph import Graph

ORACLE_MAX_N = 10_000


def _as_dense_start(g: Graph, start) -> np.ndarray:
    if isinstance(start, (int, np.integer)):
        out = np.zeros(g.n)
        out[int(start)] = 1.0
        return out
    arr = np.asarray(start, dtype=float)
    if arr.shape != (g.n,):
        raise ValueError(f"start vector has shape {arr.shape}, expected ({g.n},)")
    return arr


def _check_cap(g: Graph) -> None:
    if g.n > ORACLE_MAX_N:
        raise ValueError(f"oracle capped at n <= {ORACLE_MAX_N}, got n={g.n}")


def walk_step(g: Graph, x: np.ndarray, lazy: bool) -> np.ndarray:
    """One multiply by D^-1 A (or by (I + D^-1 A)/2 when lazy).

    Mass on degree-0 vertices has nowhere to go and is held in place.
    """
    safe_deg = np.maximum(g.degrees, 1)
    contrib = np.repeat(x / safe_deg, g.degrees)
    moved = np.bincount(g.neighbors, weights=contrib, minlength=g.n)
    stuck = np.where(g.degrees == 0, x, 0.0)
    if lazy:
        return 0.5 * (x + moved + stuck)
    return moved + stuck


def exact_step_dist(g: Graph, start, t: int, lazy: bool = False) -> np.ndarray:
    """Distribution of the walk after t steps: start @ M^t."""
    _check_cap(g)
    if t < 0:
        raise ValueError("t must be >= 0")
    x = _as_dense_start(g, start)
    for _ in range(t):
        x = walk_step(g, x, lazy)
    return x


def exact_ppr(g: Graph, s, alpha: float, tol: float = 1e-13) -> np.ndarray:
    """PageRank with teleport alpha: alpha * sum_t (1-alpha)^t s W^t, W lazy.

    The series is summed until the remaining tail mass (1-alpha)^(t+1) drops
    below tol, so the result's mass is within tol of 1.
    """
    _check_cap(g)
    if not 0 < alpha <= 1:
        raise ValueError("alpha must be in (0, 1]")
    x = _as_dense_start(g, s)
    acc = alpha * x
    t = 0
    weight = alpha
    while (1 - alpha) ** (t + 1) >= tol:
        x = walk_step(g, x, lazy=True)
        weight *= 1 - alpha
        acc = acc + weight * x
        t += 1
    return acc


def ppr_residual(g: Graph, p: np.ndarray, s, alpha: float) -> float:
    """Max-norm defect of the fixed point p = alpha*s + (1-alpha) p W."""
    sv = _as_dense_start(g, s)
    return float(np.abs(p - alpha * sv - (1 - alpha) * walk_step(g, p, lazy=True)).max())


def tvd(p: np.ndarray, q: np.ndarray) -> float:
    """Total variation distance: half the L1 distance."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("shape mismatch")
    return 0.5 * float(np.abs(p - q).sum())


def enumerate_walks(g: Graph, r: int, length: int, lazy: bool = False
                    ) -> Dict[Tuple[int, ...], Fraction]:
    """All length-`length` walks from r with exact path probabilities.

    Probabilities are products of per-step transition fractions; the map sums
    to exactly 1. Guarded to length <= 8 to bound the enumeration.
    """
    if not 0 <= length <= 8:
        raise ValueError("enumerate_walks supports 0 <= length <= 8")
    if g.degrees[r] == 0:
        raise ValueError(f"vertex {r} is isolated")
    paths: Dict[Tuple[int, ...], Fraction] = {(r,): Fraction(1)}
    for _ in range(length):
        nxt: Dict[Tuple[int, ...], Fraction] = {}
        for path, prob in paths.items():
            u = path[-1]
            d = int(g.degrees[u])
            if lazy:
                nxt[path + (u,)] = nxt.get(path + (u,), Fraction(0)) + prob / 2
                step = prob / (2 * d)
            else:
                step = prob / d
            for w in g.neighbors_of(u):
                key = path + (int(w),)
                nxt[key] = nxt.get(key, Fraction(0)) + step
        paths = nxt
    assert sum(paths.values()) == 1
    return paths


def brute_conductance_min(g: Graph) -> Tuple[Tuple[int, ...], Fraction]:
    """Exhaustive conductance minimum over nonempty proper subsets (n <= 16).

    Walks subsets in Gray-code order with incremental cut/volume updates;
    returns the first subset attaining the minimum.
    """
    if g.n > 16:
        raise ValueError("brute force capped at n <= 16")
    two_m = g.volume
    in_set = np.zeros(g.n, dtype=bool)
    cut = 0
    vol = 0
    best: Fraction | None = None
    best_mask = 0
    prev_gray = 0
    for i in range(1, 1 << g.n):
        gray = i ^ (i >> 1)
        flipped = (gray ^ prev_gray).bit_length() - 1
        prev_gray = gray
        links = int(in_set[g.neighbors_of(flipped)].sum())
        d = int(g.degrees[flipped])
        if in_set[flipped]:
            in_set[flipped] = False
            vol -= d
            cut -= d - 2 * links  # links counted while v was still inside
        else:
            in_set[flipped] = True
            vol += d
            cut += d - 2 * links
        denom = min(vol, two_m - vol)
        if denom <= 0:
            continue
        phi = Fraction(cut, denom)
        if best is None or phi < best:
            best = phi
            best_mask = gray
    if best is None:
        raise ValueError("no subset with defined conductance")
    members = tuple(v for v in range(g.n) if best_mask >> v & 1)
    return members, best
