"""Budgeted generation of independent random walks by doubling and stitching.

A walk of length L (a power of two) is assembled from pre-generated length-1
segments in log2(L) phases: in phase j every segment whose first step label
is 1 mod 2^j asks the vertex at its end for a segment covering the next
2^(j-1) labels, and the serving vertex answers each request with a distinct,
uniformly chosen segment from its stock. Stocks are sized by per-(vertex,
label) budgets. A calibration loop re-estimates the budgets from the rooted
walks of the previous cycle, growing the root's budget geometrically until
the requested number of rooted walks exists.

Two operating modes:

* "theory": segments are bucketed per (vertex, label) and budgets carry a
  surplus factor tau^(3k-3) on label k.
* "practical": budgets are still computed per (vertex, label) but serving is
  label-free (any stock segment of the right length can answer any request),
  with a gentler surplus of tau^(log2(L) - v2(k-1)) on label k>1, where v2
  is the 2-adic valuation. This caps the surplus blow-up at tau^(log2 L)
  while keeping one factor of tau of serving headroom in every phase.

Every level of segments is kept in (start vertex, first label) order,
implied by block counts: a level is its segments' end vertices plus the
number of segments of each (start vertex, label) block, so the stock of
each serving key is a run of its vertex's blocks, in an order that does
not depend on where its segments go, and is served as it lies. A pass
returns an immutable index tree that keeps, for each segment of a level
above 0, the vertex where its two halves join: a walk is its start, the
join vertices of the nodes under it in step order, and its end; it is
built once, when it is returned.

Randomness comes from one substream per purpose and step, keyed by the run
seed: one per cycle draws every length-1 segment, one per (cycle, phase)
draws which requests of the short keys fail in a phase where some key's
stock runs short (and is not drawn in any other phase), and in rooted runs
one shuffles the returned walks. A run is therefore replayable from its
seed. Level 0 is drawn from the generator's raw words (32-bit halves for
the neighbor picks, mapped as numpy's bounded integers map them; the top
bit of a 64-bit word for a lazy coin), so it is, word for word, what
gen.integers(0, degrees) and gen.random() < 0.5 over all segments draw.
"""

from __future__ import annotations

import ctypes
import math
import os
import warnings
from dataclasses import dataclass, replace
from functools import cache, cached_property
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .graph import Graph, sort_unique
from .mpc import Cluster, KIND_REPLY, KIND_REQUEST, KIND_UPDATE, RoundLedger
from .rng import INIT_STREAM, SERVE_STREAM, SHUFFLE_STREAM, derive_key, substream

_ENGINE_NS = 0x10  # namespace tag folded into every engine substream key
_CHUNK = 1 << 18   # segments or indices per slice of draws, gathers, scatters and walk assembly
# resident bytes a segment at the peak of a stitch that builds all its walks:
# 625 MiB over 3.97e7 segments (16.5) in acceptance criterion 9's all-vertex
# baseline
_STITCH_BYTES = 17
_MEMINFO = "/proc/meminfo"   # its MemAvailable line bounds that charge
# glibc's mallopt parameters (malloc.h) and its DEFAULT_MMAP_THRESHOLD_MAX,
# 32 MiB on 64-bit hosts: the ceiling its dynamic mmap threshold climbs to
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_MAX = 4 * 1024 * 1024 * ctypes.sizeof(ctypes.c_long)

LAZINESS = ("none", "half")
MODES = ("theory", "practical")
FAIL_POLICIES = ("abort", "tolerate")


class EngineError(RuntimeError):
    pass


class ParameterError(ValueError):
    pass


class StitchFailure(EngineError):
    """A serving stock ran dry in abort mode."""

    def __init__(self, vertex: int, label: int | None, phase: int, deficit: int, cycle: int):
        label_txt = f"label {label}" if label is not None else "pooled stock"
        super().__init__(
            f"stitch failed: vertex {vertex}, {label_txt}, phase {phase}, "
            f"cycle {cycle}, deficit {deficit}")
        self.vertex = vertex
        self.label = label
        self.phase = phase
        self.deficit = deficit
        self.cycle = cycle


def round_length(length: int) -> int:
    """Smallest power of two >= length."""
    if length < 1:
        raise ParameterError("walk length must be >= 1")
    return 1 << (length - 1).bit_length()


@dataclass(frozen=True)
class StitchParams:
    """Parameters of one budgeted run.

    length: walk length, a power of two (use round_length / theory_params).
    target: requested number of rooted walks.
    growth: per-cycle scale-up of the root budget (> 1).
    threshold: minimum visit count for a budget estimate to be trusted.
    base_budget: budget per unit of degree underlying every vertex.
    surplus: stock head-room factor between consecutive stitch levels.
    """

    length: int
    target: int
    growth: float
    threshold: float
    base_budget: float
    surplus: float
    laziness: str = "none"
    mode: str = "practical"
    fail_policy: str = "tolerate"

    def __post_init__(self):
        if self.length < 1 or self.length & (self.length - 1):
            raise ParameterError(f"length {self.length} is not a power of two")
        if self.length > 1 << 14:
            raise ParameterError(f"length {self.length} exceeds 2^14")
        if self.target < 1:
            raise ParameterError("target must be >= 1")
        # chained comparisons also reject NaN and infinities
        if not 1 < self.growth < math.inf:
            raise ParameterError("growth factor must be finite and > 1")
        if not (0 < self.threshold < math.inf and 0 < self.base_budget < math.inf):
            raise ParameterError("threshold and base_budget must be finite and positive")
        min_surplus = 1.0 if self.mode == "practical" else 1.0 + 1e-12
        if not min_surplus <= self.surplus < math.inf:
            raise ParameterError("surplus must be finite and > 1 (>= 1 in practical mode)")
        if self.laziness not in LAZINESS:
            raise ParameterError(f"laziness must be one of {LAZINESS}")
        if self.mode not in MODES:
            raise ParameterError(f"mode must be one of {MODES}")
        if self.fail_policy not in FAIL_POLICIES:
            raise ParameterError(f"fail_policy must be one of {FAIL_POLICIES}")

    @property
    def lazy(self) -> bool:
        return self.laziness == "half"


def theory_params(n: int, length: int, growth: float = 10.0, confidence: float = 1.0, *,
                  target: int, scale: float = 1.0, laziness: str = "none",
                  fail_policy: str = "tolerate") -> StitchParams:
    """Analysis-grade parameter settings (natural logarithm throughout).

    threshold = scale * 10 * C * L^2 * ln n
    base      = scale * 30 * C * growth * L^3 * ln n
    surplus   = 1 + sqrt(20 * C * ln n / threshold)

    `scale` shrinks threshold and base together so small instances stay
    feasible; the no-fail algebra needs base >= 3*growth*threshold *
    sqrt(threshold / (20*C*ln n)), which is checked and warned about here
    (it holds automatically for scale <= 2).

    The signature is the one statement of the CLI's --param-mode theory
    defaults: that mode reads --growth, --confidence, --scale, --laziness
    and --fail-policy, under these names.
    """
    if n < 2:
        raise ParameterError("n must be >= 2")
    if not 1 < growth < math.inf:
        raise ParameterError("growth factor must be finite and > 1")
    if not 1 <= confidence < math.inf:
        raise ParameterError("confidence must be finite and >= 1")
    if not 0 < scale < math.inf:
        raise ParameterError("scale must be finite and positive")
    length = round_length(length)
    log_n = math.log(n)
    theta = scale * 10.0 * confidence * length * length * log_n
    base = scale * 30.0 * confidence * growth * length ** 3 * log_n
    tau = 1.0 + math.sqrt(20.0 * confidence * log_n / theta)
    floor = 3.0 * growth * theta * math.sqrt(theta / (20.0 * confidence * log_n))
    if base < floor:
        warnings.warn(
            f"base budget {base:.3g} below no-fail floor {floor:.3g}; "
            "stitching may exhaust stocks", RuntimeWarning, stacklevel=2)
    return StitchParams(length=length, target=target, growth=growth,
                        threshold=theta, base_budget=base, surplus=tau,
                        laziness=laziness, mode="theory", fail_policy=fail_policy)


def desk_params(length: int, target: int, *, growth: float = 10.0,
                threshold: float = 100.0, base_budget: float = 20.0,
                tau: float = 1.4, laziness: str = "none",
                fail_policy: str = "tolerate", mode: str = "practical") -> StitchParams:
    """Hand-tuned constants for desk-scale experiments.

    The signature is the one statement of the CLI's --param-mode desk
    defaults: that mode reads --growth, --theta (threshold), --b0
    (base_budget), --tau, --laziness, --fail-policy and --mode.
    """
    return StitchParams(length=round_length(length), target=target, growth=growth,
                        threshold=threshold, base_budget=base_budget, surplus=tau,
                        laziness=laziness, mode=mode, fail_policy=fail_policy)


def _theory_multipliers(tau: float, length: int) -> np.ndarray:
    """Theory-mode surplus factors tau^(3k-3), index k-1 for label k."""
    return tau ** (3.0 * np.arange(length))


def label_multipliers(params: StitchParams) -> np.ndarray:
    """Per-label surplus factors, index k-1 for label k."""
    if params.mode == "theory":
        return _theory_multipliers(params.surplus, params.length)
    levels = params.length.bit_length() - 1
    expo = np.zeros(params.length, dtype=np.int64)
    if params.length > 1:
        rest = np.arange(1, params.length)
        v2 = np.round(np.log2(rest & -rest)).astype(np.int64)
        expo[1:] = levels - v2
    return params.surplus ** expo.astype(float)


def _budget_from_float(g: Graph, raw: np.ndarray) -> np.ndarray:
    """ceil(raw) as int64 budgets, zero on isolated vertices."""
    bad = np.argwhere(~(raw <= np.iinfo(np.int32).max))   # NaN and inf too
    if bad.size:
        v, k = bad[0]
        raise EngineError(f"{raw[v, k]:.3g} segments exceed the int32 segment index "
                          f"at vertex {v}, label {k + 1}")
    vals = np.ceil(raw).astype(np.int64)
    vals[g.degrees == 0, :] = 0
    return vals


def initial_budgets(g: Graph, params: StitchParams) -> np.ndarray:
    """Stationary-proportional start: base_budget * degree(v) * multiplier(k)."""
    return _budget_from_float(g, np.outer(params.base_budget * g.degrees.astype(float),
                                          label_multipliers(params)))


def update_budgets(walks: np.ndarray, scale: float, params: StitchParams,
                   g: Graph) -> np.ndarray:
    """Re-estimate budgets from one cycle's rooted walks, as an (n, length)
    int64 array: entry [v, k-1] is the budget of (vertex v, label k).

    `scale` is the number of rooted walks, summed over all roots, that the
    next cycle budgets. For label k, kappa(v) counts walks whose k-th vertex
    (the vertex reached after k-1 steps) is v. Entries with kappa >=
    threshold get (base(v) + scale * kappa / |W|) * multiplier(k); the rest
    fall back to base(v) * multiplier(k). Budgets round up.
    """
    if walks.ndim != 2 or walks.shape[0] == 0:
        raise EngineError("budget update requires a non-empty set of rooted walks")
    if walks.shape[1] != params.length + 1:
        raise EngineError(
            f"rooted walks must have length {params.length}, got {walks.shape[1] - 1}")
    w_count = walks.shape[0]
    mult = label_multipliers(params)
    base = params.base_budget * g.degrees.astype(float)
    counts = np.empty((params.length, g.n), dtype=np.int64)
    for k in range(params.length):
        counts[k] = np.bincount(walks[:, k], minlength=g.n)
    # product before division keeps integer-valued estimates exact
    kappa_term = scale * counts.astype(float) / w_count
    raw = np.where(counts >= params.threshold, base[None, :] + kappa_term, base[None, :])
    raw = raw * mult[:, None]
    return _budget_from_float(g, raw.T)


def init_walks(g: Graph, budgets: np.ndarray, params: StitchParams,
               master_seed: int, cycle: int = 1) -> np.ndarray:
    """Materialize an (n, length) int budget array as length-1 segments
    (uniform incident edges): budgets[v, k-1] segments start at v with label k.

    Returns the int32 end vertex of every segment, in (start vertex, label)
    order: the budgets' blocks, row by row, imply each segment's start and
    label, so neither is stored. With laziness="half" each segment is,
    independently with probability 1/2, the self-step (v, v) instead of a
    uniform neighbor step.

    The ends take 4 bytes a segment, and the stitch that follows about
    _STITCH_BYTES in all; a run whose segments would need more than the
    available memory at that rate raises EngineError before anything is
    allocated. The neighbor picks, then the lazy coins, are drawn in slices
    of _CHUNK segments of this order, and the slices draw exactly the
    streams of one gen.integers(0, degrees) call over all segments and one
    gen.random() < 0.5 call for the coins. A slice's vertex runs come from
    the cumulative per-vertex budget. In _draw_below it takes one 32-bit
    word per segment whose start has degree above 1, the half-word the
    generator holds first and then both halves of raw 64-bit outputs, and
    leaves the generator holding a half-word, or not, as numpy's 32-bit
    draws do; it maps each word to a neighbor, falling back to numpy's own
    call on the rare slice where a word is rejected, then gathers the
    neighbors from g.neighbors. A coin is the top bit of one raw 64-bit
    output. Slice temporaries take at most 16 bytes a segment of the slice
    (a uint32 degree and word and a uint64 product, then an int64 pick and
    offset or neighbor), and each slice's are freed before the next one
    draws. The first call in a process pins glibc's malloc thresholds
    (_pin_malloc_thresholds), so that freed arrays stop being re-faulted.
    """
    _pin_malloc_thresholds()
    if budgets.shape != (g.n, params.length):
        raise EngineError("budget array shape does not match graph/params")
    per_vertex = budgets.sum(axis=1)
    isolated = np.flatnonzero((g.degrees == 0) & (per_vertex > 0))
    if isolated.size:
        raise EngineError(f"positive budget on isolated vertex {int(isolated[0])}")
    total = int(per_vertex.sum())
    if total > np.iinfo(np.int32).max:
        raise EngineError(f"{total} segments exceed the int32 segment index")
    need = total * _STITCH_BYTES
    memory = _available_memory()
    if need > memory:
        raise EngineError(f"{total} segments need {need} bytes, more than the "
                          f"{memory} bytes of available memory")
    first = np.concatenate(([0], np.cumsum(per_vertex)))   # vertex v's run starts here
    ends = np.empty(total, dtype=np.int32)
    degrees = g.degrees.astype(np.uint32)
    gen = substream(master_seed, INIT_STREAM, cycle)
    # the generator keeps the unused half of a 64-bit draw across calls, and
    # a bound of 1 draws nothing, so slice by slice the picks are the ones a
    # single call would draw; every pick is drawn before the first coin
    for a in range(0, total, _CHUNK):
        lo, hi, counts = _slice_runs(first, a, min(a + _CHUNK, total))
        picks = _draw_below(gen, np.repeat(degrees[lo:hi], counts))
        picks += np.repeat(g.offsets[lo:hi], counts)
        ends[a:a + _CHUNK] = g.neighbors[picks]
        del picks   # before the next slice draws
    if params.lazy:
        # random() < 0.5 tests exactly the top bit of the 64-bit word it
        # takes; a clear bit stays, as end = start + (end - start) * bit
        for a in range(0, total, _CHUNK):
            b = min(a + _CHUNK, total)
            lo, hi, counts = _slice_runs(first, a, b)
            move = gen.bit_generator.random_raw(b - a)
            move >>= np.uint64(63)
            move = move.astype(np.int32)
            start = np.repeat(np.arange(lo, hi, dtype=np.int32), counts)
            end = ends[a:b]
            end -= start
            end *= move
            end += start
            del move, start
    return ends


def _available_memory() -> int:
    """Bytes of memory a run may take: MemAvailable in _MEMINFO, or total
    physical memory where that file or line is missing."""
    try:
        with open(_MEMINFO) as f:
            for line in f:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024   # given in kB
    except OSError:
        pass
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


@cache
def _pin_malloc_thresholds() -> bool:
    """Fix glibc's mmap threshold at _MMAP_THRESHOLD_MAX and its trim
    threshold at twice that, once per process; True if glibc took both.

    These are glibc's own dynamic rule (trim = 2 x mmap threshold) at its
    ceiling, set from the start. Left dynamic, the thresholds let each
    slice's, phase's and cycle's freed arrays go back to the kernel, to be
    faulted in again by the next. Arrays of _MMAP_THRESHOLD_MAX or more
    still go to mmap, and at most twice that of freed heap top is kept.
    Without glibc (no mallopt or gnu_get_libc_version) nothing is set.
    """
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):
        return False
    if not all(hasattr(libc, f) for f in ("gnu_get_libc_version", "mallopt")):
        return False
    mallopt = libc.mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX)
                and mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD_MAX))


def _slice_runs(first: np.ndarray, a: int, b: int) -> Tuple[int, int, np.ndarray]:
    """(lo, hi, counts): positions [a, b) of a level whose vertex v runs
    from first[v] to first[v + 1] hold counts[i] segments of vertex lo + i,
    for lo <= v < hi; the end runs may be cut, and empty runs count 0."""
    lo = int(np.searchsorted(first, a, side="right")) - 1
    hi = int(np.searchsorted(first, b - 1, side="right"))
    counts = np.minimum(first[lo + 1:hi + 1], b) - np.maximum(first[lo:hi], a)
    return lo, hi, counts


# where the low 32 bits of a uint64 sit in its pair of uint32 halves
_LOW_HALF = 0 if np.little_endian else 1


def _draw_below(gen: np.random.Generator, bounds: np.ndarray) -> np.ndarray:
    """gen.integers(0, bounds) for uint32 bounds >= 1, as int64, leaving gen
    in the state that call leaves it in.

    numpy draws one 32-bit word per bound above 1 and nothing for a bound
    of 1, and maps word w to (w * bound) >> 32 (Lemire's multiply-shift),
    rejecting w and drawing again when the low 32 bits of w * bound fall
    below 2^32 mod bound. numpy's 32-bit draw returns the half-word the
    generator holds (has_uint32, uinteger), if it holds one, and otherwise
    the low half of a fresh 64-bit output, holding its high half. Here the
    words are the held half, then the halves of one random_raw call, low
    before high; the generator is left holding the last output's high half
    after an odd number of halves, and with it as a stale uinteger after an
    even number, as numpy leaves it. The map runs vectorised. A rejection
    has probability below bound / 2^32 a word; on the rare slice that has
    one, the state is rewound and numpy's own call draws the slice.
    """
    state = gen.bit_generator.state
    k = int(np.count_nonzero(bounds > 1))
    held = min(state["has_uint32"], k)   # the held half-word is the first word
    raw = gen.bit_generator.random_raw((k - held + 1) // 2)
    if k:   # numpy keeps the last output's high half, held or not
        gen.bit_generator.state = {
            **gen.bit_generator.state, "has_uint32": (k - held) % 2,
            "uinteger": int(raw[-1]) >> 32 if raw.size else state["uinteger"]}
    # each output's low half, then its high half, on either byte order
    words = raw.astype("<u8", copy=False).view("<u4")[:k - held]
    if held:
        words = np.concatenate(([np.uint32(state["uinteger"])], words))
    del raw
    if k < bounds.size:   # a zero word maps to pick 0 under bound 1
        words, drawn = np.zeros(bounds.size, dtype=np.uint32), words
        words[bounds > 1] = drawn
        del drawn
    product = np.multiply(words, bounds, dtype=np.uint64)
    del words   # at most 16 bytes a bound stay live: bound, word, product
    low = product.view(np.uint32)[_LOW_HALF::2]
    near = np.flatnonzero(low < bounds)   # 2^32 mod bound < bound
    if near.size and np.any(low[near] < np.uint64(1 << 32) % bounds[near]):
        gen.bit_generator.state = state
        return gen.integers(0, bounds)
    product >>= np.uint64(32)
    return product.view(np.int64)


@dataclass(frozen=True, eq=False)
class StitchResult:
    """Label-1 walks of one stitch pass, held as an immutable index tree.

    Level 0 is the length-1 segments of init_walks. Phase j joins pairs of
    level j-1 segments into level j segments, in requester order; joins[j-1]
    holds the vertex where each of them joins, the end of its requester
    (left half) and the start of its server (right half). From level 2 on,
    children[j-2] holds the two child-id arrays of phase j: the requester
    and server ids at level j-1 of every served request. Level 1 keeps no
    children, as a level-1 segment is its start, its join vertex and its
    end. A segment's vertices are its start, the join vertices of the
    nodes under it in step order, and its end; its left child starts where
    it starts and its right child at its join vertex. The finished walks,
    the segments of the last level, lie in tree order (grouped by start
    vertex): row i runs from starts[i] to ends[i]. `walks` builds the rows
    asked for, `verts` all of them. starts is rebuilt from the last level's
    block counts, which hold label 1 only.

    failed lists, per phase, the label-1 requesters whose request went
    unserved: (phase, their segment ids at level phase-1, their start and
    end vertices); `failed_chunks` builds their prefixes. Counts are not
    kept here: vertex v started budgets[v, 0] label-1 walks, and the rounds
    are in the cluster's ledger.

    Every array here is int32, and so are the walks built from it.
    """

    joins: List[np.ndarray]           # per level j >= 1, int32 join vertex of each segment
    children: List[Tuple[np.ndarray, np.ndarray]]   # per level j >= 2, int32 child ids
    starts: np.ndarray                # (K,) int32 start vertex of each finished walk
    ends: np.ndarray                  # (K,) int32 end vertex of each finished walk
    failed: List[Tuple[int, np.ndarray, np.ndarray, np.ndarray]]

    def _segments(self, rows: np.ndarray | None, level: int, starts: np.ndarray,
                  ends: np.ndarray) -> np.ndarray:
        """Vertex sequences of segments `rows` of `level` (all of them, in
        order, when rows is None), which start at `starts` and end at
        `ends`: int32, shape (len(starts), 2**level + 1). They are built in
        slices of about _CHUNK steps, a column at a time: the slice's ids
        go down the tree level by level, each node's join vertex fills its
        row of a (width, slice) block by a 1-D gather and each node's ids
        split into its children's, `starts` and `ends` fill the first and
        last rows, and the block's transpose is written out, so the ids and
        the block stay O(_CHUNK). A slice takes 2**(level+1) - 3 gathers."""
        width = (1 << level) + 1
        out = np.empty((starts.size, width), dtype=np.int32)
        step = max(1, _CHUNK >> level)
        block = np.empty((width, min(step, starts.size)), dtype=np.int32)
        for a in range(0, starts.size, step):
            b = min(a + step, starts.size)
            part = block[:, :b - a]
            part[0] = starts[a:b]
            part[-1] = ends[a:b]
            cols = [np.arange(a, b) if rows is None else rows[a:b].astype(np.intp)]
            for j in range(level, 0, -1):
                # node i of the slice's level-j nodes joins at step (2i + 1) 2^(j-1);
                # the ids are in range (checked by walks, or drawn from the
                # tree), so "clip" clips nothing; it spares take a buffer
                for i, ids in enumerate(cols):
                    np.take(self.joins[j - 1], ids, out=part[(2 * i + 1) << (j - 1)],
                            mode="clip")
                if j > 1:
                    cols = [np.take(child, ids).astype(np.intp)
                            for ids in cols for child in self.children[j - 2]]
            out[a:b] = part.T
        return out

    def walks(self, rows: np.ndarray) -> np.ndarray:
        """Finished walks `rows`, in the given order: (len(rows), length+1)."""
        rows = np.asarray(rows)
        if rows.size and not (0 <= rows.min() and rows.max() < self.ends.size):
            raise IndexError(f"rows must lie in [0, {self.ends.size})")
        return self._segments(rows, len(self.joins), np.take(self.starts, rows),
                              np.take(self.ends, rows))

    @cached_property
    def verts(self) -> np.ndarray:
        """All finished walks, (K, length+1), in tree order."""
        return self._segments(None, len(self.joins), self.starts, self.ends)

    @cached_property
    def failed_chunks(self) -> List[Tuple[int, np.ndarray]]:
        """(phase, failed label-1 prefixes of length 2**(phase-1)), one entry
        for each phase in which some label-1 request went unserved."""
        return [(phase, self._segments(ids, phase - 1, starts, ends))
                for phase, ids, starts, ends in self.failed]


def _group_by_key(key: np.ndarray, n_keys: int) -> Tuple[np.ndarray, np.ndarray]:
    """(order, counts): the positions of key, stably grouped by key
    (positions with equal keys keep their order), and the int64 number of
    positions of each key. Keys lie in [0, n_keys).

    Each position is packed below its key into one unsigned word, key <<
    bits | position, and one in-place sort of the words (numpy's SIMD sort
    of 32- or 64-bit integers) orders them by key, then by position. Key k's
    words start at the first word not below k << bits, so binary searches
    for k = 1 .. n_keys - 1 give the counts; k = n_keys is not searched, as
    n_keys << bits may not fit in a word. The key bits are then masked off.
    The words are uint32 when key and position fit in 32 bits, and the order
    is then an int32 view of them; otherwise uint64 and int64. Past 64 bits
    EngineError is raised, before anything is allocated.
    """
    bits = max(key.size - 1, 0).bit_length()
    width = (n_keys - 1).bit_length() + bits
    if width > 64:
        raise EngineError(f"{n_keys} keys and {key.size} positions need {width} "
                          "bits, more than a 64-bit sort word")
    word, view = (np.uint32, np.int32) if width <= 32 else (np.uint64, np.int64)
    packed = key.astype(word)
    packed <<= word(bits)
    for a in range(0, key.size, _CHUNK):   # no position array beside the words
        packed[a:a + _CHUNK] |= np.arange(a, min(a + _CHUNK, key.size), dtype=word)
    packed.sort()
    first = np.arange(1, n_keys, dtype=word)
    first <<= word(bits)
    counts = np.diff(np.searchsorted(packed, first), prepend=0, append=key.size)
    packed &= word((1 << bits) - 1)
    return packed.view(view), counts


def _draw_failures(short: np.ndarray, rcount: np.ndarray, scount: np.ndarray,
                   gen: np.random.Generator) -> np.ndarray:
    """Which requests go unserved, as a bool mask over the requests grouped
    by key (key k's rcount[k] requests in a row, keys in increasing order).

    In each key of `short` exactly rcount - scount requests fail, a uniform
    subset of them; no other key loses any. Per key the smaller side, failed
    or served, is drawn as distinct uniform ranks: gen.integers draws them,
    and duplicates are drawn again until every key has its count. Every step
    treats all ranks of a key alike, so the law of the drawn set is the same
    under any relabelling of the ranks: it is exactly uniform. The draws
    number sum(min(r - c, c)) plus the redraws, not one per request.
    """
    first = (np.cumsum(rcount) - rcount)[short]
    r, c = rcount[short], scount[short]
    flip = c < r - c   # draw the served ranks; the rest fail
    need = np.where(flip, c, r - c)
    drawn = np.zeros(int(rcount.sum()), dtype=bool)
    while need.any():
        pos = sort_unique(np.repeat(first, need) + gen.integers(0, np.repeat(r, need)))
        pos = pos[~drawn[pos]]
        drawn[pos] = True
        need -= np.bincount(np.searchsorted(first, pos, side="right") - 1,
                            minlength=short.size)
    flipped = np.zeros(rcount.size, dtype=bool)
    flipped[short[flip]] = True
    drawn ^= np.repeat(flipped, rcount)
    return drawn


def _gather(values: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """values[idx], with idx cast to intp a slice of _CHUNK at a time: numpy
    runs int32 indices through a buffered cast, several times slower, and
    np.take copies all of them to intp first."""
    out = np.empty(idx.size, dtype=values.dtype)
    for a in range(0, idx.size, _CHUNK):
        out[a:a + _CHUNK] = values[idx[a:a + _CHUNK].astype(np.intp, copy=False)]
    return out


def _ranges(first: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The positions first[i] .. first[i] + counts[i] - 1 for each i in turn,
    as one int32 array: each range's offset, its first position less where
    it begins in the output, is repeated over the range, and the running
    index is added in place a slice of _CHUNK at a time, so that besides
    the 4 bytes a position only an int32 slice of the index is held."""
    out = np.repeat((first - (np.cumsum(counts) - counts)).astype(np.int32), counts)
    for a in range(0, out.size, _CHUNK):
        out[a:a + _CHUNK] += np.arange(a, min(a + _CHUNK, out.size), dtype=np.int32)
    return out


def _scatter_ranges(out: np.ndarray, idx: np.ndarray, first: np.ndarray,
                    counts: np.ndarray, runs: np.ndarray, lo: np.ndarray,
                    hi: np.ndarray) -> None:
    """out[idx] = _ranges(first, counts), built and scattered a slice of
    _CHUNK positions at a time, so that the ranges are never held whole.

    The ranges fall into runs: run k is the next runs[k] positions. Before
    a slice is scattered, each non-empty run it holds must lie in [lo[k],
    hi[k]), by its minimum and maximum; otherwise EngineError is raised."""
    bounds = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    run_bounds = np.zeros(runs.size + 1, dtype=np.int64)
    np.cumsum(runs, out=run_bounds[1:])
    for a in range(0, idx.size, _CHUNK):
        b = min(a + _CHUNK, idx.size)
        i, j, part = _slice_runs(bounds, a, b)
        skip = np.maximum(bounds[i:j], a) - bounds[i:j]   # cut from a range's head
        values = _ranges(first[i:j] + skip, part)
        i, _, part = _slice_runs(run_bounds, a, b)
        keys = np.flatnonzero(part)
        heads = (np.cumsum(part) - part)[keys]   # where each non-empty run starts
        least = np.minimum.reduceat(values, heads)
        most = np.maximum.reduceat(values, heads)
        keys += i
        bad = (least < lo[keys]) | (most >= hi[keys])
        if bad.any():
            r = int(np.argmax(bad))
            k = keys[r]
            srv = least[r] if least[r] < lo[k] else most[r]
            raise EngineError(f"server {srv} lies outside the stock [{lo[k]}, "
                              f"{hi[k]}) of key {k}")
        out[idx[a:b].astype(np.intp, copy=False)] = values


def stitch(g: Graph, budgets: np.ndarray, params: StitchParams, cluster: Cluster,
           master_seed: int, cycle: int = 1) -> StitchResult:
    """One full doubling pass over an (n, length) int budget array: init
    segments, then log2(length) phases.

    A level is carried as its segments' int32 end vertices and an (n, c)
    array of block counts: the level's segments lie in (start vertex, first
    label) order, and block (v, i) holds the counts[v, i] segments that
    start at v with label i * length / c + 1. Level 0's counts are the
    budgets, as init_walks emits it that way. In phase j, with s = 2^(j-1),
    the blocks of even columns (label 1 mod 2s) request and those of odd
    columns (label s+1 mod 2s) serve, so both sides' positions are ranges of
    block offsets. Every requester asks the vertex at its end for a segment
    from the stock of its key, a vertex and a run of its server columns: per
    keys a vertex, each owning half / per columns, with per = 1 in practical
    mode (one pooled key) and per = half in theory mode (a key per needed
    label, so requester column 2i asks for column i). A key's stock is its
    server blocks, in position order, which depends only on the starts,
    labels and order of the level's segments, never on where they lead; the
    request of rank r in a key takes the key's stock segment of rank r, a
    distinct segment drawn as a fresh walk from the key, so a key serves the
    first min(requests, stock) segments of its stock, block by block. One
    packed sort of the requests gives both their order grouped by key and
    each key's request count (_group_by_key). The served positions follow
    from the counts; they are built a slice at a time in key order, and each
    key's run of them is checked against the key's stock before the slice is
    scattered to its requesters (_scatter_ranges), so a misplaced server
    raises EngineError, also under python -O. Each served pair becomes one
    segment of the next level, written in requester order: a new segment
    takes its requester's start and label, the next level keeps the order,
    and its counts are the requester blocks' counts. The tree records its
    join vertex, the requester's end (its key over per), and from level 2 on
    its pair of child indices (_add_level). When a key's stock is short,
    fail_policy decides between aborting the run on the smallest short key
    (StitchFailure names its label in theory mode, None for a pooled stock)
    and serving a uniform subset of its requests: only then does the phase
    draw its substream, to pick which requests of each short key fail
    (_draw_failures). A failed request leaves its block's count, and the
    rest are served by rank as in a key with stock to spare. The unserved
    walks are logged if they carry label 1.

    Every index is int32, as a level holds fewer than 2^31 segments, and is
    cast to intp a slice at a time where it gathers or scatters; only the
    keys of a phase with more than 2^31 of them, and the request order of
    a phase whose keys and positions need more than 32 bits together, are
    int64 (_group_by_key). The final starts are rebuilt from the final
    blocks after the phase loop. On acceptance criterion 9's baseline
    (4·10^7 segments) the phase loop peaks at about 15 traced bytes a
    segment of level 0, in phase 1, where level 0 takes 4, the keys 2 and
    the int64 request order 4, copied while the failed requests are
    dropped; the finished tree takes about 7, and a call with its walks
    built about _STITCH_BYTES resident.

    Each phase costs two supersteps (requests, then replies). Message words:
    a request is 3 words; a reply for a length-s segment is s+4 words (s+1
    vertices, first label, cycle tag, requester segment id). The reply size
    is what the modelled cluster would ship; the simulation itself moves
    only indices, and accounts for messages by their count per receiving
    vertex.
    """
    ends = init_walks(g, budgets, params, master_seed, cycle)
    counts = budgets
    joins: List[np.ndarray] = []
    children: List[Tuple[np.ndarray, np.ndarray]] = []
    failed: List[Tuple[int, np.ndarray, np.ndarray, np.ndarray]] = []
    theory = params.mode == "theory"
    n = g.n
    phases = params.length.bit_length() - 1

    for phase in range(1, phases + 1):
        s = 1 << (phase - 1)
        half = counts.shape[1] // 2
        # key z * per + c owns server columns c w .. (c + 1) w - 1 of vertex z
        per = half if theory else 1
        w = half // per
        # block (v, i) of the level starts at position bounds[v * 2 * half + i];
        # temporaries are dropped as soon as they are used: they set the
        # peak memory of a phase
        bounds = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=bounds[1:])
        offsets = bounds[:-1].reshape(counts.shape)
        req_first, req_counts = offsets[:, 0::2].ravel(), counts[:, 0::2].ravel()
        srv_blocks = counts[:, 1::2].reshape(n * per, w)
        # the requesters' ends, where the served pairs join, are the level's
        # ends under a mask of its requester blocks, taken in one compress
        key = ends[np.repeat(np.tile([True, False], n * half), counts.ravel())]
        key = key.astype(np.int32 if n * per <= 1 << 31 else np.int64, copy=False)
        if per > 1:   # the requesters of block column 2c ask for key column c
            key *= per
            key += np.repeat(np.tile(np.arange(per, dtype=key.dtype), n), req_counts)
        # requests are grouped by key in requester order, and counted
        order, rcount = _group_by_key(key, n * per)
        scount = srv_blocks.sum(axis=1)
        cluster.exchange_bulk(rcount.reshape(n, per).sum(axis=1), words=3, kind=KIND_REQUEST)
        short = np.flatnonzero(rcount > scount)
        if short.size and params.fail_policy == "abort":
            k = int(short[0])
            raise StitchFailure(k // per, (k % per * 2 + 1) * s + 1 if theory else None,
                                phase, int(rcount[k] - scount[k]), cycle)

        # a short key drops a uniform subset of its requests, and the rest
        # are served
        lost = None   # ranks of the requests left unserved, in requester order
        served = req_counts   # requests per requester block that are served
        if short.size:
            fail = _draw_failures(short, rcount, scount,
                                  substream(master_seed, SERVE_STREAM, cycle, phase))
            lost = np.sort(order[fail])
            order = order[~fail]
            rcount = np.minimum(rcount, scount)
            del fail
            # requests lie block by block, so a rank finds its block and
            # its position
            rank_first = np.cumsum(req_counts) - req_counts
            block = np.searchsorted(rank_first + req_counts, lost, side="right")
            served = req_counts - np.bincount(block, minlength=req_counts.size)
            label_1 = block % half == 0
            ids = ((req_first - rank_first)[block[label_1]] + lost[label_1]).astype(np.int32)
            if ids.size:
                failed.append((phase, ids, (block[label_1] // half).astype(np.int32),
                               _gather(ends, ids)))
            del rank_first, block, label_1, ids

        # key k serves the first rcount[k] segments of its stock, block by
        # block, to its requests in rank order
        take = np.clip(rcount[:, None] - (np.cumsum(srv_blocks, axis=1) - srv_blocks),
                       0, srv_blocks)
        # each server lies in its key's stock, from the start of the key's
        # first server block to the end of its last, so the pair's vertices
        # join; in practical mode a server from a requester block between
        # two server blocks of the vertex still passes
        served_srv = np.empty(int(req_counts.sum()), dtype=np.int32)
        try:
            _scatter_ranges(served_srv, order, offsets[:, 1::2].ravel(), take.ravel(),
                            rcount, bounds[1::2 * w], bounds[2 * w::2 * w])
        except EngineError as err:
            raise EngineError(f"phase {phase}, cycle {cycle}: {err}") from None
        del order, bounds, offsets
        if lost is not None:   # one at a time: each old array goes before the next copy
            served_srv = np.delete(served_srv, lost)
            key = np.delete(key, lost)
        if per > 1:
            key //= per   # back to the requesters' ends, in place
        join = key.astype(np.int32, copy=False)
        del key

        # the next level's ends replace this level's before the requester
        # ids are built, so the two levels' ends and both id arrays are not
        # held at once
        ends = _gather(ends, served_srv)
        served_req = _ranges(req_first, req_counts)
        if lost is not None:
            served_req = np.delete(served_req, lost)
        del lost
        counts = served.reshape(n, half)
        cluster.exchange_bulk(counts.sum(axis=1), words=s + 4, kind=KIND_REPLY)
        _add_level(joins, children, join, served_req, served_srv)
        del join, served_req, served_srv

    assert counts.shape == (n, 1)   # only label-1 blocks remain
    return StitchResult(joins=joins, children=children,
                        starts=np.repeat(np.arange(n, dtype=np.int32), counts[:, 0]),
                        ends=ends, failed=failed)


def _add_level(joins: List[np.ndarray], children: List[Tuple[np.ndarray, np.ndarray]],
               join: np.ndarray, served_req: np.ndarray, served_srv: np.ndarray) -> None:
    """Append one phase's level to the index tree: the join vertex of each
    new segment and, from level 2 on, its requester and server ids at the
    level below, its children; all in requester order. This is the one
    place that sees every phase's served pairs; a level-1 segment is its
    start, its join vertex and its end, so its pair is dropped here."""
    if joins:
        children.append((served_req, served_srv))
    joins.append(join)


def cycle_plan(target: int, growth: float) -> List[float]:
    """The scale of each calibration cycle's budget update, for a
    rooted-walk target: growth, growth^2, ... by repeated multiplication
    (reproducible arithmetic) while it is at most `target`, the last one
    raised by one more factor of growth when it falls short of `target`, so
    that at least `target` rooted walks are budgeted in the final stitch.
    A target below growth calibrates nothing.
    """
    if target < 1:
        raise ParameterError("target must be >= 1")
    scales: List[float] = []
    p = 1.0
    while p * growth <= target * (1 + 1e-12):
        p *= growth
        scales.append(p)
    if scales and p < target * (1 - 1e-12):
        scales[-1] = p * growth
    return scales


@dataclass
class CycleStats:
    cycle: int
    budget_total: int
    rooted_attempted: int
    rooted_ok: int

    @property
    def failure_rate(self) -> float:
        if self.rooted_attempted == 0:
            return 0.0
        return 1.0 - self.rooted_ok / self.rooted_attempted


@dataclass
class RunMetrics:
    cycles: int
    supersteps: int
    paper_rounds: int
    per_cycle_budget_totals: List[int]
    total_budget: int
    max_machine_words: int
    rooted_target: int
    rooted_ok: int
    rooted_attempted_final: int
    failure_rate_final: float
    violations: List[dict]


def _run_metrics(ledger: RoundLedger, totals: List[int], target: int, ok: int,
                 attempted: int) -> RunMetrics:
    """Metrics of a run with one budget total per cycle and the rounds of
    `ledger`."""
    return RunMetrics(
        cycles=len(totals), supersteps=ledger.superstep_count,
        paper_rounds=ledger.paper_rounds(), per_cycle_budget_totals=totals,
        total_budget=sum(totals), max_machine_words=ledger.max_machine_words(),
        rooted_target=target, rooted_ok=ok, rooted_attempted_final=attempted,
        failure_rate_final=(1.0 - ok / attempted) if attempted else 0.0,
        violations=ledger.violations)


@dataclass
class RunResult:
    """A run's final cycle: its ok rooted walks (K, length+1) in shuffled
    order, the (phase, prefixes) of its rooted walks that went unserved, and
    the (n, length) budgets it stitched (None in a multi-source group)."""

    walks: np.ndarray
    roots: Tuple[int, ...]
    params: StitchParams
    metrics: RunMetrics
    cycle_stats: List[CycleStats]
    failed_walks: List[Tuple[int, np.ndarray]]
    budgets: np.ndarray | None


def _check_root(g: Graph, r: int) -> None:
    if not 0 <= r < g.n:
        raise ParameterError(f"root {r} out of range [0, {g.n})")
    if g.degrees[r] == 0:
        raise ParameterError(f"root {r} is isolated; walks are undefined from it")


def _run_group(g: Graph, roots: Sequence[int], params: StitchParams,
               cluster: Cluster, master_seed: int, group_id: int = 0) -> RunResult:
    for r in roots:
        _check_root(g, r)
    roots_arr = np.asarray(sorted(set(int(r) for r in roots)))
    if roots_arr.size != len(roots):
        raise ParameterError("duplicate roots")
    seed = derive_key(master_seed, _ENGINE_NS, group_id)
    scales = cycle_plan(params.target, params.growth)
    weakest = float(params.base_budget * g.degrees[roots_arr].min())
    if scales and weakest < params.threshold:
        warnings.warn(
            f"root base budget {weakest:.3g} is below the significance threshold "
            f"{params.threshold:.3g}; calibration cannot grow the root budget",
            RuntimeWarning, stacklevel=3)

    first_round = cluster.ledger.superstep_count
    budgets = initial_budgets(g, params)
    stats: List[CycleStats] = []
    updates = (g.degrees > 0).astype(np.int64)   # one message per non-isolated vertex

    for i in range(1, len(scales) + 2):
        budget_total = int(budgets.sum())
        attempted = int(budgets[roots_arr, 0].sum())
        res = stitch(g, budgets, params, cluster, seed, cycle=i)
        rows = np.flatnonzero(np.isin(res.starts, roots_arr))
        if i > len(scales):
            # rows are grouped by root; shuffle them so that any prefix of
            # the returned walks is an unbiased uniform subsample
            rows = rows[substream(seed, SHUFFLE_STREAM, i).permutation(rows.size)]
            # the roots' failed prefixes, by their first vertex
            failed_walks = [(phase, chunk[np.isin(chunk[:, 0], roots_arr)])
                            for phase, chunk in res.failed_chunks]
            failed_walks = [(phase, chunk) for phase, chunk in failed_walks if chunk.size]
        rooted = res.walks(rows)
        # the whole tree goes before the next cycle's stitch allocates its own
        del res
        stats.append(CycleStats(cycle=i, budget_total=budget_total,
                                rooted_attempted=attempted, rooted_ok=int(rows.size)))
        if i <= len(scales):
            if rooted.shape[0] == 0:
                raise EngineError(f"all rooted walks failed in calibration cycle {i}")
            budgets = update_budgets(rooted, scales[i - 1] * roots_arr.size, params, g)
            cluster.exchange_bulk(updates, words=params.length + 1, kind=KIND_UPDATE)

    final = stats[-1]
    metrics = _run_metrics(cluster.ledger.since(first_round),
                           [s.budget_total for s in stats], params.target,
                           final.rooted_ok, final.rooted_attempted)
    return RunResult(walks=rooted, roots=tuple(int(r) for r in roots_arr),
                     params=params, metrics=metrics, cycle_stats=stats,
                     failed_walks=failed_walks, budgets=budgets)


def run_budgeted(g: Graph, root: int, params: StitchParams,
                 cluster: Cluster | None = None, seed: int = 0) -> RunResult:
    """Generate params.target independent length-`length` walks from `root`.

    Runs a stitch and a budget update per scale of cycle_plan(target,
    growth), then one final stitch; returns the rooted walks of the final
    cycle with round/memory metrics and the final cycle's budgets.
    """
    cluster = cluster or Cluster()
    return _run_group(g, [root], params, cluster, seed, group_id=0)


def dyadic_decompose(budgets: Dict[int, int]) -> List[Tuple[List[int], int]]:
    """Split a {vertex: budget} map into groups whose positive entries agree
    within a factor two (bucketed by floor(log2 b)); each group is served
    with its maximum entry as the common budget."""
    items = sorted((int(v), int(b)) for v, b in budgets.items())
    if any(b < 0 for _, b in items):
        raise ParameterError("budgets must be non-negative")
    items = [(v, b) for v, b in items if b > 0]
    if not items:
        raise ParameterError("budget vector must have at least one positive entry")
    groups: Dict[int, List[Tuple[int, int]]] = {}
    for v, b in items:
        groups.setdefault(b.bit_length() - 1, []).append((v, b))
    out: List[Tuple[List[int], int]] = []
    for level in sorted(groups):
        members = groups[level]
        out.append(([v for v, _ in members], max(b for _, b in members)))
    return out


@dataclass
class MultiSourceResult:
    walks_by_root: Dict[int, np.ndarray]
    shortfall: Dict[int, int]
    group_results: List[RunResult]
    metrics: RunMetrics


def run_multi_source(g: Graph, budgets: Dict[int, int], params: StitchParams,
                     cluster: Cluster | None = None, seed: int = 0) -> MultiSourceResult:
    """Walks for an arbitrary {vertex: budget} map.

    The map is decomposed dyadically; each group runs the equal-budget
    multi-root variant (rooted walks pooled across the group's roots, with
    the visit-count term scaled by the group size). Groups run sequentially
    here while modelling a parallel execution: memory is the sum over
    groups, rounds are reported as the maximum of any single group.
    """
    cluster = cluster or Cluster()
    first_round = cluster.ledger.superstep_count
    requested = {int(v): int(b) for v, b in budgets.items() if b > 0}
    walks_by_root: Dict[int, np.ndarray] = {}
    results: List[RunResult] = []
    for gi, (members, common) in enumerate(dyadic_decompose(budgets)):
        res = _run_group(g, members, replace(params, target=int(common)), cluster, seed,
                         group_id=gi)
        results.append(replace(res, budgets=None))   # no (n, length) array per group
        for r in members:
            walks_by_root[r] = res.walks[res.walks[:, 0] == r]
    shortfall = {v: max(0, b - walks_by_root[v].shape[0]) for v, b in requested.items()}
    metrics = _run_metrics(
        cluster.ledger.since(first_round),
        [t for r in results for t in r.metrics.per_cycle_budget_totals],
        sum(requested.values()), sum(w.shape[0] for w in walks_by_root.values()),
        sum(r.metrics.rooted_attempted_final for r in results))
    metrics = replace(metrics, supersteps=max(r.metrics.supersteps for r in results),
                      paper_rounds=max(r.metrics.paper_rounds for r in results))
    return MultiSourceResult(walks_by_root=walks_by_root, shortfall=shortfall,
                             group_results=results, metrics=metrics)


@dataclass
class UniformResult:
    result: StitchResult
    params: StitchParams
    total_budget: int
    ok_per_vertex: np.ndarray
    metrics: RunMetrics


def uniform_stitching(g: Graph, b0_per_degree: float, length: int,
                      cluster: Cluster | None = None, seed: int = 0,
                      tau: float = 1.0, laziness: str = "none") -> UniformResult:
    """Single-cycle baseline: every vertex gets budget
    ceil(b0_per_degree * degree(v) * tau^(3k-3)) on every label k, i.e. the
    stationary-proportional allocation that yields walks from all vertices
    at once. Serving is pooled; failures are tolerated and reported. Every
    walk is built in the call (result.verts), grouped by start vertex."""
    if not 1 <= b0_per_degree < math.inf:
        raise ParameterError("b0_per_degree must be finite and >= 1")
    if not 1 <= tau < math.inf:
        raise ParameterError("tau must be finite and >= 1")
    length = round_length(length)
    params = StitchParams(length=length, target=1, growth=2.0, threshold=1.0,
                          base_budget=float(b0_per_degree), surplus=tau, laziness=laziness)
    budgets = _budget_from_float(g, np.outer(b0_per_degree * g.degrees.astype(float),
                                             _theory_multipliers(tau, length)))
    total = int(budgets.sum())
    cluster = cluster or Cluster()
    first_round = cluster.ledger.superstep_count
    res = stitch(g, budgets, params, cluster, derive_key(seed, _ENGINE_NS, 0), cycle=1)
    res.verts   # every walk is returned: build them now, once, in tree order
    # the walks lie grouped by start vertex, so binary searches count them
    ok_per_vertex = np.diff(np.searchsorted(res.starts, np.arange(g.n + 1)))
    attempted = int(budgets[:, 0].sum())
    metrics = _run_metrics(cluster.ledger.since(first_round), [total], attempted,
                           int(ok_per_vertex.sum()), attempted)
    return UniformResult(result=res, params=params, total_budget=total,
                         ok_per_vertex=ok_per_vertex, metrics=metrics)


def validate_walks(g: Graph, verts: np.ndarray, lazy: bool) -> bool:
    """True iff every consecutive pair of every row is an edge of g (see
    Graph.has_edges) or, when lazy, a self-step at an id in [0, n)."""
    if verts.ndim != 2 or verts.shape[0] == 0:
        return True
    a, b = verts[:, :-1], verts[:, 1:]
    ok = g.has_edges(a, b)
    if lazy:
        ok |= (a == b) & (a >= 0) & (a < g.n)
    return bool(np.all(ok))
