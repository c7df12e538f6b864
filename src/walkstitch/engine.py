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

Every level of segments is kept in (start vertex, first label) order, so the
stock of each serving key lies contiguous, in an order that does not depend
on where its segments go, and is served as it lies.

Randomness comes from one substream per purpose and step, keyed by the run
seed: one per cycle draws every length-1 segment, one per (cycle, phase)
picks which requests are served in a phase where some key's stock runs
short (and is not drawn in any other phase), and one shuffles the returned
walks. A run is therefore replayable from its seed.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .graph import Graph
from .mpc import Cluster, KIND_REPLY, KIND_REQUEST, KIND_UPDATE, RoundLedger
from .rng import INIT_STREAM, SERVE_STREAM, SHUFFLE_STREAM, derive_key, substream

_ENGINE_NS = 0x10  # namespace tag folded into every engine substream key
_CHUNK = 1 << 18   # segments per slice of init_walks' draws
_STITCH_BYTES = 30  # resident bytes a segment at the peak of one stitch call

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


def growth_power(growth: float, exponent: int) -> float:
    """growth**exponent by repeated multiplication (reproducible arithmetic)."""
    p = 1.0
    for _ in range(exponent):
        p *= growth
    return p


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
            raise ParameterError(f"length {self.length} exceeds 2^14, as labels are int16")
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


def theory_params(n: int, length: int, growth: float, confidence: float = 1.0, *,
                  target: int, scale: float = 1.0, laziness: str = "none",
                  fail_policy: str = "abort") -> StitchParams:
    """Analysis-grade parameter settings (natural logarithm throughout).

    threshold = scale * 10 * C * L^2 * ln n
    base      = scale * 30 * C * growth * L^3 * ln n
    surplus   = 1 + sqrt(20 * C * ln n / threshold)

    `scale` shrinks threshold and base together so small instances stay
    feasible; the no-fail algebra needs base >= 3*growth*threshold *
    sqrt(threshold / (20*C*ln n)), which is checked and warned about here
    (it holds automatically for scale <= 2).
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
                threshold: float = 30.0, base_budget: float = 20.0,
                tau: float = 1.4, laziness: str = "none",
                fail_policy: str = "tolerate", mode: str = "practical") -> StitchParams:
    """Hand-tuned constants for desk-scale experiments."""
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


def update_budgets(walks: np.ndarray, exponent: int, params: StitchParams,
                   g: Graph, num_roots: int = 1) -> np.ndarray:
    """Re-estimate budgets from one cycle's rooted walks, as an (n, length)
    int64 array: entry [v, k-1] is the budget of (vertex v, label k).

    For label k, kappa(v) counts walks whose k-th vertex (the vertex reached
    after k-1 steps) is v. Entries with kappa >= threshold get
    (base(v) + num_roots * growth^exponent * kappa / |W|) * multiplier(k);
    the rest fall back to base(v) * multiplier(k). Budgets round up.
    """
    if walks.ndim != 2 or walks.shape[0] == 0:
        raise EngineError("budget update requires a non-empty set of rooted walks")
    if walks.shape[1] != params.length + 1:
        raise EngineError(
            f"rooted walks must have length {params.length}, got {walks.shape[1] - 1}")
    w_count = walks.shape[0]
    lam_pow = growth_power(params.growth, exponent)
    mult = label_multipliers(params)
    base = params.base_budget * g.degrees.astype(float)
    counts = np.empty((params.length, g.n), dtype=np.int64)
    for k in range(params.length):
        counts[k] = np.bincount(walks[:, k], minlength=g.n)
    # product before division keeps integer-valued estimates exact
    kappa_term = (lam_pow * num_roots) * counts.astype(float) / w_count
    raw = np.where(counts >= params.threshold, base[None, :] + kappa_term, base[None, :])
    raw = raw * mult[:, None]
    return _budget_from_float(g, raw.T)


def init_walks(g: Graph, budgets: np.ndarray, params: StitchParams,
               master_seed: int, cycle: int = 1
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Materialize an (n, length) int budget array as length-1 segments
    (uniform incident edges): budgets[v, k-1] segments start at v with label k.

    Returns (start, end, labels): int32 start and end vertices and the int16
    first step label of every segment, grouped by start vertex, then label.
    With laziness="half" each segment is, independently with probability 1/2,
    the self-step (v, v) instead of a uniform neighbor step.

    These three arrays take 10 bytes a segment, and the stitch that follows
    about _STITCH_BYTES in all; a run whose segments would need more than
    physical memory at that rate raises EngineError before anything is
    allocated. The neighbor picks, then the lazy coins, are drawn in slices
    of _CHUNK segments of this order, so every other temporary is
    O(_CHUNK); the slices draw exactly the streams of one call over all
    segments.
    """
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
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > memory:
        raise EngineError(f"{total} segments need {need} bytes, more than the "
                          f"{memory} bytes of physical memory")
    labels = np.repeat(
        np.tile(np.arange(1, params.length + 1, dtype=np.int16), g.n), budgets.ravel())
    starts = np.repeat(np.arange(g.n, dtype=np.int32), per_vertex)
    ends = np.empty(total, dtype=np.int32)
    neighbors = g.neighbors.astype(np.int32)
    gen = substream(master_seed, INIT_STREAM, cycle)
    # the generator keeps the unused half of a 64-bit draw across calls, and
    # a bound of 1 draws nothing, so slice by slice the picks are the ones a
    # single call would draw; every pick is drawn before the first coin
    for a in range(0, total, _CHUNK):
        v = starts[a:a + _CHUNK]
        # the slice holds the runs of vertices v[0]..v[-1], the end ones cut
        lo, hi = int(v[0]), int(v[-1]) + 1
        counts = np.diff(np.searchsorted(v, np.arange(lo, hi + 1, dtype=np.int32)))
        picks = gen.integers(0, np.repeat(g.degrees[lo:hi], counts))
        picks += np.repeat(g.offsets[lo:hi], counts)
        ends[a:a + _CHUNK] = neighbors[picks]
    if params.lazy:
        for a in range(0, total, _CHUNK):
            stay = gen.random(min(_CHUNK, total - a)) < 0.5
            np.copyto(ends[a:a + _CHUNK], starts[a:a + _CHUNK], where=stay)
    return starts, ends, labels


@dataclass
class StitchResult:
    """Label-1 walks of one stitch pass, held as an index tree.

    Level 0 is the length-1 segments of init_walks, given by their endpoints
    leaf_start and leaf_end. Phase j joins pairs of level j-1 segments into
    level j segments; levels[j-1] holds the two child-index arrays of that
    phase: the requester ids (left halves) and the server ids (right halves)
    of every served request, in requester order. The finished walks are the
    segments of the last level, row i starting at starts[i]. Walks are built
    only for the rows asked for (`walks`); `verts` builds all of them on first
    access.

    failed lists, per phase, the label-1 requesters whose request went
    unserved: (phase, their segment ids at level phase-1, their start
    vertices). `failed_chunks` builds their prefixes. Counts are not kept
    here: vertex v started budgets[v, 0] label-1 walks, and the rounds are
    in the cluster's ledger.

    Every array here is int32, and so are the ids and walks built from it.
    """

    leaf_start: np.ndarray            # (S,) int32
    leaf_end: np.ndarray              # (S,) int32
    levels: List[Tuple[np.ndarray, np.ndarray]]   # per phase, int32 child ids
    starts: np.ndarray                # (K,) int32 start vertex of each finished walk
    failed: List[Tuple[int, np.ndarray, np.ndarray]] = field(default_factory=list)

    def leaf_ids(self, rows: np.ndarray, level: int | None = None) -> np.ndarray:
        """Leaf segment ids under segments `rows` of `level` (default: the
        finished walks), left to right: int32, shape (len(rows), 2**level).
        One vectorised gather per level."""
        level = len(self.levels) if level is None else level
        ids = np.asarray(rows, dtype=np.int32)[:, None]
        for left, right in reversed(self.levels[:level]):
            below = np.empty((ids.shape[0], 2 * ids.shape[1]), dtype=np.int32)
            below[:, 0::2] = left[ids]
            below[:, 1::2] = right[ids]
            ids = below
        return ids

    def walks(self, rows: np.ndarray, level: int | None = None) -> np.ndarray:
        """Vertex sequences of segments `rows` of `level` (default: the
        finished walks): int32, shape (len(rows), 2**level + 1)."""
        ids = self.leaf_ids(rows, level)
        out = np.empty((ids.shape[0], ids.shape[1] + 1), dtype=np.int32)
        out[:, :-1] = self.leaf_start[ids]
        out[:, -1] = self.leaf_end[ids[:, -1]]
        return out

    @cached_property
    def verts(self) -> np.ndarray:
        """All finished walks, (K, length+1), in row order."""
        return self.walks(np.arange(self.starts.size))

    @cached_property
    def failed_chunks(self) -> List[Tuple[int, np.ndarray]]:
        """(phase, failed label-1 prefixes of length 2**(phase-1))."""
        return [(phase, self.walks(ids, phase - 1)) for phase, ids, _ in self.failed]

    def reorder(self, order: np.ndarray) -> None:
        """Make row i of the finished walks the former row order[i]."""
        if self.levels:
            self.levels[-1] = tuple(a[order] for a in self.levels[-1])
        else:
            self.leaf_start, self.leaf_end = self.leaf_start[order], self.leaf_end[order]
        self.starts = self.starts[order]
        self.__dict__.pop("verts", None)


def _group_by_key(key: np.ndarray, n_keys: int,
                  gen: np.random.Generator | None) -> np.ndarray:
    """Positions of key as int32, stably grouped by key; with gen, in a
    uniform order inside each key (gen.shuffle of an int32 arange, the
    permutation gen.permutation draws).

    Keys below n_keys are sorted a 16-bit digit at a time, lowest first:
    numpy's stable argsort of a 16-bit type is a radix sort, much faster
    than a comparison sort of 64-bit keys.
    """
    if n_keys <= 1 << 16:
        key = key.astype(np.uint16)
    order = None
    if gen is not None:
        order = np.arange(key.size, dtype=np.int32)
        gen.shuffle(order)
    for shift in range(0, max(1, (n_keys - 1).bit_length()), 16):
        digit = (key if order is None else key[order]) >> shift
        step = np.argsort(digit.astype(np.uint16, copy=False), kind="stable")
        order = step.astype(np.int32) if order is None else order[step]
    return order


def stitch(g: Graph, budgets: np.ndarray, params: StitchParams, cluster: Cluster,
           master_seed: int, cycle: int = 1) -> StitchResult:
    """One full doubling pass over an (n, length) int budget array: init
    segments, then log2(length) phases.

    A segment is carried as its start vertex, end vertex and first label
    only. In each phase every requester asks the vertex at its end for a
    segment, grouped by serving key: the vertex in practical mode, (vertex,
    needed label) in theory mode. Every level is kept in (start, label)
    order: init_walks emits level 0 that way, and each phase writes its new
    segments in requester order, so a new segment takes its requester's
    start and label. A key's stock is therefore one contiguous run of
    segments whose order depends only on their starts, labels and the order
    of their requesters, never on where they lead; the request of rank r in
    a key takes the key's stock segment of rank r, a distinct segment drawn
    as a fresh walk from the key. Each served pair becomes one segment of
    the next level, recorded as a pair of child indices. When a key's stock
    is short, fail_policy decides between aborting the run (on the smallest
    short key) and serving a uniform subset of its requests: only then does
    the phase draw its substream, to shuffle the requests inside each key.
    The unserved walks are dropped, and logged if they carry label 1.

    Every index is int32, as a level holds fewer than 2^31 segments. In
    practical mode a vertex's stock count comes from binary searches over
    the start-sorted level; theory mode counts its int64 (vertex, label)
    keys. One call peaks at about 22-28 traced bytes a segment, level 0's
    10 included, and about _STITCH_BYTES resident.

    Each phase costs two supersteps (requests, then replies). Message words:
    a request is 3 words; a reply for a length-s segment is s+4 words (s+1
    vertices, first label, cycle tag, requester segment id). The reply size
    is what the modelled cluster would ship; the simulation itself moves
    only indices.
    """
    leaf_start, leaf_end, labels = init_walks(g, budgets, params, master_seed, cycle)
    start, end = leaf_start, leaf_end
    levels: List[Tuple[np.ndarray, np.ndarray]] = []
    failed: List[Tuple[int, np.ndarray, np.ndarray]] = []
    theory = params.mode == "theory"
    key_span = params.length + 1
    n_keys = g.n * key_span if theory else g.n
    phases = params.length.bit_length() - 1

    for phase in range(1, phases + 1):
        s = 1 << (phase - 1)
        two_s = 2 * s
        # temporaries are dropped as soon as they are used: they set the
        # peak memory of a phase. np.take gathers through a full intp copy
        # of its int32 indices, which is faster than a[idx] but 8 bytes an
        # index larger, so it is used only where the phase is far from its
        # peak (before grouping and after serving)
        req_idx = np.flatnonzero((labels & (two_s - 1)) == 1).astype(np.int32)
        srv_idx = np.flatnonzero((labels & (two_s - 1)) == (s + 1) % two_s).astype(np.int32)

        dest = np.take(end, req_idx)
        cluster.exchange_bulk(dest, words=3, kind=KIND_REQUEST)
        if theory:
            req_key = dest.astype(np.int64) * key_span + (labels[req_idx].astype(np.int64) + s)
            srv_key = start[srv_idx].astype(np.int64) * key_span + labels[srv_idx]
            scount = np.bincount(srv_key, minlength=n_keys)
            del srv_key
        else:
            req_key = dest
            # the level lies in start order, so each vertex's stock is one
            # run of srv_idx, found by binary search on the run bounds
            bounds = np.searchsorted(start, np.arange(g.n + 1, dtype=np.int32))
            scount = np.diff(np.searchsorted(srv_idx, bounds.astype(np.int32)))
        del dest
        rcount = np.bincount(req_key, minlength=n_keys)
        short = np.flatnonzero(rcount > scount)
        if short.size and params.fail_policy == "abort":
            key = int(short[0])
            z, needed = divmod(key, key_span) if theory else (key, None)
            raise StitchFailure(z, needed, phase, int(rcount[key] - scount[key]), cycle)

        # the level's (start, label) order leaves srv_idx grouped by key as
        # it is; requests are grouped by key, and shuffled inside each key
        # only when a short key leaves some of them unserved
        gen = substream(master_seed, SERVE_STREAM, cycle, phase) if short.size else None
        order = _group_by_key(req_key, n_keys, gen)
        del req_key

        # the request of rank r in key k gets server sfirst[k] + r, if r < scount[k];
        # srv_of holds each request's server in requester order, -1 if unserved
        rfirst = np.cumsum(rcount) - rcount
        sfirst = np.cumsum(scount) - scount
        # requests and stock are disjoint parts of the level, so every
        # position fits in int32
        srv_pos = np.repeat((sfirst - rfirst).astype(np.int32), rcount)
        srv_pos += np.arange(order.size, dtype=np.int32)
        if short.size:
            ok = srv_pos < np.repeat((sfirst + scount).astype(np.int32), rcount)
            srv_of = np.full(req_idx.size, -1, dtype=np.int32)
            srv_of[order[ok]] = srv_idx[srv_pos[ok]]
            served = srv_of >= 0
            failed_req = req_idx[~served]
            first_label = failed_req[labels[failed_req] == 1]
            if first_label.size:
                failed.append((phase, first_label, start[first_label]))
            served_req, served_srv = req_idx[served], srv_of[served]
        else:
            srv_of = np.empty(req_idx.size, dtype=np.int32)
            srv_of[order] = srv_idx[srv_pos]
            served_req, served_srv = req_idx, srv_of
        del order, srv_pos, srv_idx, req_idx

        assert np.array_equal(np.take(end, served_req), np.take(start, served_srv))
        if theory:
            assert np.array_equal(labels[served_req] + s, labels[served_srv])
        start, end = np.take(start, served_req), np.take(end, served_srv)
        cluster.exchange_bulk(start, words=s + 4, kind=KIND_REPLY)
        labels = np.take(labels, served_req)
        levels.append((served_req, served_srv))

    assert np.all(labels == 1)
    return StitchResult(leaf_start=leaf_start, leaf_end=leaf_end, levels=levels,
                        starts=start, failed=failed)


def cycle_plan(target: int, growth: float) -> Tuple[int, int]:
    """(calibration cycles, final exponent) for a rooted-walk target.

    Calibration runs floor(log_growth target) cycles; the last budget update
    uses exponent ceil(log_growth target) so at least `target` rooted walks
    are budgeted in the final stitch.
    """
    if target < 1:
        raise ParameterError("target must be >= 1")
    calib = 0
    p = 1.0
    while p * growth <= target * (1 + 1e-12):
        p *= growth
        calib += 1
    final_expo = calib if p >= target * (1 - 1e-12) else calib + 1
    return calib, final_expo


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
    calib, final_expo = cycle_plan(params.target, params.growth)
    weakest = float(params.base_budget * g.degrees[roots_arr].min())
    if calib > 0 and weakest < params.threshold:
        warnings.warn(
            f"root base budget {weakest:.3g} is below the significance threshold "
            f"{params.threshold:.3g}; calibration cannot grow the root budget",
            RuntimeWarning, stacklevel=3)

    first_round = cluster.ledger.superstep_count
    budgets = initial_budgets(g, params)
    stats: List[CycleStats] = []
    update_dests = np.flatnonzero(g.degrees > 0).astype(np.int64)

    for i in range(1, calib + 2):
        budget_total = int(budgets.sum())
        attempted = int(budgets[roots_arr, 0].sum())
        res = stitch(g, budgets, params, cluster, seed, cycle=i)
        rooted = res.walks(np.flatnonzero(np.isin(res.starts, roots_arr)))
        if i > calib:
            failed_walks = [(phase, res.walks(ids[np.isin(starts, roots_arr)], phase - 1))
                            for phase, ids, starts in res.failed]
            failed_walks = [(p, c) for p, c in failed_walks if c.shape[0]]
        # the whole tree goes before the next cycle's stitch allocates its own
        del res
        stats.append(CycleStats(cycle=i, budget_total=budget_total,
                                rooted_attempted=attempted,
                                rooted_ok=int(rooted.shape[0])))
        if i <= calib:
            if rooted.shape[0] == 0:
                raise EngineError(f"all rooted walks failed in calibration cycle {i}")
            expo = final_expo if i == calib else i
            budgets = update_budgets(rooted, expo, params, g, num_roots=roots_arr.size)
            cluster.exchange_bulk(update_dests, words=params.length + 1,
                                  kind=KIND_UPDATE)

    final = stats[-1]
    # rows are grouped by root; shuffle so that any prefix of the returned
    # walks is an unbiased uniform subsample
    shuffle = substream(seed, SHUFFLE_STREAM, calib + 1)
    rooted_walks = rooted[shuffle.permutation(rooted.shape[0])]
    metrics = _run_metrics(cluster.ledger.since(first_round),
                           [s.budget_total for s in stats], params.target,
                           final.rooted_ok, final.rooted_attempted)
    return RunResult(walks=rooted_walks, roots=tuple(int(r) for r in roots_arr),
                     params=params, metrics=metrics, cycle_stats=stats,
                     failed_walks=failed_walks, budgets=budgets)


def run_budgeted(g: Graph, root: int, params: StitchParams,
                 cluster: Cluster | None = None, seed: int = 0) -> RunResult:
    """Generate params.target independent length-`length` walks from `root`.

    Runs floor(log_growth target) calibration cycles of stitch +
    budget update, then one final stitch; returns the rooted walks of the
    final cycle with round/memory metrics and the final cycle's budgets.
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
    at once. Serving is pooled; failures are tolerated and reported."""
    if not 1 <= b0_per_degree < math.inf:
        raise ParameterError("b0_per_degree must be finite and >= 1")
    if not 1 <= tau < math.inf:
        raise ParameterError("tau must be finite and >= 1")
    length = round_length(length)
    params = StitchParams(length=length, target=1, growth=2.0, threshold=1.0,
                          base_budget=float(b0_per_degree), surplus=tau,
                          laziness=laziness, mode="practical", fail_policy="tolerate")
    budgets = _budget_from_float(g, np.outer(b0_per_degree * g.degrees.astype(float),
                                             _theory_multipliers(tau, length)))
    total = int(budgets.sum())
    cluster = cluster or Cluster()
    first_round = cluster.ledger.superstep_count
    run_seed = derive_key(seed, _ENGINE_NS, 0)
    res = stitch(g, budgets, params, cluster, run_seed, cycle=1)
    shuffle = substream(run_seed, SHUFFLE_STREAM, 1)
    res.reorder(shuffle.permutation(res.starts.size))
    verts = res.verts  # every walk is returned: build them now, in the shuffled order
    ok_per_vertex = np.bincount(verts[:, 0], minlength=g.n)
    attempted = int(budgets[:, 0].sum())
    metrics = _run_metrics(cluster.ledger.since(first_round), [total], attempted,
                           int(ok_per_vertex.sum()), attempted)
    return UniformResult(result=res, params=params, total_budget=total,
                         ok_per_vertex=ok_per_vertex, metrics=metrics)


def validate_walks(g: Graph, verts: np.ndarray, lazy: bool) -> bool:
    """True iff every consecutive pair is an edge (or a self-step when lazy)."""
    if verts.ndim != 2 or verts.shape[0] == 0:
        return True
    a = verts[:, :-1].astype(np.int64).ravel()
    b = verts[:, 1:].astype(np.int64).ravel()
    edge_keys = np.repeat(np.arange(g.n, dtype=np.int64), g.degrees) * g.n + g.neighbors
    keys = a * g.n + b
    pos = np.searchsorted(edge_keys, keys)
    pos = np.minimum(pos, edge_keys.size - 1)
    ok = edge_keys[pos] == keys
    if lazy:
        ok |= a == b
    return bool(np.all(ok))
