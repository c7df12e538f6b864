"""Personalized PageRank from rooted lazy walks, and sweep-cut clustering.

The score vector for teleport probability alpha is estimated as

    q = alpha * chi_root + alpha * sum_{t=1..T} (1 - alpha)^t * q_t

where q_t is the empirical distribution of the walks' t-th step. The q_t are
taken from step-t prefixes of one batch of length-T walks rather than from
fresh independent length-t walks: the marginals are identical, only the
(unused) joint distribution across t differs. Local clustering runs a sweep
over q / degree and returns the best-conductance prefix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List

import numpy as np

from .engine import desk_params, round_length, run_budgeted
from .graph import Graph
from .mpc import Cluster
from .vectors import ScoreVector


class PPRError(ValueError):
    pass


class WalkShortfall(PPRError):
    """Fewer usable walks than the M the estimate needs."""


@dataclass(frozen=True)
class PPRParams:
    """alpha: teleport probability; T: truncation length; M: walk sample count."""

    alpha: float
    T: int
    M: int

    def __post_init__(self):
        if not 0 < self.alpha <= 1:
            raise PPRError("alpha must be in (0, 1]")
        if self.T < 1 or self.M < 1:
            raise PPRError("T and M must be >= 1")

    @classmethod
    def theory(cls, n: int, alpha: float, eta: float) -> "PPRParams":
        """T = ceil(10 ln n / alpha), M = ceil(10^6 ln^3 n / (eta^2 alpha^2))
        for additive error target eta."""
        if not 0 < eta < math.inf:
            raise PPRError("eta must be finite and positive")
        log_n = math.log(n)
        T = math.ceil(10.0 * log_n / alpha)
        M = math.ceil(1e6 * log_n ** 3 / (eta * eta * alpha * alpha))
        return cls(alpha=alpha, T=T, M=M)

    @classmethod
    def desk(cls, alpha: float, T: int, M: int) -> "PPRParams":
        return cls(alpha=alpha, T=T, M=M)


@dataclass(frozen=True)
class WalkBatch:
    """Completed walks as rows of vertex ids, plus whether they are lazy."""

    verts: np.ndarray
    lazy: bool


def approx_ppr(g: Graph, root: int, params: PPRParams, batch: WalkBatch) -> ScoreVector:
    """Estimate the PageRank vector of chi_root from M lazy walks.

    The result's mass is exactly the truncated geometric weight
    1 - (1-alpha)^(T+1). Raises if the walks are not lazy: the geometric
    mixture identity holds for the lazy transition only.
    """
    if not batch.lazy:
        raise PPRError("approx_ppr requires lazy walks (laziness=half)")
    count, length = batch.verts.shape[0], batch.verts.shape[1] - 1
    if length < params.T:
        raise PPRError(f"walks have length {length}, need >= T={params.T}")
    if count < params.M:
        raise WalkShortfall(f"need M={params.M} walks, have {count}")
    walks = batch.verts[:params.M]
    if walks.shape[0] and not np.all(walks[:, 0] == root):
        raise PPRError("walk batch does not start at the requested root")
    alpha = params.alpha
    acc = np.zeros(g.n)
    acc[root] = alpha
    weight = alpha
    for t in range(1, params.T + 1):
        weight *= 1.0 - alpha
        if weight == 0.0:
            break
        counts = np.bincount(walks[:, t], minlength=g.n)
        acc += (weight / params.M) * counts
    return ScoreVector.from_dense(acc)


@dataclass
class SweepResult:
    """Vertices in score/degree order with per-prefix conductances."""

    ordering: List[int]
    phis: List[float | None]
    best_j: int                       # 1-based prefix size of the best cut
    best_set: List[int]
    phi: float
    phi_exact: Fraction

    def to_dict(self) -> dict:
        return {
            "ordering": list(self.ordering),
            "phi_list": [p for p in self.phis],
            "best_j": self.best_j,
            "best_set": list(self.best_set),
            "phi": self.phi,
            "phi_exact": [self.phi_exact.numerator, self.phi_exact.denominator],
        }


def sweep(g: Graph, q: ScoreVector) -> SweepResult:
    """Order Supp(q) by q(v)/d(v) descending (ties by id ascending) and return
    the minimum-conductance prefix. Prefix conductances are maintained
    incrementally in O(Vol(Supp(q))) edge touches; prefixes whose conductance
    is undefined (volume 0 or 2m) are skipped, never reported as 0 or inf."""
    supp = q.support()
    if supp.size == 0:
        raise PPRError("sweep needs a score vector with non-empty support")
    if np.any(g.degrees[supp] == 0):
        raise PPRError("sweep support contains an isolated vertex")
    ratio = q.dense[supp] / g.degrees[supp]
    order = supp[np.lexsort((supp, -ratio))]

    in_set = np.zeros(g.n, dtype=bool)
    two_m = g.volume
    cut = 0
    vol = 0
    phis: List[float | None] = []
    best_phi_num = None  # (cut, denom) of the running best, compared exactly
    best_j = 0
    for j, v in enumerate(order, start=1):
        row = g.neighbors_of(v)
        links = int(in_set[row].sum())
        d = int(g.degrees[v])
        cut += d - 2 * links
        vol += d
        in_set[v] = True
        denom = min(vol, two_m - vol)
        if denom <= 0:
            phis.append(None)
            continue
        phis.append(cut / denom)
        if best_phi_num is None or cut * best_phi_num[1] < best_phi_num[0] * denom:
            best_phi_num = (cut, denom)
            best_j = j
    if best_phi_num is None:
        raise PPRError("no prefix has a defined conductance")
    best_set = [int(v) for v in order[:best_j]]
    phi_exact = Fraction(best_phi_num[0], best_phi_num[1])
    return SweepResult(ordering=[int(v) for v in order], phis=phis, best_j=best_j,
                       best_set=best_set, phi=best_phi_num[0] / best_phi_num[1],
                       phi_exact=phi_exact)


DESK_CLUSTER_T = 64
DESK_CLUSTER_M = 50_000


@dataclass
class LocalClusterResult:
    seed_vertex: int
    alpha: float
    target_volume: int
    eta: float
    cut: List[int]
    phi: float
    phi_exact: Fraction
    bound: float
    teleport_dominated: bool
    sweep: SweepResult
    walks_ok: int = 0

    def to_dict(self) -> dict:
        return {
            "seed_vertex": self.seed_vertex,
            "alpha": self.alpha,
            "target_volume": self.target_volume,
            "eta": self.eta,
            "cut": list(self.cut),
            "phi": self.phi,
            "phi_exact": [self.phi_exact.numerator, self.phi_exact.denominator],
            "bound": self.bound,
            "teleport_dominated": self.teleport_dominated,
            "walks_ok": self.walks_ok,
            "sweep": self.sweep.to_dict(),
        }


def conductance_bound(alpha: float, target_volume: float) -> float:
    """Comparison value sqrt(135 * alpha * ln(30 * sqrt(target_volume)))."""
    return math.sqrt(135.0 * alpha * math.log(30.0 * math.sqrt(target_volume)))


def local_cluster(g: Graph, seed_vertex: int, alpha: float, target_volume: int, *,
                  T: int = DESK_CLUSTER_T, M: int = DESK_CLUSTER_M,
                  cluster: Cluster | None = None, seed: int = 0) -> LocalClusterResult:
    """Seeded sweep-cut clustering around `seed_vertex`.

    target_volume stands in for the (unknown) volume of the community being
    sought; it sets the additive error target eta = 1/(10 * target_volume)
    and the reported conductance bound. The returned cut's conductance is
    recomputed exactly. With alpha = 1 the score vector degenerates to the
    seed indicator and the result is flagged teleport_dominated.
    """
    pparams = PPRParams.desk(alpha=alpha, T=T, M=M)
    if not 0 <= seed_vertex < g.n:
        raise PPRError(f"seed vertex {seed_vertex} out of range [0, {g.n})")
    if g.degrees[seed_vertex] == 0:
        raise PPRError(f"seed vertex {seed_vertex} is isolated")
    if target_volume < g.degrees[seed_vertex]:
        raise PPRError("target_volume must be at least the seed's degree")
    eta = 1.0 / (10.0 * target_volume)

    if alpha >= 1.0:
        q = ScoreVector.indicator(seed_vertex, g.n)
        walks_ok = 0
    else:
        # 10% head-room over M so tolerated failures still leave M usable walks;
        # base_budget sized so the stationary floor covers demand until visit
        # counts reach the threshold (assumes seed degree ~10+; tune otherwise)
        wp = desk_params(length=round_length(T), target=int(math.ceil(1.1 * M)),
                         growth=4.0, threshold=10.0, base_budget=60.0, tau=1.15,
                         laziness="half", fail_policy="tolerate", mode="practical")
        run = run_budgeted(g, seed_vertex, wp, cluster=cluster, seed=seed)
        q = approx_ppr(g, seed_vertex, pparams, WalkBatch(run.walks, lazy=True))
        walks_ok = run.walks.shape[0]

    sw = sweep(g, q)
    teleport = alpha >= 1.0 or len(q) == 1
    return LocalClusterResult(
        seed_vertex=int(seed_vertex), alpha=alpha, target_volume=int(target_volume),
        eta=eta, cut=sw.best_set, phi=sw.phi, phi_exact=sw.phi_exact,
        bound=conductance_bound(alpha, target_volume),
        teleport_dominated=teleport, sweep=sw, walks_ok=walks_ok)

