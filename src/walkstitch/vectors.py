"""Sparse non-negative score vectors over vertex ids.

Used for PageRank-style scores: walk estimates, exact oracle vectors and
seed indicators. Entries are floats keyed by vertex id; the total mass is
cached, so a vector built from a dense array reports that array's sum.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Tuple

import numpy as np


class ScoreVector:
    """Sparse map vertex -> non-negative score with a cached total mass."""

    __slots__ = ("_scores", "_mass")

    def __init__(self, scores: Dict[int, float] | None = None, mass: float | None = None):
        self._scores: Dict[int, float] = {}
        if scores:
            for v, x in scores.items():
                if x < 0:
                    raise ValueError(f"negative score {x} at vertex {v}")
                if x != 0.0:
                    self._scores[int(v)] = float(x)
        self._mass = float(mass) if mass is not None else float(sum(self._scores.values()))

    @classmethod
    def indicator(cls, v: int) -> "ScoreVector":
        return cls({int(v): 1.0}, mass=1.0)

    @classmethod
    def from_dense(cls, arr: np.ndarray) -> "ScoreVector":
        idx = np.flatnonzero(arr)
        return cls({int(v): float(arr[v]) for v in idx}, mass=float(arr.sum()))

    def mass(self) -> float:
        return self._mass

    def support(self) -> Tuple[int, ...]:
        return tuple(sorted(self._scores))

    def items(self) -> Iterator[Tuple[int, float]]:
        return iter(sorted(self._scores.items()))

    def to_dense(self, n: int) -> np.ndarray:
        out = np.zeros(n)
        for v, x in self._scores.items():
            out[v] = x
        return out

    def __getitem__(self, v: int) -> float:
        return self._scores.get(int(v), 0.0)

    def __len__(self) -> int:
        return len(self._scores)

    def __contains__(self, v: int) -> bool:
        return int(v) in self._scores

    def __repr__(self) -> str:
        return f"ScoreVector({len(self._scores)} entries, mass={self._mass:.6g})"

    def csv_lines(self) -> Iterable[str]:
        yield "vertex,score"
        for v, x in self.items():
            yield f"{v},{x!r}"
