"""Non-negative score vectors over vertex ids.

Used for PageRank-style scores: walk estimates, exact oracle vectors and
seed indicators. A ScoreVector wraps one dense float array of length n,
indexed by vertex id; its support is the set of non-zero entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)   # eq on an array field would be ambiguous
class ScoreVector:
    """Dense per-vertex scores; `len` counts the non-zero entries."""

    dense: np.ndarray

    @classmethod
    def indicator(cls, v: int, n: int) -> "ScoreVector":
        dense = np.zeros(n)
        dense[v] = 1.0
        return cls(dense)

    @classmethod
    def from_dense(cls, arr: np.ndarray) -> "ScoreVector":
        return cls(np.array(arr, dtype=float))

    def mass(self) -> float:
        return float(self.dense.sum())

    def support(self) -> np.ndarray:
        return np.flatnonzero(self.dense)

    def to_dense(self, n: int) -> np.ndarray:
        out = np.zeros(n)
        out[:self.dense.size] = self.dense
        return out

    def __len__(self) -> int:
        return int(np.count_nonzero(self.dense))
