"""Deterministic simulation of synchronous message-passing over machines.

Vertices are hashed to machines; computation proceeds in supersteps, each a
compute phase followed by a barrier exchange. The simulator is a cost model:
it accounts for communication (message and word counts per receiving machine
per round, every message of one exchange having the same word count) and
delivers nothing, so no result can depend on arrival order. The ledger is the
only record of a run's rounds: callers read its counters directly. A
request+reply pair during stitching costs 2 supersteps and is reported as a
single "paper round".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from .rng import splitmix64, splitmix64_array

# Superstep kinds; request/reply pairs collapse 2:1 into paper rounds.
KIND_REQUEST = "stitch-request"
KIND_REPLY = "stitch-reply"
KIND_UPDATE = "budget-update"
KIND_OTHER = "message"
_PAIRED_KINDS = (KIND_REQUEST, KIND_REPLY)


class ClusterConfigError(ValueError):
    pass


class CapacityError(RuntimeError):
    def __init__(self, machine: int, round_index: int, words: int, capacity: int):
        super().__init__(
            f"machine {machine} received {words} words in round {round_index}, "
            f"capacity {capacity}")
        self.machine = machine
        self.round_index = round_index
        self.words = words


@dataclass(frozen=True)
class ClusterConfig:
    """num_machines and a per-machine per-round word capacity.

    enforce_capacity=False records violations without failing ("report-only");
    True aborts the run on the first overflow (strict mode).
    """

    num_machines: int = 1
    machine_capacity: int = 1 << 62
    enforce_capacity: bool = False

    def __post_init__(self):
        if self.num_machines < 1:
            raise ClusterConfigError("num_machines must be >= 1")
        if self.machine_capacity < 1:
            raise ClusterConfigError("machine_capacity must be >= 1")


@dataclass
class RoundRecord:
    kind: str
    messages_sent: int
    total_words: int
    max_words_per_machine: int


@dataclass
class RoundLedger:
    rounds: List[RoundRecord] = field(default_factory=list)
    violations: List[Dict[str, int]] = field(default_factory=list)

    @property
    def superstep_count(self) -> int:
        return len(self.rounds)

    def paper_rounds(self) -> int:
        """Supersteps, with each request/reply pair counted once."""
        paired = sum(1 for r in self.rounds if r.kind in _PAIRED_KINDS)
        return len(self.rounds) - paired + paired // 2

    def max_machine_words(self) -> int:
        return max((r.max_words_per_machine for r in self.rounds), default=0)

    def since(self, first: int) -> "RoundLedger":
        """The supersteps from index `first` on; violations keep their round."""
        return RoundLedger(self.rounds[first:],
                           [v for v in self.violations if v["round"] >= first])


def assign_machine(cfg: ClusterConfig, v: int) -> int:
    """Stable machine for vertex v: splitmix64(v) mod num_machines."""
    if cfg.num_machines == 1:
        return 0
    return splitmix64(int(v)) % cfg.num_machines


class Cluster:
    """A ClusterConfig plus the running ledger of exchanges."""

    def __init__(self, cfg: ClusterConfig | None = None):
        self.cfg = cfg or ClusterConfig()
        self.ledger = RoundLedger()

    def assign_machines(self, vs: np.ndarray) -> np.ndarray:
        hashed = splitmix64_array(vs.astype(np.uint64))
        return (hashed % np.uint64(self.cfg.num_machines)).astype(np.int64)

    def exchange_bulk(self, dest: np.ndarray, words: int, kind: str = KIND_OTHER) -> None:
        """Account for one barrier exchange of len(dest) messages of `words`
        words each.

        dest holds each message's destination vertex. Appends one
        RoundRecord. Loads are charged to the receiving machine only, so no
        sender is needed; an overflow is logged as a violation (strict mode
        raises CapacityError). Nothing is delivered, so there is no delivery
        order and nothing is returned.
        """
        dest = np.asarray(dest)
        n_msgs = int(dest.size)
        total_words = int(words) * n_msgs
        if n_msgs == 0:
            max_per_machine = 0
        elif self.cfg.num_machines == 1:
            max_per_machine = total_words
        else:
            loads = np.bincount(self.assign_machines(dest),
                                minlength=self.cfg.num_machines) * int(words)
            max_per_machine = int(loads.max())

        round_index = self.ledger.superstep_count
        self.ledger.rounds.append(RoundRecord(
            kind=kind, messages_sent=n_msgs, total_words=total_words,
            max_words_per_machine=max_per_machine))

        if max_per_machine > self.cfg.machine_capacity:
            offender = 0 if self.cfg.num_machines == 1 else int(np.argmax(loads))
            self.ledger.violations.append(
                {"round": round_index, "machine": offender, "words": max_per_machine})
            if self.cfg.enforce_capacity:
                raise CapacityError(offender, round_index, max_per_machine,
                                    self.cfg.machine_capacity)
