import numpy as np
import pytest

from walkstitch.mpc import (KIND_REPLY, KIND_REQUEST, KIND_UPDATE, CapacityError,
                            Cluster, ClusterConfig, RoundRecord)
from walkstitch.rng import splitmix64, splitmix64_array, substream


def machines_of(machines, vs):
    return Cluster(ClusterConfig(num_machines=machines)).assign_machines(
        np.asarray(vs, dtype=np.int64))


class TestAssignMachine:
    def test_single_machine(self):
        assert all(m == 0 for m in machines_of(1, [0, 1, 999]))

    def test_deterministic(self):
        vs = np.arange(50)
        assert np.array_equal(machines_of(7, vs), machines_of(7, vs))

    def test_balanced_over_10_machines(self):
        loads = np.bincount(machines_of(10, np.arange(1000)), minlength=10)
        assert loads.min() >= 50 and loads.max() <= 150

    def test_vectorized_matches_scalar(self):
        # reference: the scalar hash of each vertex, reduced mod the machine count
        vec = machines_of(13, np.arange(200))
        assert all(vec[v] == splitmix64(v) % 13 for v in range(200))

    def test_splitmix_array_matches_scalar(self):
        xs = np.array([0, 1, 2, 0xDEADBEEF, (1 << 63) + 5], dtype=np.uint64)
        out = splitmix64_array(xs)
        for x, o in zip(xs, out):
            assert splitmix64(int(x)) == int(o)


NO_MSGS = np.empty(0, dtype=np.int64)
TO_VERTEX_0 = np.array([1])   # one message, to vertex 0


class TestExchange:
    def test_empty_outbox(self):
        c = Cluster()
        assert c.exchange_bulk(NO_MSGS, words=1) is None
        assert c.ledger.superstep_count == 1
        assert c.ledger.rounds == [RoundRecord(kind="message", messages_sent=0,
                                               total_words=0, max_words_per_machine=0)]

    def test_capacity_violation_strict_names_machine(self):
        c = Cluster(ClusterConfig(num_machines=1, machine_capacity=10,
                                  enforce_capacity=True))
        with pytest.raises(CapacityError, match="machine 0"):
            c.exchange_bulk(TO_VERTEX_0, words=11)

    def test_capacity_violation_report_only(self):
        c = Cluster(ClusterConfig(num_machines=1, machine_capacity=10))
        c.exchange_bulk(TO_VERTEX_0, words=11)
        assert c.ledger.violations == [{"round": 0, "machine": 0, "words": 11}]

    def test_message_conservation(self):
        c = Cluster(ClusterConfig(num_machines=4))
        rng = np.random.Generator(np.random.PCG64(8))
        dest = rng.integers(0, 50, size=300)
        c.exchange_bulk(np.bincount(dest), 7)
        rec = c.ledger.rounds[-1]
        assert rec.messages_sent == 300
        assert rec.total_words == 300 * 7
        loads = np.bincount(c.assign_machines(dest), minlength=4) * 7
        assert loads.sum() == 300 * 7
        assert rec.max_words_per_machine == int(loads.max())

    @pytest.mark.parametrize("machines", [2, 7, 64])
    def test_loads_match_per_message_hashing(self, machines):
        # capacity is twice a 1-word round's mean load: the 3- and 5-word
        # rounds overflow
        capacity = 2 * 2000 // machines
        c = Cluster(ClusterConfig(num_machines=machines, machine_capacity=capacity))
        rng = np.random.Generator(np.random.PCG64(machines))
        rounds, violations = [], []
        for i, (words, dtype) in enumerate([(1, np.int64), (3, np.int32), (5, np.int64)]):
            dest = rng.integers(0, 500, size=2000)
            c.exchange_bulk(np.bincount(dest).astype(dtype), words)
            loads = np.bincount(c.assign_machines(dest), minlength=machines) * words
            rounds.append(RoundRecord(kind="message", messages_sent=2000,
                                      total_words=2000 * words,
                                      max_words_per_machine=int(loads.max())))
            if loads.max() > capacity:
                violations.append({"round": i, "machine": int(np.argmax(loads)),
                                   "words": int(loads.max())})
        assert c.ledger.rounds == rounds
        assert c.ledger.violations == violations
        assert [v["round"] for v in violations] == [1, 2]

    def test_loads_held_only_for_receiving_machines(self):
        # 10**12 machines: a load array over every machine would not fit in memory
        c = Cluster(ClusterConfig(num_machines=10**12, machine_capacity=1))
        c.exchange_bulk(np.array([1, 0, 0, 2]), words=1)   # to vertices 0, 3 and 3
        machines = c.assign_machines(np.array([0, 3]))
        assert c.ledger.rounds[-1].max_words_per_machine == 2
        assert c.ledger.violations == [{"round": 0, "machine": int(machines[1]), "words": 2}]

    def test_superstep_monotonic(self):
        c = Cluster()
        for i in range(5):
            assert c.ledger.superstep_count == i
            c.exchange_bulk(NO_MSGS, words=1)

    def test_transcript_deterministic(self):
        def run():
            c = Cluster(ClusterConfig(num_machines=3))
            rng = np.random.Generator(np.random.PCG64(1))
            for _ in range(4):
                d = rng.integers(0, 20, size=60)
                c.exchange_bulk(np.bincount(d), words=2)
            return c.ledger.rounds
        assert run() == run()


class TestReport:
    def test_fresh_ledger(self):
        ledger = Cluster().ledger
        assert ledger.superstep_count == 0
        assert ledger.rounds == []
        assert ledger.violations == []

    def test_after_two_exchanges(self):
        c = Cluster()
        c.exchange_bulk(NO_MSGS, words=1)
        c.exchange_bulk(np.array([0, 1]), words=2)   # one message, to vertex 1
        assert c.ledger.superstep_count == 2
        assert c.ledger.max_machine_words() == 2

    def test_paper_rounds_pairs(self):
        c = Cluster()
        for kind in (KIND_REQUEST, KIND_REPLY, KIND_REQUEST, KIND_REPLY, KIND_UPDATE):
            c.exchange_bulk(TO_VERTEX_0, words=1, kind=kind)
        assert c.ledger.superstep_count == 5
        assert c.ledger.paper_rounds() == 3  # two request/reply pairs + one update

    def test_since_counts_later_rounds_only(self):
        c = Cluster(ClusterConfig(machine_capacity=10))
        for kind, words in ((KIND_UPDATE, 11), (KIND_REQUEST, 12), (KIND_REPLY, 5)):
            c.exchange_bulk(TO_VERTEX_0, words=words, kind=kind)
        tail = c.ledger.since(1)
        assert tail.superstep_count == 2
        assert tail.paper_rounds() == 1
        assert tail.max_machine_words() == 12
        assert tail.violations == [{"round": 1, "machine": 0, "words": 12}]


class TestSubstreams:
    def test_replayable(self):
        a = substream(42, 1, 2, 3).integers(0, 1000, size=10)
        b = substream(42, 1, 2, 3).integers(0, 1000, size=10)
        assert np.array_equal(a, b)

    def test_distinct_keys_distinct_streams(self):
        a = substream(42, 1, 2, 3).integers(0, 10**9, size=8)
        b = substream(42, 1, 2, 4).integers(0, 10**9, size=8)
        c = substream(43, 1, 2, 3).integers(0, 10**9, size=8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)
