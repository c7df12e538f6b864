"""Pinned walk hashes for small fixed-seed runs.

Each test hashes the walks and the failed label-1 prefixes that one engine
call returns. A change that keeps the random streams (every substream key,
every requester and server order) must keep these hashes byte for byte, so a
refactor of stitching, walk assembly or message accounting is shown to
return exactly the same walks. The values were recorded when serving
stopped shuffling the stock: every level is kept in (start, label) order,
each key's stock is served as it lies, and a phase draws its serve
substream only when some key's stock runs short.

The two tolerate-mode runs with short keys were pinned again, and the
theory-mode one added, when a short phase stopped shuffling all of its
requests and began to draw only which requests of each short key fail
(engine._draw_failures). That changed the serve substream's draws, and
nothing else: init streams, abort-mode runs and phases without a short key
draw as before, so test_theory_abort_run_budgeted kept its value.

test_theory_wide_keys_run_budgeted was pinned later, on the stable 16-bit
radix grouping that the packed sort replaced, so that the grouping of keys
too wide for 32-bit sort words is checked too.

test_uniform_stitching_with_failures was pinned again when uniform_stitching
stopped shuffling its walks: they are the same walks, returned in tree order
(grouped by start vertex) instead of in the order of the shuffle substream's
permutation, which is no longer drawn. Its failed prefixes did not change,
and the rooted runs, which still shuffle, kept their values.

test_multi_source_groups was pinned before the budget update took one
rooted-walk scale (cycle_plan's schedule times the group's root count)
instead of an exponent and a root count, to show that the move kept the
arithmetic of a group of several roots: roots 3, 5 and 9 form one group.

Only a change that alters the RNG streams on purpose may update the pinned
values, and it must say so in CHANGES.md.
"""

import hashlib

import numpy as np

from walkstitch.engine import (StitchParams, desk_params, run_budgeted,
                               run_multi_source, uniform_stitching)
from walkstitch.fixtures import cycle_graph, gnp, two_cliques


def digest(walks, failed) -> str:
    """sha256 over the walk matrix, then each (phase, failed prefix) chunk."""
    h = hashlib.sha256()
    for arr in [walks] + [chunk for _, chunk in failed]:
        arr = np.ascontiguousarray(arr, dtype="<i4")
        h.update(np.array(arr.shape, dtype="<i8").tobytes())
        h.update(arr.tobytes())
    h.update(np.array([phase for phase, _ in failed], dtype="<i8").tobytes())
    return h.hexdigest()


def test_lazy_practical_run_budgeted():
    p = desk_params(length=8, target=300, growth=10.0, threshold=10.0,
                    base_budget=30.0, tau=1.0, laziness="half")
    run = run_budgeted(two_cliques(6), 1, p, seed=21)
    assert run.failed_walks  # failures on all three phases
    assert digest(run.walks, run.failed_walks) == (
        "f0cd5fcb0322b7d97eebe9c14184fd0805ca455e66043110c800e6e2871388d1")


def test_theory_abort_run_budgeted():
    p = StitchParams(length=4, target=100, growth=10.0, threshold=20.0,
                     base_budget=30.0, surplus=1.3, mode="theory", fail_policy="abort")
    run = run_budgeted(cycle_graph(8), 0, p, seed=3)
    assert digest(run.walks, run.failed_walks) == (
        "af2ef1b0c479fa27f4c3212a43e601726d41b16dbfee2f284bbe95b596255936")


def test_theory_tolerate_run_budgeted():
    p = desk_params(length=8, target=300, growth=10.0, threshold=10.0,
                    base_budget=30.0, tau=1.01, mode="theory")
    run = run_budgeted(cycle_graph(8), 0, p, seed=8)
    assert run.failed_walks  # short (vertex, label) keys in phases 2 and 3
    assert digest(run.walks, run.failed_walks) == (
        "6cd1f6c26f7ea98e3524bb03dfd547cbdd5ea35d8f58b02b4a7d22deacc4a7b2")


def test_theory_wide_keys_run_budgeted():
    # 1024 * 4 (vertex, label) keys take 12 bits, and phase 1's 360 448
    # requests 19: grouping them packs 31 bits into uint32 words, as do
    # phases 2 and 3 (TestStitch::test_int64_request_order_serves_alike
    # covers the int64 order). Phase 1 has short keys too.
    p = StitchParams(length=8, target=1, growth=10.0, threshold=10.0,
                     base_budget=40.0, surplus=1.01, mode="theory", fail_policy="tolerate")
    run = run_budgeted(cycle_graph(1024), 0, p, seed=5)
    assert run.failed_walks
    assert digest(run.walks, run.failed_walks) == (
        "9c020db1af7b06e0205cc096584b8f73522ab3fb06a36b956a65b35c6513b981")


def test_uniform_stitching_with_failures():
    res = uniform_stitching(gnp(40, 0.2, seed=2), 3, 8, seed=4, tau=1.0)
    assert res.result.failed_chunks
    assert digest(res.result.verts, res.result.failed_chunks) == (
        "98a4785a563b5deb5c41fc7c849c235c2e6b9927fe3d57fa37a8b3ede3949af4")


def test_multi_source_groups():
    p = desk_params(length=4, target=10, growth=4, threshold=3, base_budget=5, tau=1.5)
    res = run_multi_source(two_cliques(6), {0: 4, 7: 40, 3: 300, 5: 300, 9: 290}, p, seed=1)
    assert [r.roots for r in res.group_results] == [(0,), (7,), (3, 5, 9)]
    # each walk starts at its root, so the roots' walks, in sorted root
    # order, hash as one matrix
    walks = np.concatenate([res.walks_by_root[r] for r in sorted(res.walks_by_root)])
    assert digest(walks, []) == (
        "6bf22e7d2d42286b72a4721fd553644d8a604a1b97162208a34f9b0bf73230df")
