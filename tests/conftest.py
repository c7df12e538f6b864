from types import SimpleNamespace

import pytest

from walkstitch import engine
from walkstitch.rng import substream


@pytest.fixture
def calibration(monkeypatch):
    """Spies on the calibration loop of engine runs.

    budgets: the (n, length) budget array of every stitch, in call order.
    updates: (rooted walks, scale, new budgets) of every budget update, with
    scale the number of rooted walks the next cycle budgets, over all roots.
    """
    seen = SimpleNamespace(budgets=[], updates=[])
    stitch, update_budgets = engine.stitch, engine.update_budgets

    def spy_stitch(g, budgets, *args, **kwargs):
        seen.budgets.append(budgets)
        return stitch(g, budgets, *args, **kwargs)

    def spy_update(walks, scale, *args, **kwargs):
        table = update_budgets(walks, scale, *args, **kwargs)
        seen.updates.append((walks, scale, table))
        return table

    monkeypatch.setattr(engine, "stitch", spy_stitch)
    monkeypatch.setattr(engine, "update_budgets", spy_update)
    return seen


@pytest.fixture
def substream_calls(monkeypatch):
    """The key of every substream the engine draws, in order."""
    calls = []

    def counting_substream(*args):
        calls.append(args)
        return substream(*args)

    monkeypatch.setattr(engine, "substream", counting_substream)
    return calls


@pytest.fixture
def phase_pairs(monkeypatch):
    """The served pairs of every phase the engine stitches, in order: the
    requester ids and the server ids at level phase - 1, in requester order.
    The index tree keeps them from level 2 on; these include level 1's."""
    pairs = []
    add_level = engine._add_level

    def spy_add_level(joins, children, join, served_req, served_srv):
        pairs.append((served_req, served_srv))
        add_level(joins, children, join, served_req, served_srv)

    monkeypatch.setattr(engine, "_add_level", spy_add_level)
    return pairs
