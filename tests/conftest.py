from types import SimpleNamespace

import pytest

from walkstitch import engine


@pytest.fixture
def calibration(monkeypatch):
    """Spies on the calibration loop of engine runs.

    budgets: the (n, length) budget array of every stitch, in call order.
    updates: (rooted walks, exponent, new budgets) of every budget update.
    """
    seen = SimpleNamespace(budgets=[], updates=[])
    stitch, update_budgets = engine.stitch, engine.update_budgets

    def spy_stitch(g, budgets, *args, **kwargs):
        seen.budgets.append(budgets)
        return stitch(g, budgets, *args, **kwargs)

    def spy_update(walks, exponent, *args, **kwargs):
        table = update_budgets(walks, exponent, *args, **kwargs)
        seen.updates.append((walks, exponent, table))
        return table

    monkeypatch.setattr(engine, "stitch", spy_stitch)
    monkeypatch.setattr(engine, "update_budgets", spy_update)
    return seen
