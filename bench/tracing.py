"""Span recording around walkstitch's public functions, from outside the package.

A Recorder replaces module attributes (and ``Cluster.exchange_bulk``) with
thin wrappers that append one span per call: id, parent id, name, start and
end. Spans stay in memory; ``write`` dumps them as JSON lines once the run is
over. Nothing under ``src/`` is modified: the wrappers work because the
package looks its own functions up through module globals at call time.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from statistics import median
from typing import Dict, List, NamedTuple


class Span(NamedTuple):
    id: int
    parent: int      # -1 for a root span
    name: str
    start: float
    end: float


def traced_layers(graph, mpc, engine, ppr, oracle):
    """(owner, attribute, span name) for every public call the benchmark times."""
    return [
        (graph, "from_edge_array", "graph.build"),
        (graph, "load_edge_list", "graph.load_edge_list"),
        (graph, "save_cache", "graph.save_cache"),
        (graph, "load_cache", "graph.load_cache"),
        (mpc.Cluster, "exchange_bulk", "mpc.exchange"),
        (engine, "init_walks", "engine.init_walks"),
        (engine, "stitch", "engine.stitch"),
        (engine, "update_budgets", "engine.update_budgets"),
        (engine, "run_budgeted", "engine.run"),
        (engine, "uniform_stitching", "engine.run"),
        (engine, "validate_walks", "check.validate_walks"),
        (ppr, "approx_ppr", "ppr.approx_ppr"),
        (ppr, "sweep", "ppr.sweep"),
        (oracle, "exact_ppr", "oracle.exact_ppr"),
    ]


class Recorder:
    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._next_id = 0
        self._patched: list = []

    @contextmanager
    def span(self, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, parent, name, start, end))

    def wrap(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def install(self, layers) -> None:
        for owner, attr, name in layers:
            self.wrap(owner, attr, name)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for s in sorted(self.spans, key=lambda s: s.id):
                f.write(json.dumps(s._asdict()) + "\n")


class NullRecorder:
    """Stands in for Recorder when tracing is off: harness spans cost nothing."""

    @contextmanager
    def span(self, name: str):
        yield


def layer_times(spans: List[Span]) -> Dict[str, float]:
    """Per-layer seconds from one process's spans.

    Harness root spans are ``bench.setup`` (one per ingest repetition),
    ``bench.run`` and ``bench.check``. Graph layers are the median over the
    setup repetitions; every other layer is summed inside its root span.
    ``<name>_s`` is inclusive time, ``<name>_self_s`` excludes child spans.
    """
    children: Dict[int, List[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)

    def self_time(s: Span) -> float:
        return (s.end - s.start) - sum(c.end - c.start for c in children.get(s.id, ()))

    def subtree(root: Span):
        todo = list(children.get(root.id, ()))
        while todo:
            s = todo.pop()
            yield s
            todo.extend(children.get(s.id, ()))

    def totals(root: Span) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for s in subtree(root):
            out[s.name + "_s"] = out.get(s.name + "_s", 0.0) + (s.end - s.start)
            out[s.name + "_self_s"] = out.get(s.name + "_self_s", 0.0) + self_time(s)
        return out

    roots = children.get(-1, [])
    setups = [totals(s) for s in roots if s.name == "bench.setup"]
    out: Dict[str, float] = {}
    for key in ("graph.build_s", "graph.load_edge_list_s", "graph.save_cache_s",
                "graph.load_cache_s"):
        out[key] = median(t.get(key, 0.0) for t in setups) if setups else 0.0
    for root in roots:
        if root.name in ("bench.run", "bench.check"):
            for key, value in totals(root).items():
                out[key] = out.get(key, 0.0) + value
        if root.name == "bench.run":
            out["bench.run_self_s"] = self_time(root)
    return out
