"""Outside-in tracing of the permit_games layers.

The package is not edited: `Tracer.install` replaces each traced public
function by a recording wrapper at every ``permit_games.*`` module attribute
bound to it (found by identity), because modules reach each other's
functions through ``from .x import y``.  ``Report.render`` is wrapped on the
class.  Spans (name, start, end, parent) are kept in flat arrays in memory
and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from contextlib import contextmanager

# (module, attribute) of every traced function; "Report.render" is a method.
TRACED = (
    ("lp", "solve"),
    ("production", "optimal_demand"),
    ("production", "coalition_value"),
    ("bankruptcy", "apply_rule"),
    ("partitions", "enumerate_partitions"),
    ("partition_games", "build_game"),
    ("partition_games", "optimistic_game"),
    ("partition_games", "pessimistic_game"),
    ("partition_games", "resource_game"),
    ("partition_games", "resource_witnesses"),
    ("stability", "core_nonempty"),
    ("stability", "in_core"),
    ("stability", "stable_pipeline"),
    ("stability", "owen_allocation"),
    ("stability", "trade_ledger"),
    ("mechanism", "allocate"),
    ("mechanism", "mechanism_payoff"),
    ("mechanism", "dominance_check"),
    ("scenario", "loads_scenario"),
    ("report", "Report.render"),
    ("cli", "main"),
)

DERIVED = (
    "partition_games.optimistic_game", "partition_games.pessimistic_game",
    "partition_games.resource_game", "partition_games.resource_witnesses")

ROOT = "analysis"  # the benchmark's own span around one analysis


def _lp_size(counters, args, result):
    program = args[0]
    counters["lp.solve.max_cells"] = max(
        counters["lp.solve.max_cells"], program.n_rows * program.n_vars)
    if result.status != "optimal":
        counters["lp.solve.nonoptimal"] += 1


def _partition_count(counters, args, result):
    counters["partitions.count"] += len(result)


def _game_cells(counters, args, result):
    counters["partition_games.cells"] += len(result.values)


def _core_rows(counters, args, result):
    counters["stability.core_rows"] += (1 << len(args[0].players)) - 2


def _mechanism_cells(counters, args, result):
    counters["mechanism.cells"] += result.cells_checked


# Work counts read off a traced call's arguments and result.
OBSERVERS = {
    "lp.solve": _lp_size,
    "partitions.enumerate_partitions": _partition_count,
    "partition_games.build_game": _game_cells,
    "stability.core_nonempty": _core_rows,
    "mechanism.dominance_check": _mechanism_cells,
}

COUNTERS = (
    "lp.solve.max_cells", "lp.solve.nonoptimal", "partitions.count",
    "partition_games.cells", "stability.core_rows", "mechanism.cells")


class Spans:
    """Completed and open spans in parallel arrays; index -1 is "no parent"."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []

    def open(self, name: str, at: float) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.start.append(at)
        self.end.append(at)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self._stack.append(idx)
        return idx

    def close(self, idx: int, at: float) -> None:
        self.end[idx] = at
        self._stack.pop()

    def __len__(self) -> int:
        return len(self.start)

    def name_of(self, idx: int) -> str:
        return self.names[self.name[idx]]

    def self_times(self) -> dict[str, float]:
        """Per name: summed span time minus the time its direct children cover."""
        child = [0.0] * len(self)
        for idx in range(len(self)):
            p = self.parent[idx]
            if p >= 0:
                child[p] += self.end[idx] - self.start[idx]
        out: dict[str, float] = {}
        for idx in range(len(self)):
            key = self.name_of(idx)
            out[key] = out.get(key, 0.0) + (self.end[idx] - self.start[idx] - child[idx])
        return out

    def inclusive_times(self) -> dict[str, float]:
        """Per name: summed time of its outermost spans (nested repeats count once)."""
        out: dict[str, float] = {}
        for idx in range(len(self)):
            nid = self.name[idx]
            p = self.parent[idx]
            while p >= 0 and self.name[p] != nid:
                p = self.parent[p]
            if p < 0:
                key = self.names[nid]
                out[key] = out.get(key, 0.0) + (self.end[idx] - self.start[idx])
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for nid in self.name:
            key = self.names[nid]
            out[key] = out.get(key, 0) + 1
        return out

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` that have an ancestor span called ``ancestor``."""
        nid = self._name_id.get(name)
        aid = self._name_id.get(ancestor)
        if nid is None or aid is None:
            return 0
        total = 0
        for idx in range(len(self)):
            if self.name[idx] != nid:
                continue
            p = self.parent[idx]
            while p >= 0 and self.name[p] != aid:
                p = self.parent[p]
            total += p >= 0
        return total

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({
                "names": self.names,
                "name": self.name.tolist(),
                "start": self.start.tolist(),
                "end": self.end.tolist(),
                "parent": self.parent.tolist(),
            }, fh)


class Tracer:
    """Records spans for the traced functions while `recording` is active."""

    def __init__(self):
        self.spans = Spans()
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.on = False
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)
        spans, counters, clock = self.spans, self.counters, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            idx = spans.open(name, clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.close(idx, clock())
            if observe is not None:
                observe(counters, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever a permit_games module binds it."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "permit_games" or key.startswith("permit_games.")]
        for module_name, attr in TRACED:
            module = importlib.import_module(f"permit_games.{module_name}")
            name = f"{module_name}.{attr.split('.')[-1]}"
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._patch(cls, method, original, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in modules + [module]:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper) -> None:
        if any(o is owner and k == key for o, k, _ in self._patches):
            return
        self._patches.append((owner, key, original))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    @contextmanager
    def recording(self):
        """Record spans under one benchmark-level "analysis" root span."""
        self.on = True
        idx = self.spans.open(ROOT, time.perf_counter())
        try:
            yield
        finally:
            self.spans.close(idx, time.perf_counter())
            self.on = False


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit)."""
    spans = tracer.spans
    calls = spans.calls()
    own = spans.self_times()
    inclusive = spans.inclusive_times()
    analysis_total = inclusive.get(ROOT, 0.0)

    def n(key):
        return (calls.get(key, 0), "count")

    def s(key):
        return (own.get(key, 0.0), "s")

    value_calls = calls.get("production.coalition_value", 0)
    lp_under_value = spans.count_under("lp.solve", "production.coalition_value")
    core_share = (inclusive.get("stability.core_nonempty", 0.0) / analysis_total
                  if analysis_total else 0.0)
    c = tracer.counters
    return {
        "lp.solve.calls": n("lp.solve"),
        "lp.solve.self_s": s("lp.solve"),
        "lp.solve.max_cells": (c["lp.solve.max_cells"], "cells"),
        "lp.solve.nonoptimal": (c["lp.solve.nonoptimal"], "count"),
        "production.optimal_demand.calls": n("production.optimal_demand"),
        "production.optimal_demand.self_s": s("production.optimal_demand"),
        "production.coalition_value.calls": n("production.coalition_value"),
        "production.coalition_value.self_s": s("production.coalition_value"),
        "production.lp_per_value": (
            lp_under_value / value_calls if value_calls else 0.0, "ratio"),
        "bankruptcy.apply_rule.calls": n("bankruptcy.apply_rule"),
        "bankruptcy.apply_rule.self_s": s("bankruptcy.apply_rule"),
        "mechanism.allocate.calls": n("mechanism.allocate"),
        "mechanism.allocate.self_s": s("mechanism.allocate"),
        "partitions.enumerate_partitions.self_s": s("partitions.enumerate_partitions"),
        "partitions.count": (c["partitions.count"], "count"),
        "partition_games.build_game.self_s": s("partition_games.build_game"),
        "partition_games.cells": (c["partition_games.cells"], "count"),
        "partition_games.derived.calls": (sum(calls.get(k, 0) for k in DERIVED), "count"),
        "partition_games.derived.self_s": (sum(own.get(k, 0.0) for k in DERIVED), "s"),
        "stability.core_nonempty.calls": n("stability.core_nonempty"),
        "stability.core_nonempty.self_s": s("stability.core_nonempty"),
        "stability.core_nonempty.share": (core_share, "ratio"),
        "stability.core_rows": (c["stability.core_rows"], "count"),
        "stability.in_core.calls": n("stability.in_core"),
        "stability.in_core.self_s": s("stability.in_core"),
        "stability.stable_pipeline.self_s": s("stability.stable_pipeline"),
        "stability.owen_allocation.self_s": s("stability.owen_allocation"),
        "stability.trade_ledger.self_s": s("stability.trade_ledger"),
        "mechanism.dominance_check.self_s": s("mechanism.dominance_check"),
        "mechanism.cells": (c["mechanism.cells"], "count"),
        "mechanism.mechanism_payoff.calls": n("mechanism.mechanism_payoff"),
        "scenario.loads_scenario.self_s": s("scenario.loads_scenario"),
        "report.render.self_s": s("report.render"),
        "cli.main.self_s": s("cli.main"),
        "analysis.self_s": s(ROOT),
    }
