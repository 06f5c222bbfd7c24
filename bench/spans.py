"""In-memory spans recorded around the benchmark's calls into each layer.

A span has a name, a layer, a parent, the run id, start and end times
and, when the tracer has Spark counters, the Spark work done while it was
open: executor counter deltas from the status store, and joins,
exchanges and broadcasts in the physical plans of the SQL queries that
ran. Spans are kept in memory and written out once, with self times,
when the run ends.
"""
from __future__ import annotations

import json
import re
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

# Operators counted in a physical plan. ``\bExchange`` is a shuffle:
# the word boundary excludes BroadcastExchange and ReusedExchange.
_PLAN_OPS = {
    "joins": re.compile(
        r"\b(SortMergeJoin|ShuffledHashJoin|BroadcastHashJoin"
        r"|BroadcastNestedLoopJoin|CartesianProduct)\b"
    ),
    "exchanges": re.compile(r"\bExchange\b"),
    "broadcasts": re.compile(r"\bBroadcastExchange\b"),
}

_EXECUTOR_FIELDS = {
    "tasks": ("totalTasks", 1),
    "task_s": ("totalDuration", 1e-3),
    "gc_s": ("totalGCTime", 1e-3),
    "shuffle_read_mb": ("totalShuffleRead", 1 / 2**20),
    "shuffle_write_mb": ("totalShuffleWrite", 1 / 2**20),
}


def plan_counts(description: str) -> dict:
    """Count operators in the plan tree of a query's plan description.

    With adaptive execution the tree holds the final and the initial
    plan; the initial one is counted, since it is what the compiler's
    output was planned into before run-time statistics pruned it."""
    tree = description.split("\n\n")[0]
    if "== Initial Plan ==" in tree:
        tree = tree.split("== Initial Plan ==", 1)[1]
    return {k: len(p.findall(tree)) for k, p in _PLAN_OPS.items()}


class SparkCounters:
    """Cumulative Spark totals, read from the status stores."""

    def __init__(self, spark):
        self._sc = spark.sparkContext._jsc.sc()
        self._sql = spark._jsparkSession.sharedState().statusStore()
        self._seen_sql = self._sql.executionsCount()
        self._plan_totals = dict.fromkeys(_PLAN_OPS, 0)
        self.cached_mb_peak = 0.0

    def snapshot(self) -> dict:
        self._sc.listenerBus().waitUntilEmpty()
        out = dict.fromkeys(_EXECUTOR_FIELDS, 0.0)
        execs = self._sc.statusStore().executorList(True)
        cached = 0.0
        for i in range(execs.size()):
            e = execs.apply(i)
            for k, (getter, scale) in _EXECUTOR_FIELDS.items():
                out[k] += getattr(e, getter)() * scale
            cached += e.memoryUsed() / 2**20
        self.cached_mb_peak = max(self.cached_mb_peak, cached)
        out.update(self._new_plan_counts())
        return out

    def _new_plan_counts(self) -> dict:
        """Operator totals over all SQL queries run so far."""
        n = self._sql.executionsCount()
        if n > self._seen_sql:
            new = self._sql.executionsList(self._seen_sql, n - self._seen_sql)
            for i in range(new.size()):
                for k, v in plan_counts(new.apply(i).physicalPlanDescription()).items():
                    self._plan_totals[k] += v
            self._seen_sql = n
        return dict(self._plan_totals)


@dataclass
class Span:
    id: int
    parent: int | None
    run: str
    name: str
    layer: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; ``counters`` adds Spark deltas to each."""

    def __init__(self, run_id: str, counters: SparkCounters | None = None):
        self.run_id = run_id
        self.counters = counters
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.overhead_s = 0.0  # time spent reading counters

    def _snapshot(self, counters):
        if counters is None:
            return None
        t0 = time.perf_counter()
        snap = counters.snapshot()
        self.overhead_s += time.perf_counter() - t0
        return snap

    @contextmanager
    def span(self, name: str, layer: str, counted: bool = True):
        """Open a span; ``counted=False`` skips the Spark counters, for
        layers that do no Spark work."""
        parent = self._stack[-1].id if self._stack else None
        counters = self.counters if counted else None
        before = self._snapshot(counters)
        s = Span(len(self.spans), parent, self.run_id, name, layer,
                 time.perf_counter())
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            if before is not None:
                after = self._snapshot(counters)
                s.attrs.update({k: after[k] - before[k] for k in after})

    def self_seconds(self) -> dict:
        """Span id → duration minus the time its children cover."""
        own = {s.id: s.seconds for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.seconds
        return own

    def dump(self, path: str) -> None:
        own = self.self_seconds()
        rows = [
            {**asdict(s), "seconds": s.seconds, "self_seconds": own[s.id]}
            for s in self.spans
        ]
        with open(path, "w") as f:
            json.dump(rows, f, indent=1)
