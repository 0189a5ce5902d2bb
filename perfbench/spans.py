"""In-memory span recording and the interval math behind per-layer metrics.

The benchmark times each layer from outside: :class:`SpanRecorder`
replaces a public function or method with a wrapper that records one
span per call (layer name, start, end, parent span) and hands the
call's result to an optional hook that counts work.  Spans stay in
memory until the run ends.  A layer's *self time* is the sum over its
spans of the span's duration minus the part of it that child spans
cover, so nested layers are never counted twice.

This module imports nothing from ``repro``; the tests exercise it
without the program.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation between
    closest ranks (NumPy's default method); 0.0 for no values."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100] (got {q})")
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values) -> float:
    return percentile(values, 50.0)


def covered(intervals, start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals
                     if min(b, end) > max(a, start))
    total = 0.0
    run_start = run_end = None
    for a, b in clipped:
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


@dataclass
class Span:
    """One timed call into a layer."""

    layer: str
    phase: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start, span.end))
    return [span.duration - covered(children.get(index, ()),
                                    span.start, span.end)
            for index, span in enumerate(spans)]


def layer_totals(spans, phases=None) -> dict[str, dict]:
    """Per-layer ``{"self_s", "calls", <summed attrs>}`` over ``spans``.

    ``phases`` restricts the totals to spans recorded in those phases
    (self time is still computed against every child, whatever its
    phase).
    """
    selfs = self_times(spans)
    totals: dict[str, dict] = {}
    for span, self_s in zip(spans, selfs):
        if phases is not None and span.phase not in phases:
            continue
        entry = totals.setdefault(span.layer, {"self_s": 0.0, "calls": 0})
        entry["self_s"] += self_s
        entry["calls"] += 1
        for name, value in span.attrs.items():
            if name.endswith("_min"):
                entry[name] = min(entry.get(name, value), value)
            else:
                entry[name] = entry.get(name, 0) + value
    return totals


class SpanRecorder:
    """Wraps callables so every call records a :class:`Span`.

    Single-threaded by design: the parent of a span is whatever span was
    open when the call began.  ``phase`` tags spans with the part of the
    run they belong to (set-up, cold pass, warm pass, ...).
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = ""
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, owner, name: str, layer: str, count=None) -> None:
        """Replace ``owner.name`` with a recording wrapper.

        ``count(args, result)`` returns a mapping of work counters to
        attach to the span (summed per layer; names ending in ``_min``
        keep the minimum instead).
        """
        original = getattr(owner, name)
        recorder = self

        def wrapper(*args, **kwargs):
            index = len(recorder.spans)
            parent = recorder._open[-1] if recorder._open else None
            span = Span(layer, recorder.phase, time.perf_counter(),
                        parent=parent)
            recorder.spans.append(span)
            recorder._open.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                recorder._open.pop()
            if count is not None:
                span.attrs.update(count(args, result))
            return result

        self._restore.append((owner, name, original))
        setattr(owner, name, wrapper)

    def unwrap_all(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)


class MemorySink:
    """A ``repro.obs`` trace sink that keeps spans in memory."""

    enabled = True

    def __init__(self):
        self.spans = []

    def emit(self, span) -> None:
        self.spans.append(span)

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


def dispatch_metrics(obs_spans, workers: int) -> dict:
    """Engine dispatch figures from ``repro.obs`` shard and batch spans.

    Spans arrive in emission order: a batch's shard spans precede its
    ``engine-batch`` span.  Utilization and latency come from the
    executed shards' intervals, not from summed waits:

    * ``worker_util`` = sum of execute time / (wall of the batches that
      executed shards x workers);
    * ``dispatch_s`` = wall of every batch minus execute time spread
      over the workers: planning, cache I/O, hand-off and idle workers;
    * shard percentiles are over the per-shard execute durations.
    """
    executes = []
    queue_wait = 0.0
    busy_wall = 0.0
    batch_wall = 0.0
    failed = 0
    executed_in_batch = 0
    for span in obs_spans:
        if span.kind == "engine-batch":
            batch_wall += span.duration_s
            if executed_in_batch:
                busy_wall += span.duration_s
            executed_in_batch = 0
            continue
        if span.status != "ok":
            failed += 1
            continue
        if span.cache_hit:
            continue
        executed_in_batch += 1
        executes.append(span.stages.get("execute", 0.0))
        queue_wait += span.stages.get("queue_wait", 0.0)
    execute = sum(executes)
    return {
        "queue_wait_s": queue_wait,
        "execute_s": execute,
        "dispatch_s": max(0.0, batch_wall - execute / workers),
        "worker_util": execute / (busy_wall * workers) if busy_wall else 0.0,
        "shard_p50_ms": 1e3 * percentile(executes, 50.0),
        "shard_p90_ms": 1e3 * percentile(executes, 90.0),
        "shard_samples": len(executes),
        "failed_spans": failed,
    }
