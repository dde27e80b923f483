"""Span recorder and the fold that turns spans into per-layer self times.

A span is one timed call into a layer: its name, start, end and the
span that caused it.  Spans stay in memory while the run executes and
are folded afterwards.  A span's *self time* is its duration minus the
part of its interval that its children cover (the union of the child
intervals, so overlapping children are not subtracted twice).  Summed
over every span under a root, self times add up to the root's wall
clock: a partition, where nested phase totals count a nested second
once per enclosing phase.

Per-message calls (a radio transmit, a protocol receive, a spool emit,
one resume of a record generator) are too many for one span each.  They
are *aggregated*: per (name, enclosing span) the recorder keeps the call
count, the inclusive seconds, the self seconds (inclusive minus the
aggregated calls nested inside) and the seconds of the calls made
directly under the enclosing span, which is what they cover of it.  On
one thread such calls never overlap, so their covered seconds add up.

Each thread keeps its own stack and its own buffers, so the hot path
takes no lock.  A thread's first span takes ``adopt`` as its parent:
that is how a request handled on a server thread hangs under the
client's request span.  A span may not open inside an aggregated call;
aggregated calls are leaves or contain only other aggregated calls.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]


#: Aggregate fields, kept as a list on the hot path.
COUNT, TOTAL, SELF, COVER = range(4)
AggregateKey = Tuple[str, Optional[int]]


class _ThreadBuffers:
    __slots__ = ("stack", "spans", "aggregates")

    def __init__(self) -> None:
        # Frames are [span id or None for an aggregated call,
        #             id of the nearest enclosing span,
        #             seconds of aggregated calls nested directly inside].
        self.stack: List[list] = []
        self.spans: List[Span] = []
        self.aggregates: Dict[AggregateKey, List[float]] = {}


class SpanRecorder:
    """Records spans and aggregated calls from any number of threads."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: Parent of the first span a thread opens (cross-thread cause).
        self.adopt: Optional[int] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: Every thread's buffers, kept past the thread's exit.
        self._threads: List[_ThreadBuffers] = []
        self._lock = threading.Lock()

    def _buffers(self) -> _ThreadBuffers:
        try:
            return self._local.buffers
        except AttributeError:
            buffers = self._local.buffers = _ThreadBuffers()
            with self._lock:
                self._threads.append(buffers)
            return buffers

    # -- spans -----------------------------------------------------------
    def span(self, name: str) -> "_SpanContext":
        return _SpanContext(self, name)

    def wrap_span(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as one span."""
        recorder = self

        @functools.wraps(fn)
        def call(*args, **kwargs):
            with _SpanContext(recorder, name):
                return fn(*args, **kwargs)

        return call

    # -- aggregated calls ----------------------------------------------
    def wrap_calls(self, name: str, fn: Callable) -> Callable:
        """``fn`` with its calls aggregated per enclosing span."""
        clock = self.clock
        buffers_of = self._buffers

        @functools.wraps(fn)
        def call(*args, **kwargs):
            buffers = buffers_of()
            stack = buffers.stack
            if stack:
                top = stack[-1]
                enclosing = top[1]
            else:
                top = None
                enclosing = self.adopt
            frame = [None, enclosing, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = clock() - start
                stack.pop()
                key = (name, enclosing)
                agg = buffers.aggregates.get(key)
                if agg is None:
                    agg = buffers.aggregates[key] = [0, 0.0, 0.0, 0.0]
                agg[COUNT] += 1
                agg[TOTAL] += seconds
                agg[SELF] += seconds - frame[2]
                if top is None or top[0] is not None:
                    agg[COVER] += seconds
                else:
                    top[2] += seconds

        return call

    def iterate(self, name: str, iterable: Iterable) -> Iterator:
        """Yield from ``iterable``, aggregating the time of each resume.

        A generator runs only while it is resumed, so every ``next``
        (the final, exhausting one included) is one aggregated call.
        """
        step = self.wrap_calls(name, iter(iterable).__next__)
        while True:
            try:
                item = step()
            except StopIteration:
                return
            yield item

    # -- results ---------------------------------------------------------
    def spans(self) -> List[Span]:
        with self._lock:
            threads = list(self._threads)
        return [span for buffers in threads for span in buffers.spans]

    def aggregates(self) -> Dict[AggregateKey, List[float]]:
        with self._lock:
            threads = list(self._threads)
        merged: Dict[AggregateKey, List[float]] = {}
        for buffers in threads:
            for key, agg in buffers.aggregates.items():
                into = merged.setdefault(key, [0, 0.0, 0.0, 0.0])
                for i, value in enumerate(agg):
                    into[i] += value
        return merged


class _SpanContext:
    __slots__ = ("recorder", "name", "frame", "parent", "start")

    def __init__(self, recorder: SpanRecorder, name: str) -> None:
        self.recorder = recorder
        self.name = name

    def __enter__(self) -> int:
        recorder = self.recorder
        stack = recorder._buffers().stack
        if stack:
            top = stack[-1]
            if top[0] is None:
                raise RuntimeError(
                    f"span {self.name!r} opened inside an aggregated call"
                )
            self.parent = top[0]
        else:
            self.parent = recorder.adopt
        span_id = next(recorder._ids)
        self.frame = [span_id, span_id, 0.0]
        stack.append(self.frame)
        self.start = recorder.clock()
        return span_id

    def __exit__(self, *_exc) -> None:
        recorder = self.recorder
        end = recorder.clock()
        buffers = recorder._buffers()
        buffers.stack.pop()
        buffers.spans.append(
            Span(self.frame[0], self.name, self.start, end, self.parent)
        )


# ----------------------------------------------------------------------
# The fold
# ----------------------------------------------------------------------
def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)``."""
    covered = 0.0
    run_start = run_end = None
    for start, end in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if run_end is None or start > run_end:
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = start, end
        elif end > run_end:
            run_end = end
    if run_end is not None:
        covered += run_end - run_start
    return covered


def self_times(
    spans: Iterable[Span],
    aggregates: Dict[AggregateKey, List[float]],
) -> Dict[str, float]:
    """Self seconds per name: each span's duration minus what its child
    spans (clipped to it, as a union) and its directly enclosed
    aggregated calls cover, plus each aggregate's own self seconds."""
    spans = list(spans)
    children: Dict[Optional[int], List[Span]] = defaultdict(list)
    for span in spans:
        children[span.parent].append(span)
    covered_by_calls: Dict[Optional[int], float] = defaultdict(float)
    out: Dict[str, float] = defaultdict(float)
    for (name, enclosing), agg in aggregates.items():
        covered_by_calls[enclosing] += agg[COVER]
        out[name] += agg[SELF]
    for span in spans:
        clipped = (
            (max(child.start, span.start), min(child.end, span.end))
            for child in children[span.id]
        )
        covered = union_length(clipped) + covered_by_calls[span.id]
        out[span.name] += (span.end - span.start) - covered
    return dict(out)
