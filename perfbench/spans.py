"""In-memory spans around library calls, recorded from outside the library.

A :class:`Tracer` replaces a function on the module where its caller looks
it up (``iqprep.pipeline.block_mean_decimate``, not
``iqprep.downsample.block_mean_decimate``) with a wrapper that records a
span: name, start, end, parent span and pair id, plus counts taken from the
call's arguments and result. No library source is touched, and restoring
the original attributes removes every trace of the wrapper.

Self time of a span is its duration minus the durations of its direct
children; summed per layer (the part of the span name before the first
dot) it partitions the traced pair time.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable

ROOT = "bench.pair"

# A count function maps (args, kwargs, result) of one call to named counts.
CountFn = Callable[[tuple, dict, Any], dict]


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index into Tracer.spans, -1 for a root span
    pair: int  # pair id, -1 outside the timed loop
    counts: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``module.attr`` reported as span ``name``."""

    module: Any
    attr: str
    name: str
    count: CountFn | None = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: set[str] = set()
        self._open: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []
        self._pair = -1

    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent, self._pair))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _end(self, index: int) -> Span:
        span = self.spans[index]
        span.end_ns = time.perf_counter_ns()
        self._open.pop()
        return span

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            # Functions that take an OpCounter report the exact operations
            # this call added to it.
            counter = kwargs.get("counter")
            before = (counter.multiplies, counter.adds) if counter is not None else None
            index = self._begin(target.name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self._end(index)
            if target.count is not None:
                span.counts.update(target.count(args, kwargs, result))
            if before is not None:
                span.counts["muls"] = counter.multiplies - before[0]
                span.counts["adds"] = counter.adds - before[1]
            return result

        return traced

    @contextmanager
    def installed(self, targets: list[Target]):
        """Wrap every target for the duration of the block.

        A target whose attribute no longer exists is skipped and listed in
        ``missing``; its metrics then read 0 and are printed as absent.
        """
        for target in targets:
            fn = getattr(target.module, target.attr, None)
            if fn is None:
                self.missing.add(target.name)
                continue
            self._patched.append((target.module, target.attr, fn))
            setattr(target.module, target.attr, self._wrap(target, fn))
        try:
            yield self
        finally:
            while self._patched:
                module, attr, fn = self._patched.pop()
                setattr(module, attr, fn)

    @contextmanager
    def pair(self, pair_id: int):
        """Root span of one timed pair; spans opened inside carry its id."""
        self._pair = pair_id
        index = self._begin(ROOT)
        try:
            yield
        finally:
            self._end(index)
            self._pair = -1


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: list[Span]) -> list[float]:
    """Per-span self time in ms: duration minus the direct children's."""
    child_ms = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_ms[span.parent] += span.ms
    return [span.ms - child for span, child in zip(spans, child_ms)]


@dataclass
class PairProfile:
    """Everything the traced run reports about one pair."""

    pair_ms: float
    calls: dict = field(default_factory=lambda: defaultdict(int))
    ms: dict = field(default_factory=lambda: defaultdict(float))
    self_ms: dict = field(default_factory=lambda: defaultdict(float))
    counts: dict = field(default_factory=lambda: defaultdict(int))
    layer_self_ms: dict = field(default_factory=lambda: defaultdict(float))


def profiles(spans: list[Span]) -> dict[int, PairProfile]:
    """Group spans by pair and total them per function and per layer."""
    own = self_times(spans)
    by_pair: dict[int, PairProfile] = {}
    for span, self_ms in zip(spans, own):
        if span.pair < 0:
            continue
        # A root span is recorded before any span it encloses.
        if span.name == ROOT:
            by_pair[span.pair] = PairProfile(pair_ms=span.ms)
        profile = by_pair[span.pair]
        profile.layer_self_ms[layer_of(span.name)] += self_ms
        if span.name == ROOT:
            continue
        profile.calls[span.name] += 1
        profile.ms[span.name] += span.ms
        profile.self_ms[span.name] += self_ms
        for key, value in span.counts.items():
            profile.counts[f"{span.name}.{key}"] += value
    return by_pair
