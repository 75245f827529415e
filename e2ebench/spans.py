"""Benchmark-owned spans: recorded around calls into the program's layers.

The traced replay wraps each call into a layer's public function in a
span.  Spans live in memory (a flat list, parents by index) and are
written out once, when the run ends.  A layer's *self time* is its
span's duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class SpanRecord:
    name: str
    start_ns: int
    end_ns: int = 0
    parent: int | None = None
    request: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Single-threaded span recorder; one request id per root span."""

    def __init__(self) -> None:
        self.spans: list[SpanRecord] = []
        self._stack: list[int] = []
        self._request = 0

    def span(self, name: str, **attrs) -> "_Span":
        return _Span(self, name, attrs)


class _Span:
    """Context manager for one span.

    The clock is read first on entry and last on exit, so the tracer's
    own bookkeeping lands inside the span it records, not in its
    parent's self time (the overhead is reported apart, as the traced
    against the untraced replay).
    """

    __slots__ = ("_tracer", "_name", "_attrs", "_record")

    def __init__(self, tracer: Tracer, name: str, attrs: dict):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> SpanRecord:
        start = time.perf_counter_ns()
        tracer = self._tracer
        stack = tracer._stack
        parent = stack[-1] if stack else None
        if parent is None:
            tracer._request += 1
        record = SpanRecord(
            self._name, start, parent=parent, request=tracer._request,
            attrs=self._attrs,
        )
        stack.append(len(tracer.spans))
        tracer.spans.append(record)
        self._record = record
        return record

    def __exit__(self, *exc_info) -> None:
        self._tracer._stack.pop()
        self._record.end_ns = time.perf_counter_ns()


def dump_spans(spans: list[SpanRecord], path: str) -> None:
    """Write spans as JSON lines (the run's trace file)."""
    with open(path, "w", encoding="utf-8") as handle:
        for index, record in enumerate(spans):
            handle.write(
                json.dumps(
                    {
                        "id": index,
                        "name": record.name,
                        "start_ns": record.start_ns,
                        "end_ns": record.end_ns,
                        "parent": record.parent,
                        "request": record.request,
                        "attrs": record.attrs,
                    },
                    default=str,
                )
                + "\n"
            )


def _covered_ns(start: int, end: int, intervals: list[tuple[int, int]]) -> int:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    covered = 0
    cursor = start
    for low, high in sorted(intervals):
        low, high = max(low, cursor), min(high, end)
        if high > low:
            covered += high - low
            cursor = high
    return covered


def self_times(spans: list[SpanRecord]) -> list[int]:
    """Per span: duration minus the time its direct children cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for record in spans:
        if record.parent is not None:
            children[record.parent].append((record.start_ns, record.end_ns))
    return [
        record.duration_ns
        - _covered_ns(record.start_ns, record.end_ns, children[index])
        for index, record in enumerate(spans)
    ]


@contextlib.contextmanager
def wrapped(tracer: Tracer, targets):
    """Temporarily replace attributes with span-recording wrappers.

    ``targets`` holds ``(owner, attribute, wrap)`` triples, where
    ``wrap(tracer, original)`` returns the replacement.  The owner is
    the module or class the *caller* looks the name up in, so the
    program's own code runs through the wrapper unchanged.
    """
    saved = []
    try:
        for owner, attribute, wrap in targets:
            original = owner.__dict__[attribute]
            saved.append((owner, attribute, original))
            if isinstance(original, staticmethod):
                replacement = staticmethod(wrap(tracer, original.__func__))
            else:
                replacement = wrap(tracer, original)
            setattr(owner, attribute, replacement)
        yield tracer
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


_NULL = contextlib.nullcontext()


def no_span(name: str, **attrs):
    """The untraced stand-in for :meth:`Tracer.span`."""
    return _NULL


def span_call(name: str, annotate=None):
    """A ``wrap`` for :func:`wrapped`: one span named ``name`` per call.

    ``annotate(result, args)`` may return attributes for the span.
    """

    def wrap(tracer: Tracer, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as record:
                result = original(*args, **kwargs)
            if annotate is not None:
                record.attrs.update(annotate(result, args))
            return result

        return wrapper

    return wrap
