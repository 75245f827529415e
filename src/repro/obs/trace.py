"""Lightweight request tracing: span trees over ``perf_counter_ns``.

The serving stack spans five layers (authoring -> compiled bitset ->
native kernel -> batch simulator -> resident daemon); a flat counter
dict cannot answer "where did this request's 40 ms go?".  A *span* is
one named, timed phase with attributes and child spans; a request's
span tree is its latency budget, phase by phase.

Design constraints, in order:

* **The hot path pays one branch when tracing is off.**  Library code
  instruments itself with :func:`span`; when tracing is disabled that
  call returns a shared no-op handle without allocating anything.
* **Phase granularity, not node granularity.**  Spans wrap a network
  build, a scheme race, a worker dispatch -- never a solver's inner
  loop.  The machine-independent effort counters
  (:class:`repro.csp.stats.SolverStats`) remain the per-node
  measurement discipline, exactly as the paper's Table 2 / Figure 4
  report nodes and consistency checks instead of wall clock.
* **Spans cross process boundaries.**  A warm pool worker records its
  sub-spans locally and ships them back piggybacked on the result
  (:meth:`Span.to_dict` / :func:`span_from_dict` round-trip exactly);
  the daemon re-parents them under the request's dispatch span with
  :meth:`Span.adopt`.  Durations are timebase-independent, so the
  merged tree's latency budget is correct even where raw
  ``perf_counter_ns`` values are not comparable across processes.

Two usage styles share the same :class:`Span`:

* *Ambient* (library code): ``with span("build_network"): ...``
  attaches to the contextvar-tracked current span.  Roots are opened
  with :func:`recording`, which also force-enables tracing for its
  dynamic extent -- this is how a daemon worker captures one
  request's sub-spans without flipping the global switch.
* *Explicit* (the daemon): build a :class:`Span`, open children with
  :meth:`Span.phase`, and pass the tree around by hand.  The async
  serving loop interleaves many requests on one thread, so ambient
  state would be a bug factory there.
"""

from __future__ import annotations

import time
from contextvars import ContextVar
from typing import Iterator, Mapping

__all__ = [
    "NOOP_SPAN",
    "Span",
    "current_span",
    "enabled",
    "recording",
    "set_enabled",
    "span",
    "span_from_dict",
]

#: Global switch of the ambient API.  Off by default: importing the
#: library must not make every optimize() call start allocating spans.
_ENABLED = False

#: The ambient current span (per thread of control; asyncio tasks and
#: threads each see their own value).
_CURRENT: ContextVar["Span | None"] = ContextVar("repro_obs_span", default=None)


def set_enabled(on: bool) -> None:
    """Turn the ambient tracing API on or off globally."""
    global _ENABLED
    _ENABLED = bool(on)


def enabled() -> bool:
    """True when the ambient tracing API is recording."""
    return _ENABLED


def current_span() -> "Span | None":
    """The ambient current span (None outside any recording)."""
    return _CURRENT.get()


class Span:
    """One named, timed phase with attributes and child spans.

    Args:
        name: phase name (the trace vocabulary is documented in the
            README's span phase glossary).
        attributes: initial attribute mapping (copied).
        start_ns: explicit start timestamp (``perf_counter_ns`` by
            default; deserialization passes the recorded value).
    """

    __slots__ = ("name", "start_ns", "end_ns", "attributes", "children")

    def __init__(
        self,
        name: str,
        attributes: Mapping | None = None,
        start_ns: int | None = None,
    ):
        self.name = name
        self.start_ns = (
            time.perf_counter_ns() if start_ns is None else int(start_ns)
        )
        self.end_ns: int | None = None
        self.attributes: dict = dict(attributes) if attributes else {}
        self.children: list[Span] = []

    # -- lifecycle -------------------------------------------------------

    def end(self) -> "Span":
        """Close the span (idempotent: the first end wins)."""
        if self.end_ns is None:
            self.end_ns = time.perf_counter_ns()
        return self

    @property
    def duration_ns(self) -> int:
        """Elapsed nanoseconds (to "now" while the span is open)."""
        end = self.end_ns if self.end_ns is not None else time.perf_counter_ns()
        return max(end - self.start_ns, 0)

    @property
    def duration_seconds(self) -> float:
        """Elapsed seconds."""
        return self.duration_ns / 1e9

    def set_attribute(self, key: str, value) -> "Span":
        self.attributes[key] = value
        return self

    # -- tree building ---------------------------------------------------

    def child(self, name: str, **attributes) -> "Span":
        """Open (and attach) a child span; the caller must end() it."""
        child = Span(name, attributes=attributes)
        self.children.append(child)
        return child

    def phase(self, name: str, **attributes) -> "_PhaseHandle":
        """A context manager recording one child phase of this span."""
        return _PhaseHandle(self.child(name, **attributes))

    def adopt(self, payload: Mapping) -> "Span":
        """Re-parent a serialized span (a worker's sub-tree) under self.

        The worker recorded the sub-tree in its own process; after the
        result crosses the pool boundary the daemon attaches it here.
        Raw timestamps are kept as recorded (on Linux
        ``perf_counter_ns`` is CLOCK_MONOTONIC and aligns across
        processes; elsewhere only the durations are meaningful).
        """
        child = span_from_dict(payload)
        self.children.append(child)
        return child

    # -- queries ---------------------------------------------------------

    def iter_spans(self) -> Iterator["Span"]:
        """Self plus every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.iter_spans()

    def find(self, name: str) -> "Span | None":
        """First descendant (or self) with the given name, or None."""
        for candidate in self.iter_spans():
            if candidate.name == name:
                return candidate
        return None

    def phase_seconds(self) -> dict[str, float]:
        """Summed duration of each *direct* child phase, by name."""
        totals: dict[str, float] = {}
        for child in self.children:
            totals[child.name] = (
                totals.get(child.name, 0.0) + child.duration_seconds
            )
        return totals

    # -- wire form -------------------------------------------------------

    def to_dict(self) -> dict:
        """Exact JSON-encodable form (see :func:`span_from_dict`)."""
        return {
            "name": self.name,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "attributes": dict(self.attributes),
            "children": [child.to_dict() for child in self.children],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, {self.duration_ns}ns, "
            f"children={len(self.children)})"
        )


def span_from_dict(payload: Mapping) -> Span:
    """Rebuild a span tree from its wire form (byte-exact round trip).

    Raises:
        ValueError: for a structurally malformed payload.
    """
    try:
        rebuilt = Span(
            str(payload["name"]),
            attributes=payload.get("attributes") or {},
            start_ns=payload["start_ns"],
        )
        end_ns = payload.get("end_ns")
        rebuilt.end_ns = None if end_ns is None else int(end_ns)
        for child in payload.get("children", ()):
            rebuilt.children.append(span_from_dict(child))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed span payload: {exc}") from exc
    return rebuilt


class _PhaseHandle:
    """Context manager pairing ``child()`` with ``end()``."""

    __slots__ = ("span",)

    def __init__(self, span: Span):
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, *exc_info) -> None:
        self.span.end()


class _NoopSpan:
    """The shared do-nothing span: every operation returns fast.

    Handed out when tracing is disabled, so instrumented code is
    written once and the disabled cost is one branch plus a method
    call that touches nothing.
    """

    __slots__ = ()

    name = "noop"
    start_ns = 0
    end_ns = 0
    attributes: dict = {}
    children: list = []
    duration_ns = 0
    duration_seconds = 0.0

    def end(self) -> "_NoopSpan":
        return self

    def set_attribute(self, key: str, value) -> "_NoopSpan":
        return self

    def child(self, name: str, **attributes) -> "_NoopSpan":
        return self

    def phase(self, name: str, **attributes) -> "_NoopHandle":
        return _NOOP_HANDLE

    def adopt(self, payload) -> "_NoopSpan":
        return self

    def iter_spans(self):
        return iter(())

    def find(self, name: str):
        return None

    def phase_seconds(self) -> dict:
        return {}

    def to_dict(self) -> dict:
        return {}

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def __bool__(self) -> bool:
        # `if span:` distinguishes a live span from the no-op one.
        return False


class _NoopHandle:
    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return NOOP_SPAN

    def __exit__(self, *exc_info) -> None:
        return None


#: The shared no-op instances (allocation-free disabled path).
NOOP_SPAN = _NoopSpan()
_NOOP_HANDLE = _NoopHandle()


class _AmbientHandle:
    """Context manager of the ambient :func:`span` API."""

    __slots__ = ("_span", "_token")

    def __init__(self, span: Span):
        self._span = span
        self._token = None

    def __enter__(self) -> Span:
        parent = _CURRENT.get()
        if parent is not None:
            parent.children.append(self._span)
        self._token = _CURRENT.set(self._span)
        return self._span

    def __exit__(self, *exc_info) -> None:
        self._span.end()
        if self._token is not None:
            _CURRENT.reset(self._token)


def span(name: str, **attributes):
    """Record one phase under the ambient current span.

    When tracing is disabled this is the one-branch no-op path; when
    enabled, the new span attaches to the contextvar-tracked parent
    (or floats as a root when there is none -- e.g. ad-hoc use in a
    REPL) and becomes the current span for its ``with`` body.
    """
    if not _ENABLED:
        return _NOOP_HANDLE
    return _AmbientHandle(Span(name, attributes=attributes or None))


class _RecordingHandle:
    """Context manager of :func:`recording`."""

    __slots__ = ("_span", "_token", "_was_enabled")

    def __init__(self, span: Span):
        self._span = span
        self._token = None
        self._was_enabled = False

    def __enter__(self) -> Span:
        global _ENABLED
        self._was_enabled = _ENABLED
        _ENABLED = True
        self._token = _CURRENT.set(self._span)
        return self._span

    def __exit__(self, *exc_info) -> None:
        global _ENABLED
        self._span.end()
        if self._token is not None:
            _CURRENT.reset(self._token)
        _ENABLED = self._was_enabled


def recording(name: str, **attributes) -> _RecordingHandle:
    """Open a root span and force-enable tracing for its extent.

    This is the capture entry point of a pool worker: everything the
    ambient :func:`span` API records inside the ``with`` body nests
    under the yielded root, which the worker then ships back
    (``root.to_dict()``) piggybacked on its result.

    The enable flag is process-global: use this from one thread of
    control at a time (daemon pool workers are single-threaded, the
    one place this runs in production).
    """
    return _RecordingHandle(Span(name, attributes=attributes or None))
