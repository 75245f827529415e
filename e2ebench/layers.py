"""Per-layer figures from the spans of one traced replay."""

from __future__ import annotations

from collections import defaultdict

from e2ebench.spans import SpanRecord, self_times

SCHEMES = ("base", "enhanced", "cbj", "forward-checking", "min-conflicts", "weighted")

#: Layers whose self time is reported as ``<layer>.share``.
LAYERS = (
    "stream", "fingerprint", "cache", "daemon", "portfolio", "evaluate",
    "candidates", "build", "solve", "repair", "transform", "eval", "other",
)

_LAYER_OF = {
    "request": "other",
    "stream.decode": "stream",
    "stream.from_wire": "stream",
    "stream.encode": "stream",
    "stream.release": "stream",
    "cache.get": "cache",
    "cache.put": "cache",
    "dispatch": "daemon",
    "build.compile": "build",
    "eval.score": "eval",
    "enumerate": "solve",
}

#: Every per-layer metric and its unit (``BENCHMARK.json`` lists the same).
PER_LAYER_UNITS = {
    "stream.decode_ms": "ms",
    "stream.from_wire_ms": "ms",
    "stream.encode_ms": "ms",
    "stream.request_bytes": "bytes",
    "fingerprint.ms": "ms",
    "cache.get_ms": "ms",
    "cache.put_ms": "ms",
    "cache.hit_ratio": "ratio",
    "daemon.server_ms": "ms",
    "daemon.overhead_ms": "ms",
    "daemon.deduplicated": "count",
    "daemon.errors": "count",
    "candidates.ms": "ms",
    "candidates.count": "count",
    "build.ms": "ms",
    "build.compile_ms": "ms",
    "build.variables": "count",
    "build.domain_values": "count",
    "build.constraints": "count",
    "build.support_cells": "count",
    **{
        f"solve.{scheme}.{field}": unit
        for scheme in SCHEMES
        for field, unit in (("ms", "ms"), ("nodes", "count"), ("checks", "count"))
    },
    "solve.nodes_per_s": "1/s",
    "enumerate.ms": "ms",
    "repair.ms": "ms",
    "repair.changed": "count",
    "transform.ms": "ms",
    "eval.score_ms": "ms",
    "simul.accesses": "count",
    **{f"{layer}.share": "ratio" for layer in LAYERS},
    "replay.request_ms": "ms",
    "trace.overhead": "ratio",
    "serve.overhead_ms": "ms",
    "coverage.min": "ratio",
}


def layer_of(name: str) -> str:
    if name in _LAYER_OF:
        return _LAYER_OF[name]
    if name.startswith("solve."):
        return "solve"
    return name.split(":", 1)[0]


def _outermost_totals(spans: list[SpanRecord]) -> dict[str, int]:
    """Summed duration per span name, not double-counting nested calls."""
    totals: dict[str, int] = defaultdict(int)
    for record in spans:
        parent = record.parent
        while parent is not None and spans[parent].name != record.name:
            parent = spans[parent].parent
        if parent is None:
            totals[record.name] += record.duration_ns
    return totals


def analyse(spans: list[SpanRecord]) -> dict:
    """Request time, self time per layer, call totals, attributes, coverage.

    ``coverage`` is, per request, the share of its duration covered by
    the layer spans below the root; the report keeps the minimum.
    """
    own = self_times(spans)
    request_ns = 0
    coverage = []
    layer_self: dict[str, int] = defaultdict(int)
    attrs: dict[str, int] = defaultdict(int)
    for index, record in enumerate(spans):
        layer_self[layer_of(record.name)] += own[index]
        for key, value in record.attrs.items():
            attrs[f"{record.name}.{key}"] += value
        if record.parent is None:
            request_ns += record.duration_ns
            if record.duration_ns:
                coverage.append(1.0 - own[index] / record.duration_ns)
    return {
        "requests": sum(1 for record in spans if record.parent is None),
        "request_ns": request_ns,
        "layer_self": dict(layer_self),
        "totals": dict(_outermost_totals(spans)),
        "attrs": dict(attrs),
        "coverage_min": min(coverage) if coverage else 0.0,
    }


def per_layer_metrics(analysis: dict) -> dict[str, float]:
    """The span-derived per-layer metrics of one traced replay."""
    requests = max(1, analysis["requests"])
    request_ns = max(1, analysis["request_ns"])
    totals, attrs, layer_self = (
        analysis["totals"], analysis["attrs"], analysis["layer_self"]
    )

    def per_request_ms(name: str) -> float:
        return totals.get(name, 0) / requests / 1e6

    metrics = {
        "stream.decode_ms": per_request_ms("stream.decode"),
        "stream.from_wire_ms": per_request_ms("stream.from_wire"),
        "stream.encode_ms": per_request_ms("stream.encode"),
        "fingerprint.ms": per_request_ms("fingerprint"),
        "cache.get_ms": per_request_ms("cache.get"),
        "cache.put_ms": per_request_ms("cache.put"),
        "candidates.ms": per_request_ms("candidates"),
        "candidates.count": attrs.get("candidates.count", 0),
        "build.ms": per_request_ms("build"),
        "build.compile_ms": per_request_ms("build.compile"),
        "enumerate.ms": per_request_ms("enumerate"),
        "repair.ms": per_request_ms("repair"),
        "repair.changed": attrs.get("repair.changed", 0),
        "transform.ms": per_request_ms("transform"),
        "eval.score_ms": per_request_ms("eval.score"),
        "simul.accesses": attrs.get("eval.score.accesses", 0),
        "coverage.min": analysis["coverage_min"],
    }
    for field in ("variables", "domain_values", "constraints", "support_cells"):
        metrics[f"build.{field}"] = attrs.get(f"build.{field}", 0)
    solve_ns = nodes = 0
    for scheme in SCHEMES:
        name = f"solve.{scheme}"
        metrics[f"{name}.ms"] = per_request_ms(name)
        metrics[f"{name}.nodes"] = attrs.get(f"{name}.nodes", 0)
        metrics[f"{name}.checks"] = attrs.get(f"{name}.checks", 0)
        solve_ns += totals.get(name, 0)
        nodes += attrs.get(f"{name}.nodes", 0)
    metrics["solve.nodes_per_s"] = nodes / (solve_ns / 1e9) if solve_ns else 0.0
    for layer in LAYERS:
        metrics[f"{layer}.share"] = layer_self.get(layer, 0) / request_ns
    return metrics


def split(spans: list[SpanRecord], layer: str) -> dict[str, float]:
    """A layer's time split into its direct sub-calls and its remainder,
    each as a share of request time.

    The layer's outermost spans are split: their direct children by
    name, and their own self time (the remainder) by span name.
    """
    own = self_times(spans)
    request_ns = max(1, sum(r.duration_ns for r in spans if r.parent is None))
    members = {
        index for index, record in enumerate(spans)
        if layer_of(record.name) == layer
        and ":" not in record.name
        and (record.parent is None or layer_of(spans[record.parent].name) != layer)
    }
    parts: dict[str, int] = defaultdict(int)
    for record in spans:
        if record.parent in members:
            parts[record.name] += record.duration_ns
    for index in members:
        parts[f"{spans[index].name} (self)"] += own[index]
    return {name: ns / request_ns for name, ns in sorted(parts.items())}
