"""The resident solver daemon: an async streaming front end.

``python -m repro.service`` used to be a one-shot batch CLI: every
invocation paid process-pool spin-up, re-read the JSON cache from
disk, and exited.  The daemon keeps all of that resident:

* a **persistent** :class:`~concurrent.futures.ProcessPoolExecutor`
  whose workers hold warm state -- a reusable
  :class:`~repro.service.portfolio.PortfolioSolver` and
  :class:`~repro.service.evaluate.EvaluationService` instance plus a
  bounded ``fingerprint -> LayoutNetwork`` memo -- so repeat requests
  never rebuild or recompile a constraint network;
* a **sharded** :class:`~repro.service.cache.ShardedResultCache`
  consulted in the parent, so warm requests answer without touching a
  worker at all;
* an **asyncio** serving loop reading JSON-lines requests (see
  :mod:`repro.service.stream`) from a unix socket or stdin, answering
  out of order as work completes;
* **backpressure** via a bounded in-flight semaphore: when
  ``max_inflight`` requests are being served, the daemon stops
  *reading* from the connection, the socket buffer fills, and the
  client's writes block -- flow control falls out of TCP/pipe
  semantics instead of an unbounded queue;
* **in-flight deduplication**: concurrent identical misses (same
  fingerprint and config token) share one worker dispatch.

The batch front end stays available -- ``run_batch(..., client=...)``
turns it into a thin client of a running daemon.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
import os
import signal
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from repro import __version__
from repro.csp.splitsearch import fork_context
from repro.csp.vectorized import native_available
from repro.ir.program import Program
from repro.obs import (
    CONTENT_TYPE,
    MetricsRegistry,
    TraceJsonWriter,
    capture,
    prometheus_text,
)
from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS
from repro.obs.trace import NOOP_SPAN, Span
from repro.opt.passes.base import PASS_SECONDS_METRIC
from repro.opt.network_builder import BuildOptions
from repro.service import stream
from repro.service.cache import ShardedResultCache
from repro.service.routing import (
    DEFAULT_VIRTUAL_NODES,
    HashRing,
    open_address,
    parse_address,
    reclaim_stale_socket,
)
from repro.service.evaluate import (
    EvaluationRequest,
    EvaluationService,
    hierarchy_from_overrides,
)
from repro.service.fingerprint import (
    BoundedMemo,
    payload_digest,
    request_fingerprint,
)
from repro.service.portfolio import PortfolioConfig, PortfolioSolver
from repro.service.stream import ProtocolError

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class DaemonConfig:
    """Resident-service knobs (the portfolio itself lives in
    :class:`~repro.service.portfolio.PortfolioConfig`).

    Attributes:
        workers: size of the persistent solve/evaluate process pool.
        max_inflight: bound on concurrently served requests; beyond it
            the daemon stops reading and lets the transport push back.
        shards: result-cache shard count.
        cache_dir: shard persistence directory (None = memory only).
        cache_capacity: LRU bound per shard.
        ttl_seconds: optional per-entry time-to-live.
        network_memo: per-worker bound on memoized built networks.
        save_every: persist dirty shards after this many fresh stores
            (and always on shutdown).
        peers: all cluster member addresses (unix paths or
            ``host:port``), *including this daemon's own*.  Empty
            (the default) runs a classic standalone daemon.  When set,
            a cache miss on a fingerprint owned by another member asks
            that owner's cache first -- one bounded hop over the same
            wire protocol, never recursive -- before paying a solve.
        self_address: this member's own entry in ``peers``.
        peer_timeout: bound on one peer cache-lookup hop; on timeout
            or connection loss the member simply solves locally.
        virtual_nodes: consistent-hash ring points per member (must
            match across the cluster so everyone routes identically).
    """

    workers: int = 2
    max_inflight: int = 32
    shards: int = 4
    cache_dir: str | None = None
    cache_capacity: int = 1024
    ttl_seconds: float | None = None
    network_memo: int = 64
    save_every: int = 64
    peers: tuple[str, ...] = ()
    self_address: str | None = None
    peer_timeout: float = 5.0
    virtual_nodes: int = DEFAULT_VIRTUAL_NODES

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be positive")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be positive")
        if self.shards < 1:
            raise ValueError("shards must be positive")
        if self.cache_capacity < 1:
            raise ValueError("cache_capacity must be positive")
        if self.ttl_seconds is not None and self.ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be positive")
        if self.network_memo < 1:
            raise ValueError("network_memo must be positive")
        if self.save_every < 1:
            raise ValueError("save_every must be positive")
        if self.peers:
            if self.self_address is None:
                raise ValueError("clustered daemons need self_address")
            if self.self_address not in self.peers:
                raise ValueError(
                    f"self_address {self.self_address!r} missing from peers"
                )
        if self.peer_timeout <= 0:
            raise ValueError("peer_timeout must be positive")
        if self.virtual_nodes < 1:
            raise ValueError("virtual_nodes must be positive")


# -- warm worker processes ----------------------------------------------

#: Per-process state of one pool worker, built once by the initializer
#: and reused for every request the worker ever serves.
_WORKER_STATE: dict | None = None


def _init_worker(
    config: PortfolioConfig, options: BuildOptions, memo_capacity: int
) -> None:
    """Pool initializer: build the reusable per-process serving state."""
    global _WORKER_STATE
    network_memo = BoundedMemo(memo_capacity)
    _WORKER_STATE = {
        "solver": PortfolioSolver(
            config,
            options=options,
            network_cache=network_memo,
        ),
        "evaluator": EvaluationService(
            config=config,
            options=options,
            network_cache=network_memo,
        ),
        "networks": network_memo,
    }


def _worker_solve(program: Program, fingerprint: str) -> dict:
    """Serve one solve miss on a warm worker.

    The solve runs inside an observability capture: the worker's span
    tree and metric delta ship back piggybacked on the result
    (``telemetry`` is a sibling of ``result``, so it is never cached
    and never reaches the client wire form).
    """
    with capture("worker_solve", fingerprint=fingerprint) as telemetry:
        result = _WORKER_STATE["solver"].optimize(
            program, fingerprint=fingerprint
        )
    return {
        "result": result.to_dict(),
        "exact": result.exact,
        "engine": result.engine,
        "telemetry": telemetry.telemetry(),
    }


def _worker_evaluate(request: EvaluationRequest) -> dict:
    """Serve one evaluate miss on a warm worker."""
    with capture("worker_evaluate") as telemetry:
        result = _WORKER_STATE["evaluator"].evaluate(request)
    return {
        "result": result.to_dict(),
        "exact": result.exact,
        "engine": result.engine,
        "telemetry": telemetry.telemetry(),
    }


# -- the daemon ----------------------------------------------------------


class SolverDaemon:
    """A resident, async, streaming layout-solver service.

    Args:
        config: portfolio raced for solve misses (and evaluate
            requests without explicit layouts).
        options: network-construction options shared by all requests.
        daemon_config: resident-service knobs (pool size, shards,
            backpressure bound, TTL, persistence directory).
        cache: pre-built result cache to serve from; by default one is
            constructed from ``daemon_config`` (sharded, persistent
            when ``cache_dir`` is set).  Passing a cache explicitly is
            how benchmarks warm a daemon from a cold batch run.
        trace_log: path (or writable stream) receiving one JSON line
            per served solve/evaluate request's span tree.  Setting it
            also makes every request record a real span tree even when
            the client did not ask for ``"trace": true``.
    """

    def __init__(
        self,
        config: PortfolioConfig | None = None,
        options: BuildOptions | None = None,
        daemon_config: DaemonConfig | None = None,
        cache=None,
        trace_log=None,
    ):
        self._config = config if config is not None else PortfolioConfig()
        self._options = options if options is not None else BuildOptions()
        self._daemon_config = (
            daemon_config if daemon_config is not None else DaemonConfig()
        )
        if cache is not None:
            self.cache = cache
        else:
            self.cache = ShardedResultCache(
                shards=self._daemon_config.shards,
                capacity=self._daemon_config.cache_capacity,
                directory=self._daemon_config.cache_dir,
                ttl_seconds=self._daemon_config.ttl_seconds,
            )
        self._pool: ProcessPoolExecutor | None = None
        self._inflight: asyncio.Semaphore | None = None
        self._pending: dict[str, asyncio.Future] = {}
        self._shutdown = asyncio.Event()
        # Monotonic, so a system clock step never makes uptime jump
        # (or go negative) in `stats`.
        self._started_at = time.monotonic()
        self._unsaved_stores = 0
        #: The daemon's own metrics registry: request latency recorded
        #: by the event loop, plus every worker's shipped delta folded
        #: in by the dedup owner.  Explicit (not the module-global
        #: convenience API) because the async loop interleaves
        #: requests on one thread.
        self.registry = MetricsRegistry()
        self._trace_writer = (
            TraceJsonWriter(trace_log) if trace_log is not None else None
        )
        #: Request aliases: raw-payload digest -> the (fingerprint,
        #: token) computed for it, written only after the payload
        #: decoded and fingerprinted.  Bounded like the result cache,
        #: whose entries the aliases point at.
        self._aliases = BoundedMemo(
            self._daemon_config.shards * self._daemon_config.cache_capacity
        )
        self.counters = {
            "requests": 0,
            "solve": 0,
            "evaluate": 0,
            "cache_served": 0,
            "alias_served": 0,
            "deduplicated": 0,
            "errors": 0,
        }
        #: Per-engine serving breakdown of worker-dispatched misses:
        #: which propagation engine ran.  `scripts/daemon_smoke.py`
        #: asserts on this.
        self.engine_counters = {"bitset": 0, "native": 0}
        #: Split-search serving breakdown: subtree and steal totals
        #: folded from every worker-dispatched miss's outcome table.
        self.split_counters = {"subtrees": 0, "steals": 0}
        #: Cache-peering breakdown (all zero on a standalone daemon):
        #: outbound lookups that hit/missed/errored on the owner, and
        #: inbound ``cache_lookup`` requests this member answered.
        self.peer_counters = {
            "hits": 0,
            "misses": 0,
            "errors": 0,
            "lookups_served": 0,
        }
        #: The cluster ring (None when standalone).  Built from the
        #: same member list every other member and every router uses,
        #: so ownership agrees cluster-wide.
        self._ring: HashRing | None = (
            HashRing(
                self._daemon_config.peers,
                self._daemon_config.virtual_nodes,
            )
            if self._daemon_config.peers
            else None
        )
        # One lazily opened (reader, writer) pair per peer, serialized
        # by a lock so concurrent misses never interleave lines on the
        # same connection.
        self._peer_connections: dict[str, tuple] = {}
        self._peer_locks: dict[str, asyncio.Lock] = {}
        self._peer_seq = 0

    # -- lifecycle -------------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self._daemon_config.workers,
                mp_context=fork_context(),
                initializer=_init_worker,
                initargs=(
                    self._config,
                    self._options,
                    self._daemon_config.network_memo,
                ),
            )
        return self._pool

    def _semaphore(self) -> asyncio.Semaphore:
        if self._inflight is None:
            self._inflight = asyncio.Semaphore(self._daemon_config.max_inflight)
        return self._inflight

    def warm_up(self) -> None:
        """Spin the pool up eagerly (first request pays nothing)."""
        pool = self._ensure_pool()
        # A no-op round through every worker forces initializer runs.
        for _ in pool.map(_noop, range(self._daemon_config.workers)):
            pass

    def close(self) -> None:
        """Persist the cache, release the pool, drop peer connections."""
        self.cache.save()
        self._unsaved_stores = 0
        if self._pool is not None:
            pool, self._pool = self._pool, None
            pool.shutdown(wait=False, cancel_futures=True)
            # The exit sentinel can race the call-queue feeder thread
            # and leave an idle worker blocked on the queue forever
            # (observed on 3.11; cpython gh-94440 family).  A stuck
            # worker would then deadlock *this* process's interpreter
            # exit, which joins all multiprocessing children -- so
            # give workers a short grace, then terminate stragglers.
            workers = list((getattr(pool, "_processes", None) or {}).values())
            deadline = time.monotonic() + 5.0
            for worker in workers:
                worker.join(max(0.1, deadline - time.monotonic()))
                if worker.is_alive():
                    logger.warning(
                        "terminating pool worker %s stuck past shutdown",
                        worker.pid,
                    )
                    worker.terminate()
        for address in list(self._peer_connections):
            self._drop_peer(address)
        if self._trace_writer is not None:
            self._trace_writer.close()
            self._trace_writer = None

    # -- request handling ------------------------------------------------

    async def handle_line(self, line: str | bytes) -> dict:
        """Serve one raw request line; always returns a response dict."""
        try:
            payload = stream.decode_request(line)
        except ProtocolError as exc:
            self.counters["errors"] += 1
            request_id = _best_effort_id(line)
            return stream.error_response(request_id, str(exc))
        return await self.handle_request(payload)

    async def handle_request(self, payload: dict) -> dict:
        """Serve one decoded request under the in-flight bound."""
        if payload.get("kind") in ("solve", "evaluate"):
            async with self._semaphore():
                return await self._serve_decoded(payload)
        return await self._serve_decoded(payload)

    async def _serve_decoded(self, payload: dict) -> dict:
        """Serve one decoded request; the caller owns any permit."""
        self.counters["requests"] += 1
        request_id = payload.get("id")
        kind = payload["kind"]
        try:
            if kind == "ping":
                return self._hello(request_id)
            if kind == "stats":
                return {
                    "id": request_id,
                    "ok": True,
                    "kind": "stats",
                    "result": self.stats(),
                }
            if kind == "metrics":
                if payload.get("raw"):
                    # Mergeable registry snapshot for cluster roll-up:
                    # the router folds these member-by-member via
                    # MetricsRegistry.merge_snapshot (sum semantics).
                    return {
                        "id": request_id,
                        "ok": True,
                        "kind": "metrics",
                        "result": {"snapshot": self.metrics_snapshot()},
                    }
                return {
                    "id": request_id,
                    "ok": True,
                    "kind": "metrics",
                    "result": {
                        "text": prometheus_text(self.metrics_snapshot()),
                        "content_type": CONTENT_TYPE,
                    },
                }
            if kind == "cache_lookup":
                return self._handle_cache_lookup(payload)
            if kind == "shutdown":
                self._shutdown.set()
                return {"id": request_id, "ok": True, "kind": "shutdown"}
            if kind == "solve":
                return await self._handle_solve(payload)
            return await self._handle_evaluate(payload)
        except ProtocolError as exc:
            self.counters["errors"] += 1
            return stream.error_response(request_id, str(exc))
        except Exception as exc:  # worker/validation failures stay on-wire
            self.counters["errors"] += 1
            logger.exception("request %r failed", request_id)
            return stream.error_response(request_id, repr(exc))

    def _hello(self, request_id) -> dict:
        result = {
            "version": __version__,
            "schemes": list(self._config.schemes),
            "workers": self._daemon_config.workers,
            "max_inflight": self._daemon_config.max_inflight,
            "native": native_available(),
            "shards": self.cache.shard_count
            if hasattr(self.cache, "shard_count")
            else 1,
        }
        if self._ring is not None:
            result["cluster"] = {
                "self": self._daemon_config.self_address,
                "members": list(self._ring.members),
                "virtual_nodes": self._ring.virtual_nodes,
            }
        return {
            "id": request_id,
            "ok": True,
            "kind": "ping",
            "result": result,
        }

    def _handle_cache_lookup(self, payload: dict) -> dict:
        """Answer a peer's cache probe from the *local* cache only.

        Deliberately never consults the pool, the pending-dispatch
        table, or other peers: the reply is cheap (control path, no
        in-flight permit) and peering stays one bounded hop -- a
        member asking an owner can never trigger a further hop.
        """
        self.peer_counters["lookups_served"] += 1
        cached = self.cache.get(payload["fingerprint"], payload["token"])
        response = {
            "id": payload.get("id"),
            "ok": True,
            "kind": "cache_lookup",
            "hit": cached is not None,
        }
        if cached is not None:
            response["result"] = cached
        return response

    def stats(self) -> dict:
        """Serving counters plus cache statistics and engine breakdown."""
        snapshot = {
            "uptime_seconds": time.monotonic() - self._started_at,
            "counters": dict(self.counters),
            "engines": dict(self.engine_counters),
            "split": dict(self.split_counters),
            "peer": dict(self.peer_counters),
            "cache": {
                "entries": len(self.cache),
                **self.cache.stats.as_dict(),
            },
            "passes": self._pass_stats(),
        }
        if hasattr(self.cache, "bytes_on_disk"):
            snapshot["cache"]["bytes_on_disk"] = self.cache.bytes_on_disk()
        if hasattr(self.cache, "shard_stats"):
            snapshot["cache"]["shards"] = self.cache.shard_stats()
        if self._ring is not None:
            snapshot["cluster"] = {
                "self": self._daemon_config.self_address,
                "members": list(self._ring.members),
            }
        return snapshot

    def _pass_stats(self) -> dict:
        """Per-pass wall clock accumulated from worker telemetry.

        Workers run the optimizer phases under the shared
        ``repro_pass_seconds{pass}`` histogram; their per-request
        metric deltas are merged into the daemon registry, so the
        breakdown here covers every solve the daemon dispatched.
        """
        passes: dict[str, dict] = {}
        for name, label_items, instrument in self.registry.iter_metrics():
            if name != PASS_SECONDS_METRIC:
                continue
            label = dict(label_items).get("pass", "")
            passes[label] = {
                "seconds": instrument.sum,
                "count": instrument.count,
            }
        return passes

    def metrics_snapshot(self) -> dict:
        """One coherent exposition-ready snapshot of everything.

        Folds the live registry (request latency + accumulated worker
        deltas) together with the serving counters, the per-engine
        breakdown, and per-shard cache statistics -- always into a
        *fresh* registry, so scraping twice never double-counts: each
        scrape re-derives totals from the live sources of truth.
        """
        registry = MetricsRegistry()
        registry.merge_snapshot(self.registry.snapshot())
        registry.gauge(
            "repro_daemon_uptime_seconds",
            help="Seconds since the daemon object was constructed.",
        ).set(time.monotonic() - self._started_at)
        for event, count in self.counters.items():
            registry.counter(
                "repro_daemon_requests_total",
                {"event": event},
                help="Requests served, by lifecycle event.",
            ).inc(count)
        for engine, count in self.engine_counters.items():
            registry.counter(
                "repro_daemon_engine_total",
                {"engine": engine},
                help="Worker-dispatched misses by engine.",
            ).inc(count)
        for event, count in self.split_counters.items():
            registry.counter(
                "repro_daemon_split_total",
                {"event": event},
                help="Split-search subtrees run and steals, from misses.",
            ).inc(count)
        for event, count in self.peer_counters.items():
            registry.counter(
                "repro_cluster_peer_total",
                {"event": event},
                help="Cache-peering lookups by outcome (outbound "
                "hit/miss/error, inbound lookups_served).",
            ).inc(count)
        if hasattr(self.cache, "shard_stats"):
            shard_rows = self.cache.shard_stats()
        else:
            shard_rows = [
                {"shard": 0, "entries": len(self.cache), **self.cache.stats.as_dict()}
            ]
        for row in shard_rows:
            labels = {"shard": str(row["shard"])}
            registry.gauge(
                "repro_cache_entries",
                labels,
                help="Live entries per result-cache shard.",
            ).set(row.get("entries", 0))
            if "bytes_on_disk" in row:
                registry.gauge(
                    "repro_cache_bytes_on_disk",
                    labels,
                    help="Persisted bytes per result-cache shard.",
                ).set(row["bytes_on_disk"])
            for field in (
                "hits",
                "misses",
                "stores",
                "evictions",
                "expirations",
                "saves",
                "merge_saves",
            ):
                registry.counter(
                    f"repro_cache_{field}_total",
                    labels,
                    help=f"Result-cache {field.replace('_', '-')} per shard.",
                ).inc(row.get(field, 0))
        return registry.snapshot()

    def _record_engine(self, data: dict) -> None:
        """Fold one worker miss's engine telemetry into the breakdown."""
        engine = data.get("engine")
        if engine in self.engine_counters:
            self.engine_counters[engine] += 1

    def _record_split(self, data: dict) -> None:
        """Fold split-search effort from a worker miss's outcome table.

        Derived from the result payload (not the shipped metric delta)
        so the breakdown works even when a worker ran with metrics
        disabled; the registry's ``repro_split_*`` counters arrive
        separately via the telemetry merge and are deliberately not
        re-derived here.  Owner-only, like `_record_engine`.
        """
        result = data.get("result") or {}
        for outcome in result.get("outcomes", ()):
            stats = outcome.get("stats") or {}
            self.split_counters["subtrees"] += int(stats.get("subtrees", 0))
            self.split_counters["steals"] += int(stats.get("steals", 0))

    def _request_span(self, payload: dict, kind: str):
        """A real root span when anyone will look at it, else the no-op.

        Real when the client asked (``"trace": true``) or the daemon
        tees span trees to a trace log; otherwise requests pay the
        shared no-op span's one-branch cost.
        """
        if payload.get("trace") or self._trace_writer is not None:
            return Span(f"request:{kind}", attributes={"kind": kind})
        return NOOP_SPAN

    def _finish(self, root, payload: dict, response: dict, start: float) -> dict:
        """Stamp latency, record it, and flush/attach the span tree."""
        seconds = time.perf_counter() - start
        response["seconds"] = seconds
        self.registry.histogram(
            "repro_request_seconds",
            {"kind": response["kind"]},
            help="Daemon request latency by request kind.",
            bounds=DEFAULT_LATENCY_BUCKETS,
        ).observe(seconds)
        if root:
            root.set_attribute("id", payload.get("id"))
            root.set_attribute("from_cache", response.get("from_cache", False))
            root.end()
            if self._trace_writer is not None:
                self._trace_writer.write(root.to_dict())
            if payload.get("trace"):
                response["trace"] = root.to_dict()
        return response

    def _serve_alias(self, root, payload: dict, start: float):
        """Answer a byte-identical repeat of a served request from cache.

        Returns ``(digest, response)``; the response is None unless the
        payload's alias and its cached result are both live, in which
        case the request skips decoding and fingerprinting.  Anything
        else (no alias, an evicted or expired result, a result held
        only by a cluster peer) takes the full path.
        """
        began = time.perf_counter_ns()
        digest = payload_digest(payload)
        key = self._aliases.get(digest)
        if key is None or not self.cache.contains(*key):
            return digest, None
        if root:
            root.children.append(Span("alias", start_ns=began).end())
        with root.phase("cache_lookup"):
            cached = self.cache.get(*key)
        if cached is None:
            return digest, None
        self.counters["alias_served"] += 1
        name = payload["program"]["name"]
        return digest, self._cached_response(root, payload, cached, name, start)

    def _cached_response(
        self, root, payload: dict, cached: dict, name: str, start: float, peer=None
    ) -> dict:
        """The response of a cache-served request."""
        self.counters["cache_served"] += 1
        with root.phase("encode"):
            result = dict(cached)
            result["program"] = name  # may be a renamed twin
        response = {
            "id": payload.get("id"),
            "ok": True,
            "kind": payload["kind"],
            "from_cache": True,
            "result": result,
        }
        if peer is not None:
            response["peer"] = peer
        return self._finish(root, payload, response, start)

    async def _handle_solve(self, payload: dict) -> dict:
        start = time.perf_counter()
        self.counters["solve"] += 1
        root = self._request_span(payload, "solve")
        digest, response = self._serve_alias(root, payload, start)
        if response is not None:
            return response
        with root.phase("decode"):
            program = stream.program_from_wire(payload["program"])
        with root.phase("fingerprint"):
            fingerprint = request_fingerprint(program, self._options)
            token = self._config.token()
        if digest is not None:
            self._aliases[digest] = (fingerprint, token)
        with root.phase("cache_lookup"):
            cached = self.cache.get(fingerprint, token)
        peer = None
        if cached is None:
            cached, peer = await self._maybe_peer_lookup(
                root, fingerprint, token
            )
        if cached is not None:
            return self._cached_response(
                root, payload, cached, program.name, start, peer
            )
        data = await self._dispatch(
            fingerprint, token, root, _worker_solve, program, fingerprint
        )
        with root.phase("encode"):
            result = dict(data["result"])
            result["program"] = program.name
        response = {
            "id": payload.get("id"),
            "ok": True,
            "kind": "solve",
            "from_cache": False,
            "result": result,
        }
        return self._finish(root, payload, response, start)

    async def _handle_evaluate(self, payload: dict) -> dict:
        start = time.perf_counter()
        self.counters["evaluate"] += 1
        root = self._request_span(payload, "evaluate")
        digest, response = self._serve_alias(root, payload, start)
        if response is not None:
            return response
        with root.phase("decode"):
            program = stream.program_from_wire(payload["program"])
            request = _evaluation_request(program, payload)
        with root.phase("fingerprint"):
            fingerprint = request_fingerprint(program, self._options)
            token = request.token(self._config.token())
        if digest is not None:
            self._aliases[digest] = (fingerprint, token)
        with root.phase("cache_lookup"):
            cached = self.cache.get(fingerprint, token)
        peer = None
        if cached is None:
            cached, peer = await self._maybe_peer_lookup(
                root, fingerprint, token
            )
        if cached is not None:
            return self._cached_response(
                root, payload, cached, program.name, start, peer
            )
        data = await self._dispatch(
            fingerprint, token, root, _worker_evaluate, request
        )
        with root.phase("encode"):
            result = dict(data["result"])
            result["program"] = program.name
        response = {
            "id": payload.get("id"),
            "ok": True,
            "kind": "evaluate",
            "from_cache": False,
            "result": result,
        }
        return self._finish(root, payload, response, start)

    def _merge_worker_telemetry(self, data: dict) -> None:
        """Fold a worker's shipped metric delta into the live registry.

        Owner-only (like `_record_engine`): the merge is a sum, so the
        fold must see each worker capture exactly once.
        """
        telemetry = data.get("telemetry")
        if telemetry and telemetry.get("metrics"):
            self.registry.merge_snapshot(telemetry["metrics"])

    async def _dispatch(
        self, fingerprint: str, token: str, request_span, worker_fn, *args
    ) -> dict:
        """Run a miss on the warm pool, deduplicating concurrent twins.

        Only the dedup *owner* (the task that actually dispatched to
        the pool) stores the result -- twins share the answer without
        re-storing it, so store counters and the periodic shard
        persistence see each fresh result exactly once.
        """
        key = f"{fingerprint}|{token}"
        existing = self._pending.get(key)
        if existing is not None:
            self.counters["deduplicated"] += 1
            with request_span.phase("dedup_wait") as wait_span:
                data = await asyncio.shield(existing)
            # Every request's trace shows the worker's phases, twin or
            # not (adopt() builds fresh Span objects per call, so the
            # owner's and each twin's trees never alias).
            _adopt_worker_spans(wait_span, data)
            return data
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending[key] = future
        try:
            with request_span.phase("dispatch") as dispatch_span:
                data = await loop.run_in_executor(
                    self._ensure_pool(), worker_fn, *args
                )
            # Only the owner records: dedup twins share this payload,
            # and one worker miss must count once in the breakdown.
            self._record_engine(data)
            self._record_split(data)
            self._merge_worker_telemetry(data)
            _adopt_worker_spans(dispatch_span, data)
            if data["exact"]:
                self._store(fingerprint, token, data["result"])
            future.set_result(data)
            return data
        except BaseException as exc:
            if not future.done():
                future.set_exception(exc)
                # A twin may or may not be waiting; don't warn if not.
                future.exception()
            raise
        finally:
            self._pending.pop(key, None)

    def _store(self, fingerprint: str, token: str, value: dict) -> None:
        """Cache a fresh exact result; persist shards periodically."""
        self.cache.put(fingerprint, token, value)
        self._unsaved_stores += 1
        if self._unsaved_stores >= self._daemon_config.save_every:
            self.cache.save()
            self._unsaved_stores = 0

    # -- cache peering ---------------------------------------------------

    async def _maybe_peer_lookup(
        self, root, fingerprint: str, token: str
    ) -> tuple[dict | None, str | None]:
        """Ask the fingerprint's owner for its cached result (one hop).

        Returns ``(cached, owner)``; ``(None, None)`` when standalone,
        when this member *is* the owner, or on a peer miss/failure --
        every degradation lands on the same safe path: solve locally.
        A peer hit is served without re-storing locally, so the entry
        keeps living exactly once (on its owner).
        """
        if self._ring is None:
            return None, None
        owner = self._ring.owner(fingerprint)
        if owner == self._daemon_config.self_address:
            return None, None
        with root.phase("peer_lookup", owner=owner):
            cached = await self._peer_lookup(owner, fingerprint, token)
        if cached is None:
            return None, None
        return cached, owner

    async def _peer_lookup(
        self, owner: str, fingerprint: str, token: str
    ) -> dict | None:
        """One bounded ``cache_lookup`` hop to a peer; None on miss or
        any failure (timeout, connection loss, malformed reply)."""
        self._peer_seq += 1
        payload = stream.cache_lookup_request(
            fingerprint, token, request_id=f"peer-{self._peer_seq}"
        )
        try:
            response = await asyncio.wait_for(
                self._peer_request(owner, payload),
                timeout=self._daemon_config.peer_timeout,
            )
        except (OSError, ValueError, asyncio.TimeoutError) as exc:
            self.peer_counters["errors"] += 1
            self._drop_peer(owner)
            logger.warning("peer cache lookup at %s failed: %r", owner, exc)
            return None
        if response.get("ok") and response.get("hit"):
            self.peer_counters["hits"] += 1
            return response.get("result")
        self.peer_counters["misses"] += 1
        return None

    async def _peer_request(self, address: str, payload: dict) -> dict:
        """One request/response over this member's peer connection.

        The per-peer lock serializes concurrent misses onto the one
        connection; the id check catches a stale line left behind by a
        timed-out predecessor (the connection is dropped and rebuilt
        rather than served out of step).
        """
        lock = self._peer_locks.setdefault(address, asyncio.Lock())
        async with lock:
            connection = self._peer_connections.get(address)
            if connection is None:
                connection = await open_address(address)
                self._peer_connections[address] = connection
            reader, writer = connection
            writer.write(stream.encode_response(payload))
            await writer.drain()
            line = await reader.readline()
        if not line:
            raise ConnectionError(f"peer {address} closed the connection")
        response = json.loads(line)
        if response.get("id") != payload["id"]:
            raise ConnectionError(
                f"peer {address} answered out of step; resetting"
            )
        return response

    def _drop_peer(self, address: str) -> None:
        connection = self._peer_connections.pop(address, None)
        if connection is not None:
            with contextlib.suppress(Exception):
                connection[1].close()

    # -- serving loops ---------------------------------------------------

    async def _next_line(self, read_line) -> bytes:
        """One line, or b"" on EOF *or* shutdown (whichever first).

        Racing the read against the shutdown event means a ``shutdown``
        request served on any connection unblocks every other reader
        -- including a stdio daemon whose client keeps stdin open.
        """
        read_task = asyncio.ensure_future(read_line())
        shutdown_task = asyncio.ensure_future(self._shutdown.wait())
        try:
            await asyncio.wait(
                {read_task, shutdown_task},
                return_when=asyncio.FIRST_COMPLETED,
            )
        finally:
            shutdown_task.cancel()
        if read_task.done():
            return read_task.result()
        read_task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await read_task
        return b""

    async def _acquire_or_shutdown(self) -> bool:
        """Wait for a serving permit; False when shutdown wins the wait."""
        acquire_task = asyncio.ensure_future(self._semaphore().acquire())
        shutdown_task = asyncio.ensure_future(self._shutdown.wait())
        try:
            await asyncio.wait(
                {acquire_task, shutdown_task},
                return_when=asyncio.FIRST_COMPLETED,
            )
        finally:
            shutdown_task.cancel()
        if not acquire_task.done():
            acquire_task.cancel()
            return False
        if self._shutdown.is_set():
            self._semaphore().release()
            return False
        return True

    async def _serve_stream(self, read_line, write_line) -> None:
        """Core loop: read lines, serve each as its own task, stream
        responses back in completion order.

        Backpressure is event-driven: a solve/evaluate line is only
        *read into a task* once an in-flight permit is held, so a full
        daemon stops reading and the transport pushes back on the
        client.  Control kinds (ping/stats/shutdown) bypass the bound:
        a saturated daemon stays inspectable and stoppable.
        """
        write_lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()

        async def respond(response: dict) -> None:
            async with write_lock:
                await write_line(stream.encode_response(response))

        async def serve_decoded(payload: dict, permit: bool) -> None:
            try:
                response = await self._serve_decoded(payload)
            finally:
                if permit:
                    self._semaphore().release()
            await respond(response)

        def spawn(coroutine) -> None:
            task = asyncio.create_task(coroutine)
            tasks.add(task)
            task.add_done_callback(tasks.discard)

        while not self._shutdown.is_set():
            line = await self._next_line(read_line)
            if not line:  # EOF or shutdown
                break
            if not line.strip():
                continue
            try:
                payload = stream.decode_request(line)
            except ProtocolError as exc:
                self.counters["requests"] += 1
                self.counters["errors"] += 1
                spawn(respond(stream.error_response(_best_effort_id(line), str(exc))))
                continue
            if payload["kind"] in ("solve", "evaluate"):
                if not await self._acquire_or_shutdown():
                    break
                spawn(serve_decoded(payload, permit=True))
            else:
                spawn(serve_decoded(payload, permit=False))
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    async def serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one socket connection until EOF or shutdown."""

        async def write_line(data: bytes) -> None:
            writer.write(data)
            await writer.drain()

        try:
            await self._serve_stream(reader.readline, write_line)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    def _stop_on_sigterm(self) -> None:
        """Make SIGTERM end the serve loop like a ``shutdown`` request,
        so :meth:`close` still releases the pool and the socket file.

        Installed after :meth:`warm_up`: the forked pool workers keep
        the default SIGTERM action.  A loop off the main thread cannot
        take signal handlers; it is left as it was.
        """
        with contextlib.suppress(RuntimeError, NotImplementedError):
            asyncio.get_running_loop().add_signal_handler(
                signal.SIGTERM, self._shutdown.set
            )

    async def serve_unix(self, socket_path: str) -> None:
        """Listen on a unix socket until a ``shutdown`` request.

        The socket file is removed on exit.  A stale file left by a
        SIGKILL-ed predecessor is reclaimed on entry -- but only after
        a probe connection confirms nothing live is accepting on it
        (:func:`~repro.service.routing.reclaim_stale_socket`), so two
        daemons can never silently fight over one path.
        """
        reclaim_stale_socket(socket_path)
        self.warm_up()
        self._stop_on_sigterm()
        server = await asyncio.start_unix_server(
            self.serve_connection, path=socket_path
        )
        logger.info("daemon listening on %s", socket_path)
        try:
            async with server:
                await self._shutdown.wait()
                # Give connection tasks a beat to flush their final
                # (shutdown-acknowledging) response lines.
                await asyncio.sleep(0.05)
        finally:
            with contextlib.suppress(OSError):
                os.unlink(socket_path)
            self.close()

    async def serve_tcp(self, host: str, port: int) -> None:
        """Listen on a TCP socket until a ``shutdown`` request
        (cluster members spanning hosts route over TCP; same wire
        protocol, same loop as :meth:`serve_unix`)."""
        self.warm_up()
        self._stop_on_sigterm()
        server = await asyncio.start_server(
            self.serve_connection, host=host, port=port
        )
        logger.info("daemon listening on %s:%d", host, port)
        try:
            async with server:
                await self._shutdown.wait()
                await asyncio.sleep(0.05)
        finally:
            self.close()

    async def serve_address(self, address: str) -> None:
        """Serve one member address (unix path or ``host:port``)."""
        parsed = parse_address(address)
        if parsed[0] == "unix":
            await self.serve_unix(parsed[1])
        else:
            await self.serve_tcp(parsed[1], parsed[2])

    async def serve_stdio(self) -> None:
        """Serve JSON lines from stdin to stdout (one-shot pipelines:
        ``printf '...requests...' | python -m repro.service --serve``).

        Reads via a daemon pump thread feeding a *bounded* asyncio
        queue, so stdin may be a pipe, a redirected regular file, or a
        tty; the queue bound keeps stdin backpressure real, awaiting
        the queue stays cancellable (a ``shutdown`` request exits even
        while the client holds stdin open), and the pump thread dies
        with the process instead of pinning interpreter exit.
        """
        loop = asyncio.get_running_loop()
        self.warm_up()
        queue: asyncio.Queue = asyncio.Queue(
            maxsize=self._daemon_config.max_inflight
        )

        def pump() -> None:
            try:
                for line in iter(sys.stdin.buffer.readline, b""):
                    asyncio.run_coroutine_threadsafe(queue.put(line), loop).result()
            except (RuntimeError, OSError):  # loop closed mid-shutdown
                return
            with contextlib.suppress(RuntimeError):
                loop.call_soon_threadsafe(queue.put_nowait, b"")

        threading.Thread(
            target=pump, daemon=True, name="repro-stdin-pump"
        ).start()

        async def write_line(data: bytes) -> None:
            sys.stdout.buffer.write(data)
            sys.stdout.buffer.flush()

        try:
            await self._serve_stream(queue.get, write_line)
        finally:
            self.close()


def _noop(_: int) -> None:
    """Pool warm-up probe (must be a picklable top-level function)."""
    return None


def _adopt_worker_spans(parent, data: dict) -> None:
    """Re-parent a worker's shipped span tree under a request phase."""
    if not parent:
        return
    telemetry = data.get("telemetry") or {}
    for payload in telemetry.get("spans", ()):
        if payload:
            with contextlib.suppress(ValueError):
                parent.adopt(payload)


def _best_effort_id(line: str | bytes):
    """Recover a request id from an invalid line, when possible."""
    try:
        payload = json.loads(line)
    except (ValueError, UnicodeDecodeError):
        return None
    if isinstance(payload, dict):
        return payload.get("id")
    return None


def _evaluation_request(program: Program, payload: dict) -> EvaluationRequest:
    """Decode the evaluate-specific request fields.

    Raises:
        ProtocolError: for malformed fields (so the daemon answers
            with an error line instead of a stack trace).
    """
    hierarchy = None
    if payload.get("hierarchy") is not None:
        overrides = payload["hierarchy"]
        if not isinstance(overrides, dict):
            raise ProtocolError("'hierarchy' must be a field-override object")
        try:
            hierarchy = hierarchy_from_overrides(overrides)
        except ValueError as exc:
            raise ProtocolError(str(exc)) from exc
    layouts = None
    if payload.get("layouts") is not None:
        if not isinstance(payload["layouts"], dict):
            raise ProtocolError("'layouts' must be an object")
        layouts = stream.layouts_from_wire(payload["layouts"])
    sim_cap = payload.get("sim_cap")
    if sim_cap is not None and (isinstance(sim_cap, bool) or not isinstance(sim_cap, int)):
        raise ProtocolError("'sim_cap' must be an integer")
    cost_model = payload.get("cost_model", "simulated")
    if not isinstance(cost_model, str):
        raise ProtocolError("'cost_model' must be a string")
    try:
        return EvaluationRequest(
            program=program,
            cost_model=cost_model,
            hierarchy=hierarchy,
            layouts=layouts,
            max_iterations_per_nest=sim_cap,
        )
    except ValueError as exc:
        raise ProtocolError(str(exc)) from exc


def serve(
    config: PortfolioConfig | None = None,
    options: BuildOptions | None = None,
    daemon_config: DaemonConfig | None = None,
    socket_path: str | None = None,
    trace_log: str | None = None,
    address: str | None = None,
) -> int:
    """Blocking entry point used by the CLI's ``--serve``.

    ``socket_path`` keeps the historical unix-only spelling;
    ``address`` accepts the cluster vocabulary (unix path *or*
    ``host:port``).  With neither, the daemon serves stdio.
    """
    daemon = SolverDaemon(
        config=config,
        options=options,
        daemon_config=daemon_config,
        trace_log=trace_log,
    )
    if socket_path is not None:
        asyncio.run(daemon.serve_unix(socket_path))
    elif address is not None:
        asyncio.run(daemon.serve_address(address))
    else:
        asyncio.run(daemon.serve_stdio())
    return 0
