"""Fingerprint-routed daemon cluster: the scale-out tier.

One :class:`~repro.service.daemon.SolverDaemon` on one host is the
warm-path ceiling; this module runs N of them as *members* behind
consistent-hash routing of request fingerprints, so each
fingerprint's result-cache entry and network memo live on exactly
one owner and warm-path reuse survives scale-out:

* :class:`ClusterRouter` is an asyncio front end speaking the same
  JSON-lines wire protocol as the daemon (:mod:`repro.service.stream`)
  -- clients cannot tell a router from a daemon.  Every solve or
  evaluate line is fingerprinted and forwarded to the fingerprint's
  owner on the :class:`~repro.service.routing.HashRing`; on timeout or
  connection loss the router retries with backoff, then fails over
  through the ring's replica preference list.
* members run cache peering (see ``DaemonConfig.peers``): a member
  handling a miss it does not own asks the owner's cache first over
  one bounded ``cache_lookup`` hop, so even requests that bypass the
  router (a direct :class:`~repro.service.stream.DaemonClient`
  connection) reuse cluster-wide warm state.
* ``stats`` and ``metrics`` requests roll the whole cluster up: member
  registries ship as mergeable snapshots (``"raw": true``) and fold
  into one exposition through
  :meth:`repro.obs.metrics.MetricsRegistry.merge_snapshot` -- the
  merge the metrics layer was designed for.  Router-side
  ``repro_cluster_*`` counters (route hits, peer hits, failovers,
  retries) make the routing behaviour itself observable, and router
  spans thread through the trace layer like daemon spans do.

Single-box clusters (benchmarks, CI smoke, ``--serve-cluster N``) use
:func:`spawn_member`/:func:`member_addresses`: each member is its own
process with its own pool, cache shards, and unix socket.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
import multiprocessing
import os
import time
from dataclasses import dataclass

from repro import __version__
from repro.obs import (
    CONTENT_TYPE,
    MetricsRegistry,
    TraceJsonWriter,
    prometheus_text,
)
from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS
from repro.obs.trace import NOOP_SPAN, Span
from repro.opt.network_builder import BuildOptions
from repro.service import stream
from repro.service.fingerprint import ROUTING_ALIASES, BoundedMemo, routing_key
from repro.service.portfolio import PortfolioConfig
from repro.service.routing import (
    DEFAULT_VIRTUAL_NODES,
    HashRing,
    open_address,
    parse_address,
    reclaim_stale_socket,
    wait_until_serving,
)
from repro.service.stream import ProtocolError

logger = logging.getLogger(__name__)

__all__ = [
    "ClusterConfig",
    "ClusterRouter",
    "member_addresses",
    "spawn_member",
    "serve_cluster",
]


@dataclass(frozen=True)
class ClusterConfig:
    """Router knobs.

    Attributes:
        members: member addresses (unix paths or ``host:port``); the
            ring canonicalizes order, so every router and member built
            from the same set routes identically.
        replicas: how many ring-preference members a request may try
            (owner first, then failover replicas).
        virtual_nodes: ring points per member; must match the members'
            ``DaemonConfig.virtual_nodes``.
        retries: extra attempts per member before failing over.
        backoff_seconds: base sleep between retry attempts (linear:
            ``backoff_seconds * attempt``).
        request_timeout: bound on one forwarded request attempt.
        health_interval: seconds between background member pings.
        health_timeout: bound on one health-check ping.
        max_inflight: bound on concurrently routed solve/evaluate
            requests (control kinds bypass, like the daemon).
    """

    members: tuple[str, ...] = ()
    replicas: int = 2
    virtual_nodes: int = DEFAULT_VIRTUAL_NODES
    retries: int = 1
    backoff_seconds: float = 0.05
    request_timeout: float = 600.0
    health_interval: float = 2.0
    health_timeout: float = 1.0
    max_inflight: int = 64

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("cluster needs at least one member")
        if self.replicas < 1:
            raise ValueError("replicas must be positive")
        if self.virtual_nodes < 1:
            raise ValueError("virtual_nodes must be positive")
        if self.retries < 0:
            raise ValueError("retries must be non-negative")
        if self.backoff_seconds < 0:
            raise ValueError("backoff_seconds must be non-negative")
        if self.request_timeout <= 0:
            raise ValueError("request_timeout must be positive")
        if self.health_interval <= 0:
            raise ValueError("health_interval must be positive")
        if self.health_timeout <= 0:
            raise ValueError("health_timeout must be positive")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be positive")


class _MemberChannel:
    """One multiplexed wire connection from the router to a member.

    Many routed requests share the connection concurrently: outgoing
    ids are rewritten to channel-internal ones (clients on different
    connections may reuse ids), a background reader task resolves each
    response line to its waiting future, and the original id is
    restored before the response goes back to the client.
    """

    def __init__(self, address: str):
        self.address = address
        self._reader = None
        self._writer = None
        self._reader_task: asyncio.Task | None = None
        self._pending: dict[str, asyncio.Future] = {}
        self._seq = 0
        self._connect_lock = asyncio.Lock()
        self._write_lock = asyncio.Lock()

    async def _ensure_connected(self) -> None:
        async with self._connect_lock:
            if self._writer is not None:
                return
            self._reader, self._writer = await open_address(self.address)
            self._reader_task = asyncio.create_task(self._read_loop())

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                try:
                    response = json.loads(line)
                except ValueError:
                    logger.warning(
                        "member %s sent an unparseable line", self.address
                    )
                    continue
                future = self._pending.pop(response.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(response)
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass
        finally:
            self._fail_pending(
                ConnectionError(f"member {self.address} connection lost")
            )

    def _fail_pending(self, exc: Exception) -> None:
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(exc)
        self._writer = None
        self._reader = None

    async def request(self, payload: dict, timeout: float) -> dict:
        """Forward one request; returns the member's response with the
        caller's original id restored.

        Raises:
            OSError/ConnectionError: connect or mid-flight failure.
            asyncio.TimeoutError: no response within ``timeout``.
        """
        await self._ensure_connected()
        self._seq += 1
        internal_id = f"r{self._seq}"
        original_id = payload.get("id")
        wire = dict(payload)
        wire["id"] = internal_id
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[internal_id] = future
        try:
            async with self._write_lock:
                writer = self._writer
                if writer is None:
                    raise ConnectionError(
                        f"member {self.address} connection lost"
                    )
                writer.write(stream.encode_response(wire))
                await writer.drain()
            response = await asyncio.wait_for(future, timeout=timeout)
        finally:
            self._pending.pop(internal_id, None)
        response["id"] = original_id
        return response

    def close(self) -> None:
        if self._reader_task is not None:
            self._reader_task.cancel()
            self._reader_task = None
        if self._writer is not None:
            with contextlib.suppress(Exception):
                self._writer.close()
        self._fail_pending(ConnectionError("router shutting down"))


class ClusterRouter:
    """The consistent-hash routing front end over N daemon members.

    Args:
        config: member set and routing knobs.
        options: network-construction options -- must match the
            members', because the routing key is the same canonical
            request fingerprint the members cache under.  (A mismatch
            only costs a peer hop on the member side, never
            correctness.)
        trace_log: path or stream receiving one JSON line per routed
            solve/evaluate span tree.
    """

    def __init__(
        self,
        config: ClusterConfig,
        options: BuildOptions | None = None,
        trace_log=None,
    ):
        self._config = config
        self._options = options if options is not None else BuildOptions()
        self._ring = HashRing(config.members, config.virtual_nodes)
        self._aliases = BoundedMemo(ROUTING_ALIASES)
        self._channels = {
            address: _MemberChannel(address) for address in self._ring.members
        }
        #: Last health-check verdict per member; requests prefer
        #: healthy members but will still try an unhealthy owner last
        #: (it may have recovered since the last probe).
        self._healthy = {address: True for address in self._ring.members}
        self._shutdown = asyncio.Event()
        self._started_at = time.monotonic()
        self._inflight: asyncio.Semaphore | None = None
        self.registry = MetricsRegistry()
        self._trace_writer = (
            TraceJsonWriter(trace_log) if trace_log is not None else None
        )
        self.counters = {
            "requests": 0,
            "routed": 0,
            "route_hits": 0,
            "failovers": 0,
            "retries": 0,
            "errors": 0,
            "member_down": 0,
        }

    # -- routing ---------------------------------------------------------

    def _targets(self, key: str | None) -> list[str]:
        """Preference-ordered targets: the owner and its replicas,
        healthy members first within that order."""
        if key is None:
            ordered = list(self._ring.members)[: self._config.replicas]
        else:
            ordered = self._ring.preference(key, self._config.replicas)
        healthy = [a for a in ordered if self._healthy.get(a, True)]
        sick = [a for a in ordered if not self._healthy.get(a, True)]
        return healthy + sick or ordered

    async def _forward(self, payload: dict, root) -> dict:
        """Route one request: owner first, bounded retry with backoff,
        then failover through the replica preference list."""
        with root.phase("route"):
            key = routing_key(payload, self._options, self._aliases)
            targets = self._targets(key)
        owner = targets[0] if targets else None
        last_error: Exception | None = None
        for position, address in enumerate(targets):
            if position > 0:
                self.counters["failovers"] += 1
                self.registry.counter(
                    "repro_cluster_requests_total",
                    {"event": "failover"},
                    help="Routed requests by routing event.",
                ).inc()
            for attempt in range(1 + self._config.retries):
                if attempt > 0:
                    self.counters["retries"] += 1
                    self.registry.counter(
                        "repro_cluster_requests_total",
                        {"event": "retry"},
                        help="Routed requests by routing event.",
                    ).inc()
                    await asyncio.sleep(
                        self._config.backoff_seconds * attempt
                    )
                try:
                    with root.phase("forward", member=address) as span:
                        response = await self._channels[address].request(
                            payload, self._config.request_timeout
                        )
                    self._healthy[address] = True
                    self.counters["routed"] += 1
                    if address == owner:
                        self.counters["route_hits"] += 1
                    if response.get("peer") is not None:
                        self.registry.counter(
                            "repro_cluster_requests_total",
                            {"event": "peer_hit"},
                            help="Routed requests by routing event.",
                        ).inc()
                    _adopt_member_trace(span, response)
                    return response
                except (OSError, asyncio.TimeoutError) as exc:
                    last_error = exc
                    if self._healthy.get(address, True):
                        self._healthy[address] = False
                        self.counters["member_down"] += 1
                    logger.warning(
                        "member %s failed (attempt %d): %r",
                        address,
                        attempt + 1,
                        exc,
                    )
        self.counters["errors"] += 1
        raise ConnectionError(
            f"all {len(targets)} routing targets failed for this request"
        ) from last_error

    # -- request handling ------------------------------------------------

    def _semaphore(self) -> asyncio.Semaphore:
        if self._inflight is None:
            self._inflight = asyncio.Semaphore(self._config.max_inflight)
        return self._inflight

    async def handle_request(self, payload: dict) -> dict:
        """Serve one decoded request line (wire-compatible with the
        daemon: a client pointed at a router sees the same kinds)."""
        self.counters["requests"] += 1
        request_id = payload.get("id")
        kind = payload.get("kind")
        start = time.perf_counter()
        try:
            if kind == "ping":
                return self._hello(request_id)
            if kind == "stats":
                return {
                    "id": request_id,
                    "ok": True,
                    "kind": "stats",
                    "result": await self.stats(),
                }
            if kind == "metrics":
                return await self._handle_metrics(payload)
            if kind == "shutdown":
                await self._broadcast_shutdown()
                self._shutdown.set()
                return {"id": request_id, "ok": True, "kind": "shutdown"}
            root = self._request_span(payload, kind)
            trace_dict = None
            try:
                response = await self._forward(payload, root)
            except (OSError, asyncio.TimeoutError) as exc:
                return stream.error_response(request_id, repr(exc))
            finally:
                trace_dict = self._finish_span(root, payload)
            seconds = time.perf_counter() - start
            self.registry.histogram(
                "repro_cluster_route_seconds",
                {"kind": str(kind)},
                help="Router end-to-end latency by request kind.",
                bounds=DEFAULT_LATENCY_BUCKETS,
            ).observe(seconds)
            if payload.get("trace") and response.get("ok") and trace_dict:
                # The router's span tree already adopted the member's
                # (see _adopt_member_trace), so it supersedes the
                # member-only tree the response carried.
                response["trace"] = trace_dict
            return response
        except ProtocolError as exc:
            self.counters["errors"] += 1
            return stream.error_response(request_id, str(exc))
        except Exception as exc:
            self.counters["errors"] += 1
            logger.exception("routing request %r failed", request_id)
            return stream.error_response(request_id, repr(exc))

    def _request_span(self, payload: dict, kind: str):
        if payload.get("trace") or self._trace_writer is not None:
            return Span(f"route:{kind}", attributes={"kind": kind})
        return NOOP_SPAN

    def _finish_span(self, root, payload: dict) -> dict | None:
        if root:
            root.set_attribute("id", payload.get("id"))
            root.end()
            if self._trace_writer is not None:
                self._trace_writer.write(root.to_dict())
            if payload.get("trace"):
                return root.to_dict()
        return None

    def _hello(self, request_id) -> dict:
        return {
            "id": request_id,
            "ok": True,
            "kind": "ping",
            "result": {
                "version": __version__,
                "role": "router",
                "members": list(self._ring.members),
                "replicas": self._config.replicas,
                "virtual_nodes": self._ring.virtual_nodes,
                "healthy": dict(self._healthy),
            },
        }

    async def _broadcast_shutdown(self) -> None:
        for address, channel in self._channels.items():
            try:
                await channel.request(
                    {"id": None, "kind": "shutdown"},
                    self._config.health_timeout,
                )
            except (OSError, asyncio.TimeoutError):
                logger.warning("member %s unreachable for shutdown", address)

    # -- cluster-wide observability --------------------------------------

    async def _member_request(self, address: str, payload: dict):
        """Best-effort control-plane request; None when unreachable."""
        try:
            return await self._channels[address].request(
                payload, self._config.health_timeout * 5
            )
        except (OSError, asyncio.TimeoutError):
            return None

    async def stats(self) -> dict:
        """Router counters plus every member's stats and a numeric
        roll-up (summed counters across reachable members)."""
        members: dict[str, dict] = {}
        responses = await asyncio.gather(
            *(
                self._member_request(address, {"id": None, "kind": "stats"})
                for address in self._ring.members
            )
        )
        for address, response in zip(self._ring.members, responses):
            if response is not None and response.get("ok"):
                members[address] = response["result"]
        aggregate: dict[str, dict] = {}
        for section in ("counters", "engines", "split", "peer"):
            totals: dict[str, float] = {}
            for member_stats in members.values():
                for key, value in (member_stats.get(section) or {}).items():
                    if isinstance(value, (int, float)):
                        totals[key] = totals.get(key, 0) + value
            aggregate[section] = totals
        aggregate["cache"] = {
            "entries": sum(
                (m.get("cache") or {}).get("entries", 0)
                for m in members.values()
            ),
            "bytes_on_disk": sum(
                (m.get("cache") or {}).get("bytes_on_disk", 0)
                for m in members.values()
            ),
        }
        return {
            "router": {
                "uptime_seconds": time.monotonic() - self._started_at,
                "counters": dict(self.counters),
                "members": list(self._ring.members),
                "healthy": dict(self._healthy),
                "reachable": sorted(members),
            },
            "members": members,
            "aggregate": aggregate,
        }

    async def metrics_snapshot(self) -> dict:
        """One mergeable snapshot for the whole cluster.

        Each reachable member ships its registry snapshot
        (``metrics`` with ``"raw": true``); snapshots merge by sum --
        the associative/commutative contract from
        :mod:`repro.obs.metrics` -- together with the router's own
        ``repro_cluster_*`` counters, into a fresh registry so
        scraping twice never double-counts.
        """
        registry = MetricsRegistry()
        registry.merge_snapshot(self.registry.snapshot())
        for event, count in self.counters.items():
            registry.counter(
                "repro_cluster_router_total",
                {"event": event},
                help="Router lifecycle counters.",
            ).inc(count)
        registry.gauge(
            "repro_cluster_members",
            help="Configured cluster member count.",
        ).set(len(self._ring))
        responses = await asyncio.gather(
            *(
                self._member_request(
                    address, {"id": None, "kind": "metrics", "raw": True}
                )
                for address in self._ring.members
            )
        )
        reachable = 0
        for response in responses:
            if response is not None and response.get("ok"):
                reachable += 1
                registry.merge_snapshot(response["result"]["snapshot"])
        registry.gauge(
            "repro_cluster_members_reachable",
            help="Members that answered the last metrics roll-up.",
        ).set(reachable)
        return registry.snapshot()

    async def _handle_metrics(self, payload: dict) -> dict:
        snapshot = await self.metrics_snapshot()
        if payload.get("raw"):
            result = {"snapshot": snapshot}
        else:
            result = {
                "text": prometheus_text(snapshot),
                "content_type": CONTENT_TYPE,
            }
        return {
            "id": payload.get("id"),
            "ok": True,
            "kind": "metrics",
            "result": result,
        }

    # -- health checks ---------------------------------------------------

    async def check_health(self) -> dict[str, bool]:
        """Ping every member once; updates and returns the verdicts."""

        async def probe(address: str) -> None:
            try:
                response = await self._channels[address].request(
                    {"id": None, "kind": "ping"},
                    self._config.health_timeout,
                )
                self._healthy[address] = bool(response.get("ok"))
            except (OSError, asyncio.TimeoutError):
                if self._healthy.get(address, True):
                    self.counters["member_down"] += 1
                self._healthy[address] = False

        await asyncio.gather(*(probe(a) for a in self._ring.members))
        return dict(self._healthy)

    async def _health_loop(self) -> None:
        while not self._shutdown.is_set():
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(
                    self._shutdown.wait(),
                    timeout=self._config.health_interval,
                )
                return
            await self.check_health()

    # -- serving loops ---------------------------------------------------

    async def serve_connection(self, reader, writer) -> None:
        """Serve one client connection until EOF or shutdown (same
        line discipline as the daemon: responses stream back in
        completion order)."""
        write_lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()

        async def respond(response: dict) -> None:
            async with write_lock:
                writer.write(stream.encode_response(response))
                await writer.drain()

        async def serve_one(payload: dict, permit: bool) -> None:
            try:
                response = await self.handle_request(payload)
            finally:
                if permit:
                    self._semaphore().release()
            await respond(response)

        def spawn(coroutine) -> None:
            task = asyncio.create_task(coroutine)
            tasks.add(task)
            task.add_done_callback(tasks.discard)

        try:
            while not self._shutdown.is_set():
                line = await reader.readline()
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    payload = stream.decode_request(line)
                except ProtocolError as exc:
                    self.counters["requests"] += 1
                    self.counters["errors"] += 1
                    spawn(respond(stream.error_response(None, str(exc))))
                    continue
                if payload["kind"] in ("solve", "evaluate"):
                    await self._semaphore().acquire()
                    spawn(serve_one(payload, permit=True))
                else:
                    spawn(serve_one(payload, permit=False))
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def serve_address(self, address: str) -> None:
        """Listen for clients on a unix path or ``host:port`` until a
        ``shutdown`` request (which is also broadcast to members)."""
        parsed = parse_address(address)
        if parsed[0] == "unix":
            reclaim_stale_socket(parsed[1])
            server = await asyncio.start_unix_server(
                self.serve_connection, path=parsed[1]
            )
        else:
            server = await asyncio.start_server(
                self.serve_connection, host=parsed[1], port=parsed[2]
            )
        logger.info(
            "cluster router on %s fronting %d members",
            address,
            len(self._ring),
        )
        health_task = asyncio.create_task(self._health_loop())
        try:
            async with server:
                await self._shutdown.wait()
                await asyncio.sleep(0.05)
        finally:
            health_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await health_task
            if parsed[0] == "unix":
                with contextlib.suppress(OSError):
                    os.unlink(parsed[1])
            self.close()

    def close(self) -> None:
        for channel in self._channels.values():
            channel.close()
        if self._trace_writer is not None:
            self._trace_writer.close()
            self._trace_writer = None


def _adopt_member_trace(span, response: dict) -> None:
    """Re-parent a member's span tree under the router's forward phase
    (the member only ships one when the client asked to trace)."""
    if not span:
        return
    member_trace = response.get("trace")
    if member_trace:
        with contextlib.suppress(ValueError):
            span.adopt(member_trace)


# -- single-box cluster plumbing -----------------------------------------


def member_addresses(base_dir: str, count: int) -> list[str]:
    """Unix-socket addresses for an N-member single-box cluster."""
    if count < 1:
        raise ValueError("cluster needs at least one member")
    return [
        os.path.join(base_dir, f"member-{index}.sock")
        for index in range(count)
    ]


def _member_main(
    address: str,
    peers: tuple[str, ...],
    config: PortfolioConfig | None,
    options: BuildOptions | None,
    daemon_kwargs: dict,
) -> None:
    """Process target for one spawned cluster member (top-level so it
    pickles under any multiprocessing start method)."""
    from repro.service.daemon import DaemonConfig, SolverDaemon

    daemon = SolverDaemon(
        config=config,
        options=options,
        daemon_config=DaemonConfig(
            peers=tuple(peers),
            self_address=address,
            **daemon_kwargs,
        ),
    )
    asyncio.run(daemon.serve_address(address))


def spawn_member(
    address: str,
    peers,
    config: PortfolioConfig | None = None,
    options: BuildOptions | None = None,
    **daemon_kwargs,
) -> multiprocessing.Process:
    """Start one cluster member in its own process (own pool, own
    cache shards, own socket); returns the started Process."""
    # Not daemonic: members run their own worker pools, and daemonic
    # processes may not have children.  Callers own the join/terminate
    # (serve_cluster and the smoke script both do).
    process = multiprocessing.Process(
        target=_member_main,
        args=(address, tuple(peers), config, options, dict(daemon_kwargs)),
        name=f"repro-member-{os.path.basename(str(address))}",
        daemon=False,
    )
    process.start()
    return process


def wait_for_members(addresses, timeout: float = 30.0) -> None:
    """Block until every member address accepts connections."""
    deadline = time.monotonic() + timeout
    for address in addresses:
        wait_until_serving(address, max(0.0, deadline - time.monotonic()))


def serve_cluster(
    count: int,
    base_dir: str,
    router_address: str,
    replicas: int = 2,
    config: PortfolioConfig | None = None,
    options: BuildOptions | None = None,
    trace_log=None,
    members=None,
    cache_dir: str | None = None,
    **daemon_kwargs,
) -> int:
    """Blocking single-box cluster entry (the CLI's ``--serve-cluster``):
    spawn ``count`` member processes, run the router in this one.

    ``members`` overrides the auto-generated unix-socket addresses;
    ``cache_dir`` (when set) gives each member its *own* shard
    directory beneath it -- members must never share shard files.
    """
    addresses = (
        [str(member) for member in members]
        if members
        else member_addresses(base_dir, count)
    )
    if len(addresses) != count:
        raise ValueError(
            f"{len(addresses)} member addresses for a {count}-member cluster"
        )
    processes = [
        spawn_member(
            address,
            addresses,
            config=config,
            options=options,
            cache_dir=(
                os.path.join(cache_dir, f"member-{index}")
                if cache_dir is not None
                else None
            ),
            **daemon_kwargs,
        )
        for index, address in enumerate(addresses)
    ]
    try:
        wait_for_members(addresses)
        router = ClusterRouter(
            ClusterConfig(members=tuple(addresses), replicas=replicas),
            options=options,
            trace_log=trace_log,
        )
        asyncio.run(router.serve_address(router_address))
        return 0
    finally:
        for process in processes:
            process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
