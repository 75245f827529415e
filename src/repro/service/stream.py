"""JSON-lines wire protocol of the resident solver daemon.

One request per line, one response per line, both UTF-8 JSON objects.
Responses stream back as work completes, so they may arrive out of
request order; the ``id`` field (echoed verbatim) matches them up.

Request kinds::

    {"id": 1, "kind": "solve", "program": {...}}
    {"id": 2, "kind": "evaluate", "program": {...}, "cost_model": "analytic",
     "hierarchy": {"l1_size": 16384}, "sim_cap": 50000, "layouts": {...}}
    {"id": 3, "kind": "ping"}
    {"id": 4, "kind": "stats"}
    {"id": 5, "kind": "metrics"}
    {"id": 6, "kind": "shutdown"}
    {"id": 7, "kind": "cache_lookup", "fingerprint": "...", "token": "..."}

A solve/evaluate request may add ``"trace": true`` to get the served
request's span tree back in ``response["trace"]``; the ``metrics``
kind answers with the daemon's Prometheus text exposition in
``result.text`` (or, with ``"raw": true``, the mergeable registry
snapshot in ``result.snapshot`` -- the cluster router's roll-up
form).  ``cache_lookup`` is the cluster cache-peering kind: it
answers from the member's local result cache only (a single bounded
hop -- the serving member never peers onward), so a cluster of
members turns their sharded on-disk caches into one distributed tier.

Responses::

    {"id": 1, "ok": true, "kind": "solve", "from_cache": false,
     "seconds": 0.41, "result": {...PortfolioResult.to_dict()...}}
    {"id": 6, "ok": false, "error": "unknown request kind 'solv'"}

The program wire form round-trips :class:`repro.ir.program.Program`
exactly (name, array declarations, loop nests with affine subscripts),
so any JSON-speaking client can submit programs the daemon has never
seen -- the service is not limited to the named paper benchmarks.

:class:`DaemonClient` is the synchronous client used by the batch CLI
(``--connect``), the benchmarks, and the CI smoke script.  It
pipelines: ``request_many`` writes every request line before reading
the first response, which is what makes the warm daemon path a
throughput measurement instead of a ping-pong latency one.
"""

from __future__ import annotations

import json
from typing import Iterable, Mapping, Sequence

from repro.ir.arrays import ArrayDecl
from repro.ir.expr import AffineExpr
from repro.ir.loops import Loop, LoopNest
from repro.ir.program import Program
from repro.ir.reference import AccessKind, ArrayRef
from repro.ir.validate import validate_structure
from repro.layout.layout import Layout


class ProtocolError(ValueError):
    """A malformed request or response line."""


# -- program wire form ---------------------------------------------------


def _expr_to_wire(expr: AffineExpr) -> list:
    return [[[name, coeff] for name, coeff in expr.coeffs], expr.const]


def _wire_int(value) -> int:
    """An integer field; ``int()`` alone would truncate 1.5 to 1."""
    number = int(value)
    if number != value:
        raise ValueError(f"{value!r} is not an integer")
    return number


def _wire_name(value) -> str:
    """A declared name: program, array, nest or loop index.

    References and subscript variables need no check: a name that is
    not declared fails :func:`~repro.ir.validate.validate_structure`.
    """
    if not isinstance(value, str):
        raise ValueError(f"name {value!r} is not a string")
    return value


def _expr_from_wire(data) -> AffineExpr:
    coeffs, const = data
    return AffineExpr.from_mapping(
        {name: _wire_int(coeff) for name, coeff in coeffs},
        _wire_int(const),
    )


def program_to_wire(program: Program) -> dict:
    """JSON-encodable form of a program (exact round trip)."""
    return {
        "name": program.name,
        "arrays": [
            [decl.name, list(decl.extents), decl.element_type]
            for decl in program.arrays
        ],
        "nests": [
            {
                "name": nest.name,
                "weight": nest.weight,
                "loops": [
                    [loop.index, loop.lower, loop.upper] for loop in nest.loops
                ],
                "body": [
                    [
                        ref.array,
                        [_expr_to_wire(subscript) for subscript in ref.subscripts],
                        ref.kind.value,
                    ]
                    for ref in nest.body
                ],
            }
            for nest in program.nests
        ],
    }


def program_from_wire(data: Mapping) -> Program:
    """Rebuild a program from its wire form.

    The program must pass :func:`~repro.ir.validate.validate_structure`:
    an undeclared array, a rank mismatch or a stray subscript variable
    is rejected here, not deep in the optimizer.  So are a name that is
    not a string, a number that is not an integer, and a program
    without loop nests (it references no arrays, so nothing can be
    optimized).  Extents are not checked.

    Raises:
        ProtocolError: for structurally invalid data (the IR layer's
            own validation errors are re-raised as protocol errors so
            the daemon answers with an error line instead of dying).
    """
    try:
        arrays = tuple(
            ArrayDecl(
                _wire_name(name),
                tuple(_wire_int(e) for e in extents),
                element_type,
            )
            for name, extents, element_type in data["arrays"]
        )
        nests = tuple(
            LoopNest(
                name=_wire_name(nest["name"]),
                loops=tuple(
                    Loop(_wire_name(index), _wire_int(lower), _wire_int(upper))
                    for index, lower, upper in nest["loops"]
                ),
                body=tuple(
                    ArrayRef(
                        array,
                        tuple(_expr_from_wire(s) for s in subscripts),
                        AccessKind(kind),
                    )
                    for array, subscripts, kind in nest["body"]
                ),
                weight=_wire_int(nest.get("weight", 1)),
            )
            for nest in data["nests"]
        )
        program = Program(_wire_name(data["name"]), arrays, nests)
        validate_structure(program)
        if not program.nests:
            raise ValueError(f"program {program.name} has no loop nests")
        return program
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ProtocolError(f"malformed program payload: {exc}") from exc


def layouts_to_wire(layouts: Mapping[str, Layout]) -> dict:
    """JSON-encodable form of a layout assignment."""
    return {
        name: {"dimension": layout.dimension, "rows": [list(r) for r in layout.rows]}
        for name, layout in layouts.items()
    }


def layouts_from_wire(data: Mapping) -> dict[str, Layout]:
    """Rebuild a layout assignment from its wire form."""
    try:
        return {
            name: Layout(entry["dimension"], [tuple(r) for r in entry["rows"]])
            for name, entry in data.items()
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed layouts payload: {exc}") from exc


# -- request/response lines ----------------------------------------------

#: Request kinds the daemon understands.
REQUEST_KINDS = (
    "solve",
    "evaluate",
    "ping",
    "stats",
    "metrics",
    "shutdown",
    "cache_lookup",
)


def decode_request(line: str | bytes) -> dict:
    """Parse one request line.

    Raises:
        ProtocolError: for non-JSON lines, non-object payloads, or an
            unknown/missing ``kind``.
    """
    try:
        payload = json.loads(line)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"request is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError("request must be a JSON object")
    kind = payload.get("kind")
    if kind not in REQUEST_KINDS:
        raise ProtocolError(
            f"unknown request kind {kind!r}; know {list(REQUEST_KINDS)}"
        )
    if kind in ("solve", "evaluate") and not isinstance(
        payload.get("program"), dict
    ):
        raise ProtocolError(f"{kind} request needs a 'program' object")
    if kind == "cache_lookup":
        for field in ("fingerprint", "token"):
            if not isinstance(payload.get(field), str):
                raise ProtocolError(
                    f"cache_lookup request needs a string '{field}'"
                )
    return payload


def encode_response(response: Mapping) -> bytes:
    """One response line, newline-terminated, ready for the socket."""
    return (json.dumps(response, separators=(",", ":")) + "\n").encode("utf-8")


def error_response(request_id, message: str) -> dict:
    """The error line for a failed or unparseable request."""
    return {"id": request_id, "ok": False, "error": message}


def cache_lookup_request(fingerprint: str, token: str, request_id=None) -> dict:
    """Build a cache-peering lookup line (cluster members only).

    The answering member consults its *local* result cache and returns
    ``{"hit": bool, "result": {...}|null}`` -- it never forwards the
    lookup onward, which is what bounds peering to a single hop.
    """
    return {
        "id": request_id,
        "kind": "cache_lookup",
        "fingerprint": fingerprint,
        "token": token,
    }


def solve_request(program: Program, request_id=None, trace: bool = False) -> dict:
    """Build a solve request line payload.

    ``trace=True`` asks the daemon to attach the request's span tree
    to the response (``response["trace"]``).
    """
    payload = {"id": request_id, "kind": "solve", "program": program_to_wire(program)}
    if trace:
        payload["trace"] = True
    return payload


def evaluate_request(
    program: Program,
    cost_model: str = "simulated",
    hierarchy: Mapping[str, int] | None = None,
    layouts: Mapping[str, Layout] | None = None,
    sim_cap: int | None = None,
    request_id=None,
    trace: bool = False,
) -> dict:
    """Build an evaluate request line payload.

    ``hierarchy`` is a field-override mapping (the wire form of the
    CLI's ``--hierarchy l1_size=16384,...``), not a full config.
    ``trace=True`` asks for the request's span tree in the response.
    """
    payload = {
        "id": request_id,
        "kind": "evaluate",
        "program": program_to_wire(program),
        "cost_model": cost_model,
    }
    if hierarchy is not None:
        payload["hierarchy"] = dict(hierarchy)
    if layouts is not None:
        payload["layouts"] = layouts_to_wire(layouts)
    if sim_cap is not None:
        payload["sim_cap"] = sim_cap
    if trace:
        payload["trace"] = True
    return payload


# -- synchronous client --------------------------------------------------


class DaemonClient:
    """Blocking JSON-lines client for one daemon -- or a whole cluster.

    Args:
        address: a member address (unix-socket path or TCP
            ``host:port``), or a sequence of them.  With several
            addresses the client routes each solve/evaluate request to
            the member that *owns* its fingerprint on the cluster's
            consistent-hash ring -- the same ring every member and the
            router build -- so the hot path needs no router process at
            all; on connection failure it falls back through the
            remaining members (the contacted member then peers with
            the owner for cache hits).
        timeout: per-read socket timeout in seconds (None blocks
            forever; solves can legitimately take a while, so the
            default is generous).
        options: the :class:`BuildOptions` the daemons fingerprint
            with; only consulted for client-side routing (a mismatch
            never changes answers -- requests merely land on a
            non-owner, which costs one bounded peer hop).
        retry: reconnect and resend outstanding requests once per
            member on a transient connection error
            (``ConnectionResetError``/``BrokenPipeError``/timeout)
            mid-pipeline, instead of raising to the caller.

    The client assigns request ids automatically when the caller did
    not, and matches out-of-order responses back to request order.
    Use as a context manager to close the connections deterministically.
    """

    def __init__(
        self,
        address: str | Sequence[str],
        timeout: float | None = 600.0,
        options=None,
        retry: bool = True,
    ):
        if isinstance(address, str):
            addresses = [address]
        else:
            addresses = [str(item) for item in address]
        if not addresses:
            raise ValueError("DaemonClient needs at least one address")
        # Lazy imports keep the module importable without the opt layer
        # in pathological embedding scenarios; these are stdlib-cheap.
        from repro.service.fingerprint import ROUTING_ALIASES, BoundedMemo
        from repro.service.routing import HashRing

        self._addresses = addresses
        self._timeout = timeout
        self._options = options
        self._retry = retry
        self._ring = HashRing(addresses) if len(addresses) > 1 else None
        self._aliases = BoundedMemo(ROUTING_ALIASES)
        # address -> (socket, buffered reader); opened on first use so
        # a 3-member client talking to one member opens one socket.
        self._connections: dict[str, tuple] = {}
        self._next_id = 0
        # Fail fast on a bad primary address (matches the historical
        # constructor contract: creating a client to a dead daemon
        # raises immediately).
        self._connection(addresses[0])

    @property
    def addresses(self) -> tuple[str, ...]:
        """The member addresses this client may talk to."""
        return tuple(self._addresses)

    def _connection(self, address: str) -> tuple:
        entry = self._connections.get(address)
        if entry is None:
            from repro.service.routing import connect_address

            sock = connect_address(address, timeout=self._timeout)
            entry = (sock, sock.makefile("rb"))
            self._connections[address] = entry
        return entry

    def _drop_connection(self, address: str) -> None:
        entry = self._connections.pop(address, None)
        if entry is not None:
            sock, reader = entry
            try:
                reader.close()
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass

    def close(self) -> None:
        for address in list(self._connections):
            self._drop_connection(address)

    def __enter__(self) -> "DaemonClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _take_id(self) -> int:
        self._next_id += 1
        return self._next_id

    @staticmethod
    def _read_response(reader) -> dict:
        line = reader.readline()
        if not line:
            raise ConnectionError("daemon closed the connection")
        try:
            payload = json.loads(line)
        except ValueError as exc:
            raise ProtocolError(f"daemon sent invalid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ProtocolError("daemon response must be a JSON object")
        return payload

    # -- client-side routing --------------------------------------------

    def _target_for(self, payload: Mapping) -> str:
        """Owner member for routable requests; the primary otherwise."""
        if self._ring is None:
            return self._addresses[0]
        from repro.service.fingerprint import routing_key

        try:
            key = routing_key(payload, self._options, self._aliases)
        except ProtocolError:
            key = None  # let the daemon produce the error line
        if key is None:
            return self._addresses[0]
        return self._ring.owner(key)

    def request(self, payload: Mapping) -> dict:
        """Send one request and wait for its response."""
        return self.request_many([payload])[0]

    def request_member(self, address: str, payload: Mapping) -> dict:
        """Send one request to a *specific* member, bypassing routing.

        The address must be one of this client's configured addresses.
        Cluster smoke tests use this to target a non-owner and watch
        the cache-peering hop; operators use it to inspect one member.
        """
        if address not in self._addresses:
            raise ValueError(f"{address!r} is not a configured member")
        prepared = dict(payload)
        if prepared.get("id") is None:
            prepared["id"] = self._take_id()
        return self._deliver(address, [prepared], failover=False)[prepared["id"]]

    def request_many(self, payloads: Sequence[Mapping]) -> list[dict]:
        """Pipeline a batch: write every line, then collect responses.

        Responses are returned in *request* order regardless of the
        order the daemon finished them in.  Auto-assigned ids skip any
        caller-supplied ones, and duplicate caller ids are rejected --
        ids are the only way responses pair back to requests.  With
        several addresses the batch is partitioned by fingerprint
        owner and each partition is pipelined to its member.

        Raises:
            ProtocolError: when two payloads share a request id.
        """
        used = {
            payload.get("id")
            for payload in payloads
            if payload.get("id") is not None
        }
        prepared: list[dict] = []
        for payload in payloads:
            prepared_payload = dict(payload)
            if prepared_payload.get("id") is None:
                request_id = self._take_id()
                while request_id in used:
                    request_id = self._take_id()
                used.add(request_id)
                prepared_payload["id"] = request_id
            prepared.append(prepared_payload)
        ids = [payload["id"] for payload in prepared]
        if len(set(ids)) != len(ids):
            duplicates = sorted(
                {str(i) for i in ids if ids.count(i) > 1}
            )
            raise ProtocolError(
                f"duplicate request ids in batch: {', '.join(duplicates)}"
            )
        wanted = [p["id"] for p in prepared]
        groups: dict[str, list[dict]] = {}
        for payload in prepared:
            groups.setdefault(self._target_for(payload), []).append(payload)
        by_id: dict = {}
        for address, group in groups.items():
            by_id.update(self._deliver(address, group))
        return [by_id[request_id] for request_id in wanted]

    def _deliver(
        self, address: str, payloads: Sequence[Mapping], failover: bool = True
    ) -> dict:
        """Pipeline payloads to a member; reconnect-retry, then fail over.

        Per member: one reconnect+resend retry on a transient
        connection error (daemon restarted, socket reset mid-batch).
        Responses collected before the error are kept -- only the
        outstanding remainder is resent; resends are safe because
        every request kind is idempotent (solves are cached and
        deduplicated on the daemon).  When the member stays down and
        the client knows other members, the remainder fails over
        through them in address order.
        """
        outstanding = {payload["id"]: payload for payload in payloads}
        collected: dict = {}
        targets = [address]
        if failover and self._ring is not None:
            targets.extend(a for a in self._addresses if a != address)
        last_error: Exception | None = None
        for target in targets:
            # One *blind* retry per member: an attempt that collected
            # responses before dying proves the daemon is serving (it
            # was restarted, or the socket reset mid-batch), so
            # reconnecting again is progress, not spinning -- only
            # attempts that yield nothing consume the retry budget.
            blind_retries = 1 if self._retry else 0
            while True:
                if not outstanding:
                    return collected
                before = len(collected)
                try:
                    sock, reader = self._connection(target)
                    sock.sendall(
                        b"".join(
                            encode_response(p) for p in outstanding.values()
                        )
                    )
                    while outstanding:
                        response = self._read_response(reader)
                        response_id = response.get("id")
                        if response_id in outstanding:
                            del outstanding[response_id]
                            collected[response_id] = response
                        # responses for ids we never sent (stale
                        # pipeline) are dropped
                    return collected
                except (ConnectionError, OSError) as exc:
                    # Covers ConnectionResetError, BrokenPipeError,
                    # socket.timeout and refused reconnects alike.
                    self._drop_connection(target)
                    last_error = exc
                    if not self._retry:
                        break
                    if len(collected) == before:
                        if blind_retries == 0:
                            break
                        blind_retries -= 1
        raise ConnectionError(
            f"no daemon at {targets} answered "
            f"{len(outstanding)} outstanding request(s): {last_error}"
        ) from last_error

    # -- convenience wrappers -------------------------------------------

    def ping(self) -> dict:
        """Round-trip liveness check; returns the daemon's hello."""
        return self.request({"kind": "ping"})

    def stats(self) -> dict:
        """The daemon's serving/cache statistics snapshot."""
        response = self.request({"kind": "stats"})
        if not response.get("ok"):
            raise ProtocolError(response.get("error", "stats request failed"))
        return response["result"]

    def metrics(self) -> str:
        """The daemon's Prometheus text exposition (scrape body)."""
        response = self.request({"kind": "metrics"})
        if not response.get("ok"):
            raise ProtocolError(response.get("error", "metrics request failed"))
        return response["result"]["text"]

    def metrics_snapshot(self) -> dict:
        """The daemon's mergeable metrics snapshot (cluster roll-ups)."""
        response = self.request({"kind": "metrics", "raw": True})
        if not response.get("ok"):
            raise ProtocolError(response.get("error", "metrics request failed"))
        return response["result"]["snapshot"]

    def cache_lookup(self, fingerprint: str, token: str) -> dict:
        """Peer-style cache probe: ``{"hit": bool, "result": ...}``."""
        response = self.request(cache_lookup_request(fingerprint, token))
        if not response.get("ok"):
            raise ProtocolError(
                response.get("error", "cache_lookup request failed")
            )
        return response

    def shutdown(self) -> dict:
        """Ask the daemon to stop serving (it answers first)."""
        return self.request({"kind": "shutdown"})

    def solve(self, program: Program, trace: bool = False) -> dict:
        """Solve one program; returns the full response line."""
        return self.request(solve_request(program, trace=trace))

    def solve_many(self, programs: Iterable[Program]) -> list[dict]:
        """Pipeline a batch of solve requests (responses in order)."""
        return self.request_many([solve_request(p) for p in programs])
