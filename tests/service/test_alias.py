"""Request aliases: byte-identical repeats served without re-decoding."""

import asyncio
import json
import time

import pytest

from repro.ir.parser import parse_program
from repro.ir.program import Program
from repro.layout.layout import column_major, row_major
from repro.obs import span_from_dict
from repro.service import fingerprint as fingerprint_module
from repro.service import stream
from repro.service.daemon import DaemonConfig, SolverDaemon
from repro.service.fingerprint import (
    BoundedMemo,
    payload_digest,
    request_fingerprint,
    routing_key,
)
from repro.service.portfolio import PortfolioConfig
from repro.service.stream import (
    ProtocolError,
    cache_lookup_request,
    evaluate_request,
    solve_request,
)

_TEMPLATE = """
array Q1[{rows}][260]
array Q2[{rows}][260]
nest fig2 {{
    for i1 = 0 .. 259 {{
        for i2 = 0 .. 259 {{
            Q1[i1+i2][i2] = Q2[i1+i2][i1]
        }}
    }}
}}
"""


def _program(rows: int, name: str = "program") -> Program:
    return parse_program(_TEMPLATE.format(rows=rows), name=name)


def _twin(program: Program, name: str) -> Program:
    """Same fingerprint, new name, arrays declared in reverse order."""
    return Program(name, tuple(reversed(program.arrays)), program.nests)


def _answer(response: dict) -> dict:
    """A response's result without its wall-clock fields."""
    return {
        key: value
        for key, value in response["result"].items()
        if not key.endswith("seconds") and key != "outcomes"
    }


class _Daemon:
    """A transport-less daemon serving raw request lines."""

    def __init__(self, **daemon_config):
        daemon_config.setdefault("workers", 1)
        daemon_config.setdefault("shards", 1)
        self.daemon = SolverDaemon(
            config=PortfolioConfig(schemes=("enhanced",), parallel=False),
            daemon_config=DaemonConfig(**daemon_config),
        )

    def send(self, payload: dict) -> dict:
        line = json.dumps(payload, separators=(",", ":"))
        return asyncio.run(self.daemon.handle_line(line))

    @property
    def aliases(self) -> BoundedMemo:
        return self.daemon._aliases

    @property
    def alias_served(self) -> int:
        return self.daemon.stats()["counters"]["alias_served"]

    def close(self) -> None:
        self.daemon.close()


@pytest.fixture
def served():
    daemon = _Daemon()
    try:
        yield daemon
    finally:
        daemon.close()


@pytest.fixture
def decodes(monkeypatch):
    """Names of the programs the daemon decoded from the wire."""
    calls = []
    original = stream.program_from_wire

    def counting(data):
        calls.append(data.get("name"))
        return original(data)

    monkeypatch.setattr(stream, "program_from_wire", counting)
    return calls


class TestDaemonAlias:
    def test_repeat_hit_does_not_decode(self, served, decodes):
        program = _program(520, "repeat")
        first = served.send(solve_request(program, request_id=1))
        assert first["ok"] and not first["from_cache"]
        assert decodes == ["repeat"]
        again = served.send(solve_request(program, request_id=2))
        assert again["ok"] and again["from_cache"]
        assert decodes == ["repeat"]
        assert served.alias_served == 1
        assert again["id"] == 2
        assert again["result"] == first["result"]
        assert served.daemon.stats()["counters"]["cache_served"] == 1

    def test_renamed_twin_takes_canonical_path_then_alias(self, served, decodes):
        program = _program(521, "original")
        twin = _twin(program, "twin")
        served.send(solve_request(program))
        first_twin = served.send(solve_request(twin))
        assert first_twin["from_cache"]
        assert decodes == ["original", "twin"]
        assert served.alias_served == 0
        second_twin = served.send(solve_request(twin))
        assert second_twin["from_cache"]
        assert decodes == ["original", "twin"]
        assert served.alias_served == 1
        assert second_twin["result"]["program"] == "twin"
        assert second_twin["result"] == first_twin["result"]

    def test_id_and_trace_share_an_alias(self, served, decodes):
        program = _program(522, "traced")
        served.send(solve_request(program, request_id="a"))
        traced = served.send(solve_request(program, request_id="b", trace=True))
        assert traced["from_cache"] and traced["id"] == "b"
        assert decodes == ["traced"]
        assert len(served.aliases) == 1
        phases = [child.name for child in span_from_dict(traced["trace"]).children]
        assert phases == ["alias", "cache_lookup", "encode"]

    def test_evaluate_fields_key_distinct_aliases(self, served, decodes):
        program = _program(523, "priced")
        variants = [
            evaluate_request(program, cost_model="analytic"),
            evaluate_request(program, cost_model="weighted"),
            evaluate_request(program, cost_model="simulated", sim_cap=100),
            evaluate_request(program, cost_model="simulated", sim_cap=200),
            evaluate_request(
                program, cost_model="analytic", layouts={"Q1": row_major(2), "Q2": row_major(2)}
            ),
            evaluate_request(
                program,
                cost_model="analytic",
                layouts={"Q1": column_major(2), "Q2": column_major(2)},
            ),
        ]
        answers = [served.send(variant) for variant in variants]
        assert all(answer["ok"] for answer in answers)
        assert len(decodes) == len(variants)
        assert len(served.aliases) == len(variants)
        assert served.alias_served == 0
        # Each variant's repeat hits its own alias and its own answer.
        for variant, answer in zip(variants, answers):
            again = served.send(variant)
            assert again["from_cache"]
            assert again["result"] == answer["result"]
        assert len(decodes) == len(variants)
        assert served.alias_served == len(variants)

    def test_malformed_payload_is_never_aliased(self, served, decodes):
        request = solve_request(_program(524, "broken"))
        request["program"]["nests"][0]["body"][0][0] = "Ghost"
        for _ in range(3):
            response = served.send(request)
            assert response["ok"] is False
            assert response["error"].startswith("malformed program payload: ")
        assert len(decodes) == 3
        assert len(served.aliases) == 0
        assert served.daemon.stats()["counters"]["errors"] == 3

    def test_unencodable_payload_takes_the_full_path(self, served, decodes):
        payload = solve_request(_program(525, "odd"))
        payload["note"] = object()  # marshal cannot write it
        for _ in range(2):
            response = asyncio.run(served.daemon.handle_request(dict(payload)))
            assert response["ok"]
        assert len(decodes) == 2
        assert len(served.aliases) == 0

    def test_evicted_result_falls_through_to_dispatch(self, decodes):
        daemon = _Daemon(cache_capacity=1)
        try:
            program = _program(526, "evicted")
            first = daemon.send(solve_request(program))
            daemon.send(solve_request(_program(527, "evictor")))
            again = daemon.send(solve_request(program))
        finally:
            daemon.close()
        assert again["ok"] and not again["from_cache"]
        assert decodes == ["evicted", "evictor", "evicted"]
        assert daemon.alias_served == 0
        assert _answer(again) == _answer(first)

    def test_expired_result_falls_through_to_dispatch(self, decodes):
        daemon = _Daemon(ttl_seconds=0.2)
        try:
            program = _program(528, "expired")
            first = daemon.send(solve_request(program))
            time.sleep(0.3)
            again = daemon.send(solve_request(program))
            stats = daemon.daemon.stats()
        finally:
            daemon.close()
        assert again["ok"] and not again["from_cache"]
        assert decodes == ["expired", "expired"]
        assert stats["counters"]["alias_served"] == 0
        assert stats["cache"]["expirations"] == 1
        assert stats["cache"]["misses"] == 2  # the alias probe counts none
        assert _answer(again) == _answer(first)

    def test_alias_map_is_bounded_by_cache_capacity(self):
        daemon = _Daemon(shards=2, cache_capacity=1)
        try:
            for rows in range(530, 536):
                assert daemon.send(solve_request(_program(rows, f"p{rows}")))["ok"]
                assert len(daemon.aliases) <= 2
        finally:
            daemon.close()
        assert len(daemon.aliases) == 2


class TestRoutingKey:
    def test_matches_request_fingerprint_and_skips_repeat_decodes(self, monkeypatch):
        calls = []
        original = fingerprint_module.program_from_wire

        def counting(data):
            calls.append(data)
            return original(data)

        monkeypatch.setattr(fingerprint_module, "program_from_wire", counting)
        program = _program(540, "routed")
        aliases = BoundedMemo(8)
        for request_id in (1, 2, 3):
            key = routing_key(solve_request(program, request_id), None, aliases)
            assert key == request_fingerprint(program)
        assert len(calls) == 1

    def test_non_program_kinds(self):
        aliases = BoundedMemo(8)
        lookup = cache_lookup_request("f" * 32, "token")
        assert routing_key(lookup, None, aliases) == "f" * 32
        assert routing_key({"kind": "ping"}, None, aliases) is None
        assert len(aliases) == 0

    def test_malformed_program_raises_every_time(self):
        aliases = BoundedMemo(8)
        request = solve_request(_program(541))
        request["program"]["arrays"] = [["A"]]
        for _ in range(2):
            with pytest.raises(ProtocolError, match="malformed program"):
                routing_key(request, None, aliases)
        assert len(aliases) == 0

    def test_digest_ignores_id_and_trace_but_not_key_order(self):
        payload = solve_request(_program(542), request_id=1)
        traced = dict(payload, id=2, trace=True)
        assert payload_digest(payload) == payload_digest(traced)
        reordered = dict(reversed(list(payload.items())))
        assert payload_digest(payload) != payload_digest(reordered)
        assert payload_digest({"kind": "solve", "program": object()}) is None
