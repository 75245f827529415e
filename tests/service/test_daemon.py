"""Resident daemon: streaming protocol, warm cache, backpressure."""

import asyncio
import json
import threading

import pytest

from repro.ir.parser import parse_program
from repro.service.batch import run_batch
from repro.service.cache import ShardedResultCache
from repro.service.daemon import DaemonConfig, SolverDaemon
from repro.service.evaluate import EvaluationRequest, run_evaluation_batch
from repro.service.portfolio import PortfolioConfig, PortfolioResult
from repro.service.routing import wait_until_serving
from repro.service.stream import DaemonClient, evaluate_request, solve_request

#: Small, quick-to-solve programs (distinct fingerprints).
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


def _program(rows: int, name: str = "program"):
    return parse_program(_TEMPLATE.format(rows=rows), name=name)


def _fast_config() -> PortfolioConfig:
    """Sequential single scheme: deterministic and spawn-free."""
    return PortfolioConfig(schemes=("enhanced",), parallel=False)


class _DaemonHarness:
    """A daemon served from a background thread on a tmp unix socket."""

    def __init__(self, tmp_path, daemon_config=None, cache=None):
        self.daemon = SolverDaemon(
            config=_fast_config(),
            daemon_config=(
                daemon_config
                if daemon_config is not None
                else DaemonConfig(workers=1, shards=2, max_inflight=8)
            ),
            cache=cache,
        )
        self.socket_path = str(tmp_path / "daemon.sock")
        self.thread = threading.Thread(
            target=lambda: asyncio.run(self.daemon.serve_unix(self.socket_path)),
            daemon=True,
        )
        self.thread.start()
        wait_until_serving(self.socket_path)

    def client(self) -> DaemonClient:
        return DaemonClient(self.socket_path, timeout=120.0)

    def stop(self) -> None:
        if self.thread.is_alive():
            try:
                with self.client() as client:
                    client.shutdown()
            except OSError:  # pragma: no cover - already gone
                pass
        self.thread.join(timeout=15)
        assert not self.thread.is_alive()


@pytest.fixture
def harness(tmp_path):
    harness = _DaemonHarness(tmp_path)
    try:
        yield harness
    finally:
        harness.stop()


class TestProtocol:
    def test_ping_reports_configuration(self, harness):
        with harness.client() as client:
            hello = client.ping()
        assert hello["ok"]
        assert hello["result"]["schemes"] == ["enhanced"]
        assert hello["result"]["shards"] == 2

    def test_malformed_line_gets_error_response_and_serving_continues(
        self, harness
    ):
        with harness.client() as client:
            sock, reader = client._connection(client.addresses[0])
            sock.sendall(b"{not json}\n")
            response = client._read_response(reader)
            assert response["ok"] is False
            assert "JSON" in response["error"]
            # The connection is still serviceable afterwards.
            assert client.ping()["ok"]

    def test_unknown_kind_echoes_request_id(self, harness):
        with harness.client() as client:
            sock, reader = client._connection(client.addresses[0])
            sock.sendall(
                json.dumps({"id": 41, "kind": "solv"}).encode() + b"\n"
            )
            response = client._read_response(reader)
        assert response == {
            "id": 41,
            "ok": False,
            "error": response["error"],
        }
        assert "unknown request kind" in response["error"]

    def test_invalid_evaluate_fields_are_protocol_errors(self, harness):
        program = _program(520)
        with harness.client() as client:
            bad_model = client.request(
                evaluate_request(program, cost_model="weighted", sim_cap=10)
            )
            bad_hierarchy = client.request(
                {
                    "kind": "evaluate",
                    "program": solve_request(program)["program"],
                    "hierarchy": {"warp_drive": 9},
                }
            )
        assert bad_model["ok"] is False
        assert bad_hierarchy["ok"] is False
        assert "warp_drive" in bad_hierarchy["error"]


def _undeclared_array(wire: dict) -> None:
    wire["nests"][0]["body"][0][0] = "Ghost"


def _rank_mismatch(wire: dict) -> None:
    wire["nests"][0]["body"][0][1].pop()


def _stray_variable(wire: dict) -> None:
    wire["nests"][0]["body"][0][1][0] = [[["k", 1]], 0]


def _int_loop_index(wire: dict) -> None:
    wire["nests"][0]["loops"][0][0] = 3


def _fractional_coefficient(wire: dict) -> None:
    wire["nests"][0]["body"][0][1][0][0][0][1] = 1.5


def _fractional_weight(wire: dict) -> None:
    wire["nests"][0]["weight"] = 2.5


def _no_arrays_no_nests(wire: dict) -> None:
    wire["arrays"] = []
    wire["nests"] = []


class TestWireValidation:
    """Structurally invalid programs are named protocol errors at the
    wire boundary, never a bare KeyError/ValueError from the optimizer."""

    @pytest.mark.parametrize("kind", ["solve", "evaluate"])
    @pytest.mark.parametrize(
        "mutate, reason",
        [
            (_undeclared_array, "reference to undeclared array Ghost"),
            (_rank_mismatch, "Q2 is 2-dimensional but referenced with 1 subscripts"),
            (_stray_variable, "uses unknown variables ['k']"),
            (_int_loop_index, "name 3 is not a string"),
            (_fractional_coefficient, "1.5 is not an integer"),
            (_fractional_weight, "2.5 is not an integer"),
            (_no_arrays_no_nests, "program program has no loop nests"),
        ],
    )
    def test_bad_program_is_a_protocol_error(self, harness, kind, mutate, reason):
        program = _program(520)
        request = (
            solve_request(program)
            if kind == "solve"
            else evaluate_request(program, cost_model="analytic")
        )
        mutate(request["program"])
        with harness.client() as client:
            response = client.request(request)
            stats = client.stats()
            assert client.solve(program)["ok"]  # serving continues
        assert response["ok"] is False
        assert response["error"].startswith("malformed program payload: ")
        assert reason in response["error"]
        assert stats["counters"]["errors"] == 1


class TestServing:
    def test_second_pass_of_mixed_batch_is_cache_served(self, harness):
        """The CI smoke invariant: 10 mixed requests, streamed twice,
        second pass >= 50% served from the daemon's cache."""
        programs = [_program(520 + 2 * index) for index in range(5)]
        requests = [solve_request(program) for program in programs] + [
            evaluate_request(program, cost_model="analytic")
            for program in programs
        ]
        with harness.client() as client:
            first = client.request_many(requests)
            second = client.request_many(requests)
        assert all(response["ok"] for response in first)
        assert all(response["ok"] for response in second)
        assert sum(response["from_cache"] for response in first) == 0
        cached = sum(response["from_cache"] for response in second)
        assert cached >= len(requests) / 2
        # Solve payloads are byte-identical across passes.
        for before, after in zip(first[:5], second[:5]):
            assert json.dumps(before["result"], sort_keys=True) == json.dumps(
                after["result"], sort_keys=True
            )

    def test_renamed_twin_is_served_from_cache_under_its_own_name(self, harness):
        with harness.client() as client:
            original = client.solve(_program(520, name="original"))
            twin = client.solve(_program(520, name="twin"))
        assert not original["from_cache"]
        assert twin["from_cache"]
        assert twin["result"]["program"] == "twin"

    def test_concurrent_identical_misses_are_deduplicated(self, harness):
        program = _program(600)
        with harness.client() as client:
            responses = client.request_many(
                [solve_request(program) for _ in range(4)]
            )
            stats = client.stats()
        assert all(response["ok"] for response in responses)
        payloads = {
            json.dumps(response["result"], sort_keys=True)
            for response in responses
        }
        assert len(payloads) == 1
        assert stats["counters"]["deduplicated"] >= 1
        # Only the dedup owner stores: twins must not inflate the
        # store counter (4 identical requests -> exactly 1 store).
        assert stats["cache"]["stores"] == 1

    def test_stats_snapshot_shape(self, harness):
        with harness.client() as client:
            client.solve(_program(520))
            stats = client.stats()
        assert stats["counters"]["solve"] == 1
        assert stats["cache"]["entries"] == 1
        assert len(stats["cache"]["shards"]) == 2
        assert stats["uptime_seconds"] > 0


class TestShutdownSemantics:
    def test_shutdown_unblocks_an_idle_reader(self):
        """A stdio-style daemon whose client keeps the stream open (no
        EOF, no further lines) must still exit on a shutdown request."""
        daemon = SolverDaemon(
            config=_fast_config(),
            daemon_config=DaemonConfig(workers=1, shards=1),
        )
        written: list[bytes] = []

        async def scenario():
            queue: asyncio.Queue = asyncio.Queue()  # never EOFs

            async def write_line(data: bytes) -> None:
                written.append(data)

            server = asyncio.create_task(
                daemon._serve_stream(queue.get, write_line)
            )
            await queue.put(
                json.dumps({"id": 1, "kind": "shutdown"}).encode() + b"\n"
            )
            await asyncio.wait_for(server, timeout=10.0)

        try:
            asyncio.run(scenario())
        finally:
            daemon.close()
        responses = [json.loads(line) for line in written]
        assert responses[0]["kind"] == "shutdown"
        assert responses[0]["ok"]

    def test_invalid_ttl_rejected_at_config_time(self):
        with pytest.raises(ValueError, match="ttl_seconds"):
            DaemonConfig(ttl_seconds=0.0)
        with pytest.raises(ValueError, match="cache_capacity"):
            DaemonConfig(cache_capacity=0)


class TestBackpressure:
    def test_max_inflight_one_still_serves_a_pipelined_batch(self, tmp_path):
        harness = _DaemonHarness(
            tmp_path,
            daemon_config=DaemonConfig(workers=1, shards=2, max_inflight=1),
        )
        try:
            programs = [_program(520 + 2 * index) for index in range(6)]
            with harness.client() as client:
                responses = client.solve_many(programs)
            assert all(response["ok"] for response in responses)
            assert [r["result"]["program"] for r in responses] == [
                p.name for p in programs
            ]
        finally:
            harness.stop()


class TestThinClient:
    def test_run_batch_through_daemon_matches_local_results(
        self, harness, tmp_path
    ):
        programs = [_program(520 + 2 * index) for index in range(3)]
        local = run_batch(programs, config=_fast_config())
        with harness.client() as client:
            remote = run_batch(programs, client=client)
        assert remote.total == local.total
        for mine, theirs in zip(local.results, remote.results):
            assert mine.layouts == theirs.layouts
            assert mine.winner == theirs.winner
            assert mine.exact and theirs.exact
        # Second thin-client pass is served from the daemon's cache.
        with harness.client() as client:
            warm = run_batch(programs, client=client)
        assert warm.cached_fraction == 1.0

    def test_run_evaluation_batch_through_daemon(self, harness):
        programs = [_program(520), _program(524)]
        requests = [
            EvaluationRequest(program=program, cost_model="analytic")
            for program in programs
        ]
        local = run_evaluation_batch(requests, config=_fast_config())
        with harness.client() as client:
            remote = run_evaluation_batch(requests, client=client)
        assert [result.value for result in remote] == [
            result.value for result in local
        ]
        assert all(result.exact for result in remote)

    def test_daemon_error_raises_runtime_error(self, harness):
        class _BrokenClient:
            def solve_many(self, programs):
                return [{"ok": False, "error": "boom"} for _ in programs]

        with pytest.raises(RuntimeError, match="boom"):
            run_batch([_program(520)], client=_BrokenClient())


class TestPersistence:
    def test_daemon_restart_serves_from_persisted_shards(self, tmp_path):
        directory = str(tmp_path / "cache.d")
        program = _program(520)

        first = _DaemonHarness(
            tmp_path, cache=ShardedResultCache(shards=2, directory=directory)
        )
        try:
            with first.client() as client:
                cold = client.solve(program)
            assert not cold["from_cache"]
        finally:
            first.stop()

        second = _DaemonHarness(
            tmp_path, cache=ShardedResultCache(shards=2, directory=directory)
        )
        try:
            with second.client() as client:
                warm = client.solve(program)
            assert warm["from_cache"]
            assert json.dumps(warm["result"], sort_keys=True) == json.dumps(
                cold["result"], sort_keys=True
            )
        finally:
            second.stop()

    def test_handle_request_directly(self):
        """The core dispatcher is usable without any transport."""
        daemon = SolverDaemon(
            config=_fast_config(),
            daemon_config=DaemonConfig(workers=1, shards=1),
        )
        try:
            response = asyncio.run(
                daemon.handle_request(solve_request(_program(520), request_id=9))
            )
        finally:
            daemon.close()
        assert response["ok"]
        assert response["id"] == 9
        result = PortfolioResult.from_dict(response["result"])
        assert result.exact
