"""Wire-protocol round trips and request-line validation."""

import json

import pytest

from repro.bench import build_benchmark
from repro.ir.parser import parse_program
from repro.layout.layout import column_major, row_major
from repro.service.stream import (
    ProtocolError,
    decode_request,
    encode_response,
    error_response,
    evaluate_request,
    layouts_from_wire,
    layouts_to_wire,
    program_from_wire,
    program_to_wire,
    solve_request,
)

FIGURE2 = """
array Q1[520][260]
array Q2[520][260]
nest fig2 {
    for i1 = 0 .. 259 {
        for i2 = 0 .. 259 {
            Q1[i1+i2][i2] = Q2[i1+i2][i1]
        }
    }
}
"""


class TestProgramWire:
    @pytest.mark.parametrize("name", ["MxM", "Radar"])
    def test_benchmark_roundtrip_is_exact(self, name):
        program = build_benchmark(name)
        clone = program_from_wire(program_to_wire(program))
        assert clone == program

    def test_parsed_program_roundtrip_is_exact(self):
        program = parse_program(FIGURE2, name="fig2-program")
        clone = program_from_wire(program_to_wire(program))
        assert clone == program
        assert clone.name == "fig2-program"

    def test_wire_form_is_json_encodable(self):
        wire = program_to_wire(build_benchmark("MxM"))
        clone = program_from_wire(json.loads(json.dumps(wire)))
        assert clone == build_benchmark("MxM")

    def test_malformed_program_raises_protocol_error(self):
        with pytest.raises(ProtocolError, match="malformed program"):
            program_from_wire({"name": "x", "arrays": [["A"]], "nests": []})

    def test_invalid_ir_raises_protocol_error(self):
        """IR-level validation failures surface as protocol errors."""
        wire = program_to_wire(parse_program(FIGURE2))
        wire["arrays"][0][1] = [-1, 4]  # non-positive extent
        with pytest.raises(ProtocolError):
            program_from_wire(wire)


    def test_structural_errors_are_named(self):
        for mutate, reason in (
            (lambda w: w["nests"][0]["body"][0].__setitem__(0, "Ghost"), "undeclared"),
            (lambda w: w["nests"][0]["body"][0][1].pop(), "referenced with 1"),
            (
                lambda w: w["nests"][0]["body"][0][1].__setitem__(0, [[["k", 1]], 0]),
                "unknown variables",
            ),
            (lambda w: w["nests"][0]["loops"][0].__setitem__(0, 3), "name 3 is not"),
            (lambda w: w["arrays"][0].__setitem__(0, 7), "name 7 is not"),
            (lambda w: w.__setitem__("name", None), "name None is not"),
            (
                lambda w: w["nests"][0]["body"][0][1][0][0][0].__setitem__(1, 1.5),
                "1.5 is not an integer",
            ),
            (lambda w: w["nests"][0].__setitem__("weight", 2.5), "2.5 is not"),
            (lambda w: w["arrays"][0][1].__setitem__(0, "520"), "'520' is not"),
            (
                lambda w: w["nests"][0]["loops"][0].__setitem__(2, float("inf")),
                "infinity",
            ),
            (lambda w: w.__setitem__("nests", []), "has no loop nests"),
        ):
            wire = program_to_wire(parse_program(FIGURE2))
            mutate(wire)
            with pytest.raises(ProtocolError, match=reason):
                program_from_wire(wire)

    def test_integral_floats_decode_as_integers(self):
        program = parse_program(FIGURE2)
        wire = program_to_wire(program)
        wire["nests"][0]["weight"] = 1.0
        wire["nests"][0]["loops"][0][2] = 259.0
        assert program_from_wire(wire) == program

    def test_extents_are_not_checked_at_the_boundary(self):
        """Only structural rules apply on the wire: a subscript running
        past its array's extent decodes (and is served) as before."""
        wire = program_to_wire(parse_program(FIGURE2))
        wire["arrays"][0][1] = [4, 4]
        assert program_from_wire(wire).arrays[0].extents == (4, 4)


class TestLayoutsWire:
    def test_roundtrip(self):
        layouts = {"A": row_major(2), "B": column_major(3)}
        assert layouts_from_wire(layouts_to_wire(layouts)) == layouts

    def test_malformed_layouts_raise(self):
        with pytest.raises(ProtocolError):
            layouts_from_wire({"A": {"rows": "nope"}})


class TestRequestLines:
    def test_solve_request_decodes(self):
        line = encode_response(solve_request(parse_program(FIGURE2), request_id=7))
        payload = decode_request(line)
        assert payload["kind"] == "solve"
        assert payload["id"] == 7

    def test_evaluate_request_carries_fields(self):
        payload = evaluate_request(
            parse_program(FIGURE2),
            cost_model="analytic",
            hierarchy={"l1_size": 16384},
            sim_cap=1000,
        )
        decoded = decode_request(encode_response(payload))
        assert decoded["cost_model"] == "analytic"
        assert decoded["hierarchy"] == {"l1_size": 16384}
        assert decoded["sim_cap"] == 1000

    def test_non_json_line_rejected(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            decode_request("{oops")

    def test_non_object_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_request("[1, 2]")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ProtocolError, match="unknown request kind"):
            decode_request(json.dumps({"kind": "solv"}))

    def test_solve_without_program_rejected(self):
        with pytest.raises(ProtocolError, match="needs a 'program'"):
            decode_request(json.dumps({"kind": "solve"}))

    def test_error_response_shape(self):
        response = error_response(3, "boom")
        assert response == {"id": 3, "ok": False, "error": "boom"}


class TestClientIdAssignment:
    """request_many pairing rules (ids are the only response key)."""

    class _FakeClient:
        """A DaemonClient with the delivery layer stubbed out."""

        request_many = __import__(
            "repro.service.stream", fromlist=["DaemonClient"]
        ).DaemonClient.request_many

        def __init__(self):
            self._next_id = 0
            self._ring = None
            self._addresses = ["fake"]
            self.sent: list[dict] = []

        def _take_id(self):
            self._next_id += 1
            return self._next_id

        def _target_for(self, payload):
            return self._addresses[0]

        def _deliver(self, address, payloads, failover=True):
            self.sent.extend(payloads)
            return {p["id"]: {**p, "ok": True} for p in payloads}

    def test_duplicate_caller_ids_rejected(self):
        client = self._FakeClient()
        with pytest.raises(ProtocolError, match="duplicate request ids"):
            client.request_many(
                [{"id": 7, "kind": "ping"}, {"id": 7, "kind": "stats"}]
            )
        assert client.sent == []  # nothing went on the wire

    def test_auto_ids_skip_caller_supplied_ones(self):
        """A caller id equal to the next auto id must not collide."""
        client = self._FakeClient()
        responses = client.request_many(
            [{"id": 1, "kind": "ping"}, {"kind": "stats"}]
        )
        assert responses[0]["id"] == 1
        assert responses[1]["id"] != 1
        assert responses[0]["kind"] == "ping"
        assert responses[1]["kind"] == "stats"
