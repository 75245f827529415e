"""Answer checks and the exact quantities read off served answers."""

from __future__ import annotations

import json

from repro.eval.analytic import AnalyticCostModel
from repro.ir.program import Program
from repro.layout.layout import row_major
from repro.opt.network_builder import build_layout_network
from repro.service.stream import layouts_from_wire

from e2ebench.replay import OPTIONS


def _strip_timing(value):
    """Drop every ``*seconds`` field: re-measured, never part of an answer."""
    if isinstance(value, dict):
        return {
            key: _strip_timing(item)
            for key, item in value.items()
            if not key.endswith("seconds")
        }
    if isinstance(value, list):
        return [_strip_timing(item) for item in value]
    return value


def answer(response: dict) -> str:
    """The part of a response two servers must agree on, byte for byte.

    Everything but the request id, the serving tier (``from_cache``),
    the requester's program name and re-measured ``*seconds`` fields.
    Key order is kept, so reordered layouts count as a difference.
    """
    result = dict(response.get("result") or {})
    result.pop("program", None)
    return json.dumps(
        {
            "ok": response.get("ok"),
            "kind": response.get("kind"),
            "error": response.get("error"),
            "result": _strip_timing(result),
        },
        separators=(",", ":"),
    )


def answer_of_line(line: bytes) -> str:
    """:func:`answer` of a raw response line (a marker when not JSON)."""
    try:
        return answer(json.loads(line))
    except ValueError:
        return f"invalid response line {line[:200]!r}"


class AnswerFacts:
    """Independent checks and exact figures for served answers.

    Networks and analytic costs are computed once per program name in
    this process, independently of the server that answered.
    """

    def __init__(self) -> None:
        self._networks: dict[str, object] = {}
        self._costs: dict[tuple[str, str], float] = {}
        self._model = AnalyticCostModel()

    def _network(self, program: Program):
        network = self._networks.get(program.name)
        if network is None:
            network = build_layout_network(program, OPTIONS).network
            self._networks[program.name] = network
        return network

    def solution_ok(self, program: Program, result: dict) -> bool:
        """An exact solve answer satisfies a freshly built network."""
        if not result.get("exact"):
            return True
        layouts = layouts_from_wire(result["layouts"])
        network = self._network(program)
        return network.is_solution(
            {name: layouts.get(name) for name in network.variables}
        )

    def layout_cost(self, program: Program, result: dict) -> float:
        """Analytic estimated misses of the served layouts."""
        key = (program.name, json.dumps(result["layouts"], sort_keys=True))
        cost = self._costs.get(key)
        if cost is None:
            layouts = layouts_from_wire(result["layouts"])
            cost = self._model.score(program, layouts).value
            self._costs[key] = cost
        return cost


def effort(result: dict) -> tuple[int, int]:
    """Search nodes and consistency checks in a solve answer's outcome table."""
    nodes = checks = 0
    for outcome in result.get("outcomes", ()):
        stats = outcome.get("stats") or {}
        nodes += int(stats.get("nodes", 0))
        checks += int(stats.get("consistency_checks", 0))
    return nodes, checks


def complete_layouts(program: Program, assignment: dict) -> dict:
    """An assignment plus row-major layouts for arrays it leaves out."""
    return {
        decl.name: assignment.get(decl.name) or row_major(decl.rank)
        for decl in program.arrays
    }
