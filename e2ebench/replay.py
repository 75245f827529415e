"""In-process replay of daemon request lines, untraced or traced.

The replay serves each line through the program's public calls in the
daemon's order -- decode, wire-to-program, fingerprint, cache lookup,
then on a miss the worker's portfolio or evaluation call and a cache
store, then encode -- with worker state built as a daemon pool worker
builds it (one sequential portfolio and one evaluation service sharing
a network memo).  Untraced, it is the in-process reference every daemon
answer is compared against.  Traced, the benchmark wraps each call
into a layer's public function in its own spans.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import time

import repro.opt.network_builder as network_builder
import repro.service.evaluate as evaluate_module
import repro.service.portfolio as portfolio_module
from repro.bench import benchmark_build_options
from repro.csp.backjumping import ConflictDirectedSolver
from repro.csp.backtracking import BacktrackingSolver
from repro.csp.enhanced import EnhancedSolver
from repro.csp.forward_checking import ForwardCheckingSolver
from repro.csp.minconflicts import MinConflictsSolver
from repro.csp.network import ConstraintNetwork
from repro.csp.vectorized import support_cells
from repro.csp.weighted import BranchAndBoundSolver
from repro.eval.analytic import AnalyticCostModel
from repro.eval import simulated as simulated_module
from repro.eval.simulated import SimulatedCostModel
from repro.eval.weighted import WeightedCostModel
from repro.ir.program import Program
from repro.layout import candidates as candidates_module
from repro.layout.mapping import LayoutMapping
from repro.opt.passes import solve as solve_pass
from repro.service import fingerprint as fingerprint_module
from repro.service.cache import ShardedResultCache
from repro.service.evaluate import EvaluationRequest, EvaluationService
from repro.service.fingerprint import request_fingerprint
from repro.service.portfolio import PortfolioConfig, PortfolioSolver
from repro.service.stream import (
    decode_request,
    encode_response,
    error_response,
    program_from_wire,
)

from e2ebench.spans import Tracer, no_span, span_call, wrapped
from e2ebench.workloads import PORTFOLIO

OPTIONS = benchmark_build_options()
#: The daemon's portfolio as its CLI builds it (seed 0, 120 s deadline).
CONFIG = PortfolioConfig.parse(
    ",".join(PORTFOLIO), seed=0, deadline_seconds=120.0, parallel=False
)
#: The daemon's defaults for the result cache.
CACHE_SHARDS = 4
CACHE_CAPACITY = 1024

class Replayer:
    """A daemon's serving state, in this process."""

    def __init__(self) -> None:
        memo: dict = {}
        self.cache = ShardedResultCache(shards=CACHE_SHARDS, capacity=CACHE_CAPACITY)
        self.solver = PortfolioSolver(CONFIG, options=OPTIONS, network_cache=memo)
        self.evaluator = EvaluationService(
            config=CONFIG, options=OPTIONS, network_cache=memo
        )

    def serve(self, line: bytes, span=no_span) -> bytes:
        """Serve one request line; returns the response line.

        The response's ``seconds`` covers what the daemon's does: from
        after the line is parsed to before the response is encoded.
        """
        request_id = None
        try:
            with span("stream.decode"):
                payload = decode_request(line)
            start = time.perf_counter()
            request_id = payload.get("id")
            kind = payload["kind"]
            with span("stream.from_wire"):
                program = program_from_wire(payload["program"])
                if kind == "evaluate":
                    request = EvaluationRequest(
                        program=program,
                        cost_model=payload.get("cost_model", "simulated"),
                        max_iterations_per_nest=payload.get("sim_cap"),
                    )
            with span("fingerprint"):
                fingerprint = request_fingerprint(program, OPTIONS)
                token = CONFIG.token()
                if kind == "evaluate":
                    token = request.token(token)
            with span("cache.get"):
                cached = self.cache.get(fingerprint, token)
            if cached is None:
                with span("dispatch"):
                    if kind == "solve":
                        outcome = self.solver.optimize(program, fingerprint=fingerprint)
                    else:
                        outcome = self.evaluator.evaluate(request)
                    data = outcome.to_dict()
                if outcome.exact:
                    with span("cache.put"):
                        self.cache.put(fingerprint, token, data)
            else:
                data = cached
            with span("stream.encode"):
                result = dict(data)
                result["program"] = program.name
                response = {
                    "id": request_id,
                    "ok": True,
                    "kind": kind,
                    "from_cache": cached is not None,
                    "result": result,
                    "seconds": time.perf_counter() - start,
                }
                encoded = encode_response(response)
            # Freeing the decoded request is part of serving it; keep it
            # inside a span rather than in whichever frame exits last.
            with span("stream.release"):
                payload = program = request = data = outcome = None
                result = response = None
            return encoded
        except Exception as exc:  # an answer, like the daemon's error line
            return encode_response(error_response(request_id, repr(exc)))

    def serve_all(self, lines: list[bytes]) -> list[bytes]:
        return [self.serve(line) for line in lines]

    def serve_traced(self, lines: list[bytes], tracer: Tracer) -> list[bytes]:
        responses = []
        for line in lines:
            with tracer.span("request"):
                responses.append(self.serve(line, tracer.span))
        return responses


# -- what the traced replay wraps ----------------------------------------


def _count(result, args) -> dict:
    return {"count": len(result)}


def _network_shape(layout_network, args) -> dict:
    network = layout_network.network
    return {
        "variables": len(network.variables),
        "domain_values": network.total_domain_size,
        "constraints": len(network.constraints),
        "support_cells": support_cells(layout_network.kernel()),
    }


def _effort(result, args) -> dict:
    stats = result.stats
    return {"nodes": stats.nodes, "checks": stats.consistency_checks}


def _accesses(cost, args) -> dict:
    return {"accesses": int(cost.details.get("memory_accesses", 0))}


def _repair(tracer: Tracer, original):
    def repair(network, assignment, program):
        before = dict(assignment)
        with tracer.span("repair") as record:
            original(network, assignment, program)
        record.attrs["changed"] = sum(
            before[name] != assignment[name] for name in before
        )

    return repair


#: Layer spans of the traced replay: (owner the caller looks the name up
#: in, attribute, wrap).  Each is a public entry point of one layer.
LAYER_TARGETS = (
    (PortfolioSolver, "optimize", span_call("portfolio")),
    (EvaluationService, "evaluate", span_call("evaluate")),
    (portfolio_module, "build_layout_network", span_call("build", _network_shape)),
    (network_builder, "candidate_layouts_for_array", span_call("candidates", _count)),
    (network_builder, "nest_layout_combos", span_call("candidates", _count)),
    (network_builder, "compile_network", span_call("build.compile")),
    (BacktrackingSolver, "solve", span_call("solve.base", _effort)),
    (EnhancedSolver, "solve", span_call("solve.enhanced", _effort)),
    (ConflictDirectedSolver, "solve", span_call("solve.cbj", _effort)),
    (ForwardCheckingSolver, "solve", span_call("solve.forward-checking", _effort)),
    (MinConflictsSolver, "solve", span_call("solve.min-conflicts", _effort)),
    (BranchAndBoundSolver, "solve_compiled", span_call("solve.weighted", _effort)),
    (portfolio_module, "repair_inflation", _repair),
    (evaluate_module, "select_transforms", span_call("transform")),
    (SimulatedCostModel, "score", span_call("eval.score", _accesses)),
    (AnalyticCostModel, "score", span_call("eval.score")),
    (WeightedCostModel, "score", span_call("eval.score")),
)

#: Public sub-calls of a layer, wrapped only when that layer takes more
#: than SPLIT_SHARE of request time, in a second traced replay.
SUB_TARGETS = {
    "candidates": (
        (candidates_module, "legal_transforms", span_call("candidates:legal_transforms")),
        (candidates_module, "access_delta", span_call("candidates:access_delta")),
        (candidates_module, "layout_for_deltas", span_call("candidates:layout_for_deltas")),
    ),
    "repair": (
        (LayoutMapping, "create", span_call("repair:inflation")),
        (solve_pass, "access_delta", span_call("repair:access_delta")),
        (Program, "nests_referencing", span_call("program.nests_referencing")),
        (ConstraintNetwork, "check_pair", span_call("repair:check_pair")),
    ),
    "fingerprint": (
        (fingerprint_module, "program_fingerprint", span_call("fingerprint:program")),
        (fingerprint_module, "options_token", span_call("fingerprint:options")),
    ),
    "eval": ((simulated_module, "simulate_program", span_call("eval:simulate")),),
}
SPLIT_SHARE = 0.25


def traced_replay(lines: list[bytes], fill: list[bytes], sub_layers=()) -> tuple:
    """Replay ``lines`` (after an unrecorded ``fill``) under layer spans.

    Returns ``(responses, tracer)``; ``sub_layers`` adds the sub-call
    spans of those layers.
    """
    replayer = Replayer()
    replayer.serve_all(fill)
    tracer = Tracer()
    targets = list(LAYER_TARGETS)
    for layer in sub_layers:
        targets.extend(SUB_TARGETS.get(layer, ()))
    with wrapped(tracer, targets):
        responses = replayer.serve_traced(lines, tracer)
    return responses, tracer


def untraced_replay(lines: list[bytes], fill: list[bytes]) -> tuple[list[bytes], float]:
    """Replay without spans; returns responses and seconds for ``lines``."""
    replayer = Replayer()
    replayer.serve_all(fill)
    start = time.perf_counter()
    responses = replayer.serve_all(lines)
    return responses, time.perf_counter() - start


def _replay_job(lines, fill, traced, sub_layers):
    if traced:
        responses, tracer = traced_replay(lines, fill, sub_layers)
        return responses, tracer.spans
    return untraced_replay(lines, fill)


def replay_in_fresh_process(lines, fill, traced: bool, sub_layers=()):
    """One replay in a new interpreter (``python -m e2ebench.replay``).

    The program memoizes pure functions at module level; a replay in a
    process that already served the same programs would find them warm,
    while every daemon pool worker starts cold.  The job goes in on
    stdin and the result comes back on stdout, both pickled by this
    package.  Returns what :func:`untraced_replay` returns, or
    ``(responses, spans)`` traced.
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([root, os.path.join(root, "src")])
    job = pickle.dumps((list(lines), list(fill), traced, tuple(sub_layers)))
    done = subprocess.run(
        [sys.executable, "-m", "e2ebench.replay"], input=job, cwd=root, env=env,
        stdout=subprocess.PIPE, check=True, timeout=170,
    )
    return pickle.loads(done.stdout)


if __name__ == "__main__":
    result = _replay_job(*pickle.load(sys.stdin.buffer))
    sys.stdout.buffer.write(pickle.dumps(result))
