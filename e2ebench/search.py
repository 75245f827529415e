"""The ``search_hard`` workload: the CSP layer alone, in-process.

Each instance is solved by every scheme under a fixed node or step
budget and then enumerated (top-k).  It is the one workload where the
search kernel is nearly all of the time.
"""

from __future__ import annotations

import time

from repro.csp.backtracking import BacktrackingSolver
from repro.csp.compiled import compile_network, enumerate_solutions
from repro.csp.engine import JUMP_CONFLICT, EngineConfig, SearchEngine
from repro.csp.enhanced import EnhancedSolver
from repro.csp.forward_checking import ForwardCheckingSolver
from repro.csp.minconflicts import MinConflictsSolver
from repro.csp.vectorized import resolve_engine

from e2ebench.spans import no_span
from e2ebench.workloads import HardInstance, hard_instances, rebuild_network

#: Node budget of every systematic scheme.
NODE_BUDGET = 10_000
#: Min-conflicts step budget per restart, and restarts.
MC_STEPS = 2_000
MC_RESTARTS = 5
#: Solutions enumerated per instance, and the enumeration's node budget.
TOP_K = 16
ENUM_BUDGET = 20_000

SCHEMES = ("base", "enhanced", "cbj", "forward-checking", "min-conflicts")


def make_solver(scheme: str, engine: str = "auto"):
    """A fresh solver of ``scheme`` under the benchmark's fixed budget."""
    if scheme == "base":
        return BacktrackingSolver(seed=0, max_nodes=NODE_BUDGET, engine=engine)
    if scheme == "enhanced":
        return EnhancedSolver(seed=0, max_nodes=NODE_BUDGET, engine=engine)
    if scheme == "cbj":
        # ConflictDirectedSolver's own configuration, plus the budget.
        return SearchEngine(
            EngineConfig(
                variable_ordering=True,
                value_ordering=True,
                jump_mode=JUMP_CONFLICT,
                seed=0,
                max_nodes=NODE_BUDGET,
                engine=engine,
            )
        )
    if scheme == "forward-checking":
        return ForwardCheckingSolver(seed=0, max_nodes=NODE_BUDGET, engine=engine)
    if scheme == "min-conflicts":
        return MinConflictsSolver(
            seed=0, max_steps=MC_STEPS, max_restarts=MC_RESTARTS, engine=engine
        )
    raise ValueError(f"unknown scheme {scheme!r}")


def prepare(seed: int) -> tuple[list[HardInstance], list]:
    """Generate the instances and compile their kernels (the set-up)."""
    instances = hard_instances(seed)
    return instances, [compile_network(instance.network) for instance in instances]


def _verdict(result) -> str:
    if result.satisfiable:
        return "sat"
    return "unsat" if result.complete else "gave-up"


def solve_instance(kernel, engine: str = "auto", span=no_span) -> dict:
    """Every scheme plus the top-k enumeration on one compiled kernel.

    ``span(name)`` brackets each call into the CSP layer (the traced
    run passes the tracer's; by default nothing is recorded).
    """
    record = {}
    for scheme in SCHEMES:
        with span(f"solve.{scheme}") as spanned:
            result = make_solver(scheme, engine).solve(kernel)
        if spanned is not None:
            spanned.attrs.update(
                nodes=result.stats.nodes, checks=result.stats.consistency_checks
            )
        record[scheme] = {
            "verdict": _verdict(result),
            "nodes": result.stats.nodes,
            "checks": result.stats.consistency_checks,
            "assignment": dict(result.assignment) if result.assignment else None,
        }
    with span("enumerate"):
        solutions = enumerate_solutions(kernel, TOP_K, max_nodes=ENUM_BUDGET)
    record["enumerate"] = solutions
    return record


def comparable(record: dict) -> dict:
    """The part of an instance record that must repeat exactly."""
    return {
        scheme: {
            key: (sorted(value.items()) if key == "assignment" and value else value)
            for key, value in record[scheme].items()
        }
        for scheme in SCHEMES
    } | {"enumerate": [sorted(s.items()) for s in record["enumerate"]]}


def check_instance(instance: HardInstance, kernel, record: dict, fail) -> None:
    """Answer checks on one instance; ``fail(reason)`` marks the op failed.

    * forward checking on the plain bitset engine (the reference tier)
      reaches the same verdict with the same effort counts;
    * complete verdicts agree across schemes;
    * every found and enumerated assignment satisfies an independently
      built copy of the network, and enumerated solutions are distinct.
    """
    reference = make_solver("forward-checking", "bitset").solve(kernel)
    fc = record["forward-checking"]
    if (fc["verdict"], fc["nodes"], fc["checks"]) != (
        _verdict(reference), reference.stats.nodes, reference.stats.consistency_checks
    ):
        fail(f"{instance.name}: forward checking differs from its bitset reference")
    network = rebuild_network(instance)
    verdicts = {record[scheme]["verdict"] for scheme in SCHEMES}
    if {"sat", "unsat"} <= verdicts:
        fail(f"{instance.name}: schemes disagree on satisfiability")
    for scheme in SCHEMES:
        assignment = record[scheme]["assignment"]
        if assignment is not None and not network.is_solution(assignment):
            fail(f"{instance.name}: {scheme} answer is not a solution")
    solutions = record["enumerate"]
    if any(not network.is_solution(solution) for solution in solutions):
        fail(f"{instance.name}: enumerated assignment is not a solution")
    if len({tuple(sorted(s.items())) for s in solutions}) != len(solutions):
        fail(f"{instance.name}: enumeration repeats a solution")
    if "unsat" in verdicts and solutions:
        fail(f"{instance.name}: enumeration found solutions of an UNSAT network")
    if "sat" in verdicts and not solutions:
        fail(f"{instance.name}: enumeration missed a satisfiable network")


def resolved_engines(kernels) -> dict[str, int]:
    """How many instances each propagation engine serves under ``auto``."""
    engines: dict[str, int] = {}
    for kernel in kernels:
        engine = resolve_engine("auto", kernel)
        engines[engine] = engines.get(engine, 0) + 1
    return engines


def run_round(kernels, tracer=None) -> tuple[list[dict], list[float]]:
    """One pass over every instance; per-instance records and seconds.

    With a tracer, each instance is one request span.
    """
    records, seconds = [], []
    for kernel in kernels:
        start = time.perf_counter()
        if tracer is None:
            records.append(solve_instance(kernel))
        else:
            with tracer.span("request"):
                records.append(solve_instance(kernel, span=tracer.span))
        seconds.append(time.perf_counter() - start)
    return records, seconds
