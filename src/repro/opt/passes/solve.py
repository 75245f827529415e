"""Solving passes: scheme/portfolio dispatch and solution repair.

The scheme registry and the inflation-repair fixpoint live here; the
:mod:`repro.opt.optimizer` façade re-exports both so the service layer
and existing callers keep importing them from their historical home.
"""

from __future__ import annotations

from repro.csp.backjumping import ConflictDirectedSolver
from repro.csp.backtracking import BacktrackingSolver
from repro.csp.enhanced import EnhancedSolver
from repro.csp.forward_checking import ForwardCheckingSolver
from repro.csp.minconflicts import MinConflictsSolver
from repro.csp.splitsearch import SplitSearchSolver
from repro.csp.weighted import BranchAndBoundSolver
from repro.ir.facts import program_facts
from repro.ir.program import Program
from repro.layout.layout import Layout, row_major
# access_delta stays a public name of this module for existing importers.
from repro.layout.locality import access_delta, has_spatial_locality  # noqa: F401
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.opt.network_builder import build_layout_network
from repro.opt.passes.base import PipelineContext

#: Scheme name -> solver factory (seed -> solver).  "weighted" is the
#: branch & bound over the nest-cost weighted network: always returns
#: an assignment, exact exactly when the hard network is satisfiable.
_SCHEMES = {
    "base": lambda seed: BacktrackingSolver(seed=seed),
    "enhanced": lambda seed: EnhancedSolver(seed=seed),
    "cbj": lambda seed: ConflictDirectedSolver(seed=seed),
    "forward-checking": lambda seed: ForwardCheckingSolver(seed=seed),
    "min-conflicts": lambda seed: MinConflictsSolver(seed=seed),
    "split": lambda seed: SplitSearchSolver(seed=seed),
    "weighted": lambda seed: BranchAndBoundSolver(),
}


class SolvePass:
    """Solve the constraint network (or race the portfolio).

    Direct schemes solve the compiled kernel with the optimizer's
    configured solver, falling back to weighted branch & bound when the
    hard network is unsatisfiable.  Portfolio configurations delegate
    to the service layer's racing :class:`~repro.service.PortfolioSolver`
    (built once, cached on the optimizer so resident processes reuse
    it), which reports finished layouts directly -- the pass then skips
    the assignment fields and fills ``layouts``/``scheme`` itself.
    """

    name = "solve"
    requires: tuple[str, ...] = ()
    provides: tuple[str, ...] = ("assignment", "stats", "exact", "scheme")

    def __init__(self, optimizer):
        self._optimizer = optimizer

    def run(self, ctx: PipelineContext) -> None:
        if self._optimizer.portfolio_config is not None:
            self._run_portfolio(ctx)
            return
        if ctx.kernel is None:
            raise ValueError(
                "solve pass needs a compiled kernel; run the build pass first"
            )
        solver = self._optimizer.solver
        scheme_name = self._optimizer.scheme_name
        with obs_trace.span("solve", scheme=scheme_name):
            if isinstance(solver, BranchAndBoundSolver):
                # First-class weighted scheme: solve the weighted network
                # directly -- exact iff the hard network is satisfiable.
                weighted_result = solver.solve_compiled(
                    ctx.kernel, ctx.network.weights
                )
                assignment = dict(weighted_result.assignment)
                stats = weighted_result.stats
                exact = weighted_result.fully_satisfied
            else:
                result = solver.solve(ctx.kernel)
                exact = result.assignment is not None
                if exact:
                    assignment = dict(result.assignment)
                    stats = result.stats
                else:
                    weighted_result = BranchAndBoundSolver().solve_compiled(
                        ctx.kernel, ctx.network.weights
                    )
                    assignment = dict(weighted_result.assignment)
                    stats = weighted_result.stats
                    exact = weighted_result.fully_satisfied
        obs_metrics.counter(
            "repro_optimizer_solves_total",
            labels={"scheme": scheme_name, "exact": str(exact).lower()},
            help="Direct (non-portfolio) optimizer solves by scheme.",
        )
        ctx.scheme = scheme_name
        ctx.assignment = assignment
        ctx.stats = stats
        ctx.exact = exact

    def _run_portfolio(self, ctx: PipelineContext) -> None:
        optimizer = self._optimizer
        result = optimizer.portfolio_solver().optimize(ctx.program)
        network = result.network
        if network is None:  # served from a cache: rebuild provenance
            network = build_layout_network(ctx.program, optimizer.options)
        ctx.network = network
        ctx.scheme = f"portfolio:{result.winner}"
        ctx.layouts = dict(result.layouts)
        ctx.stats = result.winner_stats()
        ctx.exact = result.exact


class RepairInflationPass:
    """Repair the solved assignment, then finalize per-array layouts.

    Exact assignments are greedily swapped toward lower bounding-box
    inflation (see :func:`repair_inflation`); then every declared array
    gets its layout from the assignment, defaulting to row-major for
    arrays the network never constrained.  The portfolio path arrives
    with finished layouts and no raw assignment (repair already ran
    inside the portfolio), so the pass is a no-op there.
    """

    name = "repair"
    requires: tuple[str, ...] = ()
    provides: tuple[str, ...] = ("layouts",)

    def __init__(self, optimizer=None):
        self._optimizer = optimizer

    def run(self, ctx: PipelineContext) -> None:
        if ctx.assignment is None:
            return
        if ctx.exact:
            repair_inflation(ctx.network.network, ctx.assignment, ctx.program)
        layouts: dict[str, Layout] = {}
        for decl in ctx.program.arrays:
            chosen = ctx.assignment.get(decl.name)
            layouts[decl.name] = (
                chosen if chosen is not None else row_major(decl.rank)
            )
        ctx.layouts = layouts


def repair_inflation(network, assignment: dict, program: Program) -> None:
    """Swap each array to the best equivalent value among solutions.

    Constraint networks routinely admit several solutions (the paper
    observes base and enhanced finding different ones), and the solver
    has no reason to prefer the execution-friendly one.  This pass
    greedily replaces each array's layout with a domain value that is
    better on the lexicographic objective

    1. lower bounding-box inflation (footnote 2's data-space growth),
    2. more references with locality under the original loop order,

    whenever the swap keeps the assignment a solution -- it never
    leaves the solution set, so exactness is preserved.  The locality
    terms come from the program's facts index, so each reference's
    delta is computed once, not once per candidate layout.
    """
    from repro.layout.mapping import LayoutMapping

    facts = program_facts(program)
    objective_cache: dict[tuple[str, Layout], tuple[float, int]] = {}

    def objective(array: str, layout: Layout) -> tuple[float, int]:
        cached = objective_cache.get((array, layout))
        if cached is not None:
            return cached
        inflation = LayoutMapping.create(facts.decls[array], layout).inflation
        locality = sum(
            weight
            for weight, delta, temporal in facts.locality_rows(array)
            if temporal or has_spatial_locality(layout, delta)
        )
        score = (inflation, -locality)
        objective_cache[(array, layout)] = score
        return score

    # Iterate to a fixpoint: improving one array can unlock a better
    # swap for a neighbor (bounded: each pass strictly improves the
    # global objective or stops).
    for _ in range(len(network.variables)):
        changed = False
        for array in network.variables:
            current = assignment[array]
            best = current
            best_key = objective(array, current)
            for candidate in network.domain(array):
                if candidate == current:
                    continue
                key = objective(array, candidate)
                if key >= best_key:
                    continue
                consistent = all(
                    network.check_pair(
                        array, candidate, neighbor, assignment[neighbor]
                    )
                    for neighbor in network.neighbors(array)
                )
                if consistent:
                    best = candidate
                    best_key = key
            if best != current:
                assignment[array] = best
                changed = True
        if not changed:
            break
