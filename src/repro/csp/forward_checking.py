"""Forward checking solver (extension beyond the paper).

Forward checking prunes the domains of uninstantiated neighbors after
every assignment, detecting dead ends one level earlier than plain
backtracking.  It is included as one of the "further enhancements ...
to expedite the search" the paper's conclusion points to, and is used
by the ablation benchmarks.

Runs on the compiled kernel: live domains are bitmasks, so pruning a
neighbor against an assignment is a single AND with the support mask
(the checks counter still reports the per-value cost for comparability)
and restoring on backtrack rewrites one int per touched neighbor.  The
native engine (``engine="native"``; see :mod:`repro.csp.vectorized`)
runs the whole search as one C call with the identical search tree,
pruning order and effort counters.
"""

from __future__ import annotations

import time

from repro.csp.compiled import CompiledNetwork, as_compiled
from repro.csp.network import ConstraintNetwork
from repro.csp.stats import SolverResult, SolverStats, Stopwatch
from repro.csp.vectorized import ENGINE_AUTO, ENGINE_NATIVE, resolve_engine


class _SearchCutoff(Exception):
    """Raised inside ``_search`` when a node budget or deadline expires."""


class ForwardCheckingSolver:
    """Backtracking with forward checking and MRV variable ordering.

    Complete: a ``None`` result with ``complete=True`` proves
    unsatisfiability.  A ``max_nodes`` budget or a deadline (see
    :meth:`set_deadline`) cuts the search short with ``complete=False``
    instead -- the split-search seam uses the budget for its ``auto``
    serial attempt, and subtree workers use the deadline.
    """

    name = "forward-checking"

    def __init__(
        self,
        seed: int = 0,
        engine: str = ENGINE_AUTO,
        max_nodes: int | None = None,
    ):
        # The seed is accepted for interface symmetry; the solver is
        # fully deterministic (MRV with lexicographic tie-break).
        self._seed = seed
        self._engine = engine
        self._max_nodes = max_nodes
        self._deadline_seconds: float | None = None
        self._deadline_at: float | None = None

    def set_deadline(self, seconds: float) -> None:
        """Bound the next solve's wall clock (checked every 256 nodes)."""
        self._deadline_seconds = max(0.0, seconds)

    def solve(self, network: ConstraintNetwork | CompiledNetwork) -> SolverResult:
        """Find one solution (or prove there is none)."""
        kernel = as_compiled(network)
        return self.solve_from(
            kernel,
            [None] * kernel.variable_count,
            list(kernel.full_masks),
            0,
        )

    def solve_from(
        self,
        network: ConstraintNetwork | CompiledNetwork,
        values: list[int | None],
        domains: list[int],
        assigned: int,
        deadline_at: float | None = None,
    ) -> SolverResult:
        """Resume the search from a snapshot (values + domain masks).

        The split-search subtree workers enter here: forward-checking
        state depends only on the decision prefix, so searching from a
        frontier snapshot is byte-identical to the serial search's walk
        of that subtree.  ``deadline_at`` is an absolute
        ``time.monotonic()`` timestamp overriding :meth:`set_deadline`.
        """
        kernel = as_compiled(network)
        resolved = resolve_engine(self._engine, kernel)
        if deadline_at is not None:
            self._deadline_at = deadline_at
        elif self._deadline_seconds is not None:
            self._deadline_at = time.monotonic() + self._deadline_seconds
        else:
            self._deadline_at = None
        if resolved == ENGINE_NATIVE:
            return self._solve_native(kernel, values, domains, assigned)
        stats = SolverStats()
        complete = True
        with Stopwatch(stats):
            try:
                solution = self._search(kernel, values, assigned, domains, stats)
            except _SearchCutoff:
                solution = None
                complete = False
        return SolverResult(solution, stats, complete=complete)

    def _solve_native(
        self,
        kernel: CompiledNetwork,
        values: list[int | None],
        domains: list[int],
        assigned: int,
    ) -> SolverResult:
        """The whole search -- MRV, pruning, undo -- as one C call.

        Byte-identical to the Python search: same tree walk, same
        effort counters, same cutoff semantics (a budget or deadline
        expiry reports ``complete=False`` with no assignment).
        """
        from repro.csp.native import ops as native_ops

        stats = SolverStats()
        with Stopwatch(stats):
            status, solution, nodes, backtracks, checks = native_ops.fc_search(
                kernel,
                values,
                domains,
                assigned,
                self._max_nodes,
                self._deadline_at,
            )
        stats.nodes = nodes
        stats.backtracks = backtracks
        stats.consistency_checks = checks
        assignment = (
            kernel.to_named(solution) if status == native_ops.SEARCH_FOUND else None
        )
        return SolverResult(
            assignment, stats, complete=status != native_ops.SEARCH_CUTOFF
        )

    def _search(
        self,
        kernel: CompiledNetwork,
        values: list[int | None],
        assigned: int,
        domains: list[int],
        stats: SolverStats,
    ) -> dict | None:
        if assigned == kernel.variable_count:
            return kernel.to_named(values)
        variable = self._select_mrv(kernel, values, domains)
        remaining = domains[variable]
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            value = low.bit_length() - 1
            stats.nodes += 1
            if self._max_nodes is not None and stats.nodes > self._max_nodes:
                raise _SearchCutoff()
            if (
                self._deadline_at is not None
                and (stats.nodes & 255) == 0
                and time.monotonic() >= self._deadline_at
            ):
                raise _SearchCutoff()
            pruned = self._forward_prune(
                kernel, variable, value, values, domains, stats
            )
            if pruned is not None:
                values[variable] = value
                solution = self._search(kernel, values, assigned + 1, domains, stats)
                if solution is not None:
                    return solution
                values[variable] = None
                self._restore(domains, pruned)
            # A None pruning result means some neighbor was wiped out;
            # the next value is tried immediately.
        stats.backtracks += 1
        return None

    def _select_mrv(
        self,
        kernel: CompiledNetwork,
        values: list[int | None],
        domains: list[int],
    ) -> int:
        neighbors = kernel.neighbors
        rank = kernel.name_rank
        return min(
            (i for i in range(kernel.variable_count) if values[i] is None),
            key=lambda i: (domains[i].bit_count(), -len(neighbors[i]), rank[i]),
        )

    def _forward_prune(
        self,
        kernel: CompiledNetwork,
        variable: int,
        value: int,
        values: list[int | None],
        domains: list[int],
        stats: SolverStats,
    ) -> list[tuple[int, int]] | None:
        """Prune neighbor domains; None (and full rollback) on wipe-out.

        The returned undo log holds ``(neighbor, previous_mask)`` pairs.
        """
        pruned: list[tuple[int, int]] = []
        supports = kernel.supports
        for neighbor in kernel.neighbors[variable]:
            support = supports[(variable, neighbor)][value]
            neighbor_value = values[neighbor]
            if neighbor_value is not None:
                # Already-checked consistency (its domain was pruned to
                # compatible values when it was assigned).
                stats.consistency_checks += 1
                if not (support >> neighbor_value) & 1:
                    self._restore(domains, pruned)
                    return None
                continue
            before = domains[neighbor]
            stats.consistency_checks += before.bit_count()
            after = before & support
            if after != before:
                domains[neighbor] = after
                pruned.append((neighbor, before))
                if not after:
                    self._restore(domains, pruned)
                    return None
        return pruned

    @staticmethod
    def _restore(domains: list[int], pruned: list[tuple[int, int]]) -> None:
        for neighbor, before in reversed(pruned):
            domains[neighbor] = before
