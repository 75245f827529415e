"""Weighted constraint networks and branch & bound (future work #1).

The paper's conclusion: "we would like to give weights to constraints.
This will help us distinguish between different solutions to a given
network."  Here each constraint carries a positive weight (for layout
networks: the estimated cost of the nest that generated it), and the
solver maximizes the total weight of *satisfied* constraints.  When the
hard network is satisfiable the optimum satisfies everything, and the
weights break ties between multiple solutions; when it is not, the
result is the best partial-locality compromise (a Max-CSP solution).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping

from repro.csp.compiled import CompiledNetwork, as_compiled
from repro.csp.network import ConstraintNetwork
from repro.csp.stats import SolverStats, Stopwatch
from repro.csp.vectorized import ENGINE_AUTO, ENGINES

Value = Hashable


class WeightedNetwork:
    """A constraint network plus a positive weight per constraint."""

    def __init__(
        self,
        network: ConstraintNetwork,
        weights: Mapping[frozenset[str], float] | None = None,
        default_weight: float = 1.0,
    ):
        if default_weight <= 0:
            raise ValueError("default_weight must be positive")
        self._network = network
        self._weights: dict[frozenset[str], float] = {}
        for constraint in network.constraints:
            key = frozenset((constraint.first, constraint.second))
            weight = default_weight
            if weights is not None and key in weights:
                weight = weights[key]
            if weight <= 0:
                raise ValueError(f"constraint {sorted(key)} has non-positive weight")
            self._weights[key] = weight

    @property
    def network(self) -> ConstraintNetwork:
        """The underlying hard network."""
        return self._network

    def weight_between(self, first: str, second: str) -> float:
        """Weight of a constraint (0.0 when unconstrained)."""
        return self._weights.get(frozenset((first, second)), 0.0)

    @property
    def total_weight(self) -> float:
        """Sum of all constraint weights (the satisfiable optimum)."""
        return sum(self._weights.values())

    def satisfied_weight(self, assignment: Mapping[str, Value]) -> float:
        """Total weight of constraints satisfied by a total assignment."""
        total = 0.0
        for constraint in self._network.constraints:
            if constraint.allows(
                constraint.first,
                assignment[constraint.first],
                assignment[constraint.second],
            ):
                total += self.weight_between(constraint.first, constraint.second)
        return total


@dataclass(frozen=True)
class WeightedResult:
    """Outcome of a branch & bound run.

    Attributes:
        assignment: the best total assignment found.
        satisfied_weight: its satisfied constraint weight.
        optimal_weight: the network's total weight (equal to
            ``satisfied_weight`` iff the hard network is satisfiable).
        stats: search effort counters.
    """

    assignment: dict[str, Value]
    satisfied_weight: float
    optimal_weight: float
    stats: SolverStats

    @property
    def fully_satisfied(self) -> bool:
        """True iff every constraint is satisfied."""
        return abs(self.satisfied_weight - self.optimal_weight) < 1e-9


class BranchAndBoundSolver:
    """Exact Max-CSP solver: maximizes satisfied constraint weight.

    Branches over variables in static max-degree order; prunes a branch
    when the weight already lost (violated constraints among assigned
    variables) cannot be recovered.  The inner loop runs on the
    compiled kernel: a violation test is one shift-and-mask, weights
    are looked up per index pair.  Pricing has no C lowering, so every
    engine runs this loop; ``engine`` is accepted for interface
    symmetry with the other solvers.

    Raises:
        ValueError: for an unknown engine spec.
    """

    name = "branch-and-bound"

    def __init__(self, engine: str = ENGINE_AUTO):
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; pick one of {ENGINES}")

    def solve(self, weighted: WeightedNetwork) -> WeightedResult:
        """Find the assignment maximizing satisfied weight (exact)."""
        kernel = as_compiled(weighted.network)
        weight_of = {
            pair: weighted.weight_between(kernel.names[pair[0]], kernel.names[pair[1]])
            for pair in kernel.pairs
        }
        return self._solve(kernel, weight_of)

    def solve_compiled(
        self,
        kernel: CompiledNetwork,
        weights: Mapping[frozenset[str], float] | None = None,
        default_weight: float = 1.0,
    ) -> WeightedResult:
        """Solve directly on a compiled kernel plus a name-keyed weight map.

        This is the path the service layer uses: the race ships one
        compiled kernel to every worker, so no worker rebuilds a
        :class:`WeightedNetwork` (or recompiles) just to attach weights.

        Raises:
            ValueError: for non-positive weights.
        """
        if default_weight <= 0:
            raise ValueError("default_weight must be positive")
        weight_of: dict[tuple[int, int], float] = {}
        for first, second in kernel.pairs:
            key = frozenset((kernel.names[first], kernel.names[second]))
            weight = default_weight
            if weights is not None and key in weights:
                weight = weights[key]
            if weight <= 0:
                raise ValueError(f"constraint {sorted(key)} has non-positive weight")
            weight_of[(first, second)] = float(weight)
        return self._solve(kernel, weight_of)

    def _solve(
        self, kernel: CompiledNetwork, weight_of: dict[tuple[int, int], float]
    ) -> WeightedResult:
        # Index the weights under both orientations so the inner loop
        # never normalizes a pair.
        for (first, second), weight in list(weight_of.items()):
            weight_of[(second, first)] = weight
        stats = SolverStats()
        with Stopwatch(stats):
            order = sorted(
                range(kernel.variable_count),
                key=lambda v: (-len(kernel.neighbors[v]), kernel.name_rank[v]),
            )
            values: list[int | None] = [None] * kernel.variable_count
            best: dict[str, Value] = {}
            best_lost = float("inf")
            supports = kernel.supports
            neighbors = kernel.neighbors

            def search(index: int, lost: float) -> None:
                nonlocal best, best_lost
                if lost >= best_lost:
                    return
                if index == len(order):
                    best = kernel.to_named(values)
                    best_lost = lost
                    return
                variable = order[index]
                for value in range(kernel.domain_size(variable)):
                    stats.nodes += 1
                    additional = 0.0
                    for neighbor in neighbors[variable]:
                        neighbor_value = values[neighbor]
                        if neighbor_value is None:
                            continue
                        stats.consistency_checks += 1
                        if not (
                            supports[(variable, neighbor)][value] >> neighbor_value
                        ) & 1:
                            additional += weight_of[(variable, neighbor)]
                    values[variable] = value
                    search(index + 1, lost + additional)
                    values[variable] = None

            search(0, 0.0)
        total = sum(weight for pair, weight in weight_of.items() if pair[0] < pair[1])
        return WeightedResult(best, total - best_lost, total, stats)
