"""Dynamic memory layouts (the paper's second future-work direction).

"We would like to expand our constraint network formulation to
accommodate dynamic memory layouts, i.e., the layouts that can change
during execution based on the requirements of the different segments of
the program."

Given a per-array sequence of nests, the planner chooses a layout *per
nest* minimizing total analytic cost: per-nest access cost (references
that miss spatial locality under the layout are charged full-line
misses) plus a redistribution cost whenever the layout changes between
consecutive nests (one read + one write of every element).  Because the
cost decomposes per array, each array is an independent shortest-path
problem over (nest stage, layout) states, solved exactly by dynamic
programming.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.ir.facts import identity_direction, program_facts
from repro.ir.loops import LoopNest
from repro.ir.program import Program
from repro.layout.candidates import candidate_layouts_for_array
from repro.layout.layout import Layout
from repro.layout.locality import has_spatial_locality, has_temporal_locality

#: Relative cost of an access with / without spatial locality.  The
#: ratio approximates a line-reuse hit (1 miss per line of 8 elements)
#: versus a per-access miss.
_LOCAL_ACCESS_COST = 0.125
_NONLOCAL_ACCESS_COST = 1.0

#: Per-element cost of redistributing an array between two layouts
#: (one read plus one write per element).
_REDISTRIBUTION_COST_PER_ELEMENT = 2.0


@dataclass(frozen=True)
class DynamicPlan:
    """The chosen layout schedule for one array.

    Attributes:
        array: the array name.
        schedule: (nest name, layout) in program order; only nests
            referencing the array appear.
        total_cost: analytic cost of the schedule.
        static_cost: cost of the best *single* layout (for comparison).
        changes: number of redistributions the schedule performs.
        redistribution_cost: total cost the schedule pays for its
            redistributions (``changes`` x per-change cost; part of
            ``total_cost``).
    """

    array: str
    schedule: tuple[tuple[str, Layout], ...]
    total_cost: float
    static_cost: float
    changes: int
    redistribution_cost: float = 0.0

    @property
    def improvement(self) -> float:
        """Fractional cost reduction versus the best static layout."""
        if self.static_cost == 0:
            return 0.0
        return 1.0 - self.total_cost / self.static_cost


class DynamicLayoutPlanner:
    """Exact per-array dynamic-layout scheduling by DP."""

    def __init__(
        self,
        redistribution_cost_per_element: float = _REDISTRIBUTION_COST_PER_ELEMENT,
    ):
        if redistribution_cost_per_element < 0:
            raise ValueError("redistribution cost cannot be negative")
        self._redistribution = redistribution_cost_per_element

    def access_cost(
        self, program: Program, nest: LoopNest, array: str, layout: Layout
    ) -> float:
        """Analytic cost of one nest's accesses to one array under a layout."""
        deltas = program_facts(program).deltas(nest, identity_direction(nest.depth))
        total = 0.0
        for reference, delta in zip(nest.body, deltas):
            if reference.array != array:
                continue
            if has_temporal_locality(delta) or has_spatial_locality(layout, delta):
                per_access = _LOCAL_ACCESS_COST
            else:
                per_access = _NONLOCAL_ACCESS_COST
            total += per_access * nest.trip_count * nest.weight
        return total

    def plan(self, program: Program, array: str) -> DynamicPlan:
        """Optimal layout schedule of one array over the program.

        Raises:
            ValueError: if no nest references the array.
        """
        facts = program_facts(program)
        nests = facts.nests_referencing(array)
        if not nests:
            raise ValueError(f"array {array} is referenced by no nest")
        candidates = candidate_layouts_for_array(program, array)
        decl = facts.decls[array]
        change_cost = self._redistribution * decl.element_count

        # stage_costs[s][l]: access cost of nest s under candidate l.
        stage_costs = [
            [self.access_cost(program, nest, array, layout) for layout in candidates]
            for nest in nests
        ]

        # DP over (stage, layout).
        infinity = float("inf")
        best = list(stage_costs[0])
        parents: list[list[int | None]] = [[None] * len(candidates)]
        for stage in range(1, len(nests)):
            new_best = [infinity] * len(candidates)
            parent_row: list[int | None] = [None] * len(candidates)
            for current in range(len(candidates)):
                for previous in range(len(candidates)):
                    transition = 0.0 if previous == current else change_cost
                    cost = best[previous] + transition + stage_costs[stage][current]
                    if cost < new_best[current]:
                        new_best[current] = cost
                        parent_row[current] = previous
            best = new_best
            parents.append(parent_row)

        final = min(range(len(candidates)), key=lambda l: best[l])
        total_cost = best[final]
        # Reconstruct the schedule.
        indices = [final]
        for stage in range(len(nests) - 1, 0, -1):
            previous = parents[stage][indices[-1]]
            assert previous is not None
            indices.append(previous)
        indices.reverse()
        schedule = tuple(
            (nest.name, candidates[index]) for nest, index in zip(nests, indices)
        )
        changes = sum(
            1 for a, b in zip(indices, indices[1:]) if a != b
        )

        static_cost = min(
            sum(stage_costs[stage][layout_index] for stage in range(len(nests)))
            for layout_index in range(len(candidates))
        )
        return DynamicPlan(
            array,
            schedule,
            total_cost,
            static_cost,
            changes,
            redistribution_cost=changes * change_cost,
        )

    def plan_all(self, program: Program) -> dict[str, DynamicPlan]:
        """Schedules for every referenced array."""
        return {
            array: self.plan(program, array)
            for array in program.referenced_arrays()
        }
