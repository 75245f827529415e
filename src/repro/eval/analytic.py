"""The analytic cost model: Section 2 locality classes, priced.

This is the evaluator implicit in the optimizer all along: classify
every reference (under the innermost direction its nest executes with)
as temporal / spatial / no-locality and charge the estimated number of
cache misses.  A no-locality reference misses roughly once per
iteration; a spatial one once per line's worth of elements; a temporal
one never.  No machine state is simulated, so it is by far the
cheapest model -- and the one the ``simulated`` model exists to keep
honest.
"""

from __future__ import annotations

from typing import Mapping

from repro.eval.cost import Cost, register_cost_model
from repro.ir.facts import identity_direction, program_facts
from repro.ir.program import Program
from repro.layout.layout import Layout
from repro.layout.locality import has_spatial_locality, has_temporal_locality
from repro.transform.unimodular_loop import LoopTransform


@register_cost_model("analytic")
class AnalyticCostModel:
    """Estimated data-cache misses from locality classification.

    Args:
        line_size: cache line size in bytes used to price spatial
            locality (one miss per line of consecutive elements).
    """

    name = "analytic"

    def __init__(self, line_size: int = 32):
        if line_size <= 0:
            raise ValueError("line_size must be positive")
        self._line_size = line_size

    def score(
        self,
        program: Program,
        layouts: Mapping[str, Layout],
        transforms: Mapping[str, LoopTransform] | None = None,
    ) -> Cost:
        transforms = transforms or {}
        facts = program_facts(program)
        total = 0.0
        classes = {"temporal": 0, "spatial": 0, "none": 0}
        for nest in program.nests:
            transform = transforms.get(nest.name)
            if transform is not None:
                direction = transform.innermost_direction()
            else:
                direction = identity_direction(nest.depth)
            iterations = nest.weight * nest.trip_count
            for reference, delta in zip(nest.body, facts.deltas(nest, direction)):
                layout = layouts.get(reference.array)
                if has_temporal_locality(delta):
                    classes["temporal"] += 1
                    continue
                if layout is not None and has_spatial_locality(layout, delta):
                    classes["spatial"] += 1
                    element_size = facts.decls[reference.array].element_size
                    total += iterations * element_size / self._line_size
                else:
                    classes["none"] += 1
                    total += iterations
        return Cost(
            model=self.name,
            value=total,
            unit="est-misses",
            details={"reference_classes": classes},
        )
