"""Transform-selection pass: per-nest restructurings for final layouts.

:func:`select_transforms` (re-exported by :mod:`repro.opt.optimizer`
for its historical callers) is the sequential half of the paper's
combined data/loop story: layouts are already frozen, and each nest
independently picks the legal restructuring best matched to them.  The
:class:`~repro.opt.passes.joint.JointSearchPass` is the non-sequential
alternative that searches both together.
"""

from __future__ import annotations

from typing import Mapping

from repro.ir.facts import program_facts
from repro.ir.program import Program
from repro.layout.layout import Layout
from repro.layout.locality import has_spatial_locality, has_temporal_locality
from repro.obs import trace as obs_trace
from repro.opt.passes.base import PipelineContext
from repro.transform.catalog import legal_transforms
from repro.transform.unimodular_loop import LoopTransform


class TransformSelectionPass:
    """Fill per-nest transforms matched to the context's layouts.

    Respects an earlier pass's choice: when ``ctx.transforms`` is
    already set (the joint-search pass chose layouts and transforms
    together, or refinement stored its winning candidate's), the pass
    keeps it instead of re-deriving sequentially.
    """

    name = "transform"
    requires: tuple[str, ...] = ("layouts",)
    provides: tuple[str, ...] = ("transforms",)

    def __init__(self, optimizer=None):
        self._optimizer = optimizer

    def run(self, ctx: PipelineContext) -> None:
        if ctx.transforms is not None:
            return
        ctx.transforms = select_transforms(
            ctx.program,
            ctx.layouts,
            ctx.options.include_reversals,
            ctx.options.skew_factors,
        )


def select_transforms(
    program: Program,
    layouts: Mapping[str, Layout],
    include_reversals: bool = False,
    skew_factors: tuple[int, ...] = (),
) -> dict[str, LoopTransform]:
    """Per nest, the legal restructuring best matched to final layouts.

    The score of a transform weighs references by the memory cost their
    locality class avoids: a reference with *no* locality pays roughly
    a full cache-miss per iteration, so it is worth far more to fix one
    such reference than to upgrade spatial locality (one miss per line,
    ~1/8 of the accesses) to temporal (same element every iteration).
    Ties prefer the identity (no restructuring without benefit).
    """
    with obs_trace.span("transform_selection"):
        return _select_transforms(program, layouts, include_reversals, skew_factors)


def _select_transforms(
    program: Program,
    layouts: Mapping[str, Layout],
    include_reversals: bool,
    skew_factors: tuple[int, ...],
) -> dict[str, LoopTransform]:
    facts = program_facts(program)
    chosen: dict[str, LoopTransform] = {}
    for nest in program.nests:
        best: LoopTransform | None = None
        best_score = -1
        for transform in legal_transforms(
            nest, include_reversals, skew_factors
        ):
            deltas = facts.deltas(nest, transform.innermost_direction())
            score = 0
            for reference, delta in zip(nest.body, deltas):
                layout = layouts.get(reference.array)
                if layout is None:
                    continue
                if has_temporal_locality(delta):
                    score += 7
                elif has_spatial_locality(layout, delta):
                    score += 6
            better = score > best_score or (
                score == best_score
                and best is not None
                and transform.is_identity
                and not best.is_identity
            )
            if better:
                best = transform
                best_score = score
        assert best is not None  # identity is always legal
        chosen[nest.name] = best
    return chosen
